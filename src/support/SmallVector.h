//===- support/SmallVector.h - Vector with inline capacity -------*- C++ -*-===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `SmallVector<T, N>` keeps its first N elements inside the object and
/// moves to the heap only when it grows past them. The IR's edge lists
/// (operands, users, predecessors, phi incoming blocks) are short: nearly
/// every instruction has at most three operands and at most two users, and
/// every block at most two predecessors. Held in a `std::vector`, each such
/// list costs one or more heap allocations as it grows; held here it
/// costs none.
///
/// Element order follows `std::vector` exactly: `push_back` appends,
/// `erase` shifts the tail down by one, `pop_back` drops the last element.
/// A caller that swap-pops (`*It = back(); pop_back();`) therefore sees the
/// same order it would with a `std::vector`, whatever the inline capacity;
/// printed IR depends on that order.
///
/// Elements must be trivially copyable and destructible (the IR stores
/// pointers), so growth and copies are plain memory copies.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_SUPPORT_SMALLVECTOR_H
#define INCLINE_SUPPORT_SMALLVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <type_traits>

namespace incline {

template <typename T, unsigned N> class SmallVector {
  static_assert(N > 0, "a SmallVector needs some inline capacity");
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SmallVector copies its elements as raw memory");

public:
  using value_type = T;
  using size_type = size_t;
  using iterator = T *;
  using const_iterator = const T *;
  using reference = T &;
  using const_reference = const T &;

  SmallVector() = default;
  SmallVector(std::initializer_list<T> Init) {
    append(Init.begin(), Init.end());
  }
  SmallVector(const SmallVector &Other) {
    append(Other.begin(), Other.end());
  }
  SmallVector(SmallVector &&Other) noexcept { take(Other); }
  SmallVector &operator=(const SmallVector &Other) {
    if (this != &Other) {
      Size = 0;
      append(Other.begin(), Other.end());
    }
    return *this;
  }
  SmallVector &operator=(SmallVector &&Other) noexcept {
    if (this != &Other) {
      release();
      take(Other);
    }
    return *this;
  }
  ~SmallVector() { release(); }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  size_t capacity() const { return Capacity; }
  /// True while the elements live inside the object.
  bool isInline() const { return Data == Inline; }

  T *data() { return Data; }
  const T *data() const { return Data; }
  iterator begin() { return Data; }
  iterator end() { return Data + Size; }
  const_iterator begin() const { return Data; }
  const_iterator end() const { return Data + Size; }

  T &operator[](size_t I) {
    assert(I < Size && "SmallVector index out of range");
    return Data[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && "SmallVector index out of range");
    return Data[I];
  }
  T &front() { return (*this)[0]; }
  const T &front() const { return (*this)[0]; }
  T &back() { return (*this)[Size - 1]; }
  const T &back() const { return (*this)[Size - 1]; }

  void push_back(T Value) {
    if (Size == Capacity)
      grow(Size + 1);
    Data[Size++] = Value;
  }
  void pop_back() {
    assert(Size > 0 && "pop_back on an empty SmallVector");
    --Size;
  }
  void clear() { Size = 0; }
  void reserve(size_t MinCapacity) {
    if (MinCapacity > Capacity)
      grow(MinCapacity);
  }
  template <typename It> void append(It First, It Last) {
    reserve(Size + static_cast<size_t>(std::distance(First, Last)));
    for (; First != Last; ++First)
      Data[Size++] = *First;
  }

  /// Removes \p Pos, shifting later elements down (order is kept).
  iterator erase(const_iterator Pos) {
    assert(Pos >= begin() && Pos < end() && "erase position out of range");
    T *At = Data + (Pos - Data);
    std::memmove(static_cast<void *>(At), At + 1,
                 sizeof(T) * static_cast<size_t>(end() - At - 1));
    --Size;
    return At;
  }

private:
  void grow(size_t MinCapacity) {
    size_t NewCapacity = std::max<size_t>(MinCapacity, size_t(Capacity) * 2);
    assert(NewCapacity <= UINT32_MAX && "SmallVector capacity overflow");
    T *NewData = static_cast<T *>(::operator new(sizeof(T) * NewCapacity));
    std::memcpy(static_cast<void *>(NewData), Data, sizeof(T) * Size);
    release();
    Data = NewData;
    Capacity = static_cast<uint32_t>(NewCapacity);
  }
  /// Frees heap storage (if any) and returns to the inline buffer; the
  /// size is left for the caller to reset.
  void release() {
    if (!isInline())
      ::operator delete(Data);
    Data = Inline;
    Capacity = N;
  }
  /// Moves \p Other's elements here; \p Other is left empty and inline.
  void take(SmallVector &Other) {
    if (Other.isInline()) {
      std::memcpy(static_cast<void *>(Inline), Other.Inline,
                  sizeof(T) * Other.Size);
    } else {
      Data = Other.Data;
      Capacity = Other.Capacity;
      Other.Data = Other.Inline;
      Other.Capacity = N;
    }
    Size = Other.Size;
    Other.Size = 0;
  }

  T *Data = Inline;
  uint32_t Size = 0;
  uint32_t Capacity = N;
  T Inline[N];
};

} // namespace incline

#endif // INCLINE_SUPPORT_SMALLVECTOR_H
