//===- frontend/AstArena.h - Bump allocation for the MiniOO AST --*- C++ -*-===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory behind a parsed Program: every `Expr` and `Stmt` node, every
/// child list (call arguments, block statements) and every identifier the
/// nodes name. Allocation bumps a pointer through chunks that double from
/// 4 KiB up to 64 KiB; nothing is freed until the arena goes, and then
/// whole chunks go at once. The nodes are trivially destructible (the
/// arena never runs a destructor), so destroying a Program does not walk
/// its tree.
///
/// Identifiers are interned: equal names share one copy, so a view's
/// address identifies the name. Views stay valid for the arena's life.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_FRONTEND_ASTARENA_H
#define INCLINE_FRONTEND_ASTARENA_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace incline::frontend {

class AstArena {
public:
  AstArena() = default;
  AstArena(const AstArena &) = delete;
  AstArena &operator=(const AstArena &) = delete;
  ~AstArena();

  /// Constructs a \p T in the arena. The arena never destroys it.
  template <typename T, typename... Args> T *make(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena frees memory without running destructors");
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(A)...);
  }

  /// Copies \p Items into the arena (an empty list takes no memory).
  template <typename T>
  std::span<T *const> copyList(std::span<T *const> Items) {
    if (Items.empty())
      return {};
    auto *Copy = static_cast<T **>(
        allocate(sizeof(T *) * Items.size(), alignof(T *)));
    std::copy(Items.begin(), Items.end(), Copy);
    return {Copy, Items.size()};
  }

  /// The arena's one copy of \p Text.
  std::string_view intern(std::string_view Text);

  /// Chunks held, and distinct identifiers interned (for tests).
  size_t numChunks() const { return Chunks.size(); }
  size_t numInterned() const { return NumInterned; }

private:
  void *allocate(size_t Size, size_t Align) {
    auto Addr = reinterpret_cast<uintptr_t>(Cur);
    uintptr_t Aligned = (Addr + Align - 1) & ~(uintptr_t(Align) - 1);
    if (Cur && Aligned + Size <= reinterpret_cast<uintptr_t>(End)) {
      Cur = reinterpret_cast<char *>(Aligned + Size);
      return reinterpret_cast<void *>(Aligned);
    }
    return allocateInNewChunk(Size, Align);
  }
  void *allocateInNewChunk(size_t Size, size_t Align);
  void growInternTable();

  std::vector<char *> Chunks;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextChunkSize = 4096;

  /// Open-addressed set of interned names (power-of-two size, linear
  /// probing); an empty view marks a free slot.
  std::vector<std::string_view> Interned;
  size_t NumInterned = 0;
};

} // namespace incline::frontend

#endif // INCLINE_FRONTEND_ASTARENA_H
