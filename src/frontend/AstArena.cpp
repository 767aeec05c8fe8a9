//===- frontend/AstArena.cpp ---------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/AstArena.h"

#include "support/Hash.h"

#include <cassert>
#include <cstring>

using namespace incline;
using namespace incline::frontend;

namespace {
constexpr size_t MaxChunkSize = 64 * 1024;
} // namespace

AstArena::~AstArena() {
  for (char *Chunk : Chunks)
    ::operator delete(Chunk);
}

void *AstArena::allocateInNewChunk(size_t Size, size_t Align) {
  // A request larger than a regular chunk gets a chunk of its own, and the
  // current chunk keeps serving small requests.
  size_t Needed = Size + Align - 1;
  if (Needed > NextChunkSize) {
    char *Own = static_cast<char *>(::operator new(Needed));
    Chunks.push_back(Own);
    auto Addr = reinterpret_cast<uintptr_t>(Own);
    return reinterpret_cast<void *>((Addr + Align - 1) &
                                    ~(uintptr_t(Align) - 1));
  }
  Cur = static_cast<char *>(::operator new(NextChunkSize));
  End = Cur + NextChunkSize;
  Chunks.push_back(Cur);
  NextChunkSize = std::min(NextChunkSize * 2, MaxChunkSize);
  return allocate(Size, Align);
}

std::string_view AstArena::intern(std::string_view Text) {
  if (Text.empty())
    return {};
  if ((NumInterned + 1) * 2 > Interned.size())
    growInternTable();
  size_t Mask = Interned.size() - 1;
  for (size_t Slot = fnv1a(Text, FnvOffsetBasis) & Mask;;
       Slot = (Slot + 1) & Mask) {
    std::string_view &Entry = Interned[Slot];
    if (Entry.empty()) {
      auto *Copy = static_cast<char *>(allocate(Text.size(), 1));
      std::memcpy(Copy, Text.data(), Text.size());
      Entry = {Copy, Text.size()};
      ++NumInterned;
      return Entry;
    }
    if (Entry == Text)
      return Entry;
  }
}

void AstArena::growInternTable() {
  std::vector<std::string_view> Old(std::max<size_t>(256, Interned.size() * 2));
  Old.swap(Interned);
  size_t Mask = Interned.size() - 1;
  for (std::string_view Name : Old) {
    if (Name.empty())
      continue;
    size_t Slot = fnv1a(Name, FnvOffsetBasis) & Mask;
    while (!Interned[Slot].empty())
      Slot = (Slot + 1) & Mask;
    Interned[Slot] = Name;
  }
}
