//===- jit/CodeCache.cpp ------------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"

#include <algorithm>
#include <cassert>

using namespace incline;
using namespace incline::jit;

const ir::Function *CodeCache::lookupMethod(std::string_view Symbol) {
  auto It = Methods.find(Symbol);
  if (It == Methods.end())
    return nullptr;
  ++It->second.Heat;
  return It->second.Code.get();
}

const ir::Function *CodeCache::lookupOsr(std::string_view Symbol,
                                         unsigned Header) {
  auto It = OsrVariants.find({std::string(Symbol), Header});
  if (It == OsrVariants.end())
    return nullptr;
  ++It->second.Heat;
  return It->second.Code.get();
}

const ir::Function *CodeCache::installedMethod(std::string_view Symbol) const {
  auto It = Methods.find(Symbol);
  return It == Methods.end() ? nullptr : It->second.Code.get();
}

const ir::Function *CodeCache::installedOsr(std::string_view Symbol,
                                            unsigned Header) const {
  auto It = OsrVariants.find({std::string(Symbol), Header});
  return It == OsrVariants.end() ? nullptr : It->second.Code.get();
}

void CodeCache::pin(std::string_view Symbol) { ++Pins[std::string(Symbol)]; }

void CodeCache::unpin(std::string_view Symbol) {
  auto It = Pins.find(Symbol);
  if (It == Pins.end())
    return;
  if (--It->second == 0)
    Pins.erase(It);
}

bool CodeCache::pinned(std::string_view Symbol) const {
  return Pins.find(Symbol) != Pins.end();
}

void CodeCache::bumpLive(uint64_t Bytes) {
  Stats.LiveBytes += Bytes;
  if (Stats.LiveBytes > Stats.PeakLiveBytes)
    Stats.PeakLiveBytes = Stats.LiveBytes;
}

void CodeCache::retireEntry(Entry &E, bool IsMethod) {
  assert(Stats.LiveBytes >= E.Size && "occupancy accounting out of sync");
  Stats.LiveBytes -= E.Size;
  if (IsMethod) {
    assert(MethodBytes >= E.Size);
    MethodBytes -= E.Size;
  }
  Graveyard.push_back(std::move(E.Code));
}

bool CodeCache::makeRoom(uint64_t NeedBytes, std::vector<Key> &Out) {
  if (Stats.Budget == 0 || Stats.LiveBytes + NeedBytes <= Stats.Budget)
    return true; // Unbounded, or it already fits.
  // Transactional: select the victim set first, retire only once the
  // install is known to fit. A rejected install must evict nobody — the
  // runtime keeps the victims' TierState.Compiled bits in sync with what
  // is actually installed, and a partial eviction followed by a rejection
  // would retire code whose tier state never learns it is gone. Linear
  // scan + sort: the cache holds one entry per compiled method/loop, a
  // small population even under server-scale churn.
  struct Candidate {
    uint64_t Heat;
    uint64_t InstallSeq;
    uint64_t Size;
    Key K;
  };
  std::vector<Candidate> Candidates;
  for (const auto &[Symbol, E] : Methods)
    if (!pinned(Symbol))
      Candidates.push_back({E.Heat, E.InstallSeq, E.Size, {Symbol, MethodEntry}});
  for (const auto &[SymbolHeader, E] : OsrVariants)
    if (!pinned(SymbolHeader.first))
      Candidates.push_back(
          {E.Heat, E.InstallSeq, E.Size,
           {SymbolHeader.first, SymbolHeader.second}});
  // Coldest first, oldest install first on heat ties.
  std::sort(Candidates.begin(), Candidates.end(),
            [](const Candidate &A, const Candidate &B) {
              return A.Heat != B.Heat ? A.Heat < B.Heat
                                      : A.InstallSeq < B.InstallSeq;
            });
  uint64_t Reclaimed = 0;
  size_t NumVictims = 0;
  while (NumVictims != Candidates.size() &&
         Stats.LiveBytes - Reclaimed + NeedBytes > Stats.Budget)
    Reclaimed += Candidates[NumVictims++].Size;
  if (Stats.LiveBytes - Reclaimed + NeedBytes > Stats.Budget)
    return false; // Every remaining resident byte is pinned; evict nothing.
  for (size_t I = 0; I != NumVictims; ++I) {
    Candidate &C = Candidates[I];
    if (C.K.isMethod()) {
      auto It = Methods.find(C.K.Symbol);
      retireEntry(It->second, /*IsMethod=*/true);
      Methods.erase(It);
      ++Stats.Evictions;
    } else {
      auto It = OsrVariants.find({C.K.Symbol, C.K.Header});
      retireEntry(It->second, /*IsMethod=*/false);
      OsrVariants.erase(It);
      ++Stats.OsrEvictions;
    }
    Out.push_back(std::move(C.K));
  }
  return true;
}

CodeCache::InstallOutcome
CodeCache::installMethod(std::string_view Symbol,
                         std::unique_ptr<ir::Function> Code) {
  InstallOutcome Out;
  const uint64_t Size = Code->instructionCount();
  if (Stats.Budget != 0 && Size > Stats.Budget) {
    ++Stats.AdmissionRejections;
    Out.Status = InstallStatus::RejectedTooBig;
    return Out; // Never ran, so nothing can be executing it: destroyed.
  }
  if (!makeRoom(Size, Out.Evicted)) {
    ++Stats.AdmissionRejections;
    Out.Status = InstallStatus::RejectedPinned;
    return Out;
  }
  assert(Stats.Budget == 0 || Stats.LiveBytes + Size <= Stats.Budget);
  Entry E;
  E.Code = std::move(Code);
  E.Size = Size;
  E.Heat = 1; // Born warm: a fresh install is by definition hot.
  E.InstallSeq = NextInstallSeq++;
  auto [It, Inserted] = Methods.try_emplace(std::string(Symbol));
  assert(Inserted && "duplicate method install: publish discipline broken");
  if (!Inserted) {
    // Release-build safety net: retire, never destroy — interpreter frames
    // may still be executing the old body.
    retireEntry(It->second, /*IsMethod=*/true);
    ++Epoch;
  }
  It->second = std::move(E);
  MethodBytes += Size;
  bumpLive(Size);
  ++Stats.MethodInstalls;
  if (!Out.Evicted.empty())
    ++Epoch; // One bump per eviction batch, mirroring a deopt retire.
  return Out;
}

CodeCache::InstallOutcome
CodeCache::installOsr(std::string_view Symbol, unsigned Header,
                      std::unique_ptr<ir::Function> Code) {
  InstallOutcome Out;
  const uint64_t Size = Code->instructionCount();
  if (Stats.Budget != 0 && Size > Stats.Budget) {
    ++Stats.AdmissionRejections;
    Out.Status = InstallStatus::RejectedTooBig;
    return Out;
  }
  if (!makeRoom(Size, Out.Evicted)) {
    ++Stats.AdmissionRejections;
    Out.Status = InstallStatus::RejectedPinned;
    return Out;
  }
  assert(Stats.Budget == 0 || Stats.LiveBytes + Size <= Stats.Budget);
  Entry E;
  E.Code = std::move(Code);
  E.Size = Size;
  E.Heat = 1;
  E.InstallSeq = NextInstallSeq++;
  auto [It, Inserted] =
      OsrVariants.try_emplace(std::pair(std::string(Symbol), Header));
  assert(Inserted && "duplicate OSR install: publish discipline broken");
  if (!Inserted) {
    retireEntry(It->second, /*IsMethod=*/false);
    ++Epoch;
  }
  It->second = std::move(E);
  bumpLive(Size);
  ++Stats.OsrInstalls;
  if (!Out.Evicted.empty())
    ++Epoch;
  return Out;
}

std::vector<CodeCache::Key> CodeCache::invalidate(std::string_view Symbol) {
  std::vector<Key> Retired;
  auto It = Methods.find(Symbol);
  if (It != Methods.end()) {
    retireEntry(It->second, /*IsMethod=*/true);
    Methods.erase(It);
    ++Stats.Invalidations;
    Retired.push_back({std::string(Symbol), MethodEntry});
  }
  for (auto OIt = OsrVariants.lower_bound({std::string(Symbol), 0});
       OIt != OsrVariants.end() && OIt->first.first == Symbol;) {
    retireEntry(OIt->second, /*IsMethod=*/false);
    ++Stats.OsrInvalidations;
    Retired.push_back({std::string(Symbol), OIt->first.second});
    OIt = OsrVariants.erase(OIt);
  }
  if (!Retired.empty())
    ++Epoch;
  return Retired;
}

std::vector<CodeCache::Key> CodeCache::evict(std::string_view Symbol) {
  std::vector<Key> Evicted;
  if (pinned(Symbol))
    return Evicted;
  auto It = Methods.find(Symbol);
  if (It != Methods.end()) {
    retireEntry(It->second, /*IsMethod=*/true);
    Methods.erase(It);
    ++Stats.Evictions;
    Evicted.push_back({std::string(Symbol), MethodEntry});
  }
  for (auto OIt = OsrVariants.lower_bound({std::string(Symbol), 0});
       OIt != OsrVariants.end() && OIt->first.first == Symbol;) {
    retireEntry(OIt->second, /*IsMethod=*/false);
    ++Stats.OsrEvictions;
    Evicted.push_back({std::string(Symbol), OIt->first.second});
    OIt = OsrVariants.erase(OIt);
  }
  if (!Evicted.empty())
    ++Epoch;
  return Evicted;
}

void CodeCache::decayHeat() {
  for (auto &[Symbol, E] : Methods)
    E.Heat >>= 1;
  for (auto &[Key, E] : OsrVariants)
    E.Heat >>= 1;
  ++Stats.DecayTicks;
}
