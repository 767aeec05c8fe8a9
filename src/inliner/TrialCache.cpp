//===- inliner/TrialCache.cpp -------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "inliner/TrialCache.h"

#include "profile/ProfileData.h"
#include "support/Hash.h"

#include <algorithm>

using namespace incline;
using namespace incline::inliner;

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

namespace {

std::atomic<bool> VerifyTrialCache{false};

} // namespace

void incline::inliner::setVerifyTrialCache(bool Enabled) {
  VerifyTrialCache.store(Enabled, std::memory_order_relaxed);
}

bool incline::inliner::verifyTrialCacheEnabled() {
  return VerifyTrialCache.load(std::memory_order_relaxed);
}

size_t TrialKeyHasher::operator()(const TrialKey &Key) const {
  uint64_t Hash = fnv1a(Key.ModuleFp, FnvOffsetBasis);
  Hash = fnv1a(Key.ProfileFp, Hash);
  Hash = fnv1a(Key.ConfigFp, Hash);
  Hash = fnv1a(Key.CalleeSymbol, Hash);
  for (const auto &[Type, Exact] : Key.ArgSig) {
    Hash = fnv1a(Type, Hash);
    Hash = fnv1a(static_cast<uint64_t>(Exact), Hash);
  }
  return static_cast<size_t>(Hash);
}

uint64_t TrialCache::profileFingerprint(const profile::ProfileTable &Profiles,
                                        std::string_view Method) {
  uint64_t Hash = fnv1a(Method, FnvOffsetBasis);
  const profile::MethodProfile *MP = Profiles.find(Method);
  if (!MP)
    return Hash;
  Hash = fnv1a(MP->InvocationCount, Hash);

  std::vector<unsigned> Ids;
  Ids.reserve(MP->Branches.size());
  for (const auto &[Id, Branch] : MP->Branches)
    Ids.push_back(Id);
  std::sort(Ids.begin(), Ids.end());
  for (unsigned Id : Ids) {
    const profile::BranchProfile &Branch = MP->Branches.at(Id);
    Hash = fnv1a(static_cast<uint64_t>(Id), Hash);
    Hash = fnv1a(Branch.TrueCount, Hash);
    Hash = fnv1a(Branch.FalseCount, Hash);
  }

  Ids.clear();
  for (const auto &[Id, Receivers] : MP->Receivers)
    Ids.push_back(Id);
  std::sort(Ids.begin(), Ids.end());
  for (unsigned Id : Ids) {
    const profile::ReceiverProfile &RP = MP->Receivers.at(Id);
    Hash = fnv1a(static_cast<uint64_t>(Id), Hash);
    for (const auto &[ClassId, Count] : RP.Counts) { // Ordered map.
      Hash = fnv1a(static_cast<uint64_t>(ClassId + 1), Hash);
      Hash = fnv1a(Count, Hash);
    }
  }
  return Hash;
}

uint64_t TrialCache::configFingerprint(uint64_t TrialVisitBudget) {
  return fnv1a(TrialVisitBudget, FnvOffsetBasis);
}

//===----------------------------------------------------------------------===//
// The cache
//===----------------------------------------------------------------------===//

TrialCache::TrialCache(size_t Capacity)
    : Capacity(std::max<size_t>(Capacity, NumShards)),
      ShardCapacity(std::max<size_t>(1, this->Capacity / NumShards)) {}

TrialCache::~TrialCache() = default;

TrialCache::Shard &TrialCache::shardFor(const TrialKey &Key) {
  return Shards[TrialKeyHasher()(Key) % NumShards];
}

std::shared_ptr<const TrialResult> TrialCache::lookup(const TrialKey &Key) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Guard(S.Lock);
  auto It = S.Index.find(Key);
  if (It == S.Index.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Promote to most-recently-used.
  S.LRU.splice(S.LRU.begin(), S.LRU, It->second);
  Hits.fetch_add(1, std::memory_order_relaxed);
  return It->second->Result; // shared_ptr copy: eviction-safe for callers.
}

void TrialCache::insert(const TrialKey &Key,
                        std::shared_ptr<const TrialResult> Result) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Guard(S.Lock);
  auto It = S.Index.find(Key);
  if (It != S.Index.end()) {
    It->second->Result = std::move(Result);
    S.LRU.splice(S.LRU.begin(), S.LRU, It->second);
    return;
  }
  while (S.LRU.size() >= ShardCapacity) {
    S.Index.erase(S.LRU.back().Key);
    S.LRU.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
  S.LRU.push_front(Entry{Key, std::move(Result)});
  S.Index.emplace(Key, S.LRU.begin());
}

void TrialCache::invalidateForRuntimeEvent() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Guard(S.Lock);
    S.Index.clear();
    S.LRU.clear();
  }
  EpochInvalidations.fetch_add(1, std::memory_order_relaxed);
}

size_t TrialCache::size() const {
  size_t Total = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Guard(S.Lock);
    Total += S.LRU.size();
  }
  return Total;
}

jit::CompileCacheStats TrialCache::cacheStats() const {
  jit::CompileCacheStats Stats;
  Stats.Hits = Hits.load(std::memory_order_relaxed);
  Stats.Misses = Misses.load(std::memory_order_relaxed);
  Stats.Evictions = Evictions.load(std::memory_order_relaxed);
  Stats.EpochInvalidations =
      EpochInvalidations.load(std::memory_order_relaxed);
  Stats.SavedNanos = SavedNanos.load(std::memory_order_relaxed);
  return Stats;
}
