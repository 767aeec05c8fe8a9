//===- inliner/TrialCache.h - Memoized deep-inlining trials -----------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, thread-safe, bounded cache of deep-inlining trial
/// results. The inliner spends most of its compile-time budget inside
/// `CallTree::expandCutoff`: every expansion clones the callee, propagates
/// the callsite's argument types, and runs trial canonicalization + DCE to
/// measure N_s. That work is a pure function of
///
///   (module content, callee symbol, argument type/exactness signature,
///    callee profile, trial configuration)
///
/// so the same callee invoked with the same argument shapes — at another
/// callsite, in another compilation, or on another compile worker thread —
/// reproduces the identical specialized body and the identical trial
/// metrics. The cache stores the post-trial body plus everything needed to
/// make a hit observably indistinguishable from a miss:
///
///  * the specialized, canonicalized body (post-trial bodies are read-only
///    — inlining clones *into* the caller — so hits share it directly via
///    an aliasing shared_ptr instead of cloning, and the miss that creates
///    an entry donates its body rather than copying it),
///  * the N_s components computed by the trial (CanonOpts,
///    SpecializedParams; SpeculationSites is recomputed live because it
///    depends on the current profile view of the *children*),
///  * the per-pass metric deltas the trial recorded, replayed on a hit so
///    deterministic-mode `streamFingerprint` stays bit-identical with the
///    cache off (wall-time nanos are zeroed on replay: they are what the
///    cache saves, and they are excluded from the fingerprint).
///
/// Sharded mutexes keep concurrent compile workers out of each other's
/// way; per-shard LRU lists bound memory. Runtime events that change what
/// the compiler may assume (deopt-driven code invalidation, speculation-
/// blacklist growth) clear the cache through the jit::CompileCache
/// interface — entries are keyed on everything that feeds a trial, so this
/// is defense in depth rather than a correctness requirement, but it keeps
/// the epoch contract explicit and testable.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_INLINER_TRIALCACHE_H
#define INCLINE_INLINER_TRIALCACHE_H

#include "ir/Function.h"
#include "jit/Compiler.h"
#include "opt/Pass.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace incline::profile {
class ProfileTable;
}

namespace incline::inliner {

/// Everything that determines a deep trial's outcome. Strings and the
/// argument signature are compared structurally; module/profile/config
/// state is folded into digests.
struct TrialKey {
  /// ir::Module::contentFingerprint() of the module the callee lives in.
  uint64_t ModuleFp = 0;
  /// Digest of the callee's MethodProfile (raw branch/receiver counts).
  uint64_t ProfileFp = 0;
  /// Digest of the InlinerConfig knobs that shape the trial itself.
  uint64_t ConfigFp = 0;
  /// Resolved callee symbol ("f", "Class.m").
  std::string CalleeSymbol;
  /// Per-argument (type string, exactness) as seen at the callsite. For
  /// speculated P-target children the receiver slot is the speculated
  /// exact class.
  std::vector<std::pair<std::string, bool>> ArgSig;

  bool operator==(const TrialKey &Other) const {
    return ModuleFp == Other.ModuleFp && ProfileFp == Other.ProfileFp &&
           ConfigFp == Other.ConfigFp && CalleeSymbol == Other.CalleeSymbol &&
           ArgSig == Other.ArgSig;
  }
};

struct TrialKeyHasher {
  size_t operator()(const TrialKey &Key) const;
};

/// One memoized trial: the specialized post-trial body and the metrics a
/// miss would have produced.
struct TrialResult {
  /// The callee clone after argument specialization, trial
  /// canonicalization, and DCE. Immutable once inserted: call-tree nodes
  /// alias it (CallNode::CachedBody) rather than cloning it, which also
  /// keeps this entry alive across eviction while any node still reads it.
  std::unique_ptr<ir::Function> Body;
  /// Canonicalizer rewrites the trial triggered (part of N_s).
  unsigned CanonOpts = 0;
  /// Parameters made more concrete by specialization (part of N_s).
  unsigned SpecializedParams = 0;
  /// Per-pass metric deltas recorded during the trial, in execution order.
  /// Replayed (with Nanos zeroed) on a hit.
  std::vector<std::pair<std::string, opt::PassMetrics>> PassDeltas;
  /// Wall time the original trial bundle took — what a hit saves.
  uint64_t TrialNanos = 0;
};

/// The cache. Safe for concurrent use from any number of compile worker
/// threads and the runtime's invalidation path.
class TrialCache : public jit::CompileCache {
public:
  explicit TrialCache(size_t Capacity = 1024);
  ~TrialCache() override;

  /// Returns the cached result for \p Key (promoting it to
  /// most-recently-used) or null. The returned pointer stays valid even if
  /// the entry is evicted or invalidated afterwards.
  std::shared_ptr<const TrialResult> lookup(const TrialKey &Key);

  /// Inserts \p Result under \p Key, evicting the shard's least recently
  /// used entry when full. Re-inserting an existing key refreshes it.
  void insert(const TrialKey &Key, std::shared_ptr<const TrialResult> Result);

  /// Credits \p Nanos of skipped trial wall time (hit accounting).
  void noteSavedNanos(uint64_t Nanos) {
    SavedNanos.fetch_add(Nanos, std::memory_order_relaxed);
  }

  size_t size() const;
  size_t capacity() const { return Capacity; }

  // jit::CompileCache:
  void invalidateForRuntimeEvent() override;
  jit::CompileCacheStats cacheStats() const override;

  //===--------------------------------------------------------------------===//
  // Key construction helpers.
  //===--------------------------------------------------------------------===//

  /// Digest of \p Method's profile in \p Profiles: raw branch and receiver
  /// counts, key-sorted. Raw counts are deliberately conservative — any
  /// profile growth re-keys the trial — yet still hit across runs, because
  /// deterministic executions reproduce identical counts.
  static uint64_t profileFingerprint(const profile::ProfileTable &Profiles,
                                     std::string_view Method);

  /// Digest of the trial-shaping configuration knobs (currently the trial
  /// canonicalizer's visit budget).
  static uint64_t configFingerprint(uint64_t TrialVisitBudget);

private:
  struct Entry {
    TrialKey Key;
    std::shared_ptr<const TrialResult> Result;
  };
  struct Shard {
    mutable std::mutex Lock;
    /// Front = most recently used.
    std::list<Entry> LRU;
    std::unordered_map<TrialKey, std::list<Entry>::iterator, TrialKeyHasher>
        Index;
  };

  Shard &shardFor(const TrialKey &Key);

  static constexpr size_t NumShards = 8;
  std::array<Shard, NumShards> Shards;
  /// Per-shard capacity; total capacity is split evenly across shards.
  size_t Capacity;
  size_t ShardCapacity;

  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> EpochInvalidations{0};
  std::atomic<uint64_t> SavedNanos{0};
};

/// Debug mode (incline-fuzz --verify-trial-cache): on every hit, recompute
/// the trial from scratch and abort on any divergence from the cached
/// result. Process-wide, like opt::setVerifyCachedAnalyses.
void setVerifyTrialCache(bool Enabled);
bool verifyTrialCacheEnabled();

} // namespace incline::inliner

#endif // INCLINE_INLINER_TRIALCACHE_H
