//===- tests/trial_cache_test.cpp - Deep-trial memoization tests -----------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trial cache, bottom up:
///
///  * the key structure (argument signatures, module/profile/config
///    digests) and the profile fingerprint's sensitivity to raw counts;
///  * the sharded LRU mechanics (bound, eviction, promotion) and the
///    runtime-event invalidation contract;
///  * concurrent hammering from multiple threads (suite names contain
///    "TrialCache" so the TSan CI job's -R filter picks them up);
///  * end to end: shared-mode hits across JitRuntime instances are
///    bit-identical to cache-off compilation (output, deterministic stream
///    fingerprint), deopt-driven invalidation bumps the epoch counter, and
///    --verify-trial-cache's recompute-on-hit accepts a healthy cache.
///
//===----------------------------------------------------------------------===//

#include "inliner/TrialCache.h"

#include "TestHelpers.h"
#include "inliner/Compilers.h"
#include "jit/JitRuntime.h"
#include "profile/ProfileData.h"
#include "workloads/Harness.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace incline;
using incline::testing::compile;

namespace {

//===----------------------------------------------------------------------===//
// Key structure
//===----------------------------------------------------------------------===//

/// "f" + I without std::string operator+ (GCC 12's -Wrestrict misfires on
/// the rvalue overload when inlining the loops below).
std::string numbered(const char *Prefix, int I) {
  std::string Name(Prefix);
  Name += std::to_string(I);
  return Name;
}

inliner::TrialKey keyFor(std::string Symbol,
                         std::vector<std::pair<std::string, bool>> ArgSig,
                         uint64_t ModuleFp = 1, uint64_t ProfileFp = 1) {
  inliner::TrialKey Key;
  Key.ModuleFp = ModuleFp;
  Key.ProfileFp = ProfileFp;
  Key.ConfigFp = inliner::TrialCache::configFingerprint(50'000);
  Key.CalleeSymbol = std::move(Symbol);
  Key.ArgSig = std::move(ArgSig);
  return Key;
}

std::shared_ptr<const inliner::TrialResult> resultWith(unsigned CanonOpts) {
  auto R = std::make_shared<inliner::TrialResult>();
  R->CanonOpts = CanonOpts;
  return R;
}

TEST(TrialCacheTest, ArgumentSignatureKeysDistinctEntries) {
  inliner::TrialCache Cache;
  inliner::TrialKey IntExact = keyFor("f", {{"int", true}});
  inliner::TrialKey IntInexact = keyFor("f", {{"int", false}});
  inliner::TrialKey ObjExact = keyFor("f", {{"object(A)", true}});

  EXPECT_EQ(Cache.lookup(IntExact), nullptr);
  Cache.insert(IntExact, resultWith(1));
  Cache.insert(IntInexact, resultWith(2));
  Cache.insert(ObjExact, resultWith(3));
  EXPECT_EQ(Cache.size(), 3u);

  // Same signature hits; each signature gets its own result.
  auto Hit = Cache.lookup(keyFor("f", {{"int", true}}));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->CanonOpts, 1u);
  Hit = Cache.lookup(keyFor("f", {{"int", false}}));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->CanonOpts, 2u);

  // A different callee with an identical signature is a different entry.
  EXPECT_EQ(Cache.lookup(keyFor("g", {{"int", true}})), nullptr);
}

TEST(TrialCacheTest, ModuleProfileAndConfigDigestsKeyEntries) {
  inliner::TrialCache Cache;
  inliner::TrialKey Base = keyFor("f", {{"int", true}}, /*ModuleFp=*/10,
                                  /*ProfileFp=*/20);
  Cache.insert(Base, resultWith(1));
  ASSERT_NE(Cache.lookup(Base), nullptr);

  // Any digest change re-keys the trial: stale results are unreachable.
  EXPECT_EQ(Cache.lookup(keyFor("f", {{"int", true}}, 11, 20)), nullptr);
  EXPECT_EQ(Cache.lookup(keyFor("f", {{"int", true}}, 10, 21)), nullptr);
  inliner::TrialKey OtherBudget = Base;
  OtherBudget.ConfigFp = inliner::TrialCache::configFingerprint(200'000);
  EXPECT_EQ(Cache.lookup(OtherBudget), nullptr);
}

TEST(TrialCacheTest, ProfileFingerprintTracksRawCounts) {
  profile::ProfileTable Profiles;
  uint64_t Unprofiled =
      inliner::TrialCache::profileFingerprint(Profiles, "f");

  profile::MethodProfile &MP = Profiles.methodProfile("f");
  MP.InvocationCount = 100;
  MP.Branches[3].TrueCount = 60;
  MP.Branches[3].FalseCount = 40;
  MP.Receivers[7].record(2);
  uint64_t Baseline = inliner::TrialCache::profileFingerprint(Profiles, "f");
  EXPECT_NE(Baseline, Unprofiled);
  // Deterministic: recomputation reproduces the digest.
  EXPECT_EQ(Baseline, inliner::TrialCache::profileFingerprint(Profiles, "f"));

  // Every raw-count dimension feeds the digest.
  MP.InvocationCount = 101;
  uint64_t Bumped = inliner::TrialCache::profileFingerprint(Profiles, "f");
  EXPECT_NE(Bumped, Baseline);
  MP.Branches[3].TrueCount = 61;
  EXPECT_NE(inliner::TrialCache::profileFingerprint(Profiles, "f"), Bumped);
  Bumped = inliner::TrialCache::profileFingerprint(Profiles, "f");
  MP.Receivers[7].record(5);
  EXPECT_NE(inliner::TrialCache::profileFingerprint(Profiles, "f"), Bumped);

  // Another method's digest is independent.
  EXPECT_NE(inliner::TrialCache::profileFingerprint(Profiles, "g"),
            inliner::TrialCache::profileFingerprint(Profiles, "f"));
}

//===----------------------------------------------------------------------===//
// LRU bound, eviction, promotion
//===----------------------------------------------------------------------===//

TEST(TrialCacheTest, CapacityBoundsEntriesAndCountsEvictions) {
  inliner::TrialCache Cache(/*Capacity=*/8);
  EXPECT_EQ(Cache.capacity(), 8u);
  for (int I = 0; I < 64; ++I)
    Cache.insert(keyFor(numbered("f", I), {{"int", true}}),
                 resultWith(static_cast<unsigned>(I)));
  EXPECT_LE(Cache.size(), 8u);
  EXPECT_GE(Cache.cacheStats().Evictions, 56u);
  // The newest entry in its shard survived.
  EXPECT_NE(Cache.lookup(keyFor("f63", {{"int", true}})), nullptr);
}

TEST(TrialCacheTest, LookupPromotesSoHotEntriesSurviveEviction) {
  // Find three keys that land in the same shard (the implementation
  // distributes by TrialKeyHasher over 8 shards), then exercise that
  // shard's LRU order with a per-shard capacity of 2.
  std::vector<inliner::TrialKey> SameShard;
  const size_t WantShard =
      inliner::TrialKeyHasher()(keyFor("f0", {{"int", true}})) % 8;
  for (int I = 0; SameShard.size() < 3 && I < 10'000; ++I) {
    inliner::TrialKey Key = keyFor(numbered("f", I), {{"int", true}});
    if (inliner::TrialKeyHasher()(Key) % 8 == WantShard)
      SameShard.push_back(std::move(Key));
  }
  ASSERT_EQ(SameShard.size(), 3u);

  inliner::TrialCache Cache(/*Capacity=*/16); // 2 per shard.
  Cache.insert(SameShard[0], resultWith(0));
  Cache.insert(SameShard[1], resultWith(1));
  // Touch [0]: it becomes most-recently-used, so inserting [2] into the
  // full shard must evict [1], not [0].
  ASSERT_NE(Cache.lookup(SameShard[0]), nullptr);
  Cache.insert(SameShard[2], resultWith(2));
  EXPECT_NE(Cache.lookup(SameShard[0]), nullptr);
  EXPECT_EQ(Cache.lookup(SameShard[1]), nullptr);
  EXPECT_NE(Cache.lookup(SameShard[2]), nullptr);
}

TEST(TrialCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  inliner::TrialCache Cache;
  inliner::TrialKey Key = keyFor("f", {{"int", true}});
  Cache.insert(Key, resultWith(1));
  Cache.insert(Key, resultWith(2));
  EXPECT_EQ(Cache.size(), 1u);
  auto Hit = Cache.lookup(Key);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->CanonOpts, 2u);
}

TEST(TrialCacheTest, RuntimeEventInvalidationClearsEverything) {
  inliner::TrialCache Cache;
  for (int I = 0; I < 16; ++I)
    Cache.insert(keyFor(numbered("f", I), {{"int", true}}),
                 resultWith(static_cast<unsigned>(I)));
  ASSERT_GT(Cache.size(), 0u);

  // A hit handed out before the invalidation stays valid afterwards.
  auto Pinned = Cache.lookup(keyFor("f0", {{"int", true}}));
  ASSERT_NE(Pinned, nullptr);

  Cache.invalidateForRuntimeEvent();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.lookup(keyFor("f0", {{"int", true}})), nullptr);
  EXPECT_EQ(Cache.cacheStats().EpochInvalidations, 1u);
  EXPECT_EQ(Pinned->CanonOpts, 0u);
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(TrialCacheConcurrencyTest, FourThreadsHammerOneCache) {
  inliner::TrialCache Cache(/*Capacity=*/32);
  constexpr int ThreadCount = 4;
  constexpr int OpsPerThread = 4'000;

  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&Cache, T] {
      for (int I = 0; I < OpsPerThread; ++I) {
        // Overlapping key ranges: every thread both hits entries other
        // threads inserted and fights over the same shards.
        inliner::TrialKey Key =
            keyFor(numbered("f", (T * 13 + I) % 48), {{"int", true}});
        if (auto Hit = Cache.lookup(Key)) {
          // Use the payload after possible concurrent eviction: the
          // shared_ptr must keep it alive.
          volatile unsigned Opts = Hit->CanonOpts;
          (void)Opts;
        } else {
          Cache.insert(Key, resultWith(static_cast<unsigned>(I)));
        }
        if (T == 0 && I % 1'000 == 999)
          Cache.invalidateForRuntimeEvent(); // Race invalidation too.
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  jit::CompileCacheStats Stats = Cache.cacheStats();
  EXPECT_EQ(Stats.Hits + Stats.Misses,
            static_cast<uint64_t>(ThreadCount) * OpsPerThread);
  EXPECT_EQ(Stats.EpochInvalidations, 4u);
  EXPECT_LE(Cache.size(), 32u);
}

//===----------------------------------------------------------------------===//
// End to end through the incremental compiler
//===----------------------------------------------------------------------===//

workloads::RunResult runShared(const workloads::Workload &W,
                               jit::Compiler &Compiler, unsigned Threads) {
  workloads::RunConfig Config;
  Config.Jit.Mode = jit::JitMode::Deterministic;
  Config.Jit.Threads = Threads;
  return workloads::runWorkload(W, Compiler, Config);
}

uint64_t totalHits(const workloads::RunResult &R) {
  uint64_t Hits = 0;
  for (const jit::CompilationRecord &Record : R.Compilations)
    Hits += Record.Stats.TrialCacheHits;
  return Hits;
}

TEST(TrialCacheEndToEndTest, SharedHitsAreBitIdenticalToCacheOff) {
  // Two repetitions per mode. Cache off: both repetitions pay full trials.
  // Shared: the second repetition (fresh JitRuntime, same compiler) hits —
  // and everything observable must still match cache-off bit for bit.
  const std::vector<workloads::Workload> &All = workloads::allWorkloads();
  ASSERT_GE(All.size(), 3u);
  uint64_t SharedHits = 0;
  for (size_t WI = 0; WI < 3; ++WI) {
    const workloads::Workload &W = All[WI];

    inliner::InlinerConfig OffConfig; // TrialCache defaults to Off.
    inliner::IncrementalCompiler OffCompiler(OffConfig);
    inliner::InlinerConfig SharedConfig;
    SharedConfig.TrialCache = inliner::TrialCacheMode::Shared;
    inliner::IncrementalCompiler SharedCompiler(SharedConfig);

    for (int Rep = 0; Rep < 2; ++Rep) {
      workloads::RunResult Off = runShared(W, OffCompiler, 1);
      workloads::RunResult Shared = runShared(W, SharedCompiler, 1);
      ASSERT_TRUE(Off.Ok) << W.Name << ": " << Off.Error;
      ASSERT_TRUE(Shared.Ok) << W.Name << ": " << Shared.Error;
      EXPECT_EQ(Off.Output, Shared.Output) << W.Name << " rep " << Rep;
      EXPECT_EQ(jit::streamFingerprint(Off.Compilations),
                jit::streamFingerprint(Shared.Compilations))
          << W.Name << " rep " << Rep;
      EXPECT_EQ(Off.InstalledCodeSize, Shared.InstalledCodeSize)
          << W.Name << " rep " << Rep;
      EXPECT_EQ(totalHits(Off), 0u) << W.Name;
      if (Rep > 0)
        SharedHits += totalHits(Shared);
    }
  }
  // Deterministic repetition reproduces identical profiles, so repetition
  // two must hit (across all three workloads combined).
  EXPECT_GT(SharedHits, 0u);
}

TEST(TrialCacheEndToEndTest, SharedCacheServesConcurrentCompileWorkers) {
  // 4 deterministic compile workers share one cache; the replay stream —
  // and therefore the installed code — must match the cache-off run.
  const workloads::Workload &W = workloads::allWorkloads().front();
  inliner::IncrementalCompiler OffCompiler;
  inliner::InlinerConfig SharedConfig;
  SharedConfig.TrialCache = inliner::TrialCacheMode::Shared;
  inliner::IncrementalCompiler SharedCompiler(SharedConfig);

  workloads::RunResult Off = runShared(W, OffCompiler, 4);
  for (int Rep = 0; Rep < 3; ++Rep) {
    workloads::RunResult Shared = runShared(W, SharedCompiler, 4);
    ASSERT_TRUE(Shared.Ok) << Shared.Error;
    EXPECT_EQ(Off.Output, Shared.Output) << "rep " << Rep;
    EXPECT_EQ(jit::streamFingerprint(Off.Compilations),
              jit::streamFingerprint(Shared.Compilations))
        << "rep " << Rep;
  }
  ASSERT_NE(SharedCompiler.compileCache(), nullptr);
  EXPECT_GT(SharedCompiler.compileCache()->cacheStats().Hits, 0u);
}

// 95% of dispatches hit A while the interpreter profiles, so the compile
// speculates on A — then every run's tail dispatches B, deopts, and
// eventually blacklists the site (same shape as jit_deopt_test).
constexpr const char *SpeculatingSource = R"(
class A {
  def m(x: int): int { return x + 1; }
}
class B extends A {
  def m(x: int): int { return x * 2; }
}
def main() {
  var a: A = new A();
  var b: A = new B();
  var total = 0;
  var i = 0;
  while (i < 100) {
    var r = a;
    if (i >= 95) { r = b; }
    total = total + r.m(i);
    i = i + 1;
  }
  print(total);
}
)";

TEST(TrialCacheEndToEndTest, DeoptAndBlacklistEventsInvalidateTheCache) {
  auto Ref = compile(SpeculatingSource);
  const std::string Expected = interp::runMain(*Ref).Output;

  auto M = compile(SpeculatingSource);
  inliner::InlinerConfig InlinerConfig;
  InlinerConfig.TrialCache = inliner::TrialCacheMode::Shared;
  inliner::IncrementalCompiler Compiler(InlinerConfig);
  jit::JitConfig Config;
  Config.CompileThreshold = 2;
  jit::JitRuntime Runtime(*M, Compiler, Config);

  for (int Run = 0; Run < 10; ++Run) {
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.Output, Expected) << "run " << Run;
  }

  // The lying profile produced invalidations and a blacklisted site; both
  // runtime events must have flushed the shared trial cache.
  ASSERT_GE(Runtime.stats().Invalidations, 1u);
  ASSERT_GE(Runtime.stats().SpeculationsBlacklisted, 1u);
  ASSERT_NE(Compiler.compileCache(), nullptr);
  EXPECT_GE(Compiler.compileCache()->cacheStats().EpochInvalidations,
            Runtime.stats().Invalidations +
                Runtime.stats().SpeculationsBlacklisted);
}

TEST(TrialCacheEndToEndTest, VerifyModeRecomputesHitsWithoutDivergence) {
  // --verify-trial-cache recomputes every hit from scratch and aborts the
  // process on divergence; a clean run over real hits is the test.
  struct VerifyScope {
    VerifyScope() { inliner::setVerifyTrialCache(true); }
    ~VerifyScope() { inliner::setVerifyTrialCache(false); }
  } Scope;

  const workloads::Workload &W = workloads::allWorkloads().front();
  inliner::InlinerConfig Config;
  Config.TrialCache = inliner::TrialCacheMode::Shared;
  inliner::IncrementalCompiler Compiler(Config);
  for (int Rep = 0; Rep < 2; ++Rep) {
    workloads::RunResult Result = runShared(W, Compiler, 1);
    ASSERT_TRUE(Result.Ok) << Result.Error;
  }
  EXPECT_GT(Compiler.compileCache()->cacheStats().Hits, 0u);
}

} // namespace
