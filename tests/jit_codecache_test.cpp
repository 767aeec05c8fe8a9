//===- tests/jit_codecache_test.cpp - Code-lifecycle tests ------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded code cache and the runtime's code lifecycle (DESIGN.md §12):
///
///  * the CodeCache unit semantics — coldest-first victim selection with
///    install-order tie-breaks, heat decay flipping victims, pins blocking
///    both budget eviction and forced eviction, too-big admission
///    rejections, and invalidation dragging OSR variants along;
///  * evict -> reheat -> recompile round trips through the runtime, in
///    every execution mode and thread count, with bit-identical output;
///  * eviction of an installed OSR variant while its loop is mid-flight
///    (budget pressure from a sync leaf compile inside the OSR frame) —
///    the retired body stays executable from the graveyard and the loop
///    re-tiers on the next entry;
///  * the budget is a hard bound under seeded random programs (the
///    PeakLiveBytes high-water mark, plus the Debug assert inside
///    CodeCache::install* firing mid-run on any violation);
///  * a profile-decay tick flushes the compiler's memoization cache, and
///    pinned in-flight symbols survive forced eviction;
///  * retired code is freed, with its decoded tables, when the outermost
///    run() returns — and only then: a nested run() issued from a hook
///    frees nothing, so the outer frame keeps running its retired body.
///
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"

#include "TestHelpers.h"
#include "fuzz/RandomProgram.h"
#include "inliner/Compilers.h"
#include "ir/IRCloner.h"
#include "jit/JitRuntime.h"
#include "workloads/Traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

using namespace incline;
using incline::testing::compile;

namespace {

//===----------------------------------------------------------------------===//
// CodeCache unit semantics
//===----------------------------------------------------------------------===//

/// Three same-shape functions (identical instruction counts), so budget
/// arithmetic in the unit tests is exact, plus one strictly bigger body
/// (fBig) for the partial-room rejection tests.
constexpr const char *UnitSource = R"(
def fA(x: int): int { return x + 1; }
def fB(x: int): int { return x + 2; }
def fC(x: int): int { return x + 3; }
def fBig(x: int): int { return (x + 1) + (x + 2); }
def main() { print(fA(1) + fB(2) + fC(3) + fBig(4)); }
)";

struct UnitFixture {
  std::unique_ptr<ir::Module> M = compile(UnitSource);
  uint64_t S = M->function("fA")->instructionCount();

  UnitFixture() {
    EXPECT_EQ(S, M->function("fB")->instructionCount());
    EXPECT_EQ(S, M->function("fC")->instructionCount());
    EXPECT_GE(S, 2u);
  }

  std::unique_ptr<ir::Function> body(const char *Name) {
    return ir::cloneFunction(*M->function(Name), Name).F;
  }
};

TEST(JitCodeCacheUnit, InstallLookupAndOccupancy) {
  UnitFixture F;
  jit::CodeCache Cache; // Unbounded.
  EXPECT_EQ(Cache.installMethod("fA", F.body("fA")).Status,
            jit::CodeCache::InstallStatus::Installed);
  EXPECT_EQ(Cache.installMethod("fB", F.body("fB")).Status,
            jit::CodeCache::InstallStatus::Installed);
  EXPECT_NE(Cache.lookupMethod("fA"), nullptr);
  EXPECT_NE(Cache.installedMethod("fB"), nullptr);
  EXPECT_EQ(Cache.installedMethod("fC"), nullptr);
  EXPECT_EQ(Cache.liveBytes(), 2 * F.S);
  EXPECT_EQ(Cache.methodBytes(), 2 * F.S);
  EXPECT_EQ(Cache.stats().MethodInstalls, 2u);
  EXPECT_EQ(Cache.stats().PeakLiveBytes, 2 * F.S);
  EXPECT_EQ(Cache.epoch(), 0u);
}

TEST(JitCodeCacheUnit, BudgetEvictsColdestFirst) {
  UnitFixture F;
  jit::CodeCache Cache(2 * F.S);
  Cache.installMethod("fA", F.body("fA"));
  Cache.installMethod("fB", F.body("fB"));
  // Heat fA: three resolve touches on top of its birth heat.
  for (int I = 0; I < 3; ++I)
    Cache.lookupMethod("fA");
  jit::CodeCache::InstallOutcome Out = Cache.installMethod("fC", F.body("fC"));
  EXPECT_EQ(Out.Status, jit::CodeCache::InstallStatus::Installed);
  ASSERT_EQ(Out.Evicted.size(), 1u);
  EXPECT_EQ(Out.Evicted[0].Symbol, "fB"); // The cold one, not the hot one.
  EXPECT_TRUE(Out.Evicted[0].isMethod());
  EXPECT_NE(Cache.installedMethod("fA"), nullptr);
  EXPECT_EQ(Cache.installedMethod("fB"), nullptr);
  EXPECT_NE(Cache.installedMethod("fC"), nullptr);
  EXPECT_EQ(Cache.liveBytes(), 2 * F.S);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.epoch(), 1u); // One bump per eviction batch.
}

TEST(JitCodeCacheUnit, HeatTiesEvictOldestInstallFirst) {
  UnitFixture F;
  jit::CodeCache Cache(2 * F.S);
  Cache.installMethod("fA", F.body("fA"));
  Cache.installMethod("fB", F.body("fB"));
  // Equal birth heat, no touches: the older install loses.
  jit::CodeCache::InstallOutcome Out = Cache.installMethod("fC", F.body("fC"));
  ASSERT_EQ(Out.Evicted.size(), 1u);
  EXPECT_EQ(Out.Evicted[0].Symbol, "fA");
}

TEST(JitCodeCacheUnit, DecayedHeatFlipsTheVictim) {
  UnitFixture F;
  jit::CodeCache Cache(2 * F.S);
  // fA was very hot long ago: 15 touches, then three decay epochs.
  Cache.installMethod("fA", F.body("fA"));
  for (int I = 0; I < 15; ++I)
    Cache.lookupMethod("fA");
  for (int I = 0; I < 3; ++I)
    Cache.decayHeat(); // 16 -> 8 -> 4 -> 2.
  // fB is mildly but *recently* hot: birth + two touches = 3.
  Cache.installMethod("fB", F.body("fB"));
  Cache.lookupMethod("fB");
  Cache.lookupMethod("fB");
  // Without decay fA (16 raw touches) would survive fB (3); with decay the
  // stale heat has faded below the recent heat and fA is the victim.
  jit::CodeCache::InstallOutcome Out = Cache.installMethod("fC", F.body("fC"));
  ASSERT_EQ(Out.Evicted.size(), 1u);
  EXPECT_EQ(Out.Evicted[0].Symbol, "fA");
  EXPECT_EQ(Cache.stats().DecayTicks, 3u);
}

TEST(JitCodeCacheUnit, PinnedEntriesAreNeverVictims) {
  UnitFixture F;
  jit::CodeCache Cache(F.S); // Room for exactly one body.
  Cache.installMethod("fA", F.body("fA"));
  Cache.pin("fA");
  // Budget eviction cannot touch the pinned resident: the install is
  // (transiently) rejected, not forced through.
  jit::CodeCache::InstallOutcome Out = Cache.installMethod("fB", F.body("fB"));
  EXPECT_EQ(Out.Status, jit::CodeCache::InstallStatus::RejectedPinned);
  EXPECT_TRUE(Out.Evicted.empty());
  EXPECT_NE(Cache.installedMethod("fA"), nullptr);
  EXPECT_EQ(Cache.stats().AdmissionRejections, 1u);
  // Forced eviction respects pins too.
  EXPECT_TRUE(Cache.evict("fA").empty());
  EXPECT_NE(Cache.installedMethod("fA"), nullptr);
  EXPECT_EQ(Cache.epoch(), 0u);
  // Unpinned, the same install succeeds by evicting fA.
  Cache.unpin("fA");
  Out = Cache.installMethod("fB", F.body("fB"));
  EXPECT_EQ(Out.Status, jit::CodeCache::InstallStatus::Installed);
  ASSERT_EQ(Out.Evicted.size(), 1u);
  EXPECT_EQ(Out.Evicted[0].Symbol, "fA");
  EXPECT_EQ(Cache.liveBytes(), F.S);
}

TEST(JitCodeCacheUnit, RejectedPinnedInstallEvictsNothing) {
  UnitFixture F;
  const uint64_t Big = F.M->function("fBig")->instructionCount();
  // The scenario needs fBig to not fit in fA's slot alone (so the pinned
  // fB blocks) while still fitting in the whole budget.
  ASSERT_GT(Big, F.S);
  ASSERT_LE(Big, 2 * F.S);
  jit::CodeCache Cache(2 * F.S);
  Cache.installMethod("fA", F.body("fA"));
  Cache.installMethod("fB", F.body("fB"));
  Cache.pin("fB");
  // Evicting unpinned fA alone cannot make room for fBig. Eviction is
  // transactional: the rejected install retires NOBODY — in particular
  // not fA, whose TierState.Compiled bit the runtime would otherwise
  // leave pointing at retired code forever.
  jit::CodeCache::InstallOutcome Out =
      Cache.installMethod("fBig", F.body("fBig"));
  EXPECT_EQ(Out.Status, jit::CodeCache::InstallStatus::RejectedPinned);
  EXPECT_TRUE(Out.Evicted.empty());
  EXPECT_NE(Cache.installedMethod("fA"), nullptr);
  EXPECT_NE(Cache.installedMethod("fB"), nullptr);
  EXPECT_EQ(Cache.liveBytes(), 2 * F.S);
  EXPECT_EQ(Cache.stats().Evictions, 0u);
  EXPECT_EQ(Cache.stats().AdmissionRejections, 1u);
  EXPECT_EQ(Cache.epoch(), 0u); // No retirement batch, no epoch bump.
  // With the pin released the same install succeeds by evicting both.
  Cache.unpin("fB");
  Out = Cache.installMethod("fBig", F.body("fBig"));
  EXPECT_EQ(Out.Status, jit::CodeCache::InstallStatus::Installed);
  EXPECT_EQ(Out.Evicted.size(), 2u);
  EXPECT_EQ(Cache.liveBytes(), Big);
  EXPECT_EQ(Cache.epoch(), 1u);
}

TEST(JitCodeCacheUnit, BodyLargerThanBudgetIsRejectedOutright) {
  UnitFixture F;
  jit::CodeCache Cache(F.S - 1);
  jit::CodeCache::InstallOutcome Out = Cache.installMethod("fA", F.body("fA"));
  EXPECT_EQ(Out.Status, jit::CodeCache::InstallStatus::RejectedTooBig);
  EXPECT_EQ(Cache.installedMethod("fA"), nullptr);
  EXPECT_EQ(Cache.liveBytes(), 0u);
  EXPECT_EQ(Cache.stats().AdmissionRejections, 1u);
}

TEST(JitCodeCacheUnit, InvalidationIgnoresPinsAndRetiresOsrVariants) {
  UnitFixture F;
  jit::CodeCache Cache; // Unbounded.
  Cache.installMethod("fA", F.body("fA"));
  Cache.installOsr("fA", 7, F.body("fB"));
  Cache.pin("fA");
  // A deopt is ground truth: invalidation retires the pinned symbol's
  // method body and every OSR variant in one epoch bump.
  std::vector<jit::CodeCache::Key> Retired = Cache.invalidate("fA");
  ASSERT_EQ(Retired.size(), 2u);
  EXPECT_EQ(Cache.installedMethod("fA"), nullptr);
  EXPECT_EQ(Cache.installedOsr("fA", 7), nullptr);
  EXPECT_EQ(Cache.liveBytes(), 0u);
  EXPECT_EQ(Cache.methodBytes(), 0u);
  EXPECT_EQ(Cache.stats().Invalidations, 1u);
  EXPECT_EQ(Cache.stats().OsrInvalidations, 1u);
  EXPECT_EQ(Cache.epoch(), 1u);
}

TEST(JitCodeCacheUnit, OsrVariantsCountAgainstTheBudget) {
  UnitFixture F;
  jit::CodeCache Cache(2 * F.S);
  Cache.installMethod("fA", F.body("fA"));
  EXPECT_EQ(Cache.installOsr("fA", 3, F.body("fB")).Status,
            jit::CodeCache::InstallStatus::Installed);
  EXPECT_EQ(Cache.liveBytes(), 2 * F.S);
  EXPECT_EQ(Cache.methodBytes(), F.S); // OSR variants are budget-only.
  // A further install must evict — the OSR variant is not free.
  jit::CodeCache::InstallOutcome Out = Cache.installMethod("fC", F.body("fC"));
  ASSERT_EQ(Out.Evicted.size(), 1u);
  EXPECT_EQ(Cache.liveBytes(), 2 * F.S);
}

//===----------------------------------------------------------------------===//
// Runtime round trips
//===----------------------------------------------------------------------===//

/// Identity second-tier compiler: clones the source body unchanged. No
/// inlining, so leaf callees stay out-of-line and keep invoking — the
/// mid-loop eviction test depends on the leaf crossing its own threshold
/// while the caller's OSR frame is live.
class PassthroughCompiler : public jit::Compiler {
public:
  std::unique_ptr<ir::Function>
  compile(const ir::Function &Source, const ir::Module &,
          const profile::ProfileTable &, jit::CompileStats &Stats,
          const opt::PassContext &) override {
    auto Clone = ir::cloneFunction(Source, std::string(Source.name()));
    Stats.CodeSize = Clone.F->instructionCount();
    return std::move(Clone.F);
  }
  std::string name() const override { return "passthrough"; }
};

constexpr const char *HotSource = R"(
def hot(n: int): int {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc + (i * 3) % 7;
    i = i + 1;
  }
  return acc;
}
def main() {
  var j = 0;
  while (j < 12) {
    print(hot(20 + j % 3));
    j = j + 1;
  }
}
)";

TEST(JitCodeCacheRuntime, EvictReheatRecompileAcrossModes) {
  const std::string Expected = [] {
    std::unique_ptr<ir::Module> Ref = compile(HotSource);
    return incline::testing::runOutput(*Ref);
  }();

  struct ModeCase {
    jit::JitMode Mode;
    unsigned Threads;
    const char *Name;
  };
  const ModeCase Cases[] = {
      {jit::JitMode::Sync, 1, "sync"},
      {jit::JitMode::Async, 1, "async-1t"},
      {jit::JitMode::Async, 4, "async-4t"},
      {jit::JitMode::Deterministic, 1, "deterministic-1t"},
      {jit::JitMode::Deterministic, 4, "deterministic-4t"},
  };
  for (const ModeCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::unique_ptr<ir::Module> M = compile(HotSource);
    inliner::IncrementalCompiler Compiler{inliner::InlinerConfig()};
    jit::JitConfig Config;
    Config.CompileThreshold = 3;
    Config.Mode = C.Mode;
    Config.Threads = C.Threads;
    jit::JitRuntime Runtime(*M, Compiler, Config);

    interp::ExecResult R1 = Runtime.runMain();
    ASSERT_TRUE(R1.ok()) << R1.TrapMessage;
    EXPECT_EQ(R1.Output, Expected);
    Runtime.drainCompilations();
    ASSERT_NE(Runtime.codeCache().installedMethod("hot"), nullptr);
    const uint64_t InstallsBefore = Runtime.codeCacheStats().MethodInstalls;

    // Evict: the method falls back to the interpreter and re-warms.
    Runtime.evictNow("hot");
    EXPECT_EQ(Runtime.codeCache().installedMethod("hot"), nullptr);
    EXPECT_GE(Runtime.codeCacheStats().Evictions, 1u);
    const uint64_t EpochAfterEvict = Runtime.codeEpoch();
    EXPECT_GE(EpochAfterEvict, 1u);

    // Reheat: the next run crosses the threshold again and recompiles.
    interp::ExecResult R2 = Runtime.runMain();
    ASSERT_TRUE(R2.ok()) << R2.TrapMessage;
    EXPECT_EQ(R2.Output, Expected);
    Runtime.drainCompilations();
    EXPECT_NE(Runtime.codeCache().installedMethod("hot"), nullptr);
    EXPECT_GT(Runtime.codeCacheStats().MethodInstalls, InstallsBefore);
  }
}

TEST(JitCodeCacheRuntime, PinnedRejectionBacksOffWithoutBlacklisting) {
  // Measure the compiled body sizes with an unbounded probe runtime so the
  // budgeted runtime below has room for exactly one of the two bodies.
  uint64_t SizeA = 0, SizeB = 0;
  {
    std::unique_ptr<ir::Module> M = compile(UnitSource);
    inliner::IncrementalCompiler Compiler{inliner::InlinerConfig()};
    jit::JitRuntime Probe(*M, Compiler, jit::JitConfig());
    Probe.compileNow("fA");
    SizeA = Probe.codeCacheStats().LiveBytes;
    Probe.compileNow("fB");
    SizeB = Probe.codeCacheStats().LiveBytes - SizeA;
    ASSERT_GT(SizeA, 0u);
    ASSERT_GT(SizeB, 0u);
  }

  std::unique_ptr<ir::Module> M = compile(UnitSource);
  inliner::IncrementalCompiler Compiler{inliner::InlinerConfig()};
  jit::JitConfig Config;
  Config.CodeCacheBudget = std::max(SizeA, SizeB);
  jit::JitRuntime Runtime(*M, Compiler, Config);
  Runtime.compileNow("fA");
  ASSERT_NE(Runtime.codeCache().installedMethod("fA"), nullptr);

  // Hold a pin on fA, as a still-in-flight compilation of it would; every
  // install of fB now comes back RejectedPinned. However often that
  // repeats — well past MaxCompileAttempts — it is transient pin
  // contention, not a compile failure: no blacklist strike may accrue.
  Runtime.codeCacheForTest().pin("fA");
  const unsigned Attempts = 2 * Config.MaxCompileAttempts;
  for (unsigned I = 0; I != Attempts; ++I)
    Runtime.compileNow("fB");
  EXPECT_EQ(Runtime.codeCache().installedMethod("fB"), nullptr);
  EXPECT_GE(Runtime.codeCacheStats().AdmissionRejections, Attempts);
  EXPECT_EQ(Runtime.stats().BlacklistedMethods, 0u);
  // fA survived every rejected install untouched.
  ASSERT_NE(Runtime.codeCache().installedMethod("fA"), nullptr);

  // Once the flight lands, the very same method still tiers up (evicting
  // the now-unpinned fA).
  Runtime.codeCacheForTest().unpin("fA");
  Runtime.compileNow("fB");
  EXPECT_NE(Runtime.codeCache().installedMethod("fB"), nullptr);
  EXPECT_EQ(Runtime.codeCache().installedMethod("fA"), nullptr);
  EXPECT_EQ(Runtime.stats().BlacklistedMethods, 0u);
}

/// Counts installed OSR variants of \p Symbol by probing baseline header
/// block ids (test programs are small; 64 covers every block).
unsigned countOsrVariants(const jit::JitRuntime &Runtime,
                          std::string_view Symbol) {
  unsigned N = 0;
  for (unsigned Header = 0; Header < 64; ++Header)
    if (Runtime.installedOsrVariant(Symbol, Header))
      ++N;
  return N;
}

constexpr const char *SpinSource = R"(
def spin(n: int): int {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc + (i * 7) % 11;
    i = i + 1;
  }
  return acc;
}
def main() {
  print(spin(300));
}
)";

TEST(JitCodeCacheRuntime, EvictedOsrVariantReinstallsOutputNeutral) {
  const std::string Expected = [] {
    std::unique_ptr<ir::Module> Ref = compile(SpinSource);
    return incline::testing::runOutput(*Ref);
  }();

  std::unique_ptr<ir::Module> M = compile(SpinSource);
  inliner::IncrementalCompiler Compiler{inliner::InlinerConfig()};
  jit::JitConfig Config;
  Config.CompileThreshold = 1000; // spin is invoked once per run: OSR only.
  Config.Osr = true;
  Config.OsrBackedgeThreshold = 16;
  jit::JitRuntime Runtime(*M, Compiler, Config);

  interp::ExecResult R1 = Runtime.runMain();
  ASSERT_TRUE(R1.ok()) << R1.TrapMessage;
  EXPECT_EQ(R1.Output, Expected);
  ASSERT_GE(Runtime.stats().OsrInstalls, 1u);
  ASSERT_GE(Runtime.stats().OsrEntries, 1u);
  ASSERT_GE(countOsrVariants(Runtime, "spin"), 1u);

  Runtime.evictNow("spin");
  EXPECT_EQ(countOsrVariants(Runtime, "spin"), 0u);
  EXPECT_GE(Runtime.codeCacheStats().OsrEvictions, 1u);

  // The backedge counter was re-warmed: the next run re-tiers mid-loop and
  // reinstalls a variant, with identical output.
  interp::ExecResult R2 = Runtime.runMain();
  ASSERT_TRUE(R2.ok()) << R2.TrapMessage;
  EXPECT_EQ(R2.Output, Expected);
  EXPECT_GE(Runtime.stats().OsrInstalls, 2u);
  EXPECT_GE(countOsrVariants(Runtime, "spin"), 1u);
}

constexpr const char *MidLoopSource = R"(
def leaf(x: int): int { return (x * 5 + 3) % 97; }
def outer(n: int): int {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = (acc + leaf(i)) % 1000003;
    i = i + 1;
  }
  return acc;
}
def main() {
  var j = 0;
  while (j < 4) {
    print(outer(120));
    j = j + 1;
  }
}
)";

TEST(JitCodeCacheRuntime, MidLoopOsrEvictionUnderBudgetPressure) {
  const std::string Expected = [] {
    std::unique_ptr<ir::Module> Ref = compile(MidLoopSource);
    return incline::testing::runOutput(*Ref);
  }();

  // The passthrough compiler keeps leaf out-of-line, so the sequence is:
  // outer's loop tiers up via OSR (backedge 16), execution enters the OSR
  // variant, and *inside that frame* leaf crosses its invocation threshold
  // and sync-compiles. Unbounded first, to size the thrash budget.
  auto makeConfig = [](uint64_t Budget) {
    jit::JitConfig Config;
    Config.CompileThreshold = 30; // leaf crosses it; outer (4/run) never.
    Config.Osr = true;
    Config.OsrBackedgeThreshold = 16;
    Config.CodeCacheBudget = Budget;
    return Config;
  };

  uint64_t Peak = 0;
  {
    std::unique_ptr<ir::Module> M = compile(MidLoopSource);
    PassthroughCompiler Compiler;
    jit::JitRuntime Runtime(*M, Compiler, makeConfig(0));
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.Output, Expected);
    ASSERT_GE(Runtime.stats().OsrEntries, 1u);
    ASSERT_NE(Runtime.codeCache().installedMethod("leaf"), nullptr);
    Peak = Runtime.codeCacheStats().PeakLiveBytes;
    ASSERT_GE(Peak, 2u);
  }

  // Budget = peak - 1: outer's OSR variant and leaf's body can never both
  // be resident, so installing leaf evicts the OSR variant out from under
  // its own executing loop. The frame keeps running the graveyarded body
  // (write-once publish contract) and the loop re-tiers next entry —
  // nothing observable but the eviction counters.
  std::unique_ptr<ir::Module> M = compile(MidLoopSource);
  PassthroughCompiler Compiler;
  jit::JitRuntime Runtime(*M, Compiler, makeConfig(Peak - 1));
  for (int Run = 0; Run < 3; ++Run) {
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.Output, Expected) << "run " << Run;
  }
  const jit::CodeCacheStats &CS = Runtime.codeCacheStats();
  EXPECT_GE(CS.OsrEvictions, 1u); // The mid-loop eviction happened.
  EXPECT_LE(CS.PeakLiveBytes, Peak - 1);
  EXPECT_GE(Runtime.stats().OsrEntries, 1u);
}

TEST(JitCodeCacheRuntime, ForcedEvictionHookIsOutputNeutral) {
  const std::string Expected = [] {
    std::unique_ptr<ir::Module> Ref = compile(HotSource);
    return incline::testing::runOutput(*Ref);
  }();

  std::unique_ptr<ir::Module> M = compile(HotSource);
  inliner::IncrementalCompiler Compiler{inliner::InlinerConfig()};
  jit::JitConfig Config;
  Config.CompileThreshold = 2;
  // Deterministic schedule: every fourth invocation of a compiled method
  // evicts it — the chaos hook's contract is that this is invisible.
  Config.ForceEvict = [Count = std::make_shared<uint64_t>(0)](
                          std::string_view) { return ++*Count % 4 == 0; };
  jit::JitRuntime Runtime(*M, Compiler, Config);
  for (int Run = 0; Run < 3; ++Run) {
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.Output, Expected) << "run " << Run;
  }
  EXPECT_GE(Runtime.codeCacheStats().Evictions, 1u);
  EXPECT_GE(Runtime.codeCacheStats().MethodInstalls, 2u); // Re-tiered.
}

TEST(JitCodeCacheRuntime, DecayTickFlushesTheTrialCache) {
  std::unique_ptr<ir::Module> M = compile(HotSource);
  inliner::InlinerConfig IC;
  IC.TrialCache = inliner::TrialCacheMode::Shared;
  inliner::IncrementalCompiler Compiler(IC);
  jit::JitConfig Config;
  Config.CompileThreshold = 3;
  Config.ProfileDecayHalflife = 32; // Ticks many times inside one run.
  jit::JitRuntime Runtime(*M, Compiler, Config);
  interp::ExecResult R = Runtime.runMain();
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_GE(Runtime.codeCacheStats().DecayTicks, 1u);
  // Decay changes what profiles say, so memoized trial results are stale:
  // each tick flushes the compiler's cache through the same epoch
  // invalidation a deopt uses. (HotSource has no virtual calls, so no
  // deopt can be the one flushing here.)
  ASSERT_NE(Compiler.compileCache(), nullptr);
  EXPECT_GE(Compiler.compileCache()->cacheStats().EpochInvalidations, 1u);
  EXPECT_EQ(Runtime.stats().Invalidations, 0u);
}

//===----------------------------------------------------------------------===//
// Retired-code lifetime
//===----------------------------------------------------------------------===//

/// Entries currently installed (methods + OSR variants), from the
/// lifecycle counters.
uint64_t installedEntries(const jit::CodeCacheStats &S) {
  return S.MethodInstalls + S.OsrInstalls - S.Evictions - S.OsrEvictions -
         S.Invalidations - S.OsrInvalidations;
}

TEST(JitCodeCacheLifecycle, RetiredCodeIsFreedWhenTheOutermostRunReturns) {
  // One runtime under a small budget serves the same request stream three
  // times. Budget pressure retires code all the time, yet after every
  // request the graveyard is empty and the decoded bodies are bounded by
  // what can still run: baseline functions plus installed entries. Memory
  // therefore stays flat across rounds instead of growing with every
  // retirement.
  const std::string Source = workloads::buildTrafficProgram(40);
  std::unique_ptr<ir::Module> M = compile(Source);
  std::unique_ptr<ir::Module> RefM = compile(Source);
  ASSERT_NE(M, nullptr);
  inliner::IncrementalCompiler Compiler{inliner::InlinerConfig()};
  jit::JitConfig Config;
  Config.CompileThreshold = 3;
  Config.CodeCacheBudget = 400;
  jit::JitRuntime Runtime(*M, Compiler, Config);
  jit::JitConfig RefConfig;
  RefConfig.Enabled = false;
  jit::JitRuntime Reference(*RefM, Compiler, RefConfig);

  std::vector<std::string> Stream;
  for (unsigned I = 0; I < 240; ++I)
    Stream.push_back("handler" + std::to_string((I * 7 + I / 40) % 40));

  size_t DecodedAfterRound[3] = {};
  for (int Round = 0; Round < 3; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    for (const std::string &Symbol : Stream) {
      interp::ExecResult R = Runtime.run(Symbol);
      ASSERT_TRUE(R.ok()) << Symbol << ": " << R.TrapMessage;
      if (Round == 0) {
        EXPECT_EQ(R.Output, Reference.run(Symbol).Output) << Symbol;
      }
      ASSERT_EQ(Runtime.codeCache().retiredCount(), 0u) << Symbol;
      ASSERT_LE(Runtime.decodedBodyCount(),
                M->numFunctions() +
                    installedEntries(Runtime.codeCacheStats()))
          << Symbol;
    }
    DecodedAfterRound[Round] = Runtime.decodedBodyCount();
  }
  EXPECT_GE(Runtime.codeCacheStats().Evictions, 1u); // Pressure was real.
  EXPECT_EQ(DecodedAfterRound[1], DecodedAfterRound[2]);
}

TEST(JitCodeCacheLifecycle, NestedRunFreesNothing) {
  const std::string Expected = [] {
    std::unique_ptr<ir::Module> Ref = compile(MidLoopSource);
    return incline::testing::runOutput(*Ref);
  }();

  // Once armed, the hook fires at the first leaf invocation: compiled
  // `outer` is executing up the stack. It evicts that executing body and
  // issues a nested run() — which must not free the retired body, or the
  // outer frame would resume on freed code (ASan reports it; the retired
  // count observed inside the hook says it deterministically).
  struct Probe {
    jit::JitRuntime *RT = nullptr;
    bool Armed = false;
    bool Fired = false;
    std::string NestedOutput;
    size_t RetiredAfterNested = 0;
  };
  auto P = std::make_shared<Probe>();
  std::unique_ptr<ir::Module> M = compile(std::string(MidLoopSource) +
                                          "def other() { print(4242); }\n");
  PassthroughCompiler Compiler;
  jit::JitConfig Config;
  Config.CompileThreshold = 2;
  Config.ForceEvict = [P](std::string_view Symbol) {
    if (!P->Armed || P->Fired || Symbol != "leaf")
      return false;
    P->Fired = true;
    P->RT->evictNow("outer");
    interp::ExecResult Nested = P->RT->run("other");
    P->NestedOutput = Nested.Output;
    P->RetiredAfterNested = P->RT->codeCache().retiredCount();
    return false;
  };
  jit::JitRuntime Runtime(*M, Compiler, Config);
  P->RT = &Runtime;

  interp::ExecResult R1 = Runtime.runMain();
  ASSERT_TRUE(R1.ok()) << R1.TrapMessage;
  EXPECT_EQ(R1.Output, Expected);
  ASSERT_NE(Runtime.codeCache().installedMethod("outer"), nullptr);
  ASSERT_NE(Runtime.codeCache().installedMethod("leaf"), nullptr);

  P->Armed = true;
  interp::ExecResult R2 = Runtime.runMain();
  ASSERT_TRUE(P->Fired);
  ASSERT_TRUE(R2.ok()) << R2.TrapMessage;
  EXPECT_EQ(R2.Output, Expected); // The outer frame finished correctly.
  EXPECT_EQ(P->NestedOutput, "4242\n");
  EXPECT_GE(P->RetiredAfterNested, 1u); // Still parked after the nested run.
  EXPECT_EQ(Runtime.codeCache().retiredCount(), 0u); // Freed on return.
}

//===----------------------------------------------------------------------===//
// Budget bound as a property
//===----------------------------------------------------------------------===//

TEST(JitCodeCacheProperty, BudgetNeverExceededOnRandomPrograms) {
  // Seeded generator programs under a tiny budget, OSR on, in both the
  // mutator-compile and background-compile modes. PeakLiveBytes is the
  // high-water mark over every install, and the Debug assert inside
  // CodeCache::install* aborts mid-run on any transient violation.
  for (uint64_t Seed = 0; Seed < 10; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    const std::string Source = fuzz::generateRandomProgram(Seed);
    std::unique_ptr<ir::Module> Ref = compile(Source);
    ASSERT_NE(Ref, nullptr);
    interp::ExecResult RefRun = interp::runMain(*Ref);
    if (!RefRun.ok())
      continue; // Only behaviour-clean seeds make useful references.

    for (jit::JitMode Mode : {jit::JitMode::Sync, jit::JitMode::Async}) {
      std::unique_ptr<ir::Module> M = compile(Source);
      inliner::IncrementalCompiler Compiler{inliner::InlinerConfig()};
      jit::JitConfig Config;
      Config.CompileThreshold = 2;
      Config.Mode = Mode;
      Config.Threads = 2;
      Config.Osr = true;
      Config.OsrBackedgeThreshold = 4;
      Config.CodeCacheBudget = 64;
      jit::JitRuntime Runtime(*M, Compiler, Config);
      for (int Iter = 0; Iter < 3; ++Iter) {
        interp::ExecResult R = Runtime.runMain();
        ASSERT_TRUE(R.ok()) << R.TrapMessage;
        EXPECT_EQ(R.Output, RefRun.Output);
        EXPECT_LE(Runtime.codeCacheStats().PeakLiveBytes, 64u);
        EXPECT_LE(Runtime.codeCache().liveBytes(), 64u);
      }
      Runtime.drainCompilations();
      EXPECT_LE(Runtime.codeCacheStats().PeakLiveBytes, 64u);
    }
  }
}

} // namespace
