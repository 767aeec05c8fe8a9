//===- bench/server_traffic.cpp - Multi-tenant tail-latency bench ----------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Server-scale traffic over one runtime (workloads/Traffic.h): three
/// scenarios — `stationary` (one fixed hot set), `phase-shift` (the hot
/// window moves every phase), `tenant-churn` (phase shifts plus pool slots
/// replaced by never-seen tenants) — each measured twice:
///
///  * `unbounded`  — code-cache budget 0, profile decay off: the
///    pre-lifecycle configuration, code accumulates forever.
///  * `bounded`    — budget pinned to 50% of the unbounded run's *peak*
///    code footprint, profile decay on: the lifecycle configuration under
///    genuine cache pressure.
///
/// Reported per cell: throughput (requests per Mcycle) and p50/p99/p999
/// request latency in effective cycles (+ mutator compile-stall ns at
/// 1 ns ≡ 1 cycle), plus the code footprint and lifecycle counters. The
/// acceptance bar printed at the bottom is ISSUE 7's: bounded p99 within
/// 2x of unbounded at <= 50% of its peak code bytes, with bit-equal
/// request outputs (eviction and decay are performance decisions, never
/// correctness events).
///
/// A fourth scenario, `hostile-tenant`, adds deep-call-tree tenants under a
/// tight compile deadline and compares the graceful-degradation ladder off
/// vs on: ladder-on must hold p99 at or below ladder-off with bit-equal
/// outputs (a deadline bailout is a scheduling decision, never a
/// correctness event).
///
/// `--smoke` shrinks every scenario (tiny stream counts) so CI can run the
/// binary as a ctest entry without paying the full simulation.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/Traffic.h"

#include <algorithm>
#include <cstdio>
#include <string>

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

struct Scenario {
  const char *Name;
  unsigned PhaseLength;  ///< 0 = stationary.
  unsigned ChurnInterval; ///< 0 = no churn.
};

const Scenario Scenarios[] = {
    {"stationary", 0, 0},
    {"phase-shift", 1, 0},  // PhaseLength scaled in configOf.
    {"tenant-churn", 1, 1}, // Both scaled in configOf.
};

/// How the code cache (and the compiler feeding it) is configured.
enum class CacheMode {
  Unbounded,    ///< No budget, no decay: pre-lifecycle configuration.
  Bounded,      ///< Budget = 50% of unbounded peak, decay on.
  BoundedPrune, ///< Bounded + cold-branch pruning (ISSUE 10): same budget,
                ///< but compiles install only the hot slice.
};

const char *cacheModeName(CacheMode Mode) {
  switch (Mode) {
  case CacheMode::Unbounded:
    return "unbounded";
  case CacheMode::Bounded:
    return "bounded";
  case CacheMode::BoundedPrune:
    return "bound+prune";
  }
  return "?";
}

TrafficConfig configOf(const Scenario &S, bool Bounded, uint64_t Budget) {
  TrafficConfig Config;
  Config.Seed = 7;
  Config.Tenants = smoke() ? 10 : 40;
  Config.Requests = smoke() ? 300 : 6000;
  Config.HotSetSize = smoke() ? 3 : 5;
  if (S.PhaseLength != 0)
    Config.PhaseLength = smoke() ? 75 : 1200;
  if (S.ChurnInterval != 0)
    Config.ChurnInterval = smoke() ? 50 : 150;
  // Sync keeps the whole run deterministic (the compile stall lands on the
  // exact request that triggered it — the tail the bench is after).
  Config.Jit.Mode = jit::JitMode::Sync;
  Config.Jit.CompileThreshold = 10;
  Config.Jit.Osr = true;
  Config.Jit.OsrBackedgeThreshold = smoke() ? 200 : 400;
  if (Bounded) {
    Config.Jit.CodeCacheBudget = Budget;
    Config.Jit.ProfileDecayHalflife = smoke() ? 5000 : 50000;
  }
  return Config;
}

struct Cell {
  TrafficResult R;
  uint64_t Budget = 0;
};

/// One simulation of (scenario, mode) under code-cache budget \p Budget
/// (0 when unbounded). Both bounded cells get half the unbounded cell's
/// peak footprint, so the prune cell competes for exactly the budget the
/// plain bounded cell got. One shared-TrialCache compiler per cell:
/// eviction/decay interplay with cross-compilation memoization is part of
/// what's measured.
Cell runCell(const Scenario &S, CacheMode Mode, uint64_t Budget) {
  Cell C;
  C.Budget = Budget;
  inliner::InlinerConfig InlineConfig;
  InlineConfig.TrialCache = inliner::TrialCacheMode::Shared;
  if (Mode == CacheMode::BoundedPrune) {
    InlineConfig.EnableColdBranchPruning = true;
    // Never-taken edges only: a positive threshold would prune loop exits
    // (probability 1/trip-count but certain to fire), and the resulting
    // trap + recompile churn would undo the cache-pressure win.
    InlineConfig.ColdPruneMaxProbability = 0.0;
  }
  inliner::IncrementalCompiler Compiler(InlineConfig);
  C.R = runTraffic(Compiler,
                   configOf(S, Mode != CacheMode::Unbounded, C.Budget));
  if (!C.R.Ok)
    std::fprintf(stderr, "WARNING: scenario %s (%s) failed: %s\n", S.Name,
                 cacheModeName(Mode), C.R.Error.c_str());
  return C;
}

/// Supervised-compilation scenario: a stationary mix plus hostile tenants
/// whose deep helper chains blow a deliberately tight compile deadline.
/// Measured twice — degradation ladder off (every deadline bailout is a
/// plain failed attempt, retried at full strength until the method strikes
/// out) vs on (the first bailout steps the method down a rung and the
/// cheaper compile succeeds) — with bit-equal outputs required: the ladder
/// is a performance policy, never a correctness event.
TrafficConfig hostileConfigOf(bool LadderOn) {
  Scenario Stationary = Scenarios[0];
  TrafficConfig Config = configOf(Stationary, /*Bounded=*/false, 0);
  Config.HostileTenants = 3;
  Config.HostileSharePercent = 15;
  Config.Jit.CompileDeadlineUnits = 60;
  Config.Jit.DegradeLadder = LadderOn;
  return Config;
}

Cell runHostile(bool LadderOn) {
  Cell C;
  inliner::InlinerConfig InlineConfig;
  InlineConfig.TrialCache = inliner::TrialCacheMode::Shared;
  inliner::IncrementalCompiler Compiler(InlineConfig);
  C.R = runTraffic(Compiler, hostileConfigOf(LadderOn));
  if (!C.R.Ok)
    std::fprintf(stderr, "WARNING: scenario hostile-tenant (%s) failed: %s\n",
                 LadderOn ? "ladder-on" : "ladder-off", C.R.Error.c_str());
  return C;
}

void printTables() {
  std::printf("\nMulti-tenant traffic: throughput and request-latency tails "
              "(%s scale)\n",
              smoke() ? "smoke" : "full");
  std::printf("%-14s %-11s %9s %10s %10s %10s %9s %9s %7s %6s\n", "scenario",
              "cache", "req/Mcy", "p50", "p99", "p999", "peak|ir|", "budget",
              "evict", "out=");
  bool AllPass = true;
  for (const Scenario &S : Scenarios) {
    const Cell U = runCell(S, CacheMode::Unbounded, 0);
    const uint64_t Budget = std::max<uint64_t>(U.R.PeakCodeBytes / 2, 1);
    const Cell B = runCell(S, CacheMode::Bounded, Budget);
    const Cell P = runCell(S, CacheMode::BoundedPrune, Budget);
    const bool OutEqual = U.R.OutputDigest == B.R.OutputDigest;
    const bool PruneOutEqual = U.R.OutputDigest == P.R.OutputDigest;
    const double P99Ratio = U.R.P99 > 0 ? B.R.P99 / U.R.P99 : 0;
    const double BytesRatio =
        U.R.PeakCodeBytes > 0 ? static_cast<double>(B.R.PeakCodeBytes) /
                                    static_cast<double>(U.R.PeakCodeBytes)
                              : 0;
    const uint64_t BoundEvict =
        B.R.CacheStats.Evictions + B.R.CacheStats.OsrEvictions;
    const uint64_t PruneEvict =
        P.R.CacheStats.Evictions + P.R.CacheStats.OsrEvictions;
    const double PruneP99Ratio = B.R.P99 > 0 ? P.R.P99 / B.R.P99 : 0;
    const bool Pass = OutEqual && P99Ratio <= 2.0 && BytesRatio <= 0.5 &&
                      U.R.Ok && B.R.Ok;
    // ISSUE 10's bar: under the same budget, pruned compiles must thrash
    // the cache strictly less, with bit-equal outputs and a flat-or-better
    // tail (a 10% allowance absorbs compile-stall timing noise). When the
    // plain bounded cell already fits without a single eviction there is
    // nothing left to beat — both-zero counts as met.
    const bool EvictBar =
        BoundEvict == 0 ? PruneEvict == 0 : PruneEvict < BoundEvict;
    const bool PrunePass =
        PruneOutEqual && EvictBar && PruneP99Ratio <= 1.10 && P.R.Ok;
    AllPass = AllPass && Pass && PrunePass;
    for (const Cell *C : {&U, &B, &P}) {
      const CacheMode Mode = C == &U   ? CacheMode::Unbounded
                             : C == &B ? CacheMode::Bounded
                                       : CacheMode::BoundedPrune;
      const bool CellOutEqual =
          Mode == CacheMode::BoundedPrune ? PruneOutEqual : OutEqual;
      std::printf("%-14s %-11s %9.2f %10.0f %10.0f %10.0f %9llu %9llu %7llu "
                  "%6s\n",
                  S.Name, cacheModeName(Mode), C->R.Throughput,
                  C->R.P50, C->R.P99, C->R.P999,
                  static_cast<unsigned long long>(C->R.PeakCodeBytes),
                  static_cast<unsigned long long>(C->Budget),
                  static_cast<unsigned long long>(C->R.CacheStats.Evictions +
                                                  C->R.CacheStats.OsrEvictions),
                  Mode != CacheMode::Unbounded ? (CellOutEqual ? "yes" : "NO")
                                               : "-");
      recordJsonResult(
          std::string(S.Name) + "/" + cacheModeName(Mode),
          {{"throughput_per_mcy", C->R.Throughput},
           {"p50_cy", C->R.P50},
           {"p99_cy", C->R.P99},
           {"p999_cy", C->R.P999},
           {"mean_cy", C->R.MeanCycles},
           {"requests", static_cast<double>(C->R.Requests)},
           {"peak_code_bytes", static_cast<double>(C->R.PeakCodeBytes)},
           {"budget", static_cast<double>(C->Budget)},
           {"evictions", static_cast<double>(C->R.CacheStats.Evictions)},
           {"osr_evictions", static_cast<double>(C->R.CacheStats.OsrEvictions)},
           {"decay_ticks", static_cast<double>(C->R.CacheStats.DecayTicks)},
           {"admission_rejections",
            static_cast<double>(C->R.CacheStats.AdmissionRejections)},
           {"branches_pruned",
            static_cast<double>(C->R.JitStats.BranchesPruned)},
           {"cold_branch_deopts",
            static_cast<double>(C->R.JitStats.ColdBranchDeopts)},
           {"prunes_blacklisted",
            static_cast<double>(C->R.JitStats.PrunesBlacklisted)},
           {"outputs_equal", CellOutEqual ? 1.0 : 0.0},
           {"p99_ratio_vs_unbounded",
            Mode != CacheMode::Unbounded && U.R.P99 > 0 ? C->R.P99 / U.R.P99
                                                        : 1.0},
           {"peak_bytes_ratio_vs_unbounded",
            Mode != CacheMode::Unbounded ? BytesRatio : 1.0}});
    }
    std::printf("%-14s %-11s p99 ratio %.2fx (bar <= 2x), peak bytes %.0f%% "
                "(bar <= 50%%) => %s\n",
                S.Name, "", P99Ratio, 100.0 * BytesRatio,
                Pass ? "PASS" : "FAIL");
    std::printf("%-14s %-11s prune: evictions %llu -> %llu (bar: strictly "
                "lower), p99 %.2fx vs bounded\n%-14s %-11s (bar <= 1.10x), "
                "outputs %s => %s\n",
                S.Name, "", static_cast<unsigned long long>(BoundEvict),
                static_cast<unsigned long long>(PruneEvict), PruneP99Ratio,
                "", "", PruneOutEqual ? "equal" : "UNEQUAL",
                PrunePass ? "PASS" : "FAIL");
  }
  // Hostile-tenant / supervised-compilation table: deep-call-tree tenants
  // under a tight compile deadline, ladder off vs on.
  const Cell LOff = runHostile(false);
  const Cell LOn = runHostile(true);
  const bool HostileOutEqual = LOff.R.OutputDigest == LOn.R.OutputDigest;
  const double LadderP99Ratio = LOff.R.P99 > 0 ? LOn.R.P99 / LOff.R.P99 : 0;
  // The tail bar carries a noise allowance: the p99 includes real mutator
  // compile-stall nanoseconds (the one wall-clock term in the latency
  // model), so exact <= 1x is a coin flip when both cells stall similarly.
  // The ladder's hard guarantees are deterministic and asserted exactly:
  // bit-equal output and zero blacklist strikes under deadline pressure
  // (ladder-off blacklists its hostile tenants instead).
  const bool HostilePass = HostileOutEqual && LadderP99Ratio <= 1.25 &&
                           LOn.R.JitStats.BlacklistedMethods == 0 &&
                           LOff.R.Ok && LOn.R.Ok;
  std::printf("\nHostile tenants under a compile deadline (%u work units): "
              "degradation ladder off vs on\n",
              hostileConfigOf(true).Jit.CompileDeadlineUnits != 0
                  ? static_cast<unsigned>(
                        hostileConfigOf(true).Jit.CompileDeadlineUnits)
                  : 0u);
  std::printf("%-14s %-10s %9s %10s %10s %10s %9s %8s %7s %6s\n",
              "scenario", "ladder", "req/Mcy", "p50", "p99", "p999",
              "deadline", "downs", "upgrade", "out=");
  for (const Cell *C : {&LOff, &LOn}) {
    const bool LadderOn = C == &LOn;
    std::printf("%-14s %-10s %9.2f %10.0f %10.0f %10.0f %9llu %8llu %7llu "
                "%6s\n",
                "hostile-tenant", LadderOn ? "on" : "off", C->R.Throughput,
                C->R.P50, C->R.P99, C->R.P999,
                static_cast<unsigned long long>(C->R.JitStats.DeadlineBailouts),
                static_cast<unsigned long long>(C->R.JitStats.LadderStepDowns),
                static_cast<unsigned long long>(C->R.JitStats.LadderUpgrades),
                LadderOn ? (HostileOutEqual ? "yes" : "NO") : "-");
    recordJsonResult(
        std::string("hostile-tenant/") + (LadderOn ? "ladder-on" : "ladder-off"),
        {{"throughput_per_mcy", C->R.Throughput},
         {"p50_cy", C->R.P50},
         {"p99_cy", C->R.P99},
         {"p999_cy", C->R.P999},
         {"hostile_requests", static_cast<double>(C->R.HostileRequests)},
         {"deadline_bailouts",
          static_cast<double>(C->R.JitStats.DeadlineBailouts)},
         {"ladder_step_downs",
          static_cast<double>(C->R.JitStats.LadderStepDowns)},
         {"ladder_upgrades", static_cast<double>(C->R.JitStats.LadderUpgrades)},
         {"ladder_interp_only",
          static_cast<double>(C->R.JitStats.LadderInterpreterOnly)},
         {"outputs_equal", HostileOutEqual ? 1.0 : 0.0},
         {"p99_ratio_vs_ladder_off", LadderOn ? LadderP99Ratio : 1.0}});
  }
  std::printf("%-14s %-10s p99 ratio %.2fx (bar <= 1.25x), "
              "ladder-on blacklisted=%llu (bar 0), outputs %s => %s\n",
              "hostile-tenant", "", LadderP99Ratio,
              static_cast<unsigned long long>(
                  LOn.R.JitStats.BlacklistedMethods),
              HostileOutEqual ? "equal" : "UNEQUAL",
              HostilePass ? "PASS" : "FAIL");
  AllPass = AllPass && HostilePass;

  std::printf("\nacceptance: bounded cache holds p99 within 2x of unbounded "
              "at <= 50%% of its peak\ncode footprint, with bit-equal request "
              "outputs; cold-branch pruning under the\nsame budget evicts "
              "strictly less at a flat-or-better p99; the degradation\n"
              "ladder holds hostile-tenant p99 within 1.25x of ladder-off, "
              "zero blacklist\nstrikes, bit-equal outputs => %s\n",
              AllPass ? "PASS" : "FAIL");
  recordJsonResult("acceptance", {{"all_pass", AllPass ? 1.0 : 0.0}});
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
