//===- bench/fig10_codesize.cpp - Figure 10 ---------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 10: installed code size per benchmark for the proposed inliner,
/// the greedy inliner, and the C2-style inliner — plus the C1-like first
/// tier compiling *every invoked method* (compile threshold 1), the
/// paper's "transparent bars" context showing that a first tier often
/// installs more total code than a selective second tier.
///
/// A second table measures the minimal-slice configuration: the
/// incremental inliner with profile-guided cold-branch pruning enabled.
/// The acceptance bar: the aggressive
/// inliner's code-size overhead over the C2 baseline shrinks by >= 25%,
/// program outputs stay bit-equal, and the geomean effective-cycles
/// regression stays <= 2% (an uncommon trap on a genuinely cold path is
/// free; a mispruned path costs one deopt + recompile-without-the-prune).
///
/// `--smoke` shrinks the workload set and repetition counts so CI can run
/// the binary as a ctest entry.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

std::vector<CompilerVariant> secondTierVariants() {
  return {incrementalVariant(), greedyVariant(), c2Variant()};
}

RunConfig c1Config() {
  RunConfig Config;
  Config.Jit.CompileThreshold = 1; // The first tier compiles everything.
  return Config;
}

/// The minimal-slice configuration: prune branch edges the profile has
/// *never* seen taken (threshold 0; a positive threshold would also prune
/// loop exits — taken with probability 1/trip-count but certain to fire,
/// guaranteeing a trap + recompile that erases the savings) behind
/// uncommon traps.
CompilerVariant sliceVariant() {
  inliner::InlinerConfig Config;
  Config.EnableColdBranchPruning = true;
  Config.ColdPruneMaxProbability = 0.0;
  return incrementalVariant("incr-slice", Config);
}

void printTables() {
  const std::vector<Workload> Workloads = benchWorkloads();
  std::printf("\n=== Fig.10: installed code size (|ir| nodes) ===\n");
  std::printf("%-12s %12s %8s %8s %14s\n", "workload", "incremental",
              "greedy", "c2", "c1(all-hot)");
  CompilerVariant C1 = c1Variant();
  for (const Workload &W : Workloads) {
    std::printf("%-12s", W.Name.c_str());
    for (const CompilerVariant &Variant : secondTierVariants()) {
      const RunResult &Result = globalCache().get(W, Variant);
      std::printf(" %12llu",
                  static_cast<unsigned long long>(Result.InstalledCodeSize));
    }
    const RunResult &C1Result = globalCache().get(W, C1, c1Config());
    std::printf(" %14llu\n",
                static_cast<unsigned long long>(C1Result.InstalledCodeSize));
  }
  std::printf("\nPaper shape: the proposed inliner usually installs the "
              "most second-tier code,\nbut a first tier that compiles "
              "every invoked method can exceed it.\n");

  // Minimal-slice table: the same incremental inliner with cold-branch
  // pruning on, against the plain run and the C2 baseline.
  // "Overhead" is the extra code the aggressive inliner installs over C2.
  std::printf("\n=== Fig.10 minimal-slice: never-taken prune on ===\n");
  std::printf("%-12s %8s %8s %8s %8s %8s %7s %9s %5s\n", "workload", "incr",
              "slice", "c2", "over", "over'", "shrink", "cyc-ratio", "out=");
  CompilerVariant Incr = incrementalVariant();
  CompilerVariant Slice = sliceVariant();
  CompilerVariant C2 = c2Variant();
  std::vector<double> Shrinks;
  std::vector<double> CycleRatios;
  bool AllEqual = true;
  for (const Workload &W : Workloads) {
    const RunResult &Plain = globalCache().get(W, Incr);
    const RunResult &Sliced = globalCache().get(W, Slice);
    const RunResult &Baseline = globalCache().get(W, C2);
    const double Over =
        Plain.InstalledCodeSize > Baseline.InstalledCodeSize
            ? static_cast<double>(Plain.InstalledCodeSize -
                                  Baseline.InstalledCodeSize)
            : 0.0;
    const double OverSlice =
        Sliced.InstalledCodeSize > Baseline.InstalledCodeSize
            ? static_cast<double>(Sliced.InstalledCodeSize -
                                  Baseline.InstalledCodeSize)
            : 0.0;
    const double Shrink = Over > 0 ? 1.0 - OverSlice / Over : 0.0;
    const double CycRatio = Plain.SteadyStateCycles > 0
                                ? Sliced.SteadyStateCycles /
                                      Plain.SteadyStateCycles
                                : 1.0;
    const bool OutEqual =
        Sliced.Output == Plain.Output && Sliced.Ok && Plain.Ok;
    AllEqual = AllEqual && OutEqual;
    // Only workloads where the aggressive inliner actually pays an
    // overhead count toward the shrink average; where incr <= c2 there
    // is nothing to slice away.
    if (Over > 0)
      Shrinks.push_back(Shrink);
    CycleRatios.push_back(CycRatio > 0 ? CycRatio : 1.0);
    std::printf("%-12s %8llu %8llu %8llu %8.0f %8.0f %6.0f%% %9.3f %5s\n",
                W.Name.c_str(),
                static_cast<unsigned long long>(Plain.InstalledCodeSize),
                static_cast<unsigned long long>(Sliced.InstalledCodeSize),
                static_cast<unsigned long long>(Baseline.InstalledCodeSize),
                Over, OverSlice, 100.0 * Shrink, CycRatio,
                OutEqual ? "yes" : "NO");
    recordJsonResult(W.Name + "/minimal-slice",
                     {{"incr_code",
                       static_cast<double>(Plain.InstalledCodeSize)},
                      {"slice_code",
                       static_cast<double>(Sliced.InstalledCodeSize)},
                      {"c2_code",
                       static_cast<double>(Baseline.InstalledCodeSize)},
                      {"overhead_shrink", Shrink},
                      {"cycles_ratio", CycRatio},
                      {"branches_pruned",
                       static_cast<double>(Sliced.JitStats.BranchesPruned)},
                      {"cold_branch_deopts",
                       static_cast<double>(Sliced.JitStats.ColdBranchDeopts)},
                      {"outputs_equal", OutEqual ? 1.0 : 0.0}});
  }
  double MeanShrink = 0;
  for (double S : Shrinks)
    MeanShrink += S;
  if (!Shrinks.empty())
    MeanShrink /= static_cast<double>(Shrinks.size());
  const double GeoCycles = geomean(CycleRatios);
  const bool Pass = AllEqual && MeanShrink >= 0.25 && GeoCycles <= 1.02;
  std::printf("\nacceptance: mean overhead-vs-c2 shrink %.0f%% (bar >= "
              "25%%), geomean cycles ratio %.3f\n(bar <= 1.02), outputs %s "
              "=> %s\n",
              100.0 * MeanShrink, GeoCycles,
              AllEqual ? "bit-equal" : "UNEQUAL", Pass ? "PASS" : "FAIL");
  recordJsonResult("minimal-slice-acceptance",
                   {{"mean_overhead_shrink", MeanShrink},
                    {"geomean_cycles_ratio", GeoCycles},
                    {"outputs_equal", AllEqual ? 1.0 : 0.0},
                    {"pass", Pass ? 1.0 : 0.0}});
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
