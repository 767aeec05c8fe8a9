//===- bench/table1_codesize_totals.cpp - Table I ---------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table I: total installed code per benchmark for Graal-with-new-inliner,
/// Graal-with-greedy-inliner, and HotSpot C2, with the average growth
/// ratios. The paper reports the new inliner generating on average
/// ~1.88x the code of C2 and ~2.37x the code of the greedy inliner; the
/// reproduction target is the *ordering* (new > c2 > greedy is NOT the
/// paper's claim — the claim is new > both) and a same-ballpark geomean
/// ratio.
///
/// A fourth column reports the minimal-slice configuration (cold-branch
/// pruning of never-taken edges) and its slice/new ratio — the
/// code-size trajectory CI tracks per PR via `--json`.
///
/// `--smoke` shrinks the workload set and repetition counts for ctest.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <cstring>

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

bool Smoke = false;

std::vector<Workload> benchWorkloads() {
  std::vector<Workload> Ws = allWorkloads();
  if (Smoke) {
    Ws.resize(std::min<size_t>(Ws.size(), 3));
    for (Workload &W : Ws)
      W.Iterations = 4;
  }
  return Ws;
}

std::vector<CompilerVariant> variants() {
  return {incrementalVariant("new"), greedyVariant(), c2Variant()};
}

CompilerVariant sliceVariant() {
  inliner::InlinerConfig Config;
  Config.EnableColdBranchPruning = true;
  // Never-taken edges only: a positive threshold would prune loop exits.
  Config.ColdPruneMaxProbability = 0.0;
  return incrementalVariant("new-slice", Config);
}

void printTables() {
  std::printf("\n=== Table I: total installed code size (|ir| nodes) ===\n");
  std::printf("%-12s %10s %10s %10s %10s %12s %12s %12s\n", "workload",
              "new", "greedy", "c2", "new-slice", "new/greedy", "new/c2",
              "slice/new");
  std::vector<double> VsGreedy, VsC2, SliceVsNew;
  CompilerVariant Slice = sliceVariant();
  for (const Workload &W : benchWorkloads()) {
    uint64_t Sizes[3];
    const auto &Vs = variants();
    for (size_t VI = 0; VI < Vs.size(); ++VI)
      Sizes[VI] = globalCache().get(W, Vs[VI]).InstalledCodeSize;
    uint64_t SliceSize = globalCache().get(W, Slice).InstalledCodeSize;
    double RatioGreedy =
        Sizes[1] ? static_cast<double>(Sizes[0]) / Sizes[1] : 0.0;
    double RatioC2 = Sizes[2] ? static_cast<double>(Sizes[0]) / Sizes[2]
                              : 0.0;
    double RatioSlice =
        Sizes[0] ? static_cast<double>(SliceSize) / Sizes[0] : 0.0;
    if (RatioGreedy > 0)
      VsGreedy.push_back(RatioGreedy);
    if (RatioC2 > 0)
      VsC2.push_back(RatioC2);
    if (RatioSlice > 0)
      SliceVsNew.push_back(RatioSlice);
    std::printf("%-12s %10llu %10llu %10llu %10llu %12.2f %12.2f %12.2f\n",
                W.Name.c_str(), static_cast<unsigned long long>(Sizes[0]),
                static_cast<unsigned long long>(Sizes[1]),
                static_cast<unsigned long long>(Sizes[2]),
                static_cast<unsigned long long>(SliceSize), RatioGreedy,
                RatioC2, RatioSlice);
    recordJsonResult(W.Name + "/totals",
                     {{"new_code", static_cast<double>(Sizes[0])},
                      {"greedy_code", static_cast<double>(Sizes[1])},
                      {"c2_code", static_cast<double>(Sizes[2])},
                      {"slice_code", static_cast<double>(SliceSize)},
                      {"new_vs_greedy", RatioGreedy},
                      {"new_vs_c2", RatioC2},
                      {"slice_vs_new", RatioSlice}});
  }
  std::printf("%-12s %10s %10s %10s %10s %12.2f %12.2f %12.2f\n", "geomean",
              "", "", "", "", geomean(VsGreedy), geomean(VsC2),
              geomean(SliceVsNew));
  std::printf("\nPaper values for reference: new/greedy ~ 2.37x, "
              "new/c2 ~ 1.88x (averages over their suites).\n");
  recordJsonResult("geomeans", {{"new_vs_greedy", geomean(VsGreedy)},
                                {"new_vs_c2", geomean(VsC2)},
                                {"slice_vs_new", geomean(SliceVsNew)}});
}

} // namespace

int main(int argc, char **argv) {
  // Peel --smoke before google-benchmark sees the argument list.
  int Out = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
      continue;
    }
    argv[Out++] = argv[I];
  }
  argc = Out;
  registerBenchmarks(benchWorkloads(), variants());
  registerBenchmarks(benchWorkloads(), {sliceVariant()});
  return benchMain(argc, argv, printTables);
}
