//===- bench/fig6_expansion_thresholds.cpp - Figure 6 ----------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 6: the adaptive expansion threshold (Eq. 8) against fixed
/// tree-size thresholds T_e in {500, 1k, 3k, 5k, 7k}. The paper's claim:
/// some fixed value can match the adaptive policy on any given benchmark,
/// but no single fixed value works across benchmarks, while the adaptive
/// policy tracks each benchmark's optimum.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

std::vector<CompilerVariant> variants() {
  std::vector<CompilerVariant> Result;
  Result.push_back(incrementalVariant("adaptive"));
  for (double Te : {500.0, 1000.0, 3000.0, 5000.0, 7000.0}) {
    inliner::InlinerConfig Config;
    Config.ExpansionPolicy = inliner::ExpansionPolicyKind::FixedTreeSize;
    Config.FixedExpansionThreshold = Te;
    Result.push_back(incrementalVariant(
        "Te=" + std::to_string(static_cast<int>(Te)), Config));
  }
  return Result;
}

void printTables() {
  printComparisonTable(
      "Fig.6: adaptive vs fixed expansion thresholds (speedup vs adaptive; "
      "<1 means the fixed threshold is slower)",
      benchWorkloads(), variants());
  std::printf(
      "\nReading: per-workload best fixed T_e varies; the adaptive policy "
      "should be within a few %% of each row's best fixed value.\n");
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
