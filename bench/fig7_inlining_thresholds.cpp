//===- bench/fig7_inlining_thresholds.cpp - Figure 7 -----------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 7: the adaptive inlining threshold (Eq. 12) against fixed
/// root-size thresholds T_i in {1k, 3k, 6k}. Same claim shape as Fig. 6:
/// large fixed budgets help a few benchmarks (the paper names jython,
/// factorie, gauss-mix) but hurt most others through code growth.
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
  // The paper sweeps T_i in {1k, 3k, 6k} Graal nodes; our IR is roughly
  // 5-10x denser (MiniOO methods are 10-60 nodes where Java methods are
  // hundreds of bytecodes), so the equivalent sweep is scaled down.
  for (double Ti : {200.0, 600.0, 1500.0}) {
    inliner::InlinerConfig Config;
    Config.InliningPolicy = inliner::InliningPolicyKind::FixedRootSize;
    Config.FixedInliningThreshold = Ti;
    Result.push_back(incrementalVariant(
        "Ti=" + std::to_string(static_cast<int>(Ti)), Config));
  }
  return Result;
}

void printTables() {
  printComparisonTable(
      "Fig.7: adaptive vs fixed inlining thresholds (speedup vs adaptive)",
      benchWorkloads(), variants());
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
