//===- bench/fig9_comparison.cpp - Figure 9 ---------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 9, the headline comparison: the proposed inliner (with deep
/// inlining trials) against (a) the same inliner with shallow trials
/// (specialization only at the root's direct callees — the ablation of
/// §V "Deep inlining trials"), (b) the open-source-Graal-style greedy
/// inliner, and (c) the HotSpot-C2-style inliner. Paper shapes to expect:
/// the proposed inliner wins everywhere except small regressions; the
/// largest factors appear on the Scala-shaped workloads; deep trials
/// matter most on polymorphic-heavy code (the paper: actors, factorie,
/// gauss-mix).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

std::vector<CompilerVariant> variants() {
  std::vector<CompilerVariant> Result;
  Result.push_back(incrementalVariant("incremental"));
  inliner::InlinerConfig Shallow;
  Shallow.DeepTrials = false;
  Result.push_back(incrementalVariant("shallow-trials", Shallow));
  Result.push_back(greedyVariant());
  Result.push_back(c2Variant());
  return Result;
}

void printTables() {
  printComparisonTable(
      "Fig.9: proposed inliner vs shallow trials / greedy / C2-style "
      "(speedup vs incremental; <1 = that variant is slower)",
      benchWorkloads(), variants());
  std::printf("\nPaper shapes: incremental >= all variants on nearly every "
              "workload;\nthe gap vs greedy/C2 is largest on the "
              "scala-dacapo group;\nshallow trials cost most on "
              "polymorphic-heavy workloads.\n");
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
