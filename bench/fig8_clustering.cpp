//===- bench/fig8_clustering.cpp - Figure 8 ---------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 8: callsite clustering (Listing 6) against the classic 1-by-1
/// policy (every method its own cluster), across a grid of inlining-
/// threshold parameters (t1, t2). The paper's claim: 1-by-1 is quite
/// sensitive to (t1, t2) — the best grid point for one benchmark loses
/// badly on another — while clustering either matches or beats the best
/// 1-by-1 variant and is comparatively insensitive to the parameters.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

std::vector<CompilerVariant> variants() {
  std::vector<CompilerVariant> Result;
  struct Grid {
    double T1, T2;
  };
  // Our substrate-tuned default is (0.002, 120); the paper's 1-by-1 sweep
  // highlights (0.0001, 1440) as the frequent best choice.
  const Grid Points[] = {{0.002, 120.0}, {0.0001, 1440.0}, {0.01, 60.0}};
  for (bool Clustering : {true, false}) {
    for (const Grid &P : Points) {
      inliner::InlinerConfig Config;
      Config.UseClustering = Clustering;
      Config.T1 = P.T1;
      Config.T2 = P.T2;
      char Label[64];
      std::snprintf(Label, sizeof(Label), "%s t1=%g t2=%g",
                    Clustering ? "cluster" : "1-by-1", P.T1, P.T2);
      Result.push_back(incrementalVariant(Label, Config));
    }
  }
  return Result;
}

void printTables() {
  printComparisonTable("Fig.8: clustering vs 1-by-1 across (t1,t2) "
                       "(speedup vs cluster-default)",
                       benchWorkloads(), variants());
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
