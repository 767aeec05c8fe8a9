//===- bench/ablation_penalty.cpp - Exploration-penalty ablation ------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the exploration penalty psi (Eq. 7) — the design choice the
/// paper motivates with "we avoid exploring one part of the call tree too
/// much at the expense of other parts". Variants: the tuned penalty, no
/// penalty at all (p1=p2=b1=0), double penalty, and no cutoff-count rebate
/// (b1=0 only).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

std::vector<CompilerVariant> variants() {
  std::vector<CompilerVariant> Result;
  Result.push_back(incrementalVariant("psi-tuned"));
  {
    inliner::InlinerConfig Config;
    Config.P1 = 0;
    Config.P2 = 0;
    Config.B1 = 0;
    Result.push_back(incrementalVariant("psi-off", Config));
  }
  {
    inliner::InlinerConfig Config;
    Config.P1 *= 2;
    Config.P2 *= 2;
    Result.push_back(incrementalVariant("psi-2x", Config));
  }
  {
    inliner::InlinerConfig Config;
    Config.B1 = 0; // No "few cutoffs left" rebate.
    Result.push_back(incrementalVariant("psi-no-rebate", Config));
  }
  return Result;
}

void printTables() {
  printComparisonTable(
      "Ablation: exploration penalty psi (Eq.7) (speedup vs tuned)",
      benchWorkloads(), variants());
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
