//===- bench/ablation_poly.cpp - Polymorphic-inlining ablation --------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the polymorphic-inlining limits (§IV): the paper found
/// "a maximum of 3 targets, where each target must have at least a 10%
/// probability, is usually a good tradeoff against the typeswitch
/// overhead". Variants: polymorphic inlining off, and max-target /
/// min-probability sweeps around the paper's values.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

std::vector<CompilerVariant> variants() {
  std::vector<CompilerVariant> Result;
  Result.push_back(incrementalVariant("poly3@10%"));
  {
    inliner::InlinerConfig Config;
    Config.EnablePolymorphicInlining = false;
    Result.push_back(incrementalVariant("poly-off", Config));
  }
  for (size_t MaxTargets : {1u, 2u, 5u}) {
    inliner::InlinerConfig Config;
    Config.MaxPolymorphicTargets = MaxTargets;
    Result.push_back(incrementalVariant(
        "poly" + std::to_string(MaxTargets) + "@10%", Config));
  }
  for (double MinProb : {0.05, 0.25}) {
    inliner::InlinerConfig Config;
    Config.MinReceiverProbability = MinProb;
    Result.push_back(incrementalVariant(
        "poly3@" + std::to_string(static_cast<int>(MinProb * 100)) + "%",
        Config));
  }
  return Result;
}

void printTables() {
  printComparisonTable(
      "Ablation: polymorphic inlining limits (speedup vs poly3@10%)",
      benchWorkloads(), variants());
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
