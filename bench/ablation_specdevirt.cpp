//===- bench/ablation_specdevirt.cpp - Speculative devirt ablation ----------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of speculative devirtualization: a hot dispatch loop whose
/// receiver is 100% monomorphic at runtime but *not provable* by CHA (a
/// second overriding class is live elsewhere in the program), so the direct
/// call — and everything inlining unlocks behind it — is only reachable by
/// speculating on the profile and guarding the receiver class, deopt on the
/// fail edge. Variants:
///
///   cha-only     no speculation, no polymorphic inlining: the callsite
///                stays a virtual dispatch (what CHA alone can do here).
///   speculative  profile-guarded direct call with deoptimization.
///   poly-inline  typeswitch polymorphic inlining, no speculation.
///   spec+poly    the default configuration (both enabled).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

/// The hot callsite sees only Ranker receivers; Decoy overrides `weight`
/// and is exercised once on a cold path, so class-hierarchy analysis
/// cannot prove the site monomorphic — only the receiver profile can, and
/// acting on it requires a guard. The dispatch loop lives directly in the
/// compiled root: speculation runs on the pristine compilation clone
/// (guard frame states must map 1:1 onto the same function's baseline),
/// so a vcall that only appears after inlining a helper cannot be
/// guarded — putting the loop in a wrapper would measure nothing.
std::vector<Workload> specWorkloads() {
  return {{"spec-dispatch", "ablation",
           "runtime-monomorphic dispatch loop CHA cannot devirtualize",
           R"(
class Scorer {
  var bias: int;
  def weight(x: int): int { return 0; }
}
class Ranker extends Scorer {
  def weight(x: int): int {
    return x * 3 + this.bias + x % 7;
  }
}
class Decoy extends Scorer {
  def weight(x: int): int { return x - this.bias; }
}
def main() {
  // The decoy keeps the hierarchy honest: `weight` has two overriders, so
  // CHA sees a polymorphic site. Its one call happens at a *different*
  // callsite, leaving the hot site's receiver profile 100% Ranker.
  var decoy = new Decoy();
  decoy.bias = 2;
  var total = decoy.weight(10);
  var items = new Scorer[64];
  var i = 0;
  while (i < 64) {
    var r = new Ranker();
    r.bias = i % 5;
    items[i] = r;
    i = i + 1;
  }
  var rep = 0;
  while (rep < 30) {
    var j = 0;
    var sum = 0;
    while (j < 4000) {
      sum = sum + items[j % 64].weight(j % 19);
      j = j + 1;
    }
    total = (total + sum) % 1000000007;
    rep = rep + 1;
  }
  print(total);
}
)",
           15}};
}

std::vector<CompilerVariant> variants() {
  std::vector<CompilerVariant> Result;
  {
    inliner::InlinerConfig Config;
    Config.EnableSpeculativeDevirt = false;
    Config.EnablePolymorphicInlining = false;
    Result.push_back(incrementalVariant("cha-only", Config));
  }
  {
    inliner::InlinerConfig Config;
    Config.EnablePolymorphicInlining = false;
    Result.push_back(incrementalVariant("speculative", Config));
  }
  {
    inliner::InlinerConfig Config;
    Config.EnableSpeculativeDevirt = false;
    Result.push_back(incrementalVariant("poly-inline", Config));
  }
  Result.push_back(incrementalVariant("spec+poly"));
  return Result;
}

void printTables() {
  printComparisonTable(
      "Ablation: speculative devirtualization (speedup vs cha-only)",
      smokeScaled(specWorkloads()), variants());
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
