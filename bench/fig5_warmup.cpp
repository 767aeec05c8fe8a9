//===- bench/fig5_warmup.cpp - Figure 5: warmup curves ---------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 5 shows per-iteration running times during warmup for the most
/// prominent examples, demonstrating that the proposed inliner reaches a
/// (faster) steady state after a similar number of repetitions as the
/// alternatives — i.e. its exploration does not inflate warmup.
///
/// This binary prints, for each of four representative workloads, the
/// per-iteration effective-cycle series of all four compilers.
///
/// It also prints a loop-dominated warmup study for loop-entry OSR
/// (`--jit-osr`): a workload whose repetition is one long hot loop, where
/// invocation-count tiering alone leaves the first repetitions fully
/// interpreted but an OSR entry collapses warmup into the first
/// repetition. The summary line reports the cycles-to-steady-state
/// collapse factor (expected >= 2x), and `--json` records it.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

const char *SelectedWorkloads[] = {"foreach", "factorie", "jython",
                                   "gauss-mix"};

std::vector<Workload> selected() {
  std::vector<Workload> Result;
  for (const char *Name : SelectedWorkloads)
    if (const Workload *W = findWorkload(Name))
      Result.push_back(*W);
  return smokeScaled(std::move(Result));
}

std::vector<CompilerVariant> variants() {
  return {incrementalVariant(), greedyVariant(), c2Variant(), c1Variant()};
}

RunConfig warmupConfig() {
  RunConfig Config;
  // Enough to see compile points and steady state.
  Config.Iterations = smoke() ? SmokeIterations : 12;
  return Config;
}

void printWarmupCurves() {
  for (const Workload &W : selected()) {
    std::printf("\n=== Fig.5 warmup: %s (effective cycles per iteration) "
                "===\n",
                W.Name.c_str());
    std::printf("%-12s", "iteration");
    for (int I = 0; I < warmupConfig().Iterations; ++I)
      std::printf(" %9d", I + 1);
    std::printf("\n");
    for (const CompilerVariant &Variant : variants()) {
      const RunResult &Result =
          globalCache().get(W, Variant, warmupConfig());
      std::printf("%-12s", Variant.Label.c_str());
      for (double Cycles : Result.IterationCycles)
        std::printf(" %9.0f", Cycles);
      std::printf("   (steady %.0f, compiles %zu)\n",
                  Result.SteadyStateCycles, Result.Compilations.size());
    }
  }
}

//===----------------------------------------------------------------------===//
// Loop-dominated OSR warmup study
//===----------------------------------------------------------------------===//

/// One repetition = one 30k-iteration hot loop. The helpers keep the loop
/// body call-rich (inlining matters), but `main` itself is invoked only
/// once per repetition: without OSR it stays interpreted until the
/// invocation threshold, with OSR the first repetition tiers up mid-loop.
Workload loopDominatedWorkload() {
  Workload W;
  W.Name = "loop-dominated";
  W.Suite = "other";
  W.Description = "one long hot loop per repetition; warmup is OSR-bound";
  W.Iterations = 12;
  W.Source = R"(
def mix(i: int): int { return i % 7 + i % 13; }
def step(i: int): int { return mix(i) * 3 + i % 5; }
def main() {
  var acc = 0;
  var i = 0;
  while (i < 30000) {
    acc = acc + step(i) % 97;
    i = i + 1;
  }
  print(acc);
}
)";
  return W;
}

/// Repetitions until the curve first lands within 5% of its steady value.
size_t iterationsToSteady(const RunResult &R) {
  for (size_t I = 0; I < R.IterationCycles.size(); ++I)
    if (R.IterationCycles[I] <= R.SteadyStateCycles * 1.05)
      return I + 1;
  return R.IterationCycles.size();
}

/// Total effective cycles spent before the curve reaches steady state.
double cyclesToSteady(const RunResult &R) {
  size_t Steady = iterationsToSteady(R);
  double Total = 0;
  for (size_t I = 0; I < Steady && I < R.IterationCycles.size(); ++I)
    Total += R.IterationCycles[I];
  return Total;
}

void printOsrWarmupStudy() {
  Workload W = loopDominatedWorkload();
  RunConfig Config = warmupConfig();

  inliner::IncrementalCompiler OffCompiler;
  RunResult Off = runWorkload(W, OffCompiler, Config);

  Config.Jit.Osr = true;
  Config.Jit.OsrBackedgeThreshold = 1000;
  inliner::IncrementalCompiler OnCompiler;
  RunResult On = runWorkload(W, OnCompiler, Config);

  std::printf("\n=== Fig.5 addendum: loop-dominated OSR warmup "
              "(effective cycles per repetition) ===\n");
  if (!Off.Ok || !On.Ok) {
    std::printf("FAILED: %s%s\n", Off.Error.c_str(), On.Error.c_str());
    return;
  }
  if (Off.Output != On.Output) {
    std::printf("FAILED: osr-on output diverges from osr-off\n");
    return;
  }
  std::printf("%-12s", "iteration");
  for (int I = 0; I < Config.Iterations; ++I)
    std::printf(" %9d", I + 1);
  std::printf("\n");
  for (const auto &[Label, Result] :
       {std::pair<const char *, const RunResult *>{"osr-off", &Off},
        {"osr-on", &On}}) {
    std::printf("%-12s", Label);
    for (double Cycles : Result->IterationCycles)
      std::printf(" %9.0f", Cycles);
    std::printf("   (steady %.0f after %zu reps)\n",
                Result->SteadyStateCycles, iterationsToSteady(*Result));
  }
  double OffCost = cyclesToSteady(Off);
  double OnCost = cyclesToSteady(On);
  double Collapse = OnCost > 0 ? OffCost / OnCost : 0;
  std::printf("warmup collapse: %.2fx fewer cycles to steady state with "
              "OSR (%.0f -> %.0f); osr entries=%llu\n",
              Collapse, OffCost, OnCost,
              static_cast<unsigned long long>(On.JitStats.OsrEntries));
  recordJsonResult("fig5_warmup_osr/loop-dominated",
                   {{"cycles_to_steady_osr_off", OffCost},
                    {"cycles_to_steady_osr_on", OnCost},
                    {"warmup_collapse", Collapse},
                    {"iterations_to_steady_osr_off",
                     static_cast<double>(iterationsToSteady(Off))},
                    {"iterations_to_steady_osr_on",
                     static_cast<double>(iterationsToSteady(On))},
                    {"osr_entries",
                     static_cast<double>(On.JitStats.OsrEntries)}});
}

void printAllTables() {
  printWarmupCurves();
  printOsrWarmupStudy();
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printAllTables);
}
