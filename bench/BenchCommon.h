//===- bench/BenchCommon.h - Shared benchmark-harness plumbing -------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plumbing shared by the per-figure/per-table bench binaries: a result
/// cache (each (workload, configuration) pair is simulated once, however
/// many tables read it), compiler factories for every evaluated
/// configuration, table renderers, the `--smoke` workload subset and the
/// `--json` result writer.
///
/// Conventions: every binary is a plain `main` that hands its table
/// printer to benchMain. The printer simulates each cell once and prints
/// the figure/table the paper reports, with the measured series; the
/// metrics are simulated cycles and installed |ir|, not host wall time,
/// except in the compile-time, tier-0 and traffic benches, which say so.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_BENCH_BENCHCOMMON_H
#define INCLINE_BENCH_BENCHCOMMON_H

#include "inliner/Compilers.h"
#include "support/Statistics.h"
#include "workloads/Harness.h"

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace incline::bench {

/// A named compiler configuration evaluated by a bench binary.
struct CompilerVariant {
  std::string Label;
  std::function<std::unique_ptr<jit::Compiler>()> Make;
};

/// Cache: one simulation per (workload, variant label).
class ResultCache {
public:
  const workloads::RunResult &
  get(const workloads::Workload &W, const CompilerVariant &Variant,
      const workloads::RunConfig &Config = workloads::RunConfig()) {
    std::string Key = W.Name + "|" + Variant.Label;
    auto It = Cache.find(Key);
    if (It != Cache.end())
      return It->second;
    std::unique_ptr<jit::Compiler> Compiler = Variant.Make();
    workloads::RunResult Result = workloads::runWorkload(W, *Compiler, Config);
    if (!Result.Ok)
      std::fprintf(stderr, "WARNING: %s under %s failed: %s\n",
                   W.Name.c_str(), Variant.Label.c_str(),
                   Result.Error.c_str());
    return Cache.emplace(std::move(Key), std::move(Result)).first->second;
  }

private:
  std::map<std::string, workloads::RunResult> Cache;
};

/// The process-wide cache read by the table printers.
ResultCache &globalCache();

/// True when the binary was invoked with `--smoke`: a reduced scale, so
/// ctest can run every bench end to end.
bool smoke();

/// Repetitions per workload under `--smoke`.
constexpr int SmokeIterations = 4;

/// \p Workloads unchanged; under `--smoke`, only the first three, each
/// run for SmokeIterations repetitions.
std::vector<workloads::Workload>
smokeScaled(std::vector<workloads::Workload> Workloads);

/// The 16-workload suite, scaled by smokeScaled.
std::vector<workloads::Workload> benchWorkloads();

/// Prints the paper-style table: one row per workload, one column pair
/// (cycles, code) per variant, plus each variant's speedup over the first
/// variant (the baseline column).
void printComparisonTable(const char *Title,
                          const std::vector<workloads::Workload> &Workloads,
                          const std::vector<CompilerVariant> &Variants,
                          const workloads::RunConfig &Config =
                              workloads::RunConfig());

/// Standard variant factories.
CompilerVariant incrementalVariant(std::string Label = "incremental",
                                   inliner::InlinerConfig Config =
                                       inliner::InlinerConfig());
CompilerVariant greedyVariant();
CompilerVariant c2Variant();
CompilerVariant c1Variant();

/// Appends one machine-readable result (a named metric set) to the
/// process-wide JSON sink. No-op unless the binary was invoked with
/// `--json <path>`. printComparisonTable records one result per table cell
/// automatically; binaries with custom tables call this directly. The
/// document format is specified in TESTING.md ("Benchmark JSON output").
void recordJsonResult(
    const std::string &Name,
    const std::vector<std::pair<std::string, double>> &Metrics);

/// Shared main: parses `--smoke` and `--json <path>` / `--json=<path>`,
/// runs the binary's table printer, then (if requested) writes every
/// recorded result as one JSON document. Any other argument, or `--json`
/// without a path, is rejected with exit code 1 before anything runs.
int benchMain(int argc, char **argv, const std::function<void()> &PrintTables);

} // namespace incline::bench

#endif // INCLINE_BENCH_BENCHCOMMON_H
