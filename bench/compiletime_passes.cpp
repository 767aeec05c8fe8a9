//===- bench/compiletime_passes.cpp - Per-pass compile-time accounting ------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compile time as a first-class metric: runs the 16 workloads under the
/// incremental compiler and reports where compilation wall time goes pass
/// by pass, and how well the analysis cache converts repeated
/// dominator/loop/frequency requests into hits. Two views:
///
///  * per workload — total pass time, pass runs, and analysis cache
///    hit-rate for that workload's compilations;
///  * per pass — the process-wide instrumentation registry aggregated
///    across all workloads (runs, wall time, IR-size delta, hit-rate).
///
/// Expected shape: trial canonicalization ("canonicalize-trial") dominates
/// pass runs — the paper's deep inlining trials re-canonicalize every
/// expanded callee copy — while the cache hit-rate stays well above zero
/// because reconciliation and GVN reuse dominators/frequencies computed
/// for unchanged CFGs.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "opt/Pass.h"

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

/// Pass totals over one run of \p W.
opt::PassMetrics passCostOf(const Workload &W) {
  // Measure via a per-compile sink threaded through the compiler, so the
  // numbers cover exactly this workload's compilations (the global
  // registry keeps aggregating across workloads for the per-pass table).
  opt::PassInstrumentation Sink;
  opt::PassContext Ctx;
  Ctx.Instr = &Sink;
  inliner::IncrementalCompiler Compiler;
  Compiler.setPassContext(Ctx);
  RunResult Result = runWorkload(W, Compiler);
  if (!Result.Ok)
    std::fprintf(stderr, "WARNING: %s failed: %s\n", W.Name.c_str(),
                 Result.Error.c_str());
  return Sink.totals();
}

double hitRateOf(const opt::PassMetrics &M) {
  uint64_t Lookups = M.CacheHits + M.CacheMisses;
  return Lookups == 0 ? 0.0
                      : static_cast<double>(M.CacheHits) /
                            static_cast<double>(Lookups);
}

void printTables() {
  std::printf("\nPer-workload pass cost (incremental compiler):\n");
  std::printf("%-24s %10s %12s %10s\n", "workload", "pass-runs", "time(ms)",
              "hit-rate");
  opt::PassMetrics All;
  for (const Workload &W : benchWorkloads()) {
    const opt::PassMetrics Cost = passCostOf(W);
    All += Cost;
    std::printf("%-24s %10llu %12.3f %9.0f%%\n", W.Name.c_str(),
                static_cast<unsigned long long>(Cost.Runs),
                static_cast<double>(Cost.Nanos) / 1e6,
                100.0 * hitRateOf(Cost));
    recordJsonResult(W.Name,
                     {{"pass_runs", static_cast<double>(Cost.Runs)},
                      {"pass_ms", static_cast<double>(Cost.Nanos) / 1e6},
                      {"hit_rate", hitRateOf(Cost)}});
  }
  std::printf("%-24s %10llu %12.3f %9.0f%%\n", "TOTAL",
              static_cast<unsigned long long>(All.Runs),
              static_cast<double>(All.Nanos) / 1e6, 100.0 * hitRateOf(All));

  std::printf("\nPer-pass totals across all workloads:\n%s",
              opt::PassInstrumentation::global().report().c_str());
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
