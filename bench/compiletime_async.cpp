//===- bench/compiletime_async.cpp - Mutator stall under background JIT ----===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies what background compilation buys the running program: each
/// workload runs under the incremental compiler in three execution modes —
///
///  * `sync`          — compiles on the mutator (the paper's setting);
///  * `async`         — CompileQueue + 4 worker threads, publish at
///                      safepoints; the mutator only pays verify+publish;
///  * `deterministic` — same workers, but the mutator blocks at the
///                      enqueue safepoint (replay mode).
///
/// The compared quantity is JitRuntimeStats::MutatorStallNanos: wall time
/// the mutator spent stalled on compilation. Expected shape: async cuts
/// stall by orders of magnitude versus sync (compilation overlaps
/// execution), deterministic matches sync's stall shape (it waits for the
/// same pipeline, just on another thread) while keeping the compile stream
/// bit-identical — which the table checks per row (`det=sync`), alongside
/// output equality across all three modes.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

constexpr unsigned Threads = 4;

const char *modeLabel(jit::JitMode Mode) {
  return Mode == jit::JitMode::Sync           ? "sync"
         : Mode == jit::JitMode::Async        ? "async"
                                              : "det";
}

/// One run of \p W under the incremental compiler in \p Mode.
RunResult runMode(const Workload &W, jit::JitMode Mode) {
  RunConfig Config;
  Config.Jit.Mode = Mode;
  Config.Jit.Threads = Mode == jit::JitMode::Sync ? 1 : Threads;
  inliner::IncrementalCompiler Compiler;
  RunResult Result = runWorkload(W, Compiler, Config);
  if (!Result.Ok)
    std::fprintf(stderr, "WARNING: %s under %s failed: %s\n", W.Name.c_str(),
                 modeLabel(Mode), Result.Error.c_str());
  return Result;
}

void printTables() {
  std::printf("\nMutator-visible compile stall (incremental compiler, "
              "%u worker threads):\n",
              Threads);
  std::printf("%-24s %12s %12s %12s %9s %9s %9s\n", "workload", "sync(ms)",
              "async(ms)", "det(ms)", "async/sync", "out=", "det=sync");
  double SyncTotal = 0, AsyncTotal = 0, DetTotal = 0;
  for (const Workload &W : benchWorkloads()) {
    const RunResult Sync = runMode(W, jit::JitMode::Sync);
    const RunResult Async = runMode(W, jit::JitMode::Async);
    const RunResult Det = runMode(W, jit::JitMode::Deterministic);
    const double SyncMs =
        static_cast<double>(Sync.JitStats.MutatorStallNanos) / 1e6;
    const double AsyncMs =
        static_cast<double>(Async.JitStats.MutatorStallNanos) / 1e6;
    const double DetMs =
        static_cast<double>(Det.JitStats.MutatorStallNanos) / 1e6;
    SyncTotal += SyncMs;
    AsyncTotal += AsyncMs;
    DetTotal += DetMs;
    const bool OutputsEqual =
        Sync.Output == Async.Output && Sync.Output == Det.Output;
    const bool StreamsEqual =
        jit::streamFingerprint(Sync.Compilations) ==
        jit::streamFingerprint(Det.Compilations);
    std::printf("%-24s %12.3f %12.3f %12.3f %8.1f%% %9s %9s\n",
                W.Name.c_str(), SyncMs, AsyncMs, DetMs,
                SyncMs > 0 ? 100.0 * AsyncMs / SyncMs : 0.0,
                OutputsEqual ? "yes" : "NO", StreamsEqual ? "yes" : "NO");
    recordJsonResult(W.Name,
                     {{"sync_stall_ms", SyncMs},
                      {"async_stall_ms", AsyncMs},
                      {"det_stall_ms", DetMs},
                      {"outputs_equal", OutputsEqual ? 1.0 : 0.0},
                      {"det_stream_equals_sync", StreamsEqual ? 1.0 : 0.0}});
  }
  std::printf("%-24s %12.3f %12.3f %12.3f %8.1f%%\n", "TOTAL", SyncTotal,
              AsyncTotal, DetTotal,
              SyncTotal > 0 ? 100.0 * AsyncTotal / SyncTotal : 0.0);
  std::printf("\nasync/sync < 100%% means background compilation moved that "
              "share of the\ncompile pipeline off the mutator; det=sync "
              "checks the replay-mode stream\nfingerprint is bit-identical "
              "to the synchronous stream.\n");
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
