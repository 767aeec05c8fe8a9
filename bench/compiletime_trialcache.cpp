//===- bench/compiletime_trialcache.cpp - Trial-cache compile-time win ------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what memoizing deep-inlining trials buys on repeated work:
/// every workload is run three times with ONE compiler instance per cache
/// mode — `off` (seed behavior) and `shared` (one cache across
/// compilations, repetitions, and worker threads) — under the
/// deterministic JIT at 1 and 4 worker threads. The compared quantity is
/// the summed CompileStats::TrialNanos: wall time spent inside
/// expandCutoff's trial section (clone + specialize + trial
/// canonicalization + DCE, or the cache-hit clone+replay).
///
/// Expected shape: `shared` collapses repetitions 2 and 3 (and repeated
/// callees within each compilation) to cache hits, cutting total trial
/// wall time well past the 25% acceptance bar, while every row's
/// deterministic stream fingerprint stays bit-identical to `off` — the
/// cache is performance-only, never decision-changing. The table checks
/// both per row (`fp=`, `out=`).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

constexpr int Repeats = 3;
const unsigned ThreadCounts[] = {1, 4};

const char *modeLabel(inliner::TrialCacheMode Mode) {
  switch (Mode) {
  case inliner::TrialCacheMode::Off: return "off";
  case inliner::TrialCacheMode::Shared: return "shared";
  }
  return "?";
}

struct CacheRunResult {
  uint64_t TrialNanos = 0; ///< Summed over every compilation of all reps.
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  std::string StreamFp; ///< Concatenated per-rep stream fingerprints.
  std::string Output;   ///< Program output of the last rep.
  bool Ok = true;
};

/// One simulation per (workload, mode, threads); the compiler instance —
/// and with it the shared cache — persists across the three repetitions.
const CacheRunResult &resultOf(const Workload &W,
                               inliner::TrialCacheMode Mode,
                               unsigned Threads) {
  static std::map<std::string, CacheRunResult> Cache;
  std::string Key =
      W.Name + "|" + modeLabel(Mode) + "|" + std::to_string(Threads);
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;

  inliner::InlinerConfig Config;
  Config.TrialCache = Mode;
  inliner::IncrementalCompiler Compiler(Config);

  CacheRunResult R;
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    RunConfig Run;
    Run.Jit.Mode = jit::JitMode::Deterministic;
    Run.Jit.Threads = Threads;
    RunResult Result = runWorkload(W, Compiler, Run);
    if (!Result.Ok) {
      std::fprintf(stderr, "WARNING: %s under %s failed: %s\n",
                   W.Name.c_str(), modeLabel(Mode), Result.Error.c_str());
      R.Ok = false;
    }
    for (const jit::CompilationRecord &Record : Result.Compilations) {
      R.TrialNanos += Record.Stats.TrialNanos;
      R.Hits += Record.Stats.TrialCacheHits;
      R.Misses += Record.Stats.TrialCacheMisses;
    }
    R.StreamFp += jit::streamFingerprint(Result.Compilations) + "\n";
    R.Output = Result.Output;
  }
  return Cache.emplace(std::move(Key), std::move(R)).first->second;
}

void registerTrialCacheBenchmarks() {
  for (const Workload &W : allWorkloads())
    for (inliner::TrialCacheMode Mode :
         {inliner::TrialCacheMode::Off, inliner::TrialCacheMode::Shared})
      for (unsigned Threads : ThreadCounts)
        benchmark::RegisterBenchmark(
            ("trialcache/" + W.Name + "/" + modeLabel(Mode) + "/t" +
             std::to_string(Threads))
                .c_str(),
            [&W, Mode, Threads](benchmark::State &State) {
              for (auto _ : State) {
                const CacheRunResult &R = resultOf(W, Mode, Threads);
                benchmark::DoNotOptimize(R.TrialNanos);
              }
              const CacheRunResult &R = resultOf(W, Mode, Threads);
              State.counters["trial_ms"] =
                  static_cast<double>(R.TrialNanos) / 1e6;
              State.counters["hits"] = static_cast<double>(R.Hits);
              State.counters["misses"] = static_cast<double>(R.Misses);
            })
            ->Iterations(1);
}

void printTables() {
  for (unsigned Threads : ThreadCounts) {
    std::printf("\nDeep-trial wall time, %d repetitions per workload "
                "(deterministic JIT, %u worker thread%s):\n",
                Repeats, Threads, Threads == 1 ? "" : "s");
    std::printf("%-24s %10s %10s %11s %7s %5s %5s\n", "workload", "off(ms)",
                "shared(ms)", "shared/off", "hits", "fp=", "out=");
    double OffTotal = 0, SharedTotal = 0;
    for (const Workload &W : allWorkloads()) {
      const CacheRunResult &Off =
          resultOf(W, inliner::TrialCacheMode::Off, Threads);
      const CacheRunResult &Shared =
          resultOf(W, inliner::TrialCacheMode::Shared, Threads);
      const double OffMs = static_cast<double>(Off.TrialNanos) / 1e6;
      const double SharedMs = static_cast<double>(Shared.TrialNanos) / 1e6;
      OffTotal += OffMs;
      SharedTotal += SharedMs;
      const bool FpEqual = Off.StreamFp == Shared.StreamFp;
      const bool OutEqual = Off.Output == Shared.Output;
      std::printf("%-24s %10.3f %10.3f %10.1f%% %7llu %5s %5s\n",
                  W.Name.c_str(), OffMs, SharedMs,
                  OffMs > 0 ? 100.0 * SharedMs / OffMs : 0.0,
                  static_cast<unsigned long long>(Shared.Hits),
                  FpEqual ? "yes" : "NO", OutEqual ? "yes" : "NO");
      recordJsonResult(
          W.Name + "/t" + std::to_string(Threads),
          {{"off_trial_ms", OffMs},
           {"shared_trial_ms", SharedMs},
           {"shared_hits", static_cast<double>(Shared.Hits)},
           {"shared_misses", static_cast<double>(Shared.Misses)},
           {"fingerprints_equal", FpEqual ? 1.0 : 0.0},
           {"outputs_equal", OutEqual ? 1.0 : 0.0}});
    }
    const double Reduction =
        OffTotal > 0 ? 100.0 * (1.0 - SharedTotal / OffTotal) : 0.0;
    std::printf("%-24s %10.3f %10.3f %10.1f%%\n", "TOTAL", OffTotal,
                SharedTotal,
                OffTotal > 0 ? 100.0 * SharedTotal / OffTotal : 0.0);
    std::printf("shared cache cuts total trial wall time by %.1f%% "
                "(acceptance bar: >= 25%%)\n", Reduction);
    recordJsonResult("TOTAL/t" + std::to_string(Threads),
                     {{"off_trial_ms", OffTotal},
                      {"shared_trial_ms", SharedTotal},
                      {"shared_reduction_pct", Reduction}});
  }
  std::printf("\nfp= checks the deterministic compile-stream fingerprint is "
              "bit-identical\nacross cache modes (the cache is "
              "performance-only); out= checks program\noutput equality.\n");
}

} // namespace

int main(int argc, char **argv) {
  registerTrialCacheBenchmarks();
  return benchMain(argc, argv, printTables);
}
