//===- perfbench/runner/Bench.h - Shared benchmark-runner plumbing --------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the two workloads share: run options, the result being built
/// (metrics, attempted/failed operations, exact values), the clock, and
/// the layer reports that more than one workload prints.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_PERFBENCH_BENCH_H
#define INCLINE_PERFBENCH_BENCH_H

#include "TimedCompiler.h"

#include "jit/CodeCache.h"
#include "jit/JitRuntime.h"
#include "opt/Pass.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Untraced run: end-to-end metrics. Traced run: per-layer metrics.
  bool Trace = false;
  /// Where exact metrics of earlier runs of this build are kept; empty =
  /// compare within this run only.
  std::string ExactFile;
};

/// Calls \p Unit with 0, 1, 2, ... until \p Seconds have passed and it ran
/// at least \p MinUnits times.
template <typename Fn>
void runFor(double Seconds, unsigned MinUnits, Fn &&Unit) {
  auto Start = Clock::now();
  for (unsigned Units = 0;
       Units < MinUnits || secondsBetween(Start, Clock::now()) < Seconds;
       ++Units)
    Unit(Units);
}

/// Set-up times of one run. The set-up is split into parts (one per
/// program), and every part is timed many times: before the measured phase,
/// and again, a few parts at a time in turn, between its units, so the
/// samples span the whole run. setup_s is the sum over parts of each part's
/// fastest time. On a shared host, set-up time alternates between a fast
/// and a slow state that lasts seconds; a median follows the share of the
/// run spent in the slow state, while the fastest time follows the work.
class SetupTimes {
public:
  explicit SetupTimes(size_t Parts) : Samples(Parts) {}

  /// Calls \p SetUpPart(Part) and records how long it took.
  template <typename Fn> auto time(size_t Part, Fn &&SetUpPart) {
    auto Start = Clock::now();
    auto Result = SetUpPart(Part);
    Samples[Part].push_back(secondsBetween(Start, Clock::now()));
    return Result;
  }
  /// Times the next \p Count parts in turn, wrapping around, and drops what
  /// they set up.
  template <typename Fn> void resample(unsigned Count, Fn &&SetUpPart) {
    for (unsigned I = 0; I < Count; ++I) {
      time(Next, SetUpPart);
      Next = (Next + 1) % Samples.size();
    }
  }
  double seconds() const;

private:
  std::vector<std::vector<double>> Samples;
  size_t Next = 0;
};

// A traced run alternates untraced (even) and traced (odd) units, so both
// kinds see the same host conditions: layer metrics come from the traced
// units, and the gap between the two kinds is the tracing overhead.
inline bool isTracedUnit(unsigned Unit) { return Unit % 2 == 1; }

/// The result one run prints.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Reports a tail percentile only when it has enough samples beyond it
  /// (see Stats.h); a withheld percentile is noted on stderr.
  void percentileMetric(const std::string &Name,
                        const std::vector<double> &Samples, double P,
                        const std::string &Unit);

  /// Counts one operation; a failed one is logged (first few) and kept.
  void operation(bool Ok, const std::string &What);
  /// A broken benchmark invariant: the run is reported as incorrect.
  void fail(const std::string &Why);
  /// A metric that must repeat bit-for-bit across every pass of this run
  /// and every run of this build. Returns \p Value for chaining.
  double exact(const std::string &Name, double Value);
  /// The value recorded for exact metric \p Name (0 if none).
  double exactValue(const std::string &Name) const;
  /// Share of attempted operations that succeeded, in percent.
  double okPct() const;

  /// Checks the exact values against \p File (writing it on first use).
  void checkExactAcrossRuns(const std::string &File);
  /// The single JSON result line (see README.md).
  std::string json() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  std::map<std::string, double> Exact;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
};

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// splitmix64 over (seed, draw index): every random choice of a workload is
/// a pure function of the run's seed.
uint64_t mix(uint64_t Seed, uint64_t N);

/// A permutation of [0, N) drawn from \p Seed.
std::vector<size_t> permutation(size_t N, uint64_t Seed);

/// FNV-1a.
uint64_t fnv1a(std::string_view Data, uint64_t Hash = 1469598103934665603ull);

/// Frontend layer timings of one or more programs, taken by calling the
/// public lexer, parser, sema and lowering entry points one at a time.
struct FrontendTimes {
  double CompileMs = 0; ///< frontend::compileProgram, called as a whole.
  double LexMs = 0;
  double ParseMs = 0;
  double SemaMs = 0;
  double LowerMs = 0;
  uint64_t IrInsts = 0;
};

/// Adds \p Source's staged frontend timings to \p Times.
void timeFrontend(std::string_view Source, FrontendTimes &Times);
void reportFrontend(Report &R, const FrontendTimes &Times);

/// Everything a runtime compiled, from JitRuntime::compilations().
struct CompileTotals {
  double Compiles = 0;
  double CodeIr = 0;   ///< CompileStats::CodeSize summed.
  double PassRuns = 0; ///< CompileStats::PassRuns summed.

  void add(const incline::jit::JitRuntime &RT);
  CompileTotals &operator+=(const CompileTotals &Other);
};

/// code_ir_per_install and pass_runs_per_compile.
void reportCompileTotals(Report &R, const CompileTotals &T);

/// Counters of the compile layers summed over the traced phase.
struct CompileLayerTotals {
  std::vector<CompileSpan> Spans;
  incline::jit::JitRuntimeStats Jit;
  incline::jit::CodeCacheStats Cache; ///< Sums; PeakLiveBytes is a max.
  incline::opt::PassInstrumentation Passes;

  /// Runs \p Unit with the process-wide pass registry cleared first, then
  /// merges what it recorded into Passes: untraced units interleaved with
  /// traced ones record into the same registry.
  template <typename Fn> void recordPasses(Fn &&Unit) {
    incline::opt::PassInstrumentation::global().reset();
    Unit();
    incline::opt::PassInstrumentation::global().mergeInto(Passes);
  }

  void addRuntime(const incline::jit::JitRuntime &RT);
  void addSpans(const TimedCompiler &T);
  /// Compile nanoseconds spent on the mutator thread.
  uint64_t mutatorCompileNanos() const;
};

/// interp.* per unit of measured work, from the mutator's run() time minus
/// its own compile time and the simulated cycles those runs executed.
void reportInterpLayer(Report &R, double ExecNanos, double Cycles,
                       double InterpretedCycles, double Units);
/// jit.* per unit of measured work: compile spans as seen by the
/// decorator, then the runtime's counters.
void reportCompileSpans(Report &R, const CompileLayerTotals &T, double Units);
void reportJitRuntime(Report &R, const CompileLayerTotals &T, double Units);
/// codecache.* per unit of measured work.
void reportCodeCacheLayer(Report &R, const CompileLayerTotals &T,
                          double Units);
/// inliner.* per unit, from the compile spans.
void reportInlinerLayer(Report &R, const CompileLayerTotals &T, double Units);
/// opt.* per unit, from the passes recorded during traced units.
void reportOptLayer(Report &R, const CompileLayerTotals &T, double Units);
/// host.* from the untraced units of a traced run: median seconds of one
/// unit, host microseconds of each operation, median stall per unit.
void reportHostLayer(Report &R, double WallS, const std::vector<double> &OpUs,
                     double StallMs);

Report runSuiteSteady(const Options &Opts);
Report runTrafficOpen(const Options &Opts);

} // namespace perfbench

#endif // INCLINE_PERFBENCH_BENCH_H
