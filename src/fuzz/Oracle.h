//===- fuzz/Oracle.h - Differential correctness oracle ---------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle hierarchy behind the fuzzing subsystem. For one
/// MiniOO program it establishes the reference behaviour (the interpreter
/// on the unoptimized module), then checks every layer that may disagree:
///
///   1. the frontend (the program must compile and the fresh IR verify),
///   2. every optimization-pipeline configuration, verifying the IR after
///      *each individual pass* through the PassPipeline observer hook,
///   3. every inliner policy running inside the tiered JIT runtime, over
///      several iterations so recompilation paths are exercised.
///
/// The first divergence is recorded with enough context to act on: kind
/// (verifier error, trap, output mismatch), stage, and — after automatic
/// bisection — the guilty pass and function. Pass bisection replays the
/// standard bundle prefix-by-prefix; JIT bisection compiles one method at
/// a time to isolate the guilty compilation.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_FUZZ_ORACLE_H
#define INCLINE_FUZZ_ORACLE_H

#include "opt/Canonicalizer.h"
#include "opt/PassPipeline.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace incline::ir {
class Function;
class Module;
} // namespace incline::ir

namespace incline::interp {
struct ExecLimits;
} // namespace incline::interp

namespace incline::jit {
class Compiler;
class JitRuntime;
} // namespace incline::jit

namespace incline::fuzz {

/// How a stage disagreed with the reference.
enum class DivergenceKind : uint8_t {
  FrontendError,  ///< The program failed to compile.
  VerifierError,  ///< The IR verifier flagged a transformed function.
  Trap,           ///< A stage trapped where the reference did not.
  OutputMismatch, ///< A stage printed different output.
  Timeout,        ///< A stage exceeded its step or wall-clock budget.
};

std::string_view divergenceKindName(DivergenceKind Kind);

/// The first point where a stage disagreed with the reference.
struct Divergence {
  DivergenceKind Kind = DivergenceKind::OutputMismatch;
  /// Which oracle stage diverged: "frontend", "reference",
  /// "pipeline:<config>", or "jit:<policy>".
  std::string Stage;
  /// The guilty transformation, when bisection could name one.
  std::string Pass;
  /// The guilty function, when bisection could name one.
  std::string Function;
  std::string Detail;
  std::string Expected;
  std::string Actual;

  /// One-line form, e.g. "output-mismatch at pipeline:full-pipeline
  /// (pass canonicalize, function main)".
  std::string summary() const;
  /// Multi-line report with expected/actual output.
  std::string render() const;
};

/// Fault-injection configuration for the chaos JIT stages (`--chaos`).
/// Every injected fault is one the runtime claims to absorb without any
/// observable effect: a forced guard failure deoptimizes into the baseline,
/// which re-executes the original dispatch; an injected compiler fault is a
/// bailout, so the method stays interpreted; injected compile latency only
/// moves publication — and therefore invalidation — timing around in async
/// mode. The chaos stages assert program output stays bit-identical to the
/// reference under all of it.
struct ChaosOptions {
  bool Enabled = false;
  /// Seed of the chaos schedule. The schedule is a pure function of
  /// (Seed, decision index), so a persisted failure replays its faults;
  /// the fuzzer folds the program seed in so every program sees a
  /// different schedule.
  uint64_t Seed = 0;
  /// Probability that a passing guard is forced onto its fail edge.
  double GuardFailureRate = 0.25;
  /// Probability that one compile attempt throws an injected fault.
  double CompileFaultRate = 0.2;
  /// Async stages: upper bound of injected compile latency (microseconds),
  /// randomizing publication and invalidation timing across worker
  /// threads. 0 disables the delay.
  unsigned MaxCompileDelayMicros = 200;
  /// Chaos stages run with loop-entry OSR enabled; this is the probability
  /// that one interpreted backedge crossing forces an OSR compile request
  /// ahead of the threshold (deterministic per (Seed, backedge index)).
  /// Combined with forced guard failures this drives OSR-entry ->
  /// guard-failure -> deopt-exit -> recompile round trips, all of which
  /// must be output-neutral.
  double OsrForceRate = 0.05;
  /// Probability that one invocation of a *compiled* method forcibly
  /// evicts its code (deterministic per (Seed, decision index)). Eviction
  /// is a pure performance event — the method falls back to the profiling
  /// interpreter and re-tiers — so it must be output-neutral too.
  double EvictForceRate = 0.05;
  /// Probability that one compile attempt's deadline is forced to expire
  /// (deterministic per (seed, symbol, attempt) — no counter, so the
  /// schedule is identical across execution modes and thread counts). The
  /// deadline-chaos stages run the graceful-degradation ladder under this
  /// and assert program output stays bit-identical: a deadline bailout
  /// steps the method down a rung, and every rung — including
  /// interpreter-only — is semantically equivalent.
  double DeadlineForceRate = 0.25;
  /// Prune-chaos stages: probability that one conditional branch of a
  /// compiling method is forcibly pruned behind a cold-branch uncommon
  /// trap. The schedule is a pure function of (seed, method, branch
  /// profileId) — no counter — so it is identical across execution modes
  /// and thread counts. A forced prune of a *hot* edge must be
  /// output-neutral: the trap resumes the baseline exactly where the
  /// branch would have gone, re-profiles, and recompiles without the
  /// prune.
  double PruneForceRate = 0.25;
  /// Profile-driven pruning threshold for the prune-chaos stages (the
  /// `--cold-prune` knob): maximum observed probability a branch edge may
  /// have and still be pruned. Negative leaves threshold pruning off, so
  /// only the forced schedule above plants traps.
  double ColdPruneMaxProbability = -1.0;
  /// Code-cache budget (|ir| units) for the chaos stages. Nonzero turns
  /// every chaos run into a cache-thrash run: admission rejections and
  /// coldest-first evictions fire naturally on top of the forced ones.
  /// 0 leaves the cache unbounded.
  uint64_t CodeCacheBudget = 0;
  /// Profile-decay halflife (safepoints per decay tick) for the chaos
  /// stages. 0 disables decay.
  uint64_t ProfileDecayHalflife = 0;
};

/// Oracle configuration.
struct OracleOptions {
  /// Canonicalizer switches shared by every canonicalize-based stage —
  /// this is where the test-only fault injections are enabled.
  opt::CanonOptions Canon;
  /// Verify the IR after each individual pass (not just per config).
  bool VerifyAfterEachPass = true;
  /// Run pipeline-configuration stages.
  bool CheckPipelines = true;
  /// Run tiered-JIT inliner-policy stages.
  bool CheckJitPolicies = true;
  /// Run loop-entry-OSR stages (incremental policy with `--jit-osr=on`
  /// under every execution mode, diffed against the same reference the
  /// OSR-off stages matched — every seed is an OSR-on-vs-off
  /// differential). Requires CheckJitPolicies.
  bool CheckOsr = true;
  /// Iterations per JIT policy (recompilation paths need > 1).
  int JitIterations = 3;
  /// Hotness threshold for the tiered runs.
  uint64_t CompileThreshold = 1;
  /// Automatically bisect divergences to a pass / function.
  bool Bisect = true;
  /// Chaos fault injection; adds chaos JIT stages when enabled.
  ChaosOptions Chaos;
  /// Watchdog: every candidate execution runs under a step budget of
  /// max(MinStepBudget, reference steps * StepBudgetFactor) plus the
  /// wall-clock budget below, so a miscompiled infinite loop (or a deopt
  /// loop) surfaces as a Timeout divergence instead of hanging the run.
  uint64_t MinStepBudget = 1'000'000;
  uint64_t StepBudgetFactor = 64;
  /// Per-execution wall-clock budget in seconds; 0 disables it.
  double StageWallClockSeconds = 20.0;
};

/// One named way of optimizing a module's functions, with per-pass
/// observation. \p Observer may be null.
struct PipelineConfig {
  std::string Name;
  std::function<void(ir::Function &, const ir::Module &,
                     const opt::CanonOptions &, const opt::PassObserver &)>
      Apply;
};

/// Every pipeline configuration the oracle distrusts: each standalone
/// pass, the standard bundle, and the bundle iterated to a fixpoint.
const std::vector<PipelineConfig> &allPipelineConfigs();

/// One named tiered-JIT inliner policy.
struct JitPolicyConfig {
  std::string Name;
  std::function<std::unique_ptr<jit::Compiler>()> Make;
};

/// Every inliner policy the oracle distrusts: the paper's incremental
/// inliner in all config variants, plus the greedy / C2 / C1 baselines.
const std::vector<JitPolicyConfig> &allJitPolicies();

/// Result of replaying the standard bundle pass-by-pass.
struct PassBisection {
  std::string Pass;     ///< First pass whose prefix misbehaves.
  std::string Function; ///< Guilty function, when isolatable.
  std::string Detail;
};

class DifferentialOracle {
public:
  explicit DifferentialOracle(OracleOptions Options = OracleOptions());

  /// Runs the full hierarchy on \p Source; returns the first divergence,
  /// or nullopt when every stage agrees with the reference.
  std::optional<Divergence> check(const std::string &Source) const;

  const OracleOptions &options() const { return Opts; }

private:
  OracleOptions Opts;
};

/// Replays the standard optimization bundle one pass at a time against the
/// interpreter reference, naming the first pass (and, when possible, the
/// function) whose application breaks verification or behaviour. Returns
/// nullopt when no prefix misbehaves (the divergence needs interaction
/// between configs, or is not a bundle bug).
std::optional<PassBisection> bisectPipeline(const std::string &Source,
                                            const OracleOptions &Options);

/// Runs one JIT stage: `main` under \p Runtime for Options.JitIterations
/// iterations, each within \p Budget and the stage wall-clock budget, then
/// publishes compiles still in flight. The first run that traps or prints
/// other than \p Expected is a divergence at \p Stage. So is a run that
/// matches while the runtime rejected compiled code at install time
/// (JitRuntimeStats::VerifyFailures): the runtime then keeps interpreting,
/// which would otherwise hide the broken compile behind correct output.
std::optional<Divergence> checkJitStage(jit::JitRuntime &Runtime,
                                        const std::string &Stage,
                                        const std::string &Expected,
                                        const interp::ExecLimits &Budget,
                                        const OracleOptions &Options);

/// Compiles one method at a time under \p Policy to isolate the guilty
/// compilation for a JIT-stage divergence: the first method whose compile
/// fails install-time verification or changes the output. Returns the
/// guilty function name, or nullopt when no single compilation reproduces
/// it.
std::optional<std::string> bisectJitPolicy(const std::string &Source,
                                           const JitPolicyConfig &Policy,
                                           const OracleOptions &Options);

} // namespace incline::fuzz

#endif // INCLINE_FUZZ_ORACLE_H
