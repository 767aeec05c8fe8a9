//===- fuzz/Oracle.cpp -------------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "frontend/Compiler.h"
#include "inliner/Compilers.h"
#include "interp/Interpreter.h"
#include "ir/Function.h"
#include "ir/IRVerifier.h"
#include "ir/Module.h"
#include "jit/JitRuntime.h"
#include "opt/Passes.h"
#include "support/Cancellation.h"
#include "support/Hash.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>

using namespace incline;
using namespace incline::fuzz;

std::string_view incline::fuzz::divergenceKindName(DivergenceKind Kind) {
  switch (Kind) {
  case DivergenceKind::FrontendError:
    return "frontend-error";
  case DivergenceKind::VerifierError:
    return "verifier-error";
  case DivergenceKind::Trap:
    return "trap";
  case DivergenceKind::OutputMismatch:
    return "output-mismatch";
  case DivergenceKind::Timeout:
    return "timeout";
  }
  return "unknown";
}

std::string Divergence::summary() const {
  std::string S = std::string(divergenceKindName(Kind)) + " at " + Stage;
  std::string Attribution;
  if (!Pass.empty())
    Attribution += "pass " + Pass;
  if (!Function.empty()) {
    if (!Attribution.empty())
      Attribution += ", ";
    Attribution += "function " + Function;
  }
  if (!Attribution.empty())
    S += " (" + Attribution + ")";
  return S;
}

std::string Divergence::render() const {
  std::string S = summary() + "\n";
  if (!Detail.empty())
    S += "detail: " + Detail + "\n";
  if (Kind == DivergenceKind::OutputMismatch) {
    S += "--- expected output ---\n" + Expected;
    S += "--- actual output ---\n" + Actual;
  }
  return S;
}

namespace {

std::unique_ptr<ir::Module> compileOrNull(const std::string &Source,
                                          std::string *Error = nullptr) {
  frontend::CompileResult R = frontend::compileProgram(Source);
  if (!R.succeeded()) {
    if (Error)
      *Error = frontend::renderDiagnostics(R.Diags);
    return nullptr;
  }
  return std::move(R.Mod);
}

std::string joinProblems(const std::vector<std::string> &Problems) {
  std::string All;
  for (const std::string &P : Problems) {
    if (!All.empty())
      All += "; ";
    All += P;
  }
  return All;
}

/// The per-apply pass context every pipeline configuration runs under: a
/// private analysis cache shared across the config's passes (gvn+dce hits
/// it; the epoch net plus the optional verify-cached-analyses cross-check
/// exercise the caching machinery on fuzzer-generated CFGs) and the
/// oracle's per-pass observer.
opt::PassContext configContext(opt::AnalysisManager &AM,
                               const opt::PassObserver &Obs) {
  opt::PassContext Ctx;
  Ctx.AM = &AM;
  Ctx.Observer = Obs;
  return Ctx;
}

/// Runs `main` of \p M interpreted (the reference semantics) under explicit
/// limits plus a fresh per-run wall-clock deadline token (the repo's one
/// timeout mechanism, support/Cancellation.h); \p WallSeconds <= 0 disables
/// the wall clock.
interp::ExecResult runModuleMain(const ir::Module &M,
                                 interp::ExecLimits Limits,
                                 double WallSeconds) {
  support::CancellationToken Watchdog(
      support::CancellationToken::wallClockBudget(WallSeconds));
  Limits.Deadline = &Watchdog;
  interp::ModuleEnv Env(M);
  interp::Interpreter Interp(M, Env, interp::CostModel(), Limits);
  return Interp.run("main");
}

/// Runs one tiered-JIT iteration under the step budget plus a fresh
/// per-run wall-clock deadline token — same per-execution watchdog
/// semantics as runModuleMain.
interp::ExecResult runJitMain(jit::JitRuntime &Runtime,
                              interp::ExecLimits Limits, double WallSeconds) {
  support::CancellationToken Watchdog(
      support::CancellationToken::wallClockBudget(WallSeconds));
  Limits.Deadline = &Watchdog;
  return Runtime.runMain(Limits);
}

/// Candidate execution limits: generous multiple of the reference's step
/// count, so legitimate slowdown (interpretation, deopt round trips) fits
/// but a runaway loop is cut off. The wall-clock cap is attached per run by
/// the helpers above.
interp::ExecLimits candidateLimits(const OracleOptions &Opts,
                                   const interp::ExecResult &RefRun) {
  interp::ExecLimits Limits;
  Limits.MaxSteps = std::max<uint64_t>(Opts.MinStepBudget,
                                       RefRun.Steps * Opts.StepBudgetFactor);
  return Limits;
}

/// Classifies a failed (or mismatching) candidate run: a step/wall-clock
/// trap is the watchdog firing, any other trap is a genuine trap, a clean
/// run with different output is a mismatch.
DivergenceKind failureKind(const interp::ExecResult &R) {
  if (R.ok())
    return DivergenceKind::OutputMismatch;
  return R.Trap == interp::TrapKind::StepLimitExceeded
             ? DivergenceKind::Timeout
             : DivergenceKind::Trap;
}

/// Stateless mix of (seed, decision index) -> 64 uniform-ish bits
/// (splitmix64 finalizer). The chaos schedule must be a pure function of
/// its inputs so a persisted or reduced failing program replays the exact
/// same faults.
uint64_t chaosMix(uint64_t Seed, uint64_t N) {
  uint64_t X = Seed ^ (N * 0x9E3779B97F4A7C15ULL);
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// Maps one draw to a biased coin with probability \p Rate.
bool chaosChance(uint64_t Draw, double Rate) {
  return static_cast<double>(Draw % 10000) < Rate * 10000.0;
}

/// Compiler decorator injecting the compile-side chaos: per-attempt faults
/// (thrown as exceptions — the runtime must treat them as bailouts) and,
/// when configured, a short pre-compile sleep that shifts publication and
/// invalidation timing around in async mode. Thread-safe: workers compile
/// concurrently, so the decision counter is atomic — which also means the
/// async fault schedule depends on task arrival order. That is the point
/// (randomized timing is what the async stage exists to shake out); the
/// sync and deterministic stages, where arrival order is fixed, are the
/// reproducible ones.
class ChaosCompiler : public jit::Compiler {
public:
  ChaosCompiler(std::unique_ptr<jit::Compiler> Inner, ChaosOptions Chaos,
                uint64_t StageSalt, bool InjectDelay)
      : Inner(std::move(Inner)), Chaos(Chaos), Salt(StageSalt),
        InjectDelay(InjectDelay) {}

  std::unique_ptr<ir::Function>
  compile(const ir::Function &Source, const ir::Module &M,
          const profile::ProfileTable &Profiles, jit::CompileStats &Stats,
          const opt::PassContext &Ctx) override {
    uint64_t Draw = chaosMix(Chaos.Seed ^ Salt, NextDraw.fetch_add(1));
    if (InjectDelay && Chaos.MaxCompileDelayMicros > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(
          chaosMix(Draw, 1) % Chaos.MaxCompileDelayMicros));
    if (chaosChance(Draw, Chaos.CompileFaultRate))
      throw std::runtime_error("injected chaos compiler fault");
    return Inner->compile(Source, M, Profiles, Stats, Ctx);
  }

  std::string name() const override { return "chaos+" + Inner->name(); }

private:
  std::unique_ptr<jit::Compiler> Inner;
  ChaosOptions Chaos;
  uint64_t Salt;
  bool InjectDelay;
  std::atomic<uint64_t> NextDraw{0};
};

} // namespace

const std::vector<PipelineConfig> &incline::fuzz::allPipelineConfigs() {
  static const std::vector<PipelineConfig> Configs = {
      {"canonicalize",
       [](ir::Function &F, const ir::Module &M, const opt::CanonOptions &C,
          const opt::PassObserver &Obs) {
         opt::AnalysisManager AM;
         opt::CanonicalizePass Canon(C);
         opt::runPass(Canon, F, M, configContext(AM, Obs));
       }},
      {"canonicalize-no-devirt",
       [](ir::Function &F, const ir::Module &M, const opt::CanonOptions &C,
          const opt::PassObserver &Obs) {
         opt::CanonOptions Options = C;
         Options.EnableDevirtualization = false;
         opt::AnalysisManager AM;
         opt::CanonicalizePass Canon(Options);
         opt::runPass(Canon, F, M, configContext(AM, Obs));
       }},
      {"gvn+dce",
       [](ir::Function &F, const ir::Module &M, const opt::CanonOptions &,
          const opt::PassObserver &Obs) {
         opt::AnalysisManager AM;
         opt::PassContext Ctx = configContext(AM, Obs);
         opt::GVNPass GVN;
         opt::runPass(GVN, F, M, Ctx);
         opt::DCEPass DCE;
         opt::runPass(DCE, F, M, Ctx);
       }},
      {"rwe",
       [](ir::Function &F, const ir::Module &M, const opt::CanonOptions &,
          const opt::PassObserver &Obs) {
         opt::AnalysisManager AM;
         opt::RWEPass RWE;
         opt::runPass(RWE, F, M, configContext(AM, Obs));
       }},
      {"forced-peeling",
       [](ir::Function &F, const ir::Module &M, const opt::CanonOptions &,
          const opt::PassObserver &Obs) {
         opt::PeelOptions Options;
         Options.RequireTypeTrigger = false;
         opt::AnalysisManager AM;
         opt::LoopPeelPass Peel(Options);
         opt::runPass(Peel, F, M, configContext(AM, Obs));
       }},
      {"full-pipeline",
       [](ir::Function &F, const ir::Module &M, const opt::CanonOptions &C,
          const opt::PassObserver &Obs) {
         opt::PipelineOptions Options;
         Options.Canon = C;
         Options.Observer = Obs;
         opt::runOptimizationPipeline(F, M, Options);
       }},
      {"pipeline-x3",
       [](ir::Function &F, const ir::Module &M, const opt::CanonOptions &C,
          const opt::PassObserver &Obs) {
         opt::PipelineOptions Options;
         Options.Canon = C;
         Options.Observer = Obs;
         for (int I = 0; I < 3; ++I)
           opt::runOptimizationPipeline(F, M, Options);
       }},
  };
  return Configs;
}

const std::vector<JitPolicyConfig> &incline::fuzz::allJitPolicies() {
  static const std::vector<JitPolicyConfig> Policies = {
      {"incremental",
       []() -> std::unique_ptr<jit::Compiler> {
         return std::make_unique<inliner::IncrementalCompiler>();
       }},
      // Same algorithm with the shared deep-trial cache: every divergence
      // check doubles as a cached-vs-fresh cross-check, and with
      // --verify-trial-cache each hit is additionally recomputed and
      // compared in full.
      {"incremental-tc",
       []() -> std::unique_ptr<jit::Compiler> {
         inliner::InlinerConfig C;
         C.TrialCache = inliner::TrialCacheMode::Shared;
         return std::make_unique<inliner::IncrementalCompiler>(
             C, "incremental-tc");
       }},
      {"1-by-1",
       []() -> std::unique_ptr<jit::Compiler> {
         inliner::InlinerConfig C;
         C.UseClustering = false;
         return std::make_unique<inliner::IncrementalCompiler>(C);
       }},
      {"shallow",
       []() -> std::unique_ptr<jit::Compiler> {
         inliner::InlinerConfig C;
         C.DeepTrials = false;
         return std::make_unique<inliner::IncrementalCompiler>(C);
       }},
      {"fixed",
       []() -> std::unique_ptr<jit::Compiler> {
         inliner::InlinerConfig C;
         C.ExpansionPolicy = inliner::ExpansionPolicyKind::FixedTreeSize;
         C.InliningPolicy = inliner::InliningPolicyKind::FixedRootSize;
         return std::make_unique<inliner::IncrementalCompiler>(C);
       }},
      {"greedy",
       []() -> std::unique_ptr<jit::Compiler> {
         return std::make_unique<inliner::GreedyCompiler>();
       }},
      {"c2",
       []() -> std::unique_ptr<jit::Compiler> {
         return std::make_unique<inliner::C2StyleCompiler>();
       }},
      {"c1",
       []() -> std::unique_ptr<jit::Compiler> {
         return std::make_unique<inliner::TrivialCompiler>();
       }},
  };
  return Policies;
}

DifferentialOracle::DifferentialOracle(OracleOptions Options)
    : Opts(Options) {}

std::optional<Divergence>
DifferentialOracle::check(const std::string &Source) const {
  std::string FrontendDiags;
  std::unique_ptr<ir::Module> Ref = compileOrNull(Source, &FrontendDiags);
  if (!Ref) {
    Divergence D;
    D.Kind = DivergenceKind::FrontendError;
    D.Stage = "frontend";
    D.Detail = FrontendDiags;
    return D;
  }
  if (std::vector<std::string> Problems = ir::verifyModule(*Ref);
      !Problems.empty()) {
    Divergence D;
    D.Kind = DivergenceKind::VerifierError;
    D.Stage = "frontend";
    D.Detail = joinProblems(Problems);
    return D;
  }
  // The reference runs under the wall-clock cap only (its step count is
  // what candidate budgets derive from, so it gets the default step limit).
  interp::ExecResult RefRun =
      runModuleMain(*Ref, interp::ExecLimits(), Opts.StageWallClockSeconds);
  if (!RefRun.ok()) {
    Divergence D;
    D.Kind = RefRun.Trap == interp::TrapKind::StepLimitExceeded
                 ? DivergenceKind::Timeout
                 : DivergenceKind::Trap;
    D.Stage = "reference";
    D.Detail = RefRun.TrapMessage;
    return D;
  }
  const std::string &Expected = RefRun.Output;
  const interp::ExecLimits Budget = candidateLimits(Opts, RefRun);

  // Differential stage for the execution cores themselves: the fast
  // (pre-decoded, slot-frame, PIC) interpreter must match the reference
  // map-frame core bit-for-bit — output, trap, step and per-tier cycle
  // totals, and the *content* of the recorded profiles (the inputs every
  // inlining/devirt decision downstream is made from).
  {
    auto CoreRun = [&](interp::InterpMode Mode, profile::ProfileTable &PT)
        -> std::optional<interp::ExecResult> {
      std::unique_ptr<ir::Module> M = compileOrNull(Source);
      if (!M)
        return std::nullopt;
      support::CancellationToken Watchdog(
          support::CancellationToken::wallClockBudget(
              Opts.StageWallClockSeconds));
      interp::ExecLimits CoreLimits = Budget;
      CoreLimits.Deadline = &Watchdog;
      interp::ModuleEnv Env(*M, &PT);
      interp::InterpOptions IOpts;
      IOpts.Mode = Mode;
      interp::Interpreter Interp(*M, Env, interp::CostModel(), CoreLimits,
                                 IOpts);
      return Interp.run("main");
    };
    profile::ProfileTable FastPT, SlowPT;
    std::optional<interp::ExecResult> Fast =
        CoreRun(interp::InterpMode::Fast, FastPT);
    std::optional<interp::ExecResult> Slow =
        CoreRun(interp::InterpMode::Reference, SlowPT);
    if (Fast && Slow) {
      std::string Mismatch;
      if (Fast->Output != Slow->Output)
        Mismatch = "program output";
      else if (Fast->Trap != Slow->Trap ||
               Fast->TrapMessage != Slow->TrapMessage)
        Mismatch = "trap (fast: '" + Fast->TrapMessage + "' vs reference: '" +
                   Slow->TrapMessage + "')";
      else if (Fast->Steps != Slow->Steps)
        Mismatch = "step count";
      else if (Fast->InterpretedCycles != Slow->InterpretedCycles ||
               Fast->CompiledCycles != Slow->CompiledCycles)
        Mismatch = "cycle accounting";
      else if (FastPT.dump() != SlowPT.dump())
        Mismatch = "recorded profiles";
      if (!Mismatch.empty()) {
        Divergence D;
        D.Kind = DivergenceKind::OutputMismatch;
        D.Stage = "interp:fast";
        D.Detail = "fast interpreter diverged from reference core: " +
                   Mismatch;
        D.Expected = Slow->Output + "\n[profiles]\n" + SlowPT.dump();
        D.Actual = Fast->Output + "\n[profiles]\n" + FastPT.dump();
        return D;
      }
    }
  }

  if (Opts.CheckPipelines) {
    for (const PipelineConfig &Config : allPipelineConfigs()) {
      std::unique_ptr<ir::Module> M = compileOrNull(Source);
      std::optional<Divergence> PerPassProblem;
      opt::PassObserver Observer;
      if (Opts.VerifyAfterEachPass)
        Observer = [&](const std::string &PassName, ir::Function &F) {
          if (PerPassProblem)
            return;
          std::vector<std::string> Problems = ir::verifyFunction(F);
          if (Problems.empty())
            return;
          Divergence D;
          D.Kind = DivergenceKind::VerifierError;
          D.Stage = "pipeline:" + Config.Name;
          D.Pass = PassName;
          D.Function = F.name();
          D.Detail = joinProblems(Problems);
          PerPassProblem = std::move(D);
        };
      for (const auto &[Name, F] : M->functions()) {
        Config.Apply(*F, *M, Opts.Canon, Observer);
        if (PerPassProblem)
          return PerPassProblem;
      }
      if (std::vector<std::string> Problems = ir::verifyModule(*M);
          !Problems.empty()) {
        Divergence D;
        D.Kind = DivergenceKind::VerifierError;
        D.Stage = "pipeline:" + Config.Name;
        D.Detail = joinProblems(Problems);
        return D;
      }
      interp::ExecResult R =
          runModuleMain(*M, Budget, Opts.StageWallClockSeconds);
      if (!R.ok() || R.Output != Expected) {
        Divergence D;
        D.Kind = failureKind(R);
        D.Stage = "pipeline:" + Config.Name;
        D.Detail = R.ok() ? "optimized output differs from the reference"
                          : R.TrapMessage;
        D.Expected = Expected;
        D.Actual = R.Output;
        if (Opts.Bisect)
          if (std::optional<PassBisection> B =
                  bisectPipeline(Source, Opts)) {
            D.Pass = B->Pass;
            D.Function = B->Function;
          }
        return D;
      }
    }
  }

  if (Opts.CheckJitPolicies) {
    for (const JitPolicyConfig &Policy : allJitPolicies()) {
      std::unique_ptr<ir::Module> M = compileOrNull(Source);
      std::unique_ptr<jit::Compiler> Compiler = Policy.Make();
      // Per-pass IR verification reaches inside the compiler: every pass
      // it runs — inliner rounds, deep-inlining trials, the final bundle —
      // reports back through the installed context.
      std::optional<Divergence> PerPassProblem;
      if (Opts.VerifyAfterEachPass) {
        opt::PassContext Ctx;
        Ctx.Observer = [&PerPassProblem, &Policy](const std::string &PassName,
                                                  ir::Function &F) {
          if (PerPassProblem)
            return;
          std::vector<std::string> Problems = ir::verifyFunction(F);
          if (Problems.empty())
            return;
          Divergence D;
          D.Kind = DivergenceKind::VerifierError;
          D.Stage = "jit:" + Policy.Name;
          D.Pass = PassName;
          D.Function = F.name();
          D.Detail = joinProblems(Problems);
          PerPassProblem = std::move(D);
        };
        Compiler->setPassContext(Ctx);
      }
      jit::JitConfig Config;
      Config.CompileThreshold = Opts.CompileThreshold;
      jit::JitRuntime Runtime(*M, *Compiler, Config);
      for (int Iter = 0; Iter < Opts.JitIterations; ++Iter) {
        interp::ExecResult R =
            runJitMain(Runtime, Budget, Opts.StageWallClockSeconds);
        if (PerPassProblem)
          return PerPassProblem;
        if (R.ok() && R.Output == Expected)
          continue;
        Divergence D;
        D.Kind = failureKind(R);
        D.Stage = "jit:" + Policy.Name;
        D.Detail = R.ok() ? "iteration " + std::to_string(Iter) +
                                " output differs from the reference"
                          : R.TrapMessage;
        D.Expected = Expected;
        D.Actual = R.Output;
        if (Opts.Bisect)
          if (std::optional<std::string> Guilty =
                  bisectJitPolicy(Source, Policy, Opts))
            D.Function = *Guilty;
        return D;
      }
    }
  }

  // Loop-entry OSR stages: the incremental policy with OSR on, under every
  // execution mode. The reference output was already matched by the
  // OSR-off stages above, so every seed doubles as an OSR-on-vs-off
  // differential. The method threshold is raised slightly so loops run
  // interpreted long enough to tier up mid-frame, and the backedge
  // threshold is tiny so nearly every loop does.
  if (Opts.CheckJitPolicies && Opts.CheckOsr) {
    struct OsrStage {
      std::string Name;
      jit::JitMode Mode;
      unsigned Threads;
    };
    const OsrStage OsrStages[] = {
        {"osr-sync", jit::JitMode::Sync, 1},
        {"osr-deterministic", jit::JitMode::Deterministic, 2},
        {"osr-async", jit::JitMode::Async, 2},
    };
    for (const OsrStage &Stage : OsrStages) {
      std::unique_ptr<ir::Module> M = compileOrNull(Source);
      inliner::IncrementalCompiler Compiler{inliner::InlinerConfig()};
      jit::JitConfig Config;
      Config.CompileThreshold = std::max<uint64_t>(Opts.CompileThreshold, 3);
      Config.Mode = Stage.Mode;
      Config.Threads = Stage.Threads;
      Config.Osr = true;
      Config.OsrBackedgeThreshold = 4;
      jit::JitRuntime Runtime(*M, Compiler, Config);
      for (int Iter = 0; Iter < Opts.JitIterations; ++Iter) {
        interp::ExecResult R =
            runJitMain(Runtime, Budget, Opts.StageWallClockSeconds);
        if (R.ok() && R.Output == Expected)
          continue;
        Divergence D;
        D.Kind = failureKind(R);
        D.Stage = "jit:" + Stage.Name;
        D.Detail = R.ok() ? "iteration " + std::to_string(Iter) +
                                " output differs from the reference"
                          : R.TrapMessage;
        D.Expected = Expected;
        D.Actual = R.Output;
        return D;
      }
      Runtime.drainCompilations();
    }
  }

  // Chaos stages: the incremental policy under every execution mode with
  // fault injection turned on. The runtime's deoptimization story claims
  // that forced guard failures, compile faults and invalidation timing are
  // all output-neutral; here that claim meets a schedule it did not choose.
  if (Opts.Chaos.Enabled && Opts.CheckJitPolicies) {
    struct ChaosStage {
      std::string Name;
      jit::JitMode Mode;
      unsigned Threads;
      bool InjectDelay; ///< Compile latency only perturbs async timing.
    };
    const ChaosStage Stages[] = {
        {"chaos-sync", jit::JitMode::Sync, 1, false},
        {"chaos-deterministic", jit::JitMode::Deterministic, 2, false},
        {"chaos-async", jit::JitMode::Async, 2, true},
        {"chaos-async-4t", jit::JitMode::Async, 4, true},
    };
    uint64_t StageSalt = 0;
    for (const ChaosStage &Stage : Stages) {
      ++StageSalt;
      std::unique_ptr<ir::Module> M = compileOrNull(Source);
      // Aggressive speculation thresholds: fuzzer-generated call sites
      // rarely reach 90% receiver dominance, and a chaos run that emits no
      // guards exercises nothing. Guard correctness does not depend on the
      // profile actually being right — that is the whole contract.
      inliner::InlinerConfig IC;
      IC.SpeculationMinProbability = 0.5;
      IC.SpeculationMinSamples = 2;
      ChaosCompiler Compiler(std::make_unique<inliner::IncrementalCompiler>(IC),
                             Opts.Chaos, StageSalt, Stage.InjectDelay);
      jit::JitConfig Config;
      Config.CompileThreshold = Opts.CompileThreshold;
      Config.Mode = Stage.Mode;
      Config.Threads = Stage.Threads;
      // Guards execute on the mutator only, so a plain counter suffices;
      // shared_ptr keeps the closure copyable.
      Config.ForceGuardFailure =
          [C = Opts.Chaos, GuardSalt = StageSalt ^ 0x517CC1B727220A95ULL,
           Counter = std::make_shared<uint64_t>(0)](std::string_view,
                                                    unsigned) {
            uint64_t Draw = chaosMix(C.Seed ^ GuardSalt, (*Counter)++);
            return chaosChance(Draw, C.GuardFailureRate);
          };
      // Chaos runs with OSR on: interpreted frames (fresh methods, bailed
      // compiles, post-deopt baselines) tier up mid-loop, and the forced
      // schedule below requests OSR compiles at backedges the threshold
      // would not have picked — so forced guard failures fire inside OSR
      // bodies too, closing the OSR-entry -> deopt-exit -> recompile ->
      // re-entry loop under every mode. Like guards, the OSR poll runs on
      // the mutator only, so a plain counter suffices.
      Config.Osr = true;
      Config.OsrBackedgeThreshold = 4;
      Config.ForceOsrEntry =
          [C = Opts.Chaos, OsrSalt = StageSalt ^ 0xA0761D6478BD642FULL,
           Counter = std::make_shared<uint64_t>(0)](std::string_view,
                                                    unsigned, uint64_t) {
            uint64_t Draw = chaosMix(C.Seed ^ OsrSalt, (*Counter)++);
            return chaosChance(Draw, C.OsrForceRate);
          };
      // Code-lifecycle chaos: forced evictions (the runtime claims eviction
      // is a pure performance event — the victim re-tiers through the
      // interpreter), plus an optional thrash budget and profile decay.
      // The eviction poll runs on the mutator only, so a plain counter
      // suffices; the method name is folded in so the schedule is
      // per (seed, method) rather than per global invocation order.
      Config.ForceEvict =
          [C = Opts.Chaos, EvictSalt = StageSalt ^ 0xE7037ED1A0B428DBULL,
           Counter = std::make_shared<uint64_t>(0)](std::string_view Symbol) {
            uint64_t Draw =
                chaosMix(C.Seed ^ EvictSalt,
                         chaosMix(fnv1a(Symbol, FnvShortBasis), (*Counter)++));
            return chaosChance(Draw, C.EvictForceRate);
          };
      Config.CodeCacheBudget = Opts.Chaos.CodeCacheBudget;
      Config.ProfileDecayHalflife = Opts.Chaos.ProfileDecayHalflife;
      jit::JitRuntime Runtime(*M, Compiler, Config);
      for (int Iter = 0; Iter < Opts.JitIterations; ++Iter) {
        interp::ExecResult R =
            runJitMain(Runtime, Budget, Opts.StageWallClockSeconds);
        if (R.ok() && R.Output == Expected)
          continue;
        Divergence D;
        D.Kind = failureKind(R);
        D.Stage = "jit:" + Stage.Name;
        D.Detail = R.ok() ? "iteration " + std::to_string(Iter) +
                                " output differs from the reference"
                          : R.TrapMessage;
        D.Expected = Expected;
        D.Actual = R.Output;
        return D;
      }
      // Publish whatever is still in flight before teardown: the stale /
      // post-invalidation publication paths are part of what chaos covers.
      Runtime.drainCompilations();
    }

    // Dedicated code-lifecycle thrash stage: a cache budget so tiny that
    // almost every publication evicts someone (or is rejected outright),
    // aggressive profile decay, forced per-method evictions, OSR on, and
    // async publication racing it all — diffed against the same interpreter
    // reference. No injected compiler faults or guard failures here: a
    // divergence in this stage attributes cleanly to the eviction / decay /
    // re-tiering machinery rather than to the compounded chaos above.
    {
      std::unique_ptr<ir::Module> M = compileOrNull(Source);
      inliner::IncrementalCompiler Compiler{inliner::InlinerConfig()};
      jit::JitConfig Config;
      Config.CompileThreshold = Opts.CompileThreshold;
      Config.Mode = jit::JitMode::Async;
      Config.Threads = 2;
      Config.Osr = true;
      Config.OsrBackedgeThreshold = 4;
      Config.CodeCacheBudget = Opts.Chaos.CodeCacheBudget != 0
                                   ? Opts.Chaos.CodeCacheBudget
                                   : 48;
      Config.ProfileDecayHalflife = Opts.Chaos.ProfileDecayHalflife != 0
                                        ? Opts.Chaos.ProfileDecayHalflife
                                        : 32;
      Config.ForceEvict =
          [C = Opts.Chaos, EvictSalt = uint64_t{0xD6E8FEB86659FD93ULL},
           Counter = std::make_shared<uint64_t>(0)](std::string_view Symbol) {
            uint64_t Draw =
                chaosMix(C.Seed ^ EvictSalt,
                         chaosMix(fnv1a(Symbol, FnvShortBasis), (*Counter)++));
            return chaosChance(Draw, C.EvictForceRate);
          };
      jit::JitRuntime Runtime(*M, Compiler, Config);
      for (int Iter = 0; Iter < Opts.JitIterations; ++Iter) {
        interp::ExecResult R =
            runJitMain(Runtime, Budget, Opts.StageWallClockSeconds);
        if (R.ok() && R.Output == Expected)
          continue;
        Divergence D;
        D.Kind = failureKind(R);
        D.Stage = "jit:evict-async";
        D.Detail = R.ok() ? "iteration " + std::to_string(Iter) +
                                " output differs from the reference"
                          : R.TrapMessage;
        D.Expected = Expected;
        D.Actual = R.Output;
        return D;
      }
      Runtime.drainCompilations();
    }

    // Dedicated prune-chaos stages: minimal-slice compilation with forced
    // cold-branch prunes, under every execution mode. The forced-prune
    // schedule is a pure function of (seed, method, branch profileId) — no
    // counter — so it is identical across modes and thread counts. No
    // other fault injection here: a divergence attributes cleanly to the
    // prune/trap/recompile machinery. The claim under test: an uncommon
    // trap is semantically a branch — pruning *any* edge, however hot,
    // only moves execution back to the interpreter at the pruned target,
    // and the per-(method, block) blacklist converges the recompile to an
    // unpruned body.
    {
      struct PruneStage {
        std::string Name;
        jit::JitMode Mode;
        unsigned Threads;
      };
      const PruneStage PruneStages[] = {
          {"prune-chaos-sync", jit::JitMode::Sync, 1},
          {"prune-chaos-deterministic", jit::JitMode::Deterministic, 2},
          {"prune-chaos-async", jit::JitMode::Async, 2},
      };
      for (const PruneStage &Stage : PruneStages) {
        std::unique_ptr<ir::Module> M = compileOrNull(Source);
        inliner::InlinerConfig IC;
        if (Opts.Chaos.ColdPruneMaxProbability >= 0.0) {
          // Threshold pruning on top of the forced schedule, with a sample
          // floor low enough for fuzzer-sized programs to clear.
          IC.EnableColdBranchPruning = true;
          IC.ColdPruneMaxProbability = Opts.Chaos.ColdPruneMaxProbability;
          IC.ColdPruneMinSamples = 2;
        }
        inliner::IncrementalCompiler Compiler{IC};
        jit::JitConfig Config;
        Config.CompileThreshold = Opts.CompileThreshold;
        Config.Mode = Stage.Mode;
        Config.Threads = Stage.Threads;
        Config.Osr = true;
        Config.OsrBackedgeThreshold = 4;
        Config.ForceColdBranch =
            [C = Opts.Chaos, PruneSalt = uint64_t{0x8EBC6AF09C88C6E3ULL}](
                std::string_view Method, unsigned BranchProfileId) {
              uint64_t Draw = chaosMix(C.Seed ^ PruneSalt,
                                       chaosMix(fnv1a(Method, FnvShortBasis),
                                                BranchProfileId));
              return chaosChance(Draw, C.PruneForceRate);
            };
        jit::JitRuntime Runtime(*M, Compiler, Config);
        for (int Iter = 0; Iter < Opts.JitIterations; ++Iter) {
          interp::ExecResult R =
              runJitMain(Runtime, Budget, Opts.StageWallClockSeconds);
          if (R.ok() && R.Output == Expected)
            continue;
          Divergence D;
          D.Kind = failureKind(R);
          D.Stage = "jit:" + Stage.Name;
          D.Detail = R.ok() ? "iteration " + std::to_string(Iter) +
                                  " output differs from the reference"
                            : R.TrapMessage;
          D.Expected = Expected;
          D.Actual = R.Output;
          return D;
        }
        Runtime.drainCompilations();
      }
    }

    // Dedicated deadline-chaos stages: supervised compilation with forced
    // deadline expiries driving the graceful-degradation ladder
    // (DESIGN.md §14), under every execution mode. The forced-expiry
    // schedule is a pure function of (seed, symbol, attempt) — no counter —
    // so it is identical across modes and thread counts, and the
    // deterministic variant doubles as a supervision-vs-determinism
    // cross-check. No other fault injection here: a divergence attributes
    // cleanly to the deadline/ladder machinery. The claim under test:
    // deadline bailouts, rung-degraded code, ladder upgrades and
    // interpreter-only demotions are all output-neutral.
    {
      struct DeadlineStage {
        std::string Name;
        jit::JitMode Mode;
        unsigned Threads;
      };
      const DeadlineStage DeadlineStages[] = {
          {"deadline-chaos-sync", jit::JitMode::Sync, 1},
          {"deadline-chaos-deterministic", jit::JitMode::Deterministic, 2},
          {"deadline-chaos-async", jit::JitMode::Async, 2},
      };
      for (const DeadlineStage &Stage : DeadlineStages) {
        std::unique_ptr<ir::Module> M = compileOrNull(Source);
        inliner::IncrementalCompiler Compiler{inliner::InlinerConfig()};
        jit::JitConfig Config;
        Config.CompileThreshold = Opts.CompileThreshold;
        Config.Mode = Stage.Mode;
        Config.Threads = Stage.Threads;
        Config.Osr = true;
        Config.OsrBackedgeThreshold = 4;
        Config.DegradeLadder = true;
        Config.ForceDeadlineExpiry =
            [C = Opts.Chaos, DeadlineSalt = uint64_t{0x2545F4914F6CDD1DULL}](
                std::string_view Symbol, unsigned Attempt) {
              uint64_t Draw = chaosMix(
                  C.Seed ^ DeadlineSalt,
                  chaosMix(fnv1a(Symbol, FnvShortBasis), Attempt));
              return chaosChance(Draw, C.DeadlineForceRate);
            };
        jit::JitRuntime Runtime(*M, Compiler, Config);
        for (int Iter = 0; Iter < Opts.JitIterations; ++Iter) {
          interp::ExecResult R =
              runJitMain(Runtime, Budget, Opts.StageWallClockSeconds);
          if (R.ok() && R.Output == Expected)
            continue;
          Divergence D;
          D.Kind = failureKind(R);
          D.Stage = "jit:" + Stage.Name;
          D.Detail = R.ok() ? "iteration " + std::to_string(Iter) +
                                  " output differs from the reference"
                            : R.TrapMessage;
          D.Expected = Expected;
          D.Actual = R.Output;
          return D;
        }
        Runtime.drainCompilations();
      }
    }
  }
  return std::nullopt;
}

std::optional<PassBisection>
incline::fuzz::bisectPipeline(const std::string &Source,
                              const OracleOptions &Options) {
  std::unique_ptr<ir::Module> Ref = compileOrNull(Source);
  if (!Ref)
    return std::nullopt;
  interp::ExecResult RefRun = runModuleMain(*Ref, interp::ExecLimits(),
                                            Options.StageWallClockSeconds);
  if (!RefRun.ok())
    return std::nullopt;
  const std::string Expected = RefRun.Output;
  const interp::ExecLimits Budget = candidateLimits(Options, RefRun);

  std::vector<std::string> FunctionNames;
  for (const auto &[Name, F] : Ref->functions())
    FunctionNames.push_back(Name);

  opt::PipelineOptions PO;
  PO.Canon = Options.Canon;

  // Applies the first `PrefixLen` passes of the bundle to every function
  // (or one pass fewer to all but `ExtendOnly`) and reports how the module
  // misbehaves, if it does.
  auto Misbehaves =
      [&](size_t PrefixLen,
          const std::string &ExtendOnly) -> std::optional<std::string> {
    std::unique_ptr<ir::Module> M = compileOrNull(Source);
    for (const auto &[Name, F] : M->functions()) {
      size_t Len = PrefixLen;
      if (!ExtendOnly.empty() && Name != ExtendOnly)
        Len = PrefixLen - 1;
      opt::runPipelinePrefix(*F, *M, Len, PO);
    }
    if (std::vector<std::string> Problems = ir::verifyModule(*M);
        !Problems.empty())
      return joinProblems(Problems);
    interp::ExecResult R =
        runModuleMain(*M, Budget, Options.StageWallClockSeconds);
    if (!R.ok())
      return "trap: " + R.TrapMessage;
    if (R.Output != Expected)
      return "output mismatch";
    return std::nullopt;
  };

  const std::vector<std::string> &Names = opt::pipelinePassNames();
  for (size_t Len = 1; Len <= Names.size(); ++Len) {
    std::optional<std::string> Detail = Misbehaves(Len, "");
    if (!Detail)
      continue;
    PassBisection B;
    B.Pass = Names[Len - 1];
    B.Detail = *Detail;
    // Second axis: is one function alone responsible? Give only one
    // function the guilty pass and everyone else the clean prefix.
    for (const std::string &Name : FunctionNames) {
      if (Misbehaves(Len, Name)) {
        B.Function = Name;
        break;
      }
    }
    return B;
  }
  return std::nullopt;
}

std::optional<std::string>
incline::fuzz::bisectJitPolicy(const std::string &Source,
                               const JitPolicyConfig &Policy,
                               const OracleOptions &Options) {
  std::unique_ptr<ir::Module> Ref = compileOrNull(Source);
  if (!Ref)
    return std::nullopt;
  interp::ExecResult RefRun = runModuleMain(*Ref, interp::ExecLimits(),
                                            Options.StageWallClockSeconds);
  if (!RefRun.ok())
    return std::nullopt;
  const std::string Expected = RefRun.Output;
  const interp::ExecLimits Budget = candidateLimits(Options, RefRun);

  std::vector<std::string> FunctionNames;
  for (const auto &[Name, F] : Ref->functions())
    FunctionNames.push_back(Name);

  for (const std::string &Name : FunctionNames) {
    std::unique_ptr<ir::Module> M = compileOrNull(Source);
    std::unique_ptr<jit::Compiler> Compiler = Policy.Make();
    jit::JitConfig Config;
    // Nothing reaches the threshold on its own: only the explicitly
    // compiled method runs from compiled code.
    Config.CompileThreshold = UINT64_MAX;
    jit::JitRuntime Runtime(*M, *Compiler, Config);
    Runtime.compileNow(Name);
    for (int Iter = 0; Iter < Options.JitIterations; ++Iter) {
      interp::ExecResult R =
          runJitMain(Runtime, Budget, Options.StageWallClockSeconds);
      if (!R.ok() || R.Output != Expected)
        return Name;
    }
  }
  return std::nullopt;
}
