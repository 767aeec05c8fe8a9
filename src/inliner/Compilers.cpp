//===- inliner/Compilers.cpp --------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "inliner/Compilers.h"

#include "inliner/IncrementalInliner.h"
#include "ir/IRCloner.h"
#include "opt/PassPipeline.h"
#include "opt/Passes.h"

using namespace incline;
using namespace incline::inliner;

namespace {

/// One compilation's pass-execution scaffolding: a per-compile analysis
/// cache (unless the installed context already carries one), plus a local
/// metrics sink stacked on top of the caller's so the compiler can report
/// per-compilation pass totals in CompileStats.
class CompileSession {
public:
  CompileSession(const opt::PassContext &Installed,
                 const profile::ProfileTable &Profiles)
      : OwnAM(&Profiles) {
    Ctx = Installed;
    if (!Ctx.AM)
      Ctx.AM = &OwnAM;
    CallerSink = Ctx.Instr;
    Ctx.Instr = &LocalInstr;
  }

  const opt::PassContext &ctx() const { return Ctx; }

  opt::PipelineOptions pipelineOptions() const {
    opt::PipelineOptions Options;
    Options.Observer = Ctx.Observer;
    Options.AM = Ctx.AM;
    Options.Instr = Ctx.Instr;
    Options.Cancel = Ctx.Cancel;
    return Options;
  }

  /// Folds this compilation's pass totals into \p Stats and forwards them
  /// to the caller's sink.
  void finish(jit::CompileStats &Stats) {
    opt::PassMetrics Totals = LocalInstr.totals();
    Stats.PassRuns += Totals.Runs;
    Stats.PassNanos += Totals.Nanos;
    Stats.AnalysisCacheHits += Totals.CacheHits;
    Stats.AnalysisCacheMisses += Totals.CacheMisses;
    if (CallerSink)
      LocalInstr.mergeInto(*CallerSink);
  }

private:
  opt::AnalysisManager OwnAM;
  opt::PassInstrumentation LocalInstr;
  opt::PassInstrumentation *CallerSink = nullptr;
  opt::PassContext Ctx;
};

/// Runs one canonicalization pass under \p Ctx, returning its rewrite count.
unsigned runCanonPass(ir::Function &F, const ir::Module &M,
                      const opt::PassContext &Ctx,
                      const opt::CanonOptions &Options = opt::CanonOptions()) {
  opt::CanonStats Stats;
  opt::CanonicalizePass Canon(Options);
  Canon.setStatsSink(&Stats);
  opt::runPass(Canon, F, M, Ctx);
  return Stats.total();
}

} // namespace

std::unique_ptr<ir::Function>
IncrementalCompiler::compile(const ir::Function &Source, const ir::Module &M,
                             const profile::ProfileTable &Profiles,
                             jit::CompileStats &Stats,
                             const opt::PassContext &Ctx) {
  CompileSession Session(Ctx, Profiles);
  ir::ClonedFunction Clone = ir::cloneFunction(Source, Source.name());

  // Graceful-degradation rungs (DESIGN.md §14). Rung 2 (baseline) skips
  // the inliner entirely — the dominant compile cost — and runs only the
  // standard bundle; rung 1 keeps inlining but drops speculative
  // devirtualization, so the body carries no guards and no deopt exposure.
  if (Ctx.DegradeRung >= 2) {
    opt::PipelineStats Pipeline = opt::runOptimizationPipeline(
        *Clone.F, M, Session.pipelineOptions());
    Stats.OptsTriggered = Pipeline.Canon.total();
    Session.finish(Stats);
    return std::move(Clone.F);
  }
  InlinerConfig Effective = Config;
  if (Ctx.DegradeRung >= 1) {
    // No speculation of any kind on the degraded rungs: no guards, no
    // uncommon traps, no deopt exposure.
    Effective.EnableSpeculativeDevirt = false;
    Effective.EnableColdBranchPruning = false;
  }
  IncrementalInliner Inliner(Effective, M, Profiles);
  Inliner.setPassContext(Session.ctx());

  // Shared mode uses the compiler-lifetime cache, which is internally
  // synchronized for concurrent workers; Off leaves it null.
  Inliner.setTrialCache(Cache.get());

  InlinerResult Result = Inliner.run(std::move(Clone.F), Source.name());

  Stats.InlinedCallsites = Result.CallsitesInlined;
  Stats.Rounds = Result.Rounds;
  Stats.ExploredNodes = Result.NodesExplored;
  Stats.OptsTriggered = Result.OptsTriggered;
  Stats.GuardsEmitted = Result.GuardsEmitted;
  Stats.BranchesPruned = Result.BranchesPruned;
  Stats.TrialCacheHits = Result.TrialCacheHits;
  Stats.TrialCacheMisses = Result.TrialCacheMisses;
  Stats.TrialNanos = Result.TrialNanos;
  Stats.TrialNanosSaved = Result.TrialNanosSaved;

  opt::PipelineStats Pipeline =
      opt::runOptimizationPipeline(*Result.Body, M, Session.pipelineOptions());
  Stats.OptsTriggered += Pipeline.Canon.total();
  Session.finish(Stats);
  return std::move(Result.Body);
}

std::unique_ptr<ir::Function>
GreedyCompiler::compile(const ir::Function &Source, const ir::Module &M,
                        const profile::ProfileTable &Profiles,
                        jit::CompileStats &Stats,
                        const opt::PassContext &Ctx) {
  CompileSession Session(Ctx, Profiles);
  ir::ClonedFunction Clone = ir::cloneFunction(Source, Source.name());
  // The greedy inliner does not alternate with optimization: a single
  // canonicalization precedes it (statically-known devirtualization), the
  // shared pipeline follows it.
  Stats.OptsTriggered = runCanonPass(*Clone.F, M, Session.ctx());
  BaselineResult Result =
      runGreedyInliner(*Clone.F, M, Profiles, Source.name(), Config);
  Stats.InlinedCallsites = Result.CallsitesInlined;
  Stats.Rounds = 1;

  opt::PipelineStats Pipeline =
      opt::runOptimizationPipeline(*Clone.F, M, Session.pipelineOptions());
  Stats.OptsTriggered += Pipeline.Canon.total();
  Session.finish(Stats);
  return std::move(Clone.F);
}

std::unique_ptr<ir::Function>
C2StyleCompiler::compile(const ir::Function &Source, const ir::Module &M,
                         const profile::ProfileTable &Profiles,
                         jit::CompileStats &Stats,
                         const opt::PassContext &Ctx) {
  CompileSession Session(Ctx, Profiles);
  ir::ClonedFunction Clone = ir::cloneFunction(Source, Source.name());
  Stats.OptsTriggered = runCanonPass(*Clone.F, M, Session.ctx());
  BaselineResult Result =
      runC2StyleInliner(*Clone.F, M, Profiles, Source.name(), Config);
  Stats.InlinedCallsites = Result.CallsitesInlined;
  Stats.Rounds = 2; // Trivial phase + greedy phase.

  opt::PipelineStats Pipeline =
      opt::runOptimizationPipeline(*Clone.F, M, Session.pipelineOptions());
  Stats.OptsTriggered += Pipeline.Canon.total();
  Session.finish(Stats);
  return std::move(Clone.F);
}

std::unique_ptr<ir::Function>
TrivialCompiler::compile(const ir::Function &Source, const ir::Module &M,
                         const profile::ProfileTable &Profiles,
                         jit::CompileStats &Stats,
                         const opt::PassContext &Ctx) {
  CompileSession Session(Ctx, Profiles);
  ir::ClonedFunction Clone = ir::cloneFunction(Source, Source.name());
  BaselineResult Result = runTrivialInliner(*Clone.F, M, Config);
  Stats.InlinedCallsites = Result.CallsitesInlined;
  Stats.Rounds = 1;

  // C1 does only light cleanup: canonicalize + DCE, no GVN/RWE.
  Stats.OptsTriggered = runCanonPass(*Clone.F, M, Session.ctx());
  opt::DCEPass DCE;
  opt::runPass(DCE, *Clone.F, M, Session.ctx());
  Session.finish(Stats);
  return std::move(Clone.F);
}
