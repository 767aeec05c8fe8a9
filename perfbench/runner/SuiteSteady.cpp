//===- perfbench/runner/SuiteSteady.cpp - The paper's measurement ---------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
//
// suite-steady: every program of workloads::allWorkloads() gets a fresh
// IncrementalCompiler and runs its own iteration count in one JitRuntime,
// exactly as workloads::runWorkload does. One pass runs all sixteen, in an
// order drawn from the seed; passes repeat until the run's time is spent.
// Simulated cycles and installed |ir| are exact and must repeat bit-for-bit
// in every pass; host times are medians over passes.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"

#include "frontend/Compiler.h"
#include "inliner/Compilers.h"
#include "support/Statistics.h"
#include "workloads/Workloads.h"

using namespace incline;

namespace perfbench {

namespace {

/// The one override of library defaults, as in workloads::RunConfig.
constexpr uint64_t CompileThreshold = 10;
/// Whole set-ups timed before the measured phase, and parts (programs) of
/// the set-up timed again after each pass.
constexpr unsigned SetupRepeats = 3;
constexpr unsigned SetupPartsPerPass = 32;
/// Five passes are 1,200 iterations: enough for host.op_p99_us to have ten
/// samples beyond it in the untraced passes of even the shortest traced run.
constexpr unsigned MinPasses = 5;

struct Program {
  const workloads::Workload *W = nullptr;
  std::unique_ptr<ir::Module> Mod;
  std::string Reference; ///< Output of one JIT-off run.
};

struct Pass {
  double WallS = 0;
  double StallMs = 0;
  double SteadyCyclesGeomean = 0;
  uint64_t InstalledIr = 0;
  CompileTotals Compiles;
  /// Host microseconds of every runMain() iteration.
  std::vector<double> IterUs;
  // Inputs of the interp.* layer metrics.
  double RunNanos = 0;
  double TotalCycles = 0;
  double InterpretedCycles = 0;
};

Pass runPass(std::vector<Program> &Progs, uint64_t Seed, unsigned PassNo,
             Report &R, CompileLayerTotals *Trace) {
  Pass P;
  std::vector<double> SteadyCycles(Progs.size());
  auto Start = Clock::now();
  for (size_t Index : permutation(Progs.size(), mix(Seed, PassNo))) {
    Program &Prog = Progs[Index];
    inliner::IncrementalCompiler Compiler;
    std::optional<TimedCompiler> Timed;
    if (Trace)
      Timed.emplace(Compiler);
    jit::JitConfig Config;
    Config.CompileThreshold = CompileThreshold;
    jit::JitRuntime RT(*Prog.Mod,
                       Timed ? static_cast<jit::Compiler &>(*Timed) : Compiler,
                       Config);

    std::vector<double> Cycles;
    std::string Output;
    bool Ok = true;
    for (int Iter = 0; Iter < Prog.W->Iterations && Ok; ++Iter) {
      auto T0 = Clock::now();
      interp::ExecResult E = RT.runMain();
      auto T1 = Clock::now();
      Ok = E.ok();
      P.IterUs.push_back(secondsBetween(T0, T1) * 1e6);
      Cycles.push_back(RT.effectiveCycles(E));
      Output = std::move(E.Output);
      P.RunNanos += secondsBetween(T0, T1) * 1e9;
      P.TotalCycles += static_cast<double>(E.totalCycles());
      P.InterpretedCycles += static_cast<double>(E.InterpretedCycles);
    }
    R.operation(Ok && Output == Prog.Reference,
                Prog.W->Name + ": final output differs from the JIT-off run");
    P.StallMs += static_cast<double>(RT.stats().MutatorStallNanos) / 1e6;
    RT.drainCompilations();
    P.InstalledIr += RT.installedCodeSize();
    P.Compiles.add(RT);
    SteadyCycles[Index] = R.exact("prog." + Prog.W->Name + ".steady_cycles",
                                  steadyStateMean(Cycles));
    if (Trace) {
      Trace->addRuntime(RT);
      Trace->addSpans(*Timed);
    }
  }
  P.WallS = secondsBetween(Start, Clock::now());
  P.SteadyCyclesGeomean =
      R.exact("steady_cycles_geomean", geomean(SteadyCycles));
  R.exact("code_ir_total", static_cast<double>(P.InstalledIr));
  R.exact("compiled_ir", P.Compiles.CodeIr);
  R.exact("compile_pass_runs", P.Compiles.PassRuns);
  return P;
}

double medianOf(const std::vector<Pass> &Passes, double Pass::*Field) {
  std::vector<double> Values;
  for (const Pass &P : Passes)
    Values.push_back(P.*Field);
  return median(Values);
}

} // namespace

Report runSuiteSteady(const Options &Opts) {
  Report R;
  const std::vector<workloads::Workload> &Suite = workloads::allWorkloads();

  // Set-up is the frontend, one part per program.
  auto CompileSource = [&](size_t I) {
    return frontend::compileProgram(Suite[I].Source);
  };
  SetupTimes Setup(Suite.size());
  std::vector<Program> Progs(Suite.size());
  for (unsigned K = 0; K < SetupRepeats; ++K)
    for (size_t I = 0; I < Suite.size(); ++I) {
      frontend::CompileResult C = Setup.time(I, CompileSource);
      if (!C.succeeded()) {
        R.fail(Suite[I].Name + ": frontend rejected the program");
        return R;
      }
      Progs[I] = {&Suite[I], std::move(C.Mod), {}};
    }

  for (Program &Prog : Progs) {
    inliner::IncrementalCompiler Compiler;
    jit::JitConfig Off;
    Off.Enabled = false;
    jit::JitRuntime RT(*Prog.Mod, Compiler, Off);
    interp::ExecResult E = RT.runMain();
    if (!E.ok()) {
      R.fail(Prog.W->Name + ": JIT-off reference run trapped");
      return R;
    }
    Prog.Reference = std::move(E.Output);
  }

  if (!Opts.Trace) {
    std::vector<Pass> Passes;
    runFor(Opts.Seconds, MinPasses, [&](unsigned PassNo) {
      Passes.push_back(runPass(Progs, Opts.Seed, PassNo, R, nullptr));
      Setup.resample(SetupPartsPerPass, CompileSource);
    });
    R.metric("setup_s", Setup.seconds(), "s");
    R.metric("steady_cycles_geomean", Passes.front().SteadyCyclesGeomean,
             "cycles");
    R.metric("code_ir_total", double(Passes.front().InstalledIr), "ir");
    reportCompileTotals(R, Passes.front().Compiles);
    R.metric("peak_rss_mb", peakRssMb(), "MiB");
    R.metric("ok_pct", R.okPct(), "%");
    return R;
  }

  FrontendTimes Frontend;
  for (const workloads::Workload &W : Suite)
    timeFrontend(W.Source, Frontend);
  std::vector<Pass> Plain, Traced;
  CompileLayerTotals Layers;
  runFor(Opts.Seconds, 2 * MinPasses, [&](unsigned PassNo) {
    if (!isTracedUnit(PassNo)) {
      Plain.push_back(runPass(Progs, Opts.Seed, PassNo, R, nullptr));
      return;
    }
    Layers.recordPasses([&] {
      Traced.push_back(runPass(Progs, Opts.Seed, PassNo, R, &Layers));
    });
  });
  double Units = static_cast<double>(Traced.size());

  double WallMs = 0, RunNanos = 0, Cycles = 0, Interpreted = 0;
  for (const Pass &P : Traced) {
    WallMs += P.WallS * 1e3;
    RunNanos += P.RunNanos;
    Cycles += P.TotalCycles;
    Interpreted += P.InterpretedCycles;
  }
  double ExecNanos = RunNanos - double(Layers.mutatorCompileNanos());
  double CompileMs = 0;
  for (const CompileSpan &S : Layers.Spans)
    CompileMs += double(S.Nanos) / 1e6;
  double ExecMs = ExecNanos / 1e6 / Units;
  CompileMs /= Units;
  WallMs /= Units;

  reportFrontend(R, Frontend);
  reportInterpLayer(R, ExecNanos, Cycles, Interpreted, Units);
  reportCompileSpans(R, Layers, Units);
  reportJitRuntime(R, Layers, Units);
  reportCodeCacheLayer(R, Layers, Units);
  reportInlinerLayer(R, Layers, Units);
  reportOptLayer(R, Layers, Units);
  // Host figures of the untraced passes (see README: too unsteady on a
  // shared machine for a bounded end-to-end metric). An operation is one
  // runMain() iteration.
  std::vector<double> IterUs;
  for (const Pass &P : Plain)
    IterUs.insert(IterUs.end(), P.IterUs.begin(), P.IterUs.end());
  reportHostLayer(R, medianOf(Plain, &Pass::WallS), IterUs,
                  medianOf(Plain, &Pass::StallMs));
  double TracedWall = medianOf(Traced, &Pass::WallS);
  double PlainWall = medianOf(Plain, &Pass::WallS);
  R.metric("trace.overhead_pct", (TracedWall / PlainWall - 1) * 100, "%");
  // The layers a pass is made of, against the mutator's busy time: the
  // whole pass here. The frontend runs in set-up, not in a pass. Compile
  // spans are all on the mutator, so this only catches time spent outside
  // runMain().
  R.metric("trace.accounted_pct", (ExecMs + CompileMs) / WallMs * 100, "%");
  return R;
}

} // namespace perfbench
