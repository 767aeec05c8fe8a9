//===- perfbench/runner/TrafficOpen.cpp - Open-loop multi-tenant traffic --===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
//
// traffic-open: one single-threaded open-loop generator serves a
// multi-tenant request stream at a fixed offered rate through one
// JitRuntime(Async) with a bounded code cache, profile decay and a shared
// trial cache. Each request is due at a fixed time; the generator spins
// until then and calls JitRuntime::run(handlerN). Latency counts from the
// due time, so a compile pause also delays every request queued behind it.
//
// Every shape parameter is a constant below. None is derived from a
// measurement of the code under test, so a change cannot move its own
// offered load.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"

#include "frontend/Compiler.h"
#include "inliner/Compilers.h"
#include "support/Statistics.h"
#include "workloads/Traffic.h"

#include <cmath>

using namespace incline;

namespace perfbench {

namespace {

constexpr unsigned Tenants = 40;
constexpr unsigned HotSetSize = 5;
constexpr unsigned PhaseLength = 360;
constexpr unsigned ChurnInterval = 45;
constexpr unsigned HotSharePercent = 90;
constexpr unsigned RequestsPerPass = 30'000;
constexpr unsigned Handlers = Tenants + RequestsPerPass / ChurnInterval;
/// Each pass starts from an empty code cache; its second half is steady
/// state (hot-set shifts and churn keep going, but nothing starts cold).
constexpr unsigned SteadyFrom = RequestsPerPass / 2;
/// Offered load, requests per second: about a fifth of what one mutator
/// serves closed-loop. Near half of capacity, each millisecond-long pause
/// leaves a backlog whose drain time grows steeply with host speed, and
/// the tail percentiles swung by 2-4x between runs of identical code.
constexpr double Rate = 10'000;
constexpr double PassSeconds = RequestsPerPass / Rate;
constexpr unsigned Threads = 2;
constexpr uint64_t CodeCacheBudget = 4'000;
constexpr uint64_t ProfileDecayHalflife = 200'000;
/// Set-ups timed before the measured phase, and again after each pass.
constexpr unsigned SetupRepeats = 3;
constexpr unsigned SetupRepeatsPerPass = 5;

jit::JitConfig trafficJit() {
  jit::JitConfig Config;
  Config.Mode = jit::JitMode::Async;
  Config.Threads = Threads;
  Config.CodeCacheBudget = CodeCacheBudget;
  Config.ProfileDecayHalflife = ProfileDecayHalflife;
  return Config;
}

inliner::InlinerConfig trafficInliner() {
  inliner::InlinerConfig Config;
  Config.TrialCache = inliner::TrialCacheMode::Shared;
  return Config;
}

/// The handler each request of one pass calls: a hot window of tenants
/// that shifts every PhaseLength requests, a uniform cold tail, and one
/// pool slot replaced by a never-seen tenant every ChurnInterval requests.
std::vector<unsigned> schedule(uint64_t Seed) {
  std::vector<unsigned> Pool(Tenants);
  for (unsigned I = 0; I < Tenants; ++I)
    Pool[I] = I;
  unsigned NextFresh = Tenants;
  // Churn visits the slots in a seed-drawn order, each once per cycle:
  // uniform random slots made how often churn hit the hot window, and so
  // the pass's simulated cost, vary by a few percent from seed to seed.
  std::vector<size_t> ChurnOrder = permutation(Tenants, mix(Seed, 0));
  uint64_t Draws = 0;
  auto Draw = [&] { return mix(Seed, ++Draws); };
  std::vector<unsigned> Requests;
  Requests.reserve(RequestsPerPass);
  for (unsigned I = 0; I < RequestsPerPass; ++I) {
    if (I != 0 && I % ChurnInterval == 0 && NextFresh < Handlers)
      Pool[ChurnOrder[(NextFresh - Tenants) % Tenants]] = NextFresh++;
    unsigned PhaseBase = (I / PhaseLength) * HotSetSize;
    unsigned Slot = Draw() % 100 < HotSharePercent
                        ? (PhaseBase + Draw() % HotSetSize) % Tenants
                        : Draw() % Tenants;
    Requests.push_back(Pool[Slot]);
  }
  return Requests;
}

/// One JIT-off run of a handler, made in set-up.
struct ReferenceRun {
  std::string Output;
  double Cycles = 0; ///< JitRuntime::effectiveCycles.
};

struct Pass {
  double WallS = 0;
  std::vector<double> LatencyUs; ///< Completion minus due time.
  /// Per steady-state request, JitRuntime::effectiveCycles over its
  /// handler's JIT-off cycles.
  std::vector<double> SteadyCost;
  double ServiceNanos = 0;       ///< Sum of run() durations.
  double IdleNanos = 0;          ///< Generator spinning until a request is due.
  double TotalCycles = 0;
  double InterpretedCycles = 0;
  double StallMs = 0;
  CompileTotals Compiles;
};

Pass runPass(ir::Module &Mod, const std::vector<std::string> &Symbols,
             const std::vector<ReferenceRun> &Reference, uint64_t Seed,
             Report &R, CompileLayerTotals *Trace) {
  std::vector<unsigned> Requests = schedule(Seed);
  Pass P;
  P.LatencyUs.reserve(Requests.size());
  P.SteadyCost.reserve(Requests.size() - SteadyFrom);

  inliner::IncrementalCompiler Compiler(trafficInliner());
  std::optional<TimedCompiler> Timed;
  if (Trace)
    Timed.emplace(Compiler);
  // The runtime installs code into its own cache and leaves the module as
  // it is, so every pass can share one module.
  jit::JitRuntime RT(Mod,
                     Timed ? static_cast<jit::Compiler &>(*Timed) : Compiler,
                     trafficJit());

  const auto Interval = std::chrono::duration<double>(1.0 / Rate);
  const Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < Requests.size(); ++I) {
    Clock::time_point Due =
        Start + std::chrono::duration_cast<Clock::duration>(
                    Interval * static_cast<double>(I));
    Clock::time_point Begin = Clock::now();
    const Clock::time_point Waiting = Begin;
    while (Begin < Due)
      Begin = Clock::now();
    unsigned H = Requests[I];
    interp::ExecResult E = RT.run(Symbols[H]);
    Clock::time_point End = Clock::now();
    P.LatencyUs.push_back(secondsBetween(Due, End) * 1e6);
    if (I >= SteadyFrom)
      P.SteadyCost.push_back(RT.effectiveCycles(E) / Reference[H].Cycles);
    P.IdleNanos += secondsBetween(Waiting, Begin) * 1e9;
    P.ServiceNanos += secondsBetween(Begin, End) * 1e9;
    P.TotalCycles += static_cast<double>(E.totalCycles());
    P.InterpretedCycles += static_cast<double>(E.InterpretedCycles);
    R.operation(E.ok() && E.Output == Reference[H].Output,
                Symbols[H] + ": output differs from the JIT-off run");
  }
  P.WallS = secondsBetween(Start, Clock::now());
  P.StallMs = static_cast<double>(RT.stats().MutatorStallNanos) / 1e6;
  RT.drainCompilations();
  P.Compiles.add(RT);
  if (Trace) {
    Trace->addRuntime(RT);
    Trace->addSpans(*Timed);
  }
  return P;
}

/// Passes in a run: fixed by the run length and the offered rate alone.
unsigned passCount(double Seconds) {
  return std::max(2u, static_cast<unsigned>(std::floor(Seconds / PassSeconds)));
}

std::vector<double> pooled(const std::vector<Pass> &Passes,
                           std::vector<double> Pass::*Field) {
  std::vector<double> All;
  for (const Pass &P : Passes)
    All.insert(All.end(), (P.*Field).begin(), (P.*Field).end());
  return All;
}

double meanServiceNanos(const std::vector<Pass> &Passes) {
  double Nanos = 0, Requests = 0;
  for (const Pass &P : Passes) {
    Nanos += P.ServiceNanos;
    Requests += static_cast<double>(P.LatencyUs.size());
  }
  return Nanos / Requests;
}

} // namespace

Report runTrafficOpen(const Options &Opts) {
  Report R;
  std::string Source = workloads::buildTrafficProgram(Handlers);

  // Set-up is the frontend: one part, the whole program.
  auto CompileSource = [&](size_t) { return frontend::compileProgram(Source); };
  SetupTimes Setup(1);
  std::unique_ptr<ir::Module> Mod;
  for (unsigned K = 0; K < SetupRepeats; ++K) {
    frontend::CompileResult C = Setup.time(0, CompileSource);
    if (!C.succeeded()) {
      R.fail("frontend rejected the traffic program");
      return R;
    }
    Mod = std::move(C.Mod);
  }

  std::vector<std::string> Symbols;
  std::vector<ReferenceRun> Reference;
  std::vector<double> ReferenceCycles;
  {
    inliner::IncrementalCompiler Compiler;
    jit::JitConfig Off;
    Off.Enabled = false;
    jit::JitRuntime RT(*Mod, Compiler, Off);
    for (unsigned H = 0; H < Handlers; ++H) {
      Symbols.push_back("handler" + std::to_string(H));
      interp::ExecResult E = RT.run(Symbols.back());
      if (!E.ok()) {
        R.fail(Symbols.back() + ": JIT-off reference run trapped");
        return R;
      }
      Reference.push_back({std::move(E.Output), RT.effectiveCycles(E)});
      ReferenceCycles.push_back(Reference.back().Cycles);
    }
  }

  if (!Opts.Trace) {
    std::vector<Pass> Passes;
    for (unsigned I = 0; I < passCount(Opts.Seconds); ++I) {
      Passes.push_back(
          runPass(*Mod, Symbols, Reference, mix(Opts.Seed, I), R, nullptr));
      Setup.resample(SetupRepeatsPerPass, CompileSource);
    }
    CompileTotals Compiled;
    for (const Pass &P : Passes)
      Compiled += P.Compiles;
    R.metric("setup_s", Setup.seconds(), "s");
    // Handlers differ in JIT-off cost by up to 2.6x, so which ones the
    // seed's schedule makes hot would move a plain geomean between seeds.
    // Each request's cycles are taken relative to its handler's JIT-off
    // cycles instead, and the geomean of that is scaled back to cycles by
    // the geomean JIT-off cost over all handlers.
    R.metric("steady_cycles_geomean",
             geomean(pooled(Passes, &Pass::SteadyCost)) *
                 geomean(ReferenceCycles),
             "cycles");
    // Compiled, not installed-at-the-end, |ir|: the bounded code cache keeps
    // live |ir| at its budget whenever it evicts.
    R.metric("code_ir_total", Compiled.CodeIr / double(Passes.size()), "ir");
    reportCompileTotals(R, Compiled);
    R.metric("peak_rss_mb", peakRssMb(), "MiB");
    R.metric("ok_pct", R.okPct(), "%");
    return R;
  }

  FrontendTimes Frontend;
  timeFrontend(Source, Frontend);
  std::vector<Pass> Plain, Traced;
  CompileLayerTotals Layers;
  for (unsigned I = 0; I < passCount(Opts.Seconds); ++I) {
    if (!isTracedUnit(I)) {
      Plain.push_back(
          runPass(*Mod, Symbols, Reference, mix(Opts.Seed, I), R, nullptr));
      continue;
    }
    Layers.recordPasses([&] {
      Traced.push_back(
          runPass(*Mod, Symbols, Reference, mix(Opts.Seed, I), R, &Layers));
    });
  }
  double Units = static_cast<double>(Traced.size());

  double Service = 0, Busy = 0, Cycles = 0, Interpreted = 0;
  for (const Pass &P : Traced) {
    Service += P.ServiceNanos;
    Busy += P.WallS * 1e9 - P.IdleNanos;
    Cycles += P.TotalCycles;
    Interpreted += P.InterpretedCycles;
  }
  double MutatorCompile = double(Layers.mutatorCompileNanos());
  double ExecNanos = Service - MutatorCompile;
  reportFrontend(R, Frontend);
  reportInterpLayer(R, ExecNanos, Cycles, Interpreted, Units);
  reportCompileSpans(R, Layers, Units);
  reportJitRuntime(R, Layers, Units);
  reportCodeCacheLayer(R, Layers, Units);
  reportInlinerLayer(R, Layers, Units);
  reportOptLayer(R, Layers, Units);
  // Host figures of the untraced passes (see README: too unsteady on a
  // shared machine for a bounded end-to-end metric). An operation is one
  // request, timed from when it was due.
  std::vector<double> Wall, Stall;
  for (const Pass &P : Plain) {
    Wall.push_back(P.WallS);
    Stall.push_back(P.StallMs);
  }
  reportHostLayer(R, median(Wall), pooled(Plain, &Pass::LatencyUs),
                  median(Stall));
  R.metric("trace.overhead_pct",
           (meanServiceNanos(Traced) / meanServiceNanos(Plain) - 1) * 100, "%");
  // Busy time excludes the generator's spinning until requests are due.
  R.metric("trace.accounted_pct", (ExecNanos + MutatorCompile) / Busy * 100,
           "%");
  return R;
}

} // namespace perfbench
