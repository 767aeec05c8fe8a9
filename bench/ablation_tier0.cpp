//===- bench/ablation_tier0.cpp - Tier-0 interpreter-speed ablation --------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the tier-0 execution core (DESIGN.md §13) over the
/// dispatch-/loop-heavy workloads, measured in *host wall time* — unlike
/// every other bench, the quantity under study is the simulator's own
/// speed, not simulated cycles. Variants:
///
///  * `interp-baseline`  — the reference map-frame core, JIT off.
///  * `interp-fast`      — pre-decoded slot-frame core, PICs off, JIT off.
///  * `interp-fast+pic`  — the full fast core (the default), JIT off.
///  * `jit-full`         — fast core with the tiered runtime on.
///
/// The acceptance bar is the interpreted-tier claim (cf. Poirier et al.'s
/// interpreter work): the fast core cuts interpreted wall time by >= 2x
/// versus the reference core (geomean over the workloads). Alongside the
/// timing, every cell's program output and recorded profile tables are
/// compared across the three interpreted variants (they must be
/// bit-identical — the fast core is a speed change, not a semantic one),
/// and a cross-core JIT sweep checks output plus deterministic-mode
/// `streamFingerprint` equality for sync/deterministic/async x {1,4}
/// compile threads.
///
/// `--smoke` shrinks iteration counts so CI can run the binary as a ctest
/// entry; `--json <path>` emits machine-readable results.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "frontend/Compiler.h"
#include "jit/JitRuntime.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

namespace {

/// Dispatch-/loop-heavy subset: tight loops over polymorphic callsites
/// (avrora, jython) and hot arithmetic/array kernels (sunflow, xalan) —
/// where interpreter dispatch cost dominates.
const char *const WorkloadNames[] = {"avrora", "jython", "sunflow", "xalan"};

struct VariantSpec {
  const char *Label;
  interp::InterpMode Mode;
  bool Pics;
  bool Jit;
};

const VariantSpec Variants[] = {
    {"interp-baseline", interp::InterpMode::Reference, false, false},
    {"interp-fast", interp::InterpMode::Fast, false, false},
    {"interp-fast+pic", interp::InterpMode::Fast, true, false},
    {"jit-full", interp::InterpMode::Fast, true, true},
};

struct Cell {
  double WallMs = 0;
  std::string Output;
  std::string ProfileDump;
  bool Ok = true;
  std::string Error;
};

jit::JitConfig configOf(const VariantSpec &V) {
  jit::JitConfig Config;
  Config.Enabled = V.Jit;
  Config.CompileThreshold = 10;
  Config.Interp.Mode = V.Mode;
  Config.Interp.InlineCaches = V.Pics;
  return Config;
}

int iterationsOf(const Workload &W) {
  return smoke() ? 2 : W.Iterations;
}

/// One timed simulation of \p W under \p V: the full iteration loop
/// under one runtime, wall-clocked end to end.
Cell runCell(const Workload &W, const VariantSpec &V) {
  Cell C;
  frontend::CompileResult Compiled = frontend::compileProgram(W.Source);
  if (!Compiled.succeeded()) {
    C.Ok = false;
    C.Error = "frontend: " + frontend::renderDiagnostics(Compiled.Diags);
  } else {
    inliner::IncrementalCompiler Compiler;
    jit::JitRuntime Runtime(*Compiled.Mod, Compiler, configOf(V));
    auto Start = std::chrono::steady_clock::now();
    for (int Iter = 0, N = iterationsOf(W); Iter < N; ++Iter) {
      interp::ExecResult R = Runtime.runMain();
      if (!R.ok()) {
        C.Ok = false;
        C.Error = R.TrapMessage;
        break;
      }
      C.Output = std::move(R.Output);
    }
    std::chrono::duration<double, std::milli> Wall =
        std::chrono::steady_clock::now() - Start;
    C.WallMs = Wall.count();
    C.ProfileDump = Runtime.profileTable().dump();
  }
  if (!C.Ok)
    std::fprintf(stderr, "WARNING: %s under %s failed: %s\n", W.Name.c_str(),
                 V.Label, C.Error.c_str());
  return C;
}

std::vector<const Workload *> selectedWorkloads() {
  std::vector<const Workload *> Result;
  for (const char *Name : WorkloadNames)
    if (const Workload *W = findWorkload(Name))
      Result.push_back(W);
  return Result;
}

/// Cross-core JIT sweep: for every (jit mode, threads) cell, the fast and
/// reference cores must produce identical program output, and — in sync
/// and deterministic modes, where the compile stream is schedule-free —
/// identical `streamFingerprint`s. Async streams are timing-dependent by
/// design, so only output is compared there.
bool checkCrossCoreJit() {
  struct ModeCell {
    const char *Label;
    jit::JitMode Mode;
    unsigned Threads;
    bool CompareStream;
  };
  const ModeCell Cells[] = {
      {"sync/1", jit::JitMode::Sync, 1, true},
      {"deterministic/1", jit::JitMode::Deterministic, 1, true},
      {"deterministic/4", jit::JitMode::Deterministic, 4, true},
      {"async/4", jit::JitMode::Async, 4, false},
  };
  bool AllPass = true;
  for (const Workload *W : selectedWorkloads()) {
    for (const ModeCell &MC : Cells) {
      std::string Output[2];
      std::string Fingerprint[2];
      bool Ok = true;
      for (int Core = 0; Core < 2 && Ok; ++Core) {
        frontend::CompileResult Compiled =
            frontend::compileProgram(W->Source);
        if (!Compiled.succeeded()) {
          Ok = false;
          break;
        }
        inliner::IncrementalCompiler Compiler;
        jit::JitConfig Config;
        Config.CompileThreshold = 10;
        Config.Mode = MC.Mode;
        Config.Threads = MC.Threads;
        Config.Interp.Mode = Core == 0 ? interp::InterpMode::Fast
                                       : interp::InterpMode::Reference;
        jit::JitRuntime Runtime(*Compiled.Mod, Compiler, Config);
        for (int Iter = 0, N = iterationsOf(*W); Iter < N && Ok; ++Iter) {
          interp::ExecResult R = Runtime.runMain();
          Ok = R.ok();
          Output[Core] = std::move(R.Output);
        }
        Runtime.drainCompilations();
        Fingerprint[Core] = jit::streamFingerprint(Runtime.compilations());
      }
      bool Pass = Ok && Output[0] == Output[1] &&
                  (!MC.CompareStream || Fingerprint[0] == Fingerprint[1]);
      if (!Pass) {
        std::printf("cross-core MISMATCH: %s under %s (output %s, stream "
                    "%s)\n",
                    W->Name.c_str(), MC.Label,
                    Output[0] == Output[1] ? "equal" : "DIFFERS",
                    Fingerprint[0] == Fingerprint[1] ? "equal" : "DIFFERS");
        AllPass = false;
      }
    }
  }
  return AllPass;
}

void printTables() {
  std::printf("\nTier-0 ablation: host wall time of the interpreted tier "
              "(%s scale)\n",
              smoke() ? "smoke" : "full");
  std::printf("%-10s %16s %16s %16s %16s %9s\n", "workload",
              "interp-baseline", "interp-fast", "interp-fast+pic", "jit-full",
              "speedup");

  double LogSum = 0;
  int LogCount = 0;
  bool SemanticsEqual = true;
  for (const Workload *W : selectedWorkloads()) {
    const Cell Base = runCell(*W, Variants[0]);
    const Cell Fast = runCell(*W, Variants[1]);
    const Cell Pic = runCell(*W, Variants[2]);
    const Cell Jit = runCell(*W, Variants[3]);
    // The three interpreted variants must agree on everything observable.
    bool Equal = Base.Ok && Fast.Ok && Pic.Ok &&
                 Base.Output == Fast.Output && Base.Output == Pic.Output &&
                 Base.ProfileDump == Fast.ProfileDump &&
                 Base.ProfileDump == Pic.ProfileDump;
    SemanticsEqual = SemanticsEqual && Equal;
    double Speedup = Pic.WallMs > 0 ? Base.WallMs / Pic.WallMs : 0;
    if (Speedup > 0) {
      LogSum += std::log(Speedup);
      ++LogCount;
    }
    std::printf("%-10s %14.1fms %14.1fms %14.1fms %14.1fms %8.2fx%s\n",
                W->Name.c_str(), Base.WallMs, Fast.WallMs, Pic.WallMs,
                Jit.WallMs, Speedup, Equal ? "" : "  [SEMANTIC MISMATCH]");
    recordJsonResult(W->Name,
                     {{"interp_baseline_ms", Base.WallMs},
                      {"interp_fast_ms", Fast.WallMs},
                      {"interp_fast_pic_ms", Pic.WallMs},
                      {"jit_full_ms", Jit.WallMs},
                      {"speedup", Speedup},
                      {"semantics_equal", Equal ? 1.0 : 0.0}});
  }
  double Geomean = LogCount > 0 ? std::exp(LogSum / LogCount) : 0;

  std::printf("\ncross-core JIT sweep (output + deterministic stream "
              "fingerprints, sync/deterministic/async x {1,4} threads)...\n");
  bool CrossPass = checkCrossCoreJit();

  bool AllPass = SemanticsEqual && CrossPass && Geomean >= 2.0;
  std::printf("\nacceptance: fast core >= 2x over the reference interpreter "
              "(geomean %.2fx),\nbit-identical output/profiles across cores, "
              "cross-core JIT sweep clean => %s\n",
              Geomean, AllPass ? "PASS" : "FAIL");
  if (smoke() && Geomean < 2.0)
    std::printf("note: --smoke shrinks iterations below steady state; the "
                "timing bar is\nmeaningful only at full scale in a Release "
                "build\n");
  recordJsonResult("acceptance", {{"geomean_speedup", Geomean},
                                  {"semantics_equal", SemanticsEqual ? 1. : 0.},
                                  {"cross_core_pass", CrossPass ? 1.0 : 0.0},
                                  {"all_pass", AllPass ? 1.0 : 0.0}});
}

} // namespace

int main(int argc, char **argv) {
  return benchMain(argc, argv, printTables);
}
