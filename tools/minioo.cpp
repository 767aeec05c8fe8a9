//===- tools/minioo.cpp - The MiniOO command-line driver --------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A command-line driver around the library:
///
///   minioo run <file> [--jit=incremental|greedy|c2|c1|off]
///                     [--threshold=N] [--iterations=N] [--stats]
///       Executes the program under the tiered runtime and prints its
///       output (and, with --stats, cycles/code/compilations).
///
///   minioo dump <file> [--function=NAME] [--optimize]
///       Prints the SSA IR of one function (or all), optionally after the
///       standard optimization pipeline.
///
///   minioo compile <file> --function=NAME [--jit=...]
///       Profiles the program once, compiles NAME with the chosen inliner
///       and prints the optimized IR plus compile statistics.
///
/// Every command accepts --print-pass-stats, which dumps the process-wide
/// per-pass instrumentation table (runs, wall time, IR-size delta, analysis
/// cache hit-rate) to stderr on exit.
///
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "inliner/Compilers.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "jit/JitRuntime.h"
#include "opt/PassPipeline.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace incline;

namespace {

struct Options {
  std::string Command;
  std::string File;
  std::string Jit = "incremental";
  std::string JitMode = "sync";
  std::string TrialCache = "off";
  bool JitOsr = false;
  uint64_t OsrThreshold = 100;
  uint64_t CodeCacheBudget = 0; ///< 0 = unbounded.
  uint64_t ProfileDecay = 0;    ///< Halflife in safepoints; 0 = off.
  uint64_t CompileDeadline = 0; ///< Work units per compile; 0 = off.
  uint64_t CompileDeadlineMs = 0; ///< Wall ms per compile; 0 = off.
  bool DegradeLadder = true;    ///< --degrade-ladder=off|on.
  double ColdPrune = -1.0;      ///< --cold-prune=off|P; negative = off.
  bool InterpFast = true;       ///< --interp=fast|reference.
  std::string Function;
  uint64_t Threshold = 50;
  unsigned JitThreads = 1;
  int Iterations = 1;
  bool Stats = false;
  bool Optimize = false;
  bool PrintPassStats = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  minioo run <file> [--jit=incremental|greedy|c2|c1|off]\n"
      "                    [--jit-mode=sync|async|deterministic]\n"
      "                    [--jit-threads=N]\n"
      "                    [--jit-osr=off|on] [--osr-threshold=N]\n"
      "                    [--trial-cache=off|shared]\n"
      "                    [--code-cache-budget=N] [--profile-decay=off|N]\n"
      "                    [--compile-deadline=off|N]\n"
      "                    [--compile-deadline-ms=N]\n"
      "                    [--degrade-ladder=off|on]\n"
      "                    [--cold-prune=off|P]\n"
      "                    [--interp=fast|reference]\n"
      "                    [--threshold=N] [--iterations=N] [--stats]\n"
      "  minioo dump <file> [--function=NAME] [--optimize]\n"
      "  minioo compile <file> --function=NAME [--jit=...]\n"
      "common options: --print-pass-stats\n");
  return 2;
}

std::optional<jit::JitMode> parseJitMode(const std::string &Name) {
  if (Name == "sync")
    return jit::JitMode::Sync;
  if (Name == "async")
    return jit::JitMode::Async;
  if (Name == "deterministic")
    return jit::JitMode::Deterministic;
  return std::nullopt;
}

/// Parses a non-negative decimal flag value; nullopt on anything else
/// (empty, sign, trailing junk, overflow) so the caller can print a usage
/// error instead of dying on an uncaught std::stoul exception.
std::optional<uint64_t> parseCount(const std::string &Value) {
  if (Value.empty() || !std::isdigit(static_cast<unsigned char>(Value[0])))
    return std::nullopt;
  try {
    size_t Consumed = 0;
    uint64_t N = std::stoull(Value, &Consumed);
    if (Consumed != Value.size())
      return std::nullopt;
    return N;
  } catch (const std::exception &) {
    return std::nullopt;
  }
}

/// Parses a probability flag value in [0, 1); nullopt on anything else.
std::optional<double> parseProbability(const std::string &Value) {
  if (Value.empty() || !std::isdigit(static_cast<unsigned char>(Value[0])))
    return std::nullopt;
  try {
    size_t Consumed = 0;
    double P = std::stod(Value, &Consumed);
    if (Consumed != Value.size() || P < 0.0 || P >= 1.0)
      return std::nullopt;
    return P;
  } catch (const std::exception &) {
    return std::nullopt;
  }
}

std::optional<Options> parseArgs(int argc, char **argv) {
  if (argc < 3)
    return std::nullopt;
  Options Opts;
  Opts.Command = argv[1];
  Opts.File = argv[2];
  for (int I = 3; I < argc; ++I) {
    std::string Arg = argv[I];
    auto ValueOf = [&](const char *Prefix) -> std::optional<std::string> {
      if (!startsWith(Arg, Prefix))
        return std::nullopt;
      return Arg.substr(std::string(Prefix).size());
    };
    if (auto V = ValueOf("--jit=")) {
      Opts.Jit = *V;
    } else if (auto V = ValueOf("--jit-mode=")) {
      Opts.JitMode = *V;
    } else if (auto V = ValueOf("--trial-cache=")) {
      if (*V != "off" && *V != "shared") {
        std::fprintf(stderr, "invalid --trial-cache value '%s'\n",
                     V->c_str());
        return std::nullopt;
      }
      Opts.TrialCache = *V;
    } else if (auto V = ValueOf("--jit-osr=")) {
      if (*V != "off" && *V != "on") {
        std::fprintf(stderr, "invalid --jit-osr value '%s'\n", V->c_str());
        return std::nullopt;
      }
      Opts.JitOsr = *V == "on";
    } else if (auto V = ValueOf("--osr-threshold=")) {
      auto N = parseCount(*V);
      if (!N) {
        std::fprintf(stderr, "invalid --osr-threshold value '%s'\n",
                     V->c_str());
        return std::nullopt;
      }
      Opts.OsrThreshold = *N;
    } else if (auto V = ValueOf("--code-cache-budget=")) {
      auto N = parseCount(*V);
      if (!N) {
        std::fprintf(stderr, "invalid --code-cache-budget value '%s'\n",
                     V->c_str());
        return std::nullopt;
      }
      Opts.CodeCacheBudget = *N;
    } else if (auto V = ValueOf("--profile-decay=")) {
      if (*V == "off") {
        Opts.ProfileDecay = 0;
      } else {
        auto N = parseCount(*V);
        if (!N) {
          std::fprintf(stderr, "invalid --profile-decay value '%s'\n",
                       V->c_str());
          return std::nullopt;
        }
        Opts.ProfileDecay = *N;
      }
    } else if (auto V = ValueOf("--compile-deadline=")) {
      if (*V == "off") {
        Opts.CompileDeadline = 0;
      } else {
        auto N = parseCount(*V);
        if (!N) {
          std::fprintf(stderr, "invalid --compile-deadline value '%s'\n",
                       V->c_str());
          return std::nullopt;
        }
        Opts.CompileDeadline = *N;
      }
    } else if (auto V = ValueOf("--compile-deadline-ms=")) {
      auto N = parseCount(*V);
      if (!N) {
        std::fprintf(stderr, "invalid --compile-deadline-ms value '%s'\n",
                     V->c_str());
        return std::nullopt;
      }
      Opts.CompileDeadlineMs = *N;
    } else if (auto V = ValueOf("--degrade-ladder=")) {
      if (*V != "off" && *V != "on") {
        std::fprintf(stderr, "invalid --degrade-ladder value '%s'\n",
                     V->c_str());
        return std::nullopt;
      }
      Opts.DegradeLadder = *V == "on";
    } else if (auto V = ValueOf("--cold-prune=")) {
      if (*V == "off") {
        Opts.ColdPrune = -1.0;
      } else {
        auto P = parseProbability(*V);
        if (!P) {
          std::fprintf(stderr, "invalid --cold-prune value '%s'\n",
                       V->c_str());
          return std::nullopt;
        }
        Opts.ColdPrune = *P;
      }
    } else if (auto V = ValueOf("--interp=")) {
      if (*V != "fast" && *V != "reference") {
        std::fprintf(stderr, "invalid --interp value '%s'\n", V->c_str());
        return std::nullopt;
      }
      Opts.InterpFast = *V == "fast";
    } else if (auto V = ValueOf("--jit-threads=")) {
      auto N = parseCount(*V);
      if (!N) {
        std::fprintf(stderr, "invalid --jit-threads value '%s'\n", V->c_str());
        return std::nullopt;
      }
      Opts.JitThreads = static_cast<unsigned>(*N);
    } else if (auto V = ValueOf("--threshold=")) {
      auto N = parseCount(*V);
      if (!N) {
        std::fprintf(stderr, "invalid --threshold value '%s'\n", V->c_str());
        return std::nullopt;
      }
      Opts.Threshold = *N;
    } else if (auto V = ValueOf("--iterations=")) {
      auto N = parseCount(*V);
      if (!N || *N > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
        std::fprintf(stderr, "invalid --iterations value '%s'\n", V->c_str());
        return std::nullopt;
      }
      Opts.Iterations = static_cast<int>(*N);
    } else if (auto V = ValueOf("--function=")) {
      Opts.Function = *V;
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (Arg == "--optimize") {
      Opts.Optimize = true;
    } else if (Arg == "--print-pass-stats") {
      Opts.PrintPassStats = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return std::nullopt;
    }
  }
  return Opts;
}

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::unique_ptr<jit::Compiler> makeCompiler(const std::string &Name,
                                            const std::string &TrialCache,
                                            double ColdPrune = -1.0) {
  if (Name == "incremental" || Name == "off") {
    inliner::InlinerConfig Config;
    if (TrialCache == "shared")
      Config.TrialCache = inliner::TrialCacheMode::Shared;
    if (ColdPrune >= 0.0) {
      Config.EnableColdBranchPruning = true;
      Config.ColdPruneMaxProbability = ColdPrune;
    }
    return std::make_unique<inliner::IncrementalCompiler>(Config);
  }
  if (Name == "greedy")
    return std::make_unique<inliner::GreedyCompiler>();
  if (Name == "c2")
    return std::make_unique<inliner::C2StyleCompiler>();
  if (Name == "c1")
    return std::make_unique<inliner::TrivialCompiler>();
  return nullptr;
}

int cmdRun(const Options &Opts, ir::Module &M) {
  std::unique_ptr<jit::Compiler> Compiler =
      makeCompiler(Opts.Jit, Opts.TrialCache, Opts.ColdPrune);
  if (!Compiler) {
    std::fprintf(stderr, "unknown --jit '%s'\n", Opts.Jit.c_str());
    return 2;
  }
  std::optional<jit::JitMode> Mode = parseJitMode(Opts.JitMode);
  if (!Mode) {
    std::fprintf(stderr, "unknown --jit-mode '%s'\n", Opts.JitMode.c_str());
    return 2;
  }
  jit::JitConfig Config;
  Config.CompileThreshold = Opts.Threshold;
  Config.Enabled = Opts.Jit != "off";
  Config.Mode = *Mode;
  Config.Threads = Opts.JitThreads;
  Config.Osr = Opts.JitOsr;
  Config.OsrBackedgeThreshold = Opts.OsrThreshold;
  Config.CodeCacheBudget = Opts.CodeCacheBudget;
  Config.ProfileDecayHalflife = Opts.ProfileDecay;
  Config.CompileDeadlineUnits = Opts.CompileDeadline;
  Config.CompileDeadlineMs = Opts.CompileDeadlineMs;
  Config.DegradeLadder = Opts.DegradeLadder;
  Config.Interp.Mode = Opts.InterpFast ? interp::InterpMode::Fast
                                       : interp::InterpMode::Reference;
  jit::JitRuntime Runtime(M, *Compiler, Config);

  for (int Iter = 0; Iter < Opts.Iterations; ++Iter) {
    interp::ExecResult R = Runtime.runMain();
    if (!R.ok()) {
      std::fprintf(stderr, "runtime error: %s\n", R.TrapMessage.c_str());
      return 1;
    }
    if (Iter + 1 == Opts.Iterations)
      std::fputs(R.Output.c_str(), stdout);
    if (Opts.Stats)
      std::fprintf(stderr,
                   "[iter %d] interp-cycles=%llu compiled-cycles=%llu "
                   "effective=%.0f installed=%llu\n",
                   Iter + 1,
                   static_cast<unsigned long long>(R.InterpretedCycles),
                   static_cast<unsigned long long>(R.CompiledCycles),
                   Runtime.effectiveCycles(R),
                   static_cast<unsigned long long>(
                       Runtime.installedCodeSize()));
  }
  if (Opts.Stats) {
    // Settle the stream first so async runs report every compilation that
    // was still in flight when the last iteration finished.
    Runtime.drainCompilations();
    std::fprintf(stderr, "compilations:\n");
    for (const jit::CompilationRecord &Record : Runtime.compilations())
      std::fprintf(stderr, "  #%llu %-24s size=%llu inlined=%llu attempt=%u\n",
                   static_cast<unsigned long long>(Record.CompileIndex),
                   Record.Symbol.c_str(),
                   static_cast<unsigned long long>(Record.Stats.CodeSize),
                   static_cast<unsigned long long>(
                       Record.Stats.InlinedCallsites),
                   Record.Attempt);
    const jit::JitRuntimeStats &S = Runtime.stats();
    std::fprintf(stderr,
                 "jit: mode=%s threads=%u requests=%llu bailouts=%llu "
                 "verify-failures=%llu blacklisted=%llu queue-full=%llu "
                 "mutator-stall-ms=%.3f\n",
                 std::string(jit::jitModeName(Config.Mode)).c_str(),
                 Config.Threads,
                 static_cast<unsigned long long>(S.CompileRequests),
                 static_cast<unsigned long long>(S.Bailouts),
                 static_cast<unsigned long long>(S.VerifyFailures),
                 static_cast<unsigned long long>(S.BlacklistedMethods),
                 static_cast<unsigned long long>(S.QueueFullRejections),
                 static_cast<double>(S.MutatorStallNanos) / 1e6);
    std::fprintf(stderr,
                 "supervise: deadline-bailouts=%llu resource-bailouts=%llu "
                 "cancelled=%llu ladder-downs=%llu upgrades=%llu/%llu "
                 "interp-only=%llu\n",
                 static_cast<unsigned long long>(S.DeadlineBailouts),
                 static_cast<unsigned long long>(S.ResourceBailouts),
                 static_cast<unsigned long long>(S.CompilesCancelled),
                 static_cast<unsigned long long>(S.LadderStepDowns),
                 static_cast<unsigned long long>(S.LadderUpgrades),
                 static_cast<unsigned long long>(S.LadderUpgradeAttempts),
                 static_cast<unsigned long long>(S.LadderInterpreterOnly));
    std::fprintf(stderr,
                 "deopt: guards-emitted=%llu guard-failures=%llu "
                 "invalidations=%llu recompiles-after-deopt=%llu "
                 "speculations-blacklisted=%llu cold-branch-deopts=%llu "
                 "prunes-blacklisted=%llu\n",
                 static_cast<unsigned long long>(S.GuardsEmitted),
                 static_cast<unsigned long long>(S.GuardFailures),
                 static_cast<unsigned long long>(S.Invalidations),
                 static_cast<unsigned long long>(S.RecompilesAfterDeopt),
                 static_cast<unsigned long long>(S.SpeculationsBlacklisted),
                 static_cast<unsigned long long>(S.ColdBranchDeopts),
                 static_cast<unsigned long long>(S.PrunesBlacklisted));
    if (Config.Osr)
      std::fprintf(stderr,
                   "osr: requests=%llu installs=%llu entries=%llu "
                   "invalidations=%llu\n",
                   static_cast<unsigned long long>(S.OsrCompileRequests),
                   static_cast<unsigned long long>(S.OsrInstalls),
                   static_cast<unsigned long long>(S.OsrEntries),
                   static_cast<unsigned long long>(S.OsrInvalidations));
    const jit::CodeCacheStats &CC = Runtime.codeCacheStats();
    std::fprintf(stderr,
                 "code-cache: installed=%llu osr-installed=%llu "
                 "evicted=%llu osr-evicted=%llu rejected=%llu "
                 "live=%llu peak=%llu budget=%llu decay-epochs=%llu\n",
                 static_cast<unsigned long long>(CC.MethodInstalls),
                 static_cast<unsigned long long>(CC.OsrInstalls),
                 static_cast<unsigned long long>(CC.Evictions),
                 static_cast<unsigned long long>(CC.OsrEvictions),
                 static_cast<unsigned long long>(CC.AdmissionRejections),
                 static_cast<unsigned long long>(CC.LiveBytes),
                 static_cast<unsigned long long>(CC.PeakLiveBytes),
                 static_cast<unsigned long long>(CC.Budget),
                 static_cast<unsigned long long>(CC.DecayTicks));
    // Code-size accounting: the live baseline module vs what actually
    // landed in the code cache, plus the branches pruning removed.
    uint64_t ModuleIr = 0;
    for (const auto &[Name, F] : M.functions())
      ModuleIr += F->instructionCount();
    std::fprintf(stderr,
                 "codesize: module-ir=%llu installed=%llu "
                 "pruned-branches=%llu\n",
                 static_cast<unsigned long long>(ModuleIr),
                 static_cast<unsigned long long>(Runtime.installedCodeSize()),
                 static_cast<unsigned long long>(S.BranchesPruned));
    if (const jit::CompileCache *Cache = Compiler->compileCache()) {
      jit::CompileCacheStats CS = Cache->cacheStats();
      std::fprintf(stderr,
                   "trial-cache: mode=%s hits=%llu misses=%llu "
                   "evictions=%llu epoch-invalidations=%llu "
                   "saved-ms=%.3f\n",
                   Opts.TrialCache.c_str(),
                   static_cast<unsigned long long>(CS.Hits),
                   static_cast<unsigned long long>(CS.Misses),
                   static_cast<unsigned long long>(CS.Evictions),
                   static_cast<unsigned long long>(CS.EpochInvalidations),
                   static_cast<double>(CS.SavedNanos) / 1e6);
    }
  }
  return 0;
}

int cmdDump(const Options &Opts, ir::Module &M) {
  if (Opts.Optimize)
    for (const auto &[Name, F] : M.functions())
      opt::runOptimizationPipeline(*F, M);
  if (Opts.Function.empty()) {
    std::fputs(ir::printModule(M).c_str(), stdout);
    return 0;
  }
  const ir::Function *F = M.function(Opts.Function);
  if (!F) {
    std::fprintf(stderr, "no function '%s'\n", Opts.Function.c_str());
    return 1;
  }
  std::fputs(ir::printFunction(*F).c_str(), stdout);
  return 0;
}

int cmdCompile(const Options &Opts, ir::Module &M) {
  if (Opts.Function.empty()) {
    std::fprintf(stderr, "compile requires --function=NAME\n");
    return 2;
  }
  const ir::Function *Source = M.function(Opts.Function);
  if (!Source) {
    std::fprintf(stderr, "no function '%s'\n", Opts.Function.c_str());
    return 1;
  }
  std::unique_ptr<jit::Compiler> Compiler =
      makeCompiler(Opts.Jit, Opts.TrialCache);
  if (!Compiler) {
    std::fprintf(stderr, "unknown --jit '%s'\n", Opts.Jit.c_str());
    return 2;
  }

  profile::ProfileTable Profiles;
  interp::ExecResult ProfileRun = interp::runMain(M, &Profiles);
  if (!ProfileRun.ok())
    std::fprintf(stderr, "warning: profiling run trapped (%s); compiling "
                 "with partial profiles\n",
                 ProfileRun.TrapMessage.c_str());

  jit::CompileStats Stats;
  std::unique_ptr<ir::Function> Code =
      Compiler->compile(*Source, M, Profiles, Stats);
  std::fputs(ir::printFunction(*Code).c_str(), stdout);
  std::fprintf(stderr,
               "compiler=%s |ir| %zu -> %zu, inlined=%llu, rounds=%llu, "
               "explored=%llu, opts=%llu\n",
               Compiler->name().c_str(), Source->instructionCount(),
               Code->instructionCount(),
               static_cast<unsigned long long>(Stats.InlinedCallsites),
               static_cast<unsigned long long>(Stats.Rounds),
               static_cast<unsigned long long>(Stats.ExploredNodes),
               static_cast<unsigned long long>(Stats.OptsTriggered));
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::optional<Options> Opts = parseArgs(argc, argv);
  if (!Opts)
    return usage();

  std::optional<std::string> Source = readFile(Opts->File);
  if (!Source) {
    std::fprintf(stderr, "cannot read '%s'\n", Opts->File.c_str());
    return 1;
  }
  frontend::CompileResult Compiled = frontend::compileProgram(*Source);
  if (!Compiled.succeeded()) {
    std::fputs(frontend::renderDiagnostics(Compiled.Diags).c_str(), stderr);
    return 1;
  }

  int Ret;
  if (Opts->Command == "run")
    Ret = cmdRun(*Opts, *Compiled.Mod);
  else if (Opts->Command == "dump")
    Ret = cmdDump(*Opts, *Compiled.Mod);
  else if (Opts->Command == "compile")
    Ret = cmdCompile(*Opts, *Compiled.Mod);
  else
    return usage();

  if (Opts->PrintPassStats) {
    const opt::PassInstrumentation &Registry = opt::PassInstrumentation::global();
    if (Registry.empty())
      std::fprintf(stderr, "no passes ran\n");
    else
      std::fputs(Registry.report().c_str(), stderr);
  }
  return Ret;
}
