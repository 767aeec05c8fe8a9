//===- bench/compiletime_frontend.cpp - Frontend phase timings ------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host time of the MiniOO frontend, phase by phase. Each round lexes,
/// parses, checks and lowers one input, fingerprints the source and
/// verifies the module, then destroys the AST (with the parser's tokens)
/// and the module, timing each step on its own:
///
///   lex, parse, sema, lower, fingerprint, verify, ast_teardown,
///   module_teardown
///
/// plus `compile`, one whole `frontend::compileProgram` call on the same
/// input, which runs every step but module teardown (verify only in
/// assertion builds). Two inputs: the 706-handler traffic program and the
/// 16-workload suite (each suite round does all 16 programs and sums their
/// phases). For every phase it prints the minimum, median and interquartile
/// range over the rounds, in milliseconds; the minimum follows the work on
/// a shared host, the median and IQR show the noise.
///
/// Usage:
///   compiletime_frontend [--rounds N] [--smoke] [--json FILE]
///
/// `--smoke` runs 3 rounds (for ctest); the default is 200. Every number
/// is a host time, and the tool's job is the spread: `--json` records one
/// row per input and phase, with the min, median and quartiles in ms.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "frontend/Compiler.h"
#include "frontend/Lexer.h"
#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/IRVerifier.h"
#include "workloads/Traffic.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace incline;
using namespace incline::bench;

namespace {

using Clock = std::chrono::steady_clock;

enum Phase : unsigned {
  Lex,
  Parse,
  SemaPhase,
  Lower,
  Fingerprint,
  Verify,
  AstTeardown,
  ModuleTeardown,
  Compile,
  NumPhases
};

const char *const PhaseNames[NumPhases] = {
    "lex",    "parse",        "sema",            "lower",  "fingerprint",
    "verify", "ast_teardown", "module_teardown", "compile"};

using PhaseTimes = std::array<double, NumPhases>;

double msSince(Clock::time_point &Mark) {
  Clock::time_point Now = Clock::now();
  double Ms = std::chrono::duration<double, std::milli>(Now - Mark).count();
  Mark = Now;
  return Ms;
}

/// Runs every phase once on \p Source and adds its times to \p Times.
/// Returns false (after printing why) when the source does not compile.
bool timeOnce(const std::string &Source, PhaseTimes &Times) {
  Clock::time_point Mark = Clock::now();
  frontend::Lexer Lex(Source);
  std::vector<frontend::Token> Tokens = Lex.lexAll();
  Times[Phase::Lex] += msSince(Mark);

  auto P = std::make_unique<frontend::Parser>(std::move(Tokens));
  std::unique_ptr<frontend::Program> Prog = P->parseProgram();
  Times[Phase::Parse] += msSince(Mark);
  if (!P->diagnostics().empty()) {
    std::fprintf(stderr, "error: the input does not parse\n");
    return false;
  }

  types::ClassHierarchy Classes;
  frontend::Sema S(*Prog, Classes);
  bool SemaOk = S.run();
  Times[Phase::SemaPhase] += msSince(Mark);
  if (!SemaOk) {
    std::fprintf(stderr, "error: the input does not type-check\n");
    return false;
  }

  std::unique_ptr<ir::Module> Mod =
      frontend::lowerProgram(*Prog, S, std::move(Classes));
  Times[Phase::Lower] += msSince(Mark);

  frontend::seedSourceFingerprint(*Mod, Source);
  Times[Phase::Fingerprint] += msSince(Mark);

  std::vector<std::string> Problems = ir::verifyModule(*Mod);
  Times[Phase::Verify] += msSince(Mark);
  if (!Problems.empty()) {
    std::fprintf(stderr, "error: lowering produced invalid IR: %s\n",
                 Problems.front().c_str());
    return false;
  }

  Prog.reset();
  P.reset();
  Times[Phase::AstTeardown] += msSince(Mark);
  Mod.reset();
  Times[Phase::ModuleTeardown] += msSince(Mark);

  frontend::CompileResult Whole = frontend::compileProgram(Source);
  Times[Phase::Compile] += msSince(Mark);
  return Whole.succeeded();
}

/// Nearest-rank percentile of sorted \p V.
double percentile(const std::vector<double> &V, double P) {
  size_t Rank = static_cast<size_t>(P / 100.0 * double(V.size()) + 0.999999);
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

struct Summary {
  double Min, Median, Q1, Q3;
};

Summary summarize(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return {V.front(), percentile(V, 50), percentile(V, 25), percentile(V, 75)};
}

struct Input {
  std::string Name;
  std::vector<std::string> Sources;
};

unsigned RoundsFlag = 0; ///< From --rounds; 0 = the default for the scale.

void printTables() {
  const unsigned Rounds = RoundsFlag ? RoundsFlag : smoke() ? 3 : 200;
  std::vector<Input> Inputs;
  Inputs.push_back({"traffic-706", {workloads::buildTrafficProgram(706)}});
  Input Suite{"suite-16", {}};
  for (const workloads::Workload &W : workloads::allWorkloads())
    Suite.Sources.push_back(W.Source);
  Inputs.push_back(std::move(Suite));

  std::printf("frontend phase times, ms over %u rounds (min / median / "
              "q1..q3)\n",
              Rounds);
  for (const Input &Inp : Inputs) {
    std::vector<std::vector<double>> Samples(NumPhases);
    for (unsigned R = 0; R < Rounds; ++R) {
      PhaseTimes Times{};
      for (const std::string &Source : Inp.Sources)
        if (!timeOnce(Source, Times))
          std::exit(1);
      for (unsigned Ph = 0; Ph < NumPhases; ++Ph)
        Samples[Ph].push_back(Times[Ph]);
    }
    std::printf("%s\n", Inp.Name.c_str());
    for (unsigned Ph = 0; Ph < NumPhases; ++Ph) {
      Summary S = summarize(Samples[Ph]);
      std::printf("  %-16s %8.3f %8.3f  %8.3f..%-8.3f\n", PhaseNames[Ph],
                  S.Min, S.Median, S.Q1, S.Q3);
      recordJsonResult(Inp.Name + "/" + PhaseNames[Ph],
                       {{"min_ms", S.Min},
                        {"median_ms", S.Median},
                        {"q1_ms", S.Q1},
                        {"q3_ms", S.Q3},
                        {"rounds", static_cast<double>(Rounds)}});
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  // --rounds is this binary's own flag; benchMain parses the rest.
  std::vector<char *> Args{argv[0]};
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--rounds") != 0) {
      Args.push_back(argv[I]);
      continue;
    }
    char *End = nullptr;
    unsigned long N = I + 1 < argc ? std::strtoul(argv[++I], &End, 10) : 0;
    if (!End || *End || N == 0 || N > 100000) {
      std::fprintf(stderr, "--rounds takes a count in [1, 100000]\n");
      return 1;
    }
    RoundsFlag = static_cast<unsigned>(N);
  }
  return benchMain(static_cast<int>(Args.size()), Args.data(), printTables);
}
