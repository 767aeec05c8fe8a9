//===- bench/compiletime_frontend.cpp - Frontend phase timings ------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host time of the MiniOO frontend, phase by phase. Each round lexes,
/// parses, checks, lowers and verifies one input, then destroys the AST
/// (with the parser's tokens) and the module, timing each step on its own:
///
///   lex, parse, sema, lower, verify, ast_teardown, module_teardown
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
/// `--smoke` runs 3 rounds (for ctest); the default is 200. Plain `main`,
/// no Google Benchmark: every number is a host time, and the tool's job is
/// the spread, which a benchmark framework's single iteration hides.
///
//===----------------------------------------------------------------------===//

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

namespace {

using Clock = std::chrono::steady_clock;

enum Phase : unsigned {
  Lex,
  Parse,
  SemaPhase,
  Lower,
  Verify,
  AstTeardown,
  ModuleTeardown,
  Compile,
  NumPhases
};

const char *const PhaseNames[NumPhases] = {
    "lex",    "parse",        "sema",            "lower",
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

} // namespace

int main(int argc, char **argv) {
  unsigned Rounds = 200;
  const char *JsonPath = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke")) {
      Rounds = 3;
    } else if (!std::strcmp(argv[I], "--rounds") && I + 1 < argc) {
      char *End = nullptr;
      unsigned long N = std::strtoul(argv[++I], &End, 10);
      if (*End || N == 0 || N > 100000) {
        std::fprintf(stderr, "--rounds takes a count in [1, 100000]\n");
        return 2;
      }
      Rounds = static_cast<unsigned>(N);
    } else if (!std::strcmp(argv[I], "--json") && I + 1 < argc) {
      JsonPath = argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: compiletime_frontend [--rounds N] [--smoke] "
                   "[--json FILE]\n");
      return 2;
    }
  }

  std::vector<Input> Inputs;
  Inputs.push_back({"traffic-706", {workloads::buildTrafficProgram(706)}});
  Input Suite{"suite-16", {}};
  for (const workloads::Workload &W : workloads::allWorkloads())
    Suite.Sources.push_back(W.Source);
  Inputs.push_back(std::move(Suite));

  std::string Json = "{\"rounds\": " + std::to_string(Rounds) +
                     ", \"unit\": \"ms\", \"inputs\": {";
  std::printf("frontend phase times, ms over %u rounds (min / median / "
              "q1..q3)\n",
              Rounds);
  for (size_t In = 0; In < Inputs.size(); ++In) {
    const Input &Inp = Inputs[In];
    std::vector<std::vector<double>> Samples(NumPhases);
    for (unsigned R = 0; R < Rounds; ++R) {
      PhaseTimes Times{};
      for (const std::string &Source : Inp.Sources)
        if (!timeOnce(Source, Times))
          return 1;
      for (unsigned Ph = 0; Ph < NumPhases; ++Ph)
        Samples[Ph].push_back(Times[Ph]);
    }
    std::printf("%s\n", Inp.Name.c_str());
    Json += std::string(In ? ", " : "") + "\"" + Inp.Name + "\": {";
    for (unsigned Ph = 0; Ph < NumPhases; ++Ph) {
      Summary S = summarize(Samples[Ph]);
      std::printf("  %-16s %8.3f %8.3f  %8.3f..%-8.3f\n", PhaseNames[Ph],
                  S.Min, S.Median, S.Q1, S.Q3);
      char Buf[192];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\"%s\": {\"min\": %.4f, \"median\": %.4f, "
                    "\"q1\": %.4f, \"q3\": %.4f}",
                    Ph ? ", " : "", PhaseNames[Ph], S.Min, S.Median, S.Q1,
                    S.Q3);
      Json += Buf;
    }
    Json += "}";
  }
  Json += "}}\n";

  if (JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F || std::fputs(Json.c_str(), F) < 0 || std::fclose(F) != 0) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
  }
  return 0;
}
