//===- bench/BenchCommon.cpp --------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string_view>

using namespace incline;
using namespace incline::bench;
using namespace incline::workloads;

ResultCache &incline::bench::globalCache() {
  static ResultCache Cache;
  return Cache;
}

namespace {
bool SmokeMode = false;
} // namespace

bool incline::bench::smoke() { return SmokeMode; }

std::vector<Workload>
incline::bench::smokeScaled(std::vector<Workload> Workloads) {
  if (SmokeMode) {
    Workloads.resize(std::min<size_t>(Workloads.size(), 3));
    for (Workload &W : Workloads)
      W.Iterations = SmokeIterations;
  }
  return Workloads;
}

std::vector<Workload> incline::bench::benchWorkloads() {
  return smokeScaled(allWorkloads());
}

//===----------------------------------------------------------------------===//
// JSON result sink (--json <path>)
//===----------------------------------------------------------------------===//

namespace {

struct JsonRecord {
  std::string Name;
  std::vector<std::pair<std::string, double>> Metrics;
};

struct JsonSink {
  std::string Path; ///< Empty = recording disabled.
  std::vector<JsonRecord> Records;
};

JsonSink &jsonSink() {
  static JsonSink Sink;
  return Sink;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

/// Renders a double with the fewest digits that read back as the same
/// value; NaN/inf have no JSON spelling and become null.
std::string jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  char Buffer[32];
  return {Buffer, std::to_chars(Buffer, std::end(Buffer), Value).ptr};
}

bool writeJsonResults(const char *Argv0) {
  const JsonSink &Sink = jsonSink();
  std::ofstream Out(Sink.Path);
  if (!Out)
    return false;
  std::string Binary = Argv0 ? Argv0 : "bench";
  size_t Slash = Binary.find_last_of('/');
  if (Slash != std::string::npos)
    Binary = Binary.substr(Slash + 1);

  Out << "{\n  \"bench\": \"" << jsonEscape(Binary) << "\",\n"
      << "  \"results\": [";
  for (size_t I = 0; I < Sink.Records.size(); ++I) {
    const JsonRecord &Record = Sink.Records[I];
    Out << (I ? ",\n" : "\n") << "    {\"name\": \""
        << jsonEscape(Record.Name) << "\", \"metrics\": {";
    for (size_t MI = 0; MI < Record.Metrics.size(); ++MI)
      Out << (MI ? ", " : "") << "\"" << jsonEscape(Record.Metrics[MI].first)
          << "\": " << jsonNumber(Record.Metrics[MI].second);
    Out << "}}";
  }
  Out << "\n  ]\n}\n";
  return static_cast<bool>(Out);
}

} // namespace

void incline::bench::recordJsonResult(
    const std::string &Name,
    const std::vector<std::pair<std::string, double>> &Metrics) {
  if (jsonSink().Path.empty())
    return;
  jsonSink().Records.push_back({Name, Metrics});
}

void incline::bench::printComparisonTable(
    const char *Title, const std::vector<Workload> &Workloads,
    const std::vector<CompilerVariant> &Variants, const RunConfig &Config) {
  std::printf("\n=== %s ===\n", Title);
  std::printf("%-12s", "workload");
  for (const CompilerVariant &Variant : Variants)
    std::printf(" | %18s cyc  code  spd", Variant.Label.c_str());
  std::printf("\n");

  std::vector<std::vector<double>> SpeedupsPerVariant(Variants.size());
  for (const Workload &W : Workloads) {
    std::printf("%-12s", W.Name.c_str());
    const RunResult &Baseline = globalCache().get(W, Variants[0], Config);
    for (size_t VI = 0; VI < Variants.size(); ++VI) {
      const RunResult &Result = globalCache().get(W, Variants[VI], Config);
      double Speedup = Result.SteadyStateCycles > 0
                           ? Baseline.SteadyStateCycles /
                                 Result.SteadyStateCycles
                           : 0.0;
      SpeedupsPerVariant[VI].push_back(Speedup > 0 ? Speedup : 1.0);
      std::printf(" | %22.0f %5llu %4.2f", Result.SteadyStateCycles,
                  static_cast<unsigned long long>(Result.InstalledCodeSize),
                  Speedup);
      recordJsonResult(
          W.Name + "/" + Variants[VI].Label,
          {{"cycles", Result.SteadyStateCycles},
           {"code", static_cast<double>(Result.InstalledCodeSize)},
           {"speedup", Speedup}});
    }
    std::printf("\n");
  }
  std::printf("%-12s", "geomean-spd");
  for (size_t VI = 0; VI < Variants.size(); ++VI)
    std::printf(" | %33.3f", geomean(SpeedupsPerVariant[VI]));
  std::printf("\n");
}

CompilerVariant incline::bench::incrementalVariant(
    std::string Label, inliner::InlinerConfig Config) {
  return {std::move(Label), [Config] {
            return std::make_unique<inliner::IncrementalCompiler>(Config);
          }};
}

CompilerVariant incline::bench::greedyVariant() {
  return {"greedy",
          [] { return std::make_unique<inliner::GreedyCompiler>(); }};
}

CompilerVariant incline::bench::c2Variant() {
  return {"c2", [] { return std::make_unique<inliner::C2StyleCompiler>(); }};
}

CompilerVariant incline::bench::c1Variant() {
  return {"c1", [] { return std::make_unique<inliner::TrivialCompiler>(); }};
}

int incline::bench::benchMain(int argc, char **argv,
                              const std::function<void()> &PrintTables) {
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "--smoke") {
      SmokeMode = true;
      continue;
    }
    if (Arg == "--json" || Arg.starts_with("--json=")) {
      std::string_view Path = Arg != "--json" ? Arg.substr(7)
                              : I + 1 < argc  ? argv[++I]
                                              : "";
      if (Path.empty()) {
        std::fprintf(stderr, "%s: --json needs a file path\n", argv[0]);
        return 1;
      }
      jsonSink().Path = Path;
      continue;
    }
    std::fprintf(stderr,
                 "%s: unrecognized argument '%s'\n"
                 "usage: %s [--smoke] [--json <path>]\n",
                 argv[0], argv[I], argv[0]);
    return 1;
  }
  PrintTables();
  if (!jsonSink().Path.empty() && !writeJsonResults(argv[0])) {
    std::fprintf(stderr, "cannot write --json file '%s'\n",
                 jsonSink().Path.c_str());
    return 1;
  }
  return 0;
}
