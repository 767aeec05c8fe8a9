//===- perfbench/runner/main.cpp - Benchmark runner entry point -----------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
//
// perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                  [--exact-file PATH]
//
// Runs one workload and prints, as its last line, the JSON result line
// described in README.md: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1. Exit code 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "suite-steady|traffic-open --seed N --seconds S "
               "--trace 0|1 [--exact-file PATH]\n",
               Why);
  return 2;
}

bool parseNumber(const char *Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End != Text && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  double Seed = -1, Trace = -1;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    if (Flag == "--workload")
      Opts.Workload = Value;
    else if (Flag == "--exact-file")
      Opts.ExactFile = Value;
    else if (Flag == "--seed") {
      if (!parseNumber(Value, Seed) || Seed < 0 || Seed > 1e15)
        return usage("--seed must be a non-negative integer");
    } else if (Flag == "--seconds") {
      if (!parseNumber(Value, Opts.Seconds) || Opts.Seconds <= 0 ||
          Opts.Seconds > 600)
        return usage("--seconds must be in (0, 600]");
    } else if (Flag == "--trace") {
      if (!parseNumber(Value, Trace) || (Trace != 0 && Trace != 1))
        return usage("--trace must be 0 or 1");
    } else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (Seed < 0 || Trace < 0 || Opts.Workload.empty())
    return usage("--workload, --seed and --trace are required");
  Opts.Seed = static_cast<uint64_t>(Seed);
  Opts.Trace = Trace == 1;

  Report R;
  if (Opts.Workload == "suite-steady")
    R = runSuiteSteady(Opts);
  else if (Opts.Workload == "traffic-open")
    R = runTrafficOpen(Opts);
  else
    return usage(("unknown workload " + Opts.Workload).c_str());

  if (!Opts.ExactFile.empty())
    R.checkExactAcrossRuns(Opts.ExactFile);
  std::printf("%s\n", R.json().c_str());
  return 0;
}
