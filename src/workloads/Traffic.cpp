//===- workloads/Traffic.cpp --------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/Traffic.h"

#include "frontend/Compiler.h"
#include "support/Hash.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace incline;
using namespace incline::workloads;

namespace {

/// splitmix64 finalizer: the same schedule-hash idiom the chaos fuzzer
/// uses — every draw is a pure function of (seed, draw index), so a traffic
/// run is reproducible from its config alone.
uint64_t mix(uint64_t Seed, uint64_t N) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (N + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

} // namespace

std::string incline::workloads::buildTrafficProgram(unsigned NumHandlers,
                                                    unsigned NumHostile) {
  // One shared operator hierarchy; every handler picks a tenant-specific
  // mix, so receiver histograms (and therefore speculation decisions)
  // differ per tenant while the code shape stays comparable.
  std::string Src = R"(class Op {
  def apply(a: int, b: int): int { return a + b; }
}
class OpAdd extends Op {
  def apply(a: int, b: int): int { return a + b + 1; }
}
class OpMul extends Op {
  def apply(a: int, b: int): int { return a * 3 + b % 17; }
}
class OpSub extends Op {
  def apply(a: int, b: int): int { return a - b + 5; }
}
class OpMix extends Op {
  def apply(a: int, b: int): int { return a % 8191 + b * 2; }
}
def main() { print(0); }
)";
  static const char *OpClasses[] = {"Op", "OpAdd", "OpMul", "OpSub", "OpMix"};
  for (unsigned T = 0; T < NumHandlers; ++T) {
    unsigned Trip = 24 + (T * 7) % 40;
    const char *C0 = OpClasses[(T * 31 + 0) % 5];
    const char *C1 = OpClasses[(T * 31 + 17) % 5];
    const char *C2 = OpClasses[(T * 31 + 34) % 5];
    // Each handler carries a per-request validation branch that can never
    // fire (`i % 3` is always a valid ops index): realistic server
    // handlers are full of such cold error paths, and they are exactly
    // what cold-branch pruning strips from the installed code.
    Src += formatString(
        "def handler%u(): int {\n"
        "  var ops = new Op[3];\n"
        "  ops[0] = new %s();\n"
        "  ops[1] = new %s();\n"
        "  ops[2] = new %s();\n"
        "  var acc = %u;\n"
        "  var i = 0;\n"
        "  while (i < %u) {\n"
        "    var sel = i %% 3;\n"
        "    if (sel > 2) {\n"
        "      print(%u);\n"
        "      print(i);\n"
        "      print(acc);\n"
        "      print(acc %% 3);\n"
        "      print(acc %% 5);\n"
        "      print(acc %% 7);\n"
        "      print(acc %% 11);\n"
        "      print(acc %% 13);\n"
        "    }\n"
        "    acc = ops[sel].apply(acc, i + %u);\n"
        "    i = i + 1;\n"
        "  }\n"
        "  print(acc);\n"
        "  return acc;\n"
        "}\n",
        T, C0, C1, C2, T % 13, Trip, 910000 + T, T % 5);
  }
  // Hostile tenants: each handler loops over its own helper chain — one
  // virtual apply per level, every level a distinct function — so the
  // inliner's trial expansion walks a deep call tree per compile while one
  // *execution* of the chain stays cheap. This is the deadline-blowing
  // workload of the supervised-compilation bench: without a deadline the
  // compile is merely slow; with one it must bail out cleanly and step the
  // handler down the degradation ladder.
  const unsigned HostileDepth = 14;
  for (unsigned T = 0; T < NumHostile; ++T) {
    for (unsigned D = HostileDepth; D-- > 0;) {
      const char *Cls = OpClasses[(T * 13 + D * 7) % 5];
      if (D + 1 == HostileDepth)
        Src += formatString("def deep%u_%u(a: int): int {\n"
                            "  var op: Op = new %s();\n"
                            "  return op.apply(a, %u);\n"
                            "}\n",
                            T, D, Cls, D + T % 7);
      else
        Src += formatString("def deep%u_%u(a: int): int {\n"
                            "  var op: Op = new %s();\n"
                            "  return deep%u_%u(op.apply(a, %u)) %% 65521;\n"
                            "}\n",
                            T, D, Cls, T, D + 1, D + T % 7);
    }
    Src += formatString("def hostile%u(): int {\n"
                        "  var acc = %u;\n"
                        "  var i = 0;\n"
                        "  while (i < %u) {\n"
                        "    acc = deep%u_0(acc + i);\n"
                        "    i = i + 1;\n"
                        "  }\n"
                        "  print(acc);\n"
                        "  return acc;\n"
                        "}\n",
                        T, T % 11, 16 + (T * 5) % 24, T);
  }
  return Src;
}

double incline::workloads::latencyPercentile(
    const std::vector<double> &Samples, double P) {
  if (Samples.empty())
    return 0;
  std::vector<double> Sorted = Samples;
  std::sort(Sorted.begin(), Sorted.end());
  // Nearest-rank: smallest sample >= P percent of the distribution.
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Sorted.size())));
  if (Rank == 0)
    Rank = 1;
  if (Rank > Sorted.size())
    Rank = Sorted.size();
  return Sorted[Rank - 1];
}

TrafficResult incline::workloads::runTraffic(jit::Compiler &Compiler,
                                             const TrafficConfig &Config) {
  TrafficResult Result;
  unsigned ChurnEvents =
      Config.ChurnInterval != 0 ? Config.Requests / Config.ChurnInterval : 0;
  unsigned NumHandlers = Config.Tenants + ChurnEvents;
  Result.Handlers = NumHandlers;

  frontend::CompileResult Compiled = frontend::compileProgram(
      buildTrafficProgram(NumHandlers, Config.HostileTenants));
  if (!Compiled.succeeded()) {
    Result.Ok = false;
    Result.Error = "frontend: " + frontend::renderDiagnostics(Compiled.Diags);
    return Result;
  }
  jit::JitRuntime Runtime(*Compiled.Mod, Compiler, Config.Jit);

  // Active tenant pool; churn replaces one slot with a fresh handler that
  // has never executed (cold code, cold profiles — compilation never ends).
  std::vector<unsigned> Pool(std::max(1u, Config.Tenants));
  std::iota(Pool.begin(), Pool.end(), 0u);
  unsigned NextFresh = Config.Tenants;

  uint64_t Digest = FnvShortBasis;
  uint64_t Draws = 0;
  auto Draw = [&] { return mix(Config.Seed, ++Draws); };

  for (unsigned I = 0; I < Config.Requests; ++I) {
    if (Config.ChurnInterval != 0 && I != 0 &&
        I % Config.ChurnInterval == 0 && NextFresh < NumHandlers)
      Pool[Draw() % Pool.size()] = NextFresh++;

    // Hot window: a contiguous slot range that shifts every phase. The
    // remaining draws hit a uniform pool slot — the cold tail.
    unsigned PhaseBase = Config.PhaseLength != 0
                             ? static_cast<unsigned>(
                                   (I / Config.PhaseLength) * Config.HotSetSize)
                             : 0;
    // Hostile draw first (guarded, so configs without hostile tenants keep
    // their exact pre-existing schedule and digest).
    std::string Symbol;
    if (Config.HostileTenants != 0 &&
        Draw() % 100 < Config.HostileSharePercent) {
      Symbol = "hostile" + std::to_string(Draw() % Config.HostileTenants);
      ++Result.HostileRequests;
    } else {
      unsigned Slot;
      if (Config.HotSetSize != 0 && Draw() % 100 < Config.HotSharePercent)
        Slot = (PhaseBase + Draw() % Config.HotSetSize) % Pool.size();
      else
        Slot = Draw() % Pool.size();
      unsigned Tenant = Pool[Slot];
      Symbol = "handler" + std::to_string(Tenant);
    }

    uint64_t StallBefore = Runtime.stats().MutatorStallNanos;
    interp::ExecResult R = Runtime.run(Symbol);
    if (!R.ok()) {
      Result.Ok = false;
      Result.Error = Symbol + ": " + R.TrapMessage;
      return Result;
    }
    // Latency = deterministic effective cycles of the request plus the
    // compile stall the mutator observed serving it (1 ns ≡ 1 cycle — the
    // only wall-clock term, zero in pure-interpreted and Async fast paths).
    uint64_t StallDelta = Runtime.stats().MutatorStallNanos - StallBefore;
    double Latency =
        Runtime.effectiveCycles(R) + static_cast<double>(StallDelta);
    Result.LatencyCycles.push_back(Latency);
    Result.TotalCycles += Latency;

    Digest = fnv1a(Symbol, Digest);
    Digest = fnv1a(R.Output, Digest);
  }

  Result.Requests = Config.Requests;
  Result.OutputDigest = Digest;
  Result.P50 = latencyPercentile(Result.LatencyCycles, 50);
  Result.P99 = latencyPercentile(Result.LatencyCycles, 99);
  Result.P999 = latencyPercentile(Result.LatencyCycles, 99.9);
  Result.MeanCycles = Result.LatencyCycles.empty()
                          ? 0
                          : Result.TotalCycles /
                                static_cast<double>(Result.LatencyCycles.size());
  Result.Throughput =
      Result.TotalCycles > 0
          ? static_cast<double>(Result.Requests) / (Result.TotalCycles / 1e6)
          : 0;
  // Drain first, then snapshot both stat blocks together: in Async mode
  // late publications land during the drain, and the JIT and cache stats
  // must describe the same final state.
  Runtime.drainCompilations();
  Result.JitStats = Runtime.stats();
  Result.CacheStats = Runtime.codeCacheStats();
  Result.PeakCodeBytes = Result.CacheStats.PeakLiveBytes;
  return Result;
}
