//===- perfbench/runner/Bench.cpp -----------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"

#include "frontend/Compiler.h"
#include "frontend/Lexer.h"
#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

using namespace incline;

namespace perfbench {

namespace {

double msBetween(Clock::time_point A, Clock::time_point B) {
  return secondsBetween(A, B) * 1e3;
}

std::string formatNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string formatHex(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// The passes reported one by one: those the default pipeline ran when the
/// benchmark was defined. opt.pass_ms and opt.pass_runs cover every pass,
/// listed or not, so the result keeps its names when passes change.
constexpr std::string_view ReportedPasses[] = {
    "canonicalize", "canonicalize-2", "canonicalize-trial", "dce",
    "gvn",          "loop-peel",      "rwe",                "speculative-devirt"};

} // namespace

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!std::isfinite(Value)) {
    fail("metric " + Name + " is not finite");
    return;
  }
  Metrics.push_back({Name, Value, Unit});
}

void Report::percentileMetric(const std::string &Name,
                              const std::vector<double> &Samples, double P,
                              const std::string &Unit) {
  if (std::optional<double> V = guardedPercentile(Samples, P)) {
    metric(Name, *V, Unit);
    return;
  }
  std::fprintf(stderr,
               "perfbench: %s withheld: %zu samples leave fewer than %zu "
               "beyond p%g\n",
               Name.c_str(), Samples.size(), MinSamplesBeyond, P);
}

void Report::operation(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 5)
    std::fprintf(stderr, "perfbench: failed operation: %s\n", What.c_str());
}

void Report::fail(const std::string &Why) {
  Correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
}

double Report::exact(const std::string &Name, double Value) {
  auto [It, Inserted] = Exact.try_emplace(Name, Value);
  if (!Inserted && std::memcmp(&It->second, &Value, sizeof(double)) != 0)
    fail("exact metric " + Name + " differs between passes: " +
         formatNumber(It->second) + " vs " + formatNumber(Value));
  return Value;
}

double Report::exactValue(const std::string &Name) const {
  auto It = Exact.find(Name);
  return It == Exact.end() ? 0 : It->second;
}

double Report::okPct() const {
  if (Attempted == 0)
    return 0;
  return 100.0 * double(Attempted - Failed) / double(Attempted);
}

void Report::checkExactAcrossRuns(const std::string &File) {
  std::map<std::string, std::string> Recorded;
  {
    std::ifstream In(File);
    std::string Name, Hex;
    while (In >> Name >> Hex)
      Recorded[Name] = Hex;
  }
  std::ofstream Out(File, std::ios::app);
  for (const auto &[Name, Value] : Exact) {
    auto It = Recorded.find(Name);
    if (It == Recorded.end())
      Out << Name << ' ' << formatHex(Value) << '\n';
    else if (It->second != formatHex(Value))
      fail("exact metric " + Name + " differs from an earlier run of this "
           "build: " + formatNumber(std::strtod(It->second.c_str(), nullptr)) +
           " vs " + formatNumber(Value));
  }
}

double SetupTimes::seconds() const {
  double Sum = 0;
  for (const std::vector<double> &Part : Samples)
    Sum += *std::min_element(Part.begin(), Part.end());
  return Sum;
}

std::string Report::json() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct && Attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    OS << (I ? ", " : "") << '"' << Metrics[I].Name << "\": {\"value\": "
       << formatNumber(Metrics[I].Value) << ", \"unit\": \"" << Metrics[I].Unit
       << "\"}";
  OS << "}}";
  return OS.str();
}

double peakRssMb() {
  // VmHWM, not getrusage: ru_maxrss carries over the high-water mark of the
  // process that forked this one, so it would report the launcher's size.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // Line is KiB.
  return 0;
}

uint64_t mix(uint64_t Seed, uint64_t N) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (N + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::vector<size_t> permutation(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[mix(Seed, I) % I]);
  return Order;
}

uint64_t fnv1a(std::string_view Data, uint64_t Hash) {
  for (unsigned char C : Data) {
    Hash ^= C;
    Hash *= 1099511628211ull;
  }
  return Hash;
}

void timeFrontend(std::string_view Source, FrontendTimes &Times) {
  auto T0 = Clock::now();
  frontend::CompileResult Whole = frontend::compileProgram(Source);
  auto T1 = Clock::now();
  Times.CompileMs += msBetween(T0, T1);
  if (Whole.succeeded())
    for (const auto &[Name, F] : Whole.Mod->functions())
      Times.IrInsts += F->instructionCount();

  auto L0 = Clock::now();
  frontend::Lexer Lex(Source);
  std::vector<frontend::Token> Tokens = Lex.lexAll();
  auto L1 = Clock::now();
  frontend::Parser P(std::move(Tokens));
  std::unique_ptr<frontend::Program> Prog = P.parseProgram();
  auto L2 = Clock::now();
  types::ClassHierarchy Classes;
  frontend::Sema S(*Prog, Classes);
  bool SemaOk = S.run();
  auto L3 = Clock::now();
  if (SemaOk)
    frontend::lowerProgram(*Prog, S, std::move(Classes));
  auto L4 = Clock::now();
  Times.LexMs += msBetween(L0, L1);
  Times.ParseMs += msBetween(L1, L2);
  Times.SemaMs += msBetween(L2, L3);
  Times.LowerMs += msBetween(L3, L4);
}

void reportFrontend(Report &R, const FrontendTimes &Times) {
  R.metric("frontend.compile_ms", Times.CompileMs, "ms");
  R.metric("frontend.lex_ms", Times.LexMs, "ms");
  R.metric("frontend.parse_ms", Times.ParseMs, "ms");
  R.metric("frontend.sema_ms", Times.SemaMs, "ms");
  R.metric("frontend.lower_ms", Times.LowerMs, "ms");
  R.metric("frontend.ir_insts", static_cast<double>(Times.IrInsts), "count");
}

void reportInterpLayer(Report &R, double ExecNanos, double Cycles,
                       double InterpretedCycles, double Units) {
  R.metric("interp.exec_ms", ExecNanos / 1e6 / Units, "ms");
  R.metric("interp.ns_per_kcycle", ExecNanos / (Cycles / 1e3), "ns");
  R.metric("interp.interpreted_cycle_share", InterpretedCycles / Cycles,
           "ratio");
}

void CompileTotals::add(const jit::JitRuntime &RT) {
  for (const jit::CompilationRecord &CR : RT.compilations()) {
    ++Compiles;
    CodeIr += static_cast<double>(CR.Stats.CodeSize);
    PassRuns += static_cast<double>(CR.Stats.PassRuns);
  }
}

CompileTotals &CompileTotals::operator+=(const CompileTotals &Other) {
  Compiles += Other.Compiles;
  CodeIr += Other.CodeIr;
  PassRuns += Other.PassRuns;
  return *this;
}

void reportCompileTotals(Report &R, const CompileTotals &T) {
  R.metric("code_ir_per_install", ratio(T.CodeIr, T.Compiles), "ir");
  R.metric("pass_runs_per_compile", ratio(T.PassRuns, T.Compiles), "count");
}

void CompileLayerTotals::addRuntime(const jit::JitRuntime &RT) {
  jit::JitRuntimeStats S = RT.stats();
  Jit.CompileRequests += S.CompileRequests;
  Jit.Bailouts += S.Bailouts;
  Jit.QueueFullRejections += S.QueueFullRejections;
  Jit.StaleOutcomesDiscarded += S.StaleOutcomesDiscarded;
  Jit.MutatorStallNanos += S.MutatorStallNanos;
  Jit.GuardFailures += S.GuardFailures;
  Jit.Invalidations += S.Invalidations;
  Jit.RecompilesAfterDeopt += S.RecompilesAfterDeopt;
  const jit::CodeCacheStats &C = RT.codeCacheStats();
  Cache.MethodInstalls += C.MethodInstalls + C.OsrInstalls;
  Cache.Evictions += C.Evictions + C.OsrEvictions;
  Cache.AdmissionRejections += C.AdmissionRejections;
  Cache.DecayTicks += C.DecayTicks;
  Cache.PeakLiveBytes = std::max(Cache.PeakLiveBytes, C.PeakLiveBytes);
}

void CompileLayerTotals::addSpans(const TimedCompiler &T) {
  std::vector<CompileSpan> More = T.spans();
  Spans.insert(Spans.end(), More.begin(), More.end());
}

uint64_t CompileLayerTotals::mutatorCompileNanos() const {
  uint64_t Nanos = 0;
  for (const CompileSpan &S : Spans)
    if (S.OnMutator)
      Nanos += S.Nanos;
  return Nanos;
}

void reportCompileSpans(Report &R, const CompileLayerTotals &T,
                        double Units) {
  std::vector<double> Ms;
  double TotalMs = 0;
  for (const CompileSpan &S : T.Spans) {
    Ms.push_back(static_cast<double>(S.Nanos) / 1e6);
    TotalMs += Ms.back();
  }
  auto PerUnit = [&](double V) { return V / Units; };
  R.metric("jit.compiles", PerUnit(static_cast<double>(Ms.size())), "count");
  R.metric("jit.compile_ms", PerUnit(TotalMs), "ms");
  R.metric("jit.compile_ms_p50", percentile(Ms, 50), "ms");
  R.metric("jit.compile_ms_max", percentile(Ms, 100), "ms");
}

void reportJitRuntime(Report &R, const CompileLayerTotals &T, double Units) {
  auto PerUnit = [&](double V) { return V / Units; };
  const jit::JitRuntimeStats &J = T.Jit;
  R.metric("jit.compile_requests", PerUnit(double(J.CompileRequests)), "count");
  R.metric("jit.bailouts", PerUnit(double(J.Bailouts)), "count");
  R.metric("jit.queue_full_rejections", PerUnit(double(J.QueueFullRejections)),
           "count");
  R.metric("jit.stale_outcomes", PerUnit(double(J.StaleOutcomesDiscarded)),
           "count");
  R.metric("jit.mutator_stall_ms", PerUnit(double(J.MutatorStallNanos) / 1e6),
           "ms");
  R.metric("jit.deopts", PerUnit(double(J.GuardFailures)), "count");
  R.metric("jit.invalidations", PerUnit(double(J.Invalidations)), "count");
  R.metric("jit.recompiles_after_deopt",
           PerUnit(double(J.RecompilesAfterDeopt)), "count");
}

void reportCodeCacheLayer(Report &R, const CompileLayerTotals &T,
                          double Units) {
  const jit::CodeCacheStats &C = T.Cache;
  R.metric("codecache.installs", double(C.MethodInstalls) / Units, "count");
  R.metric("codecache.evictions", double(C.Evictions) / Units, "count");
  R.metric("codecache.admission_rejections",
           double(C.AdmissionRejections) / Units, "count");
  R.metric("codecache.decay_ticks", double(C.DecayTicks) / Units, "count");
  R.metric("codecache.peak_live_ir", double(C.PeakLiveBytes), "ir");
}

void reportInlinerLayer(Report &R, const CompileLayerTotals &T, double Units) {
  jit::CompileStats Sum;
  uint64_t CompileNanos = 0;
  for (const CompileSpan &S : T.Spans) {
    Sum.Rounds += S.Stats.Rounds;
    Sum.ExploredNodes += S.Stats.ExploredNodes;
    Sum.InlinedCallsites += S.Stats.InlinedCallsites;
    Sum.TrialCacheHits += S.Stats.TrialCacheHits;
    Sum.TrialCacheMisses += S.Stats.TrialCacheMisses;
    Sum.TrialNanos += S.Stats.TrialNanos;
    Sum.PassNanos += S.Stats.PassNanos;
    CompileNanos += S.Nanos;
  }
  auto PerUnit = [&](double V) { return V / Units; };
  uint64_t Trials = Sum.TrialCacheHits + Sum.TrialCacheMisses;
  R.metric("inliner.rounds", PerUnit(double(Sum.Rounds)), "count");
  R.metric("inliner.explored_nodes", PerUnit(double(Sum.ExploredNodes)),
           "count");
  R.metric("inliner.inlined_callsites", PerUnit(double(Sum.InlinedCallsites)),
           "count");
  R.metric("inliner.trials", PerUnit(double(Trials)), "count");
  R.metric("inliner.trial_ms", PerUnit(double(Sum.TrialNanos) / 1e6), "ms");
  R.metric("inliner.trial_cache_hit_ratio",
           ratio(double(Sum.TrialCacheHits), double(Trials)), "ratio");
  // Compile time no pass timer and no trial timer covers. Passes that run
  // inside deep trials are counted by both timers, so this can undershoot.
  R.metric("inliner.self_ms",
           PerUnit((double(CompileNanos) - double(Sum.PassNanos) -
                    double(Sum.TrialNanos)) /
                   1e6),
           "ms");
}

void reportOptLayer(Report &R, const CompileLayerTotals &T, double Units) {
  auto Passes = T.Passes.passes();
  opt::PassMetrics Total;
  for (const auto &[Name, M] : Passes)
    Total += M;
  for (std::string_view Name : ReportedPasses) {
    auto It = Passes.find(Name);
    opt::PassMetrics M = It == Passes.end() ? opt::PassMetrics{} : It->second;
    std::string Prefix = "opt." + std::string(Name);
    R.metric(Prefix + ".ms", double(M.Nanos) / 1e6 / Units, "ms");
    R.metric(Prefix + ".runs", double(M.Runs) / Units, "count");
  }
  R.metric("opt.pass_ms", double(Total.Nanos) / 1e6 / Units, "ms");
  R.metric("opt.pass_runs", double(Total.Runs) / Units, "count");
  R.metric("opt.analysis_cache_hit_ratio",
           ratio(double(Total.CacheHits),
                 double(Total.CacheHits + Total.CacheMisses)),
           "ratio");
}

void reportHostLayer(Report &R, double WallS, const std::vector<double> &OpUs,
                     double StallMs) {
  R.metric("host.wall_s", WallS, "s");
  R.metric("host.op_p50_us", percentile(OpUs, 50), "us");
  R.percentileMetric("host.op_p99_us", OpUs, 99, "us");
  R.metric("host.compile_stall_ms", StallMs, "ms");
}

} // namespace perfbench
