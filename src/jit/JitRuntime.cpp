//===- jit/JitRuntime.cpp -----------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "jit/JitRuntime.h"

#include "interp/CostModel.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"
#include "jit/CompileQueue.h"
#include "jit/CompileWorkerPool.h"
#include "support/ErrorHandling.h"
#include "support/Hash.h"
#include "support/StringUtils.h"

#include <chrono>
#include <exception>

using namespace incline;
using namespace incline::jit;

Compiler::~Compiler() = default;
CompileCache::~CompileCache() = default;

std::string_view incline::jit::jitModeName(JitMode Mode) {
  switch (Mode) {
  case JitMode::Sync: return "sync";
  case JitMode::Async: return "async";
  case JitMode::Deterministic: return "deterministic";
  }
  return "unknown";
}

namespace {

/// RAII latch for the reentrancy guard: unlatches even when the compiler
/// throws, so one failed compilation cannot silently disable the JIT for
/// the rest of the run.
class CompileInProgressGuard {
public:
  explicit CompileInProgressGuard(bool &Flag) : Flag(Flag) { Flag = true; }
  ~CompileInProgressGuard() { Flag = false; }
  CompileInProgressGuard(const CompileInProgressGuard &) = delete;
  CompileInProgressGuard &operator=(const CompileInProgressGuard &) = delete;

private:
  bool &Flag;
};

/// Accumulates wall time into a mutator-stall counter.
class StallTimer {
public:
  explicit StallTimer(uint64_t &Sink)
      : Sink(Sink), Start(std::chrono::steady_clock::now()) {}
  ~StallTimer() {
    Sink += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }

private:
  uint64_t &Sink;
  std::chrono::steady_clock::time_point Start;
};

} // namespace

std::string
incline::jit::streamFingerprint(const std::vector<CompilationRecord> &Stream) {
  std::string Out;
  for (const CompilationRecord &R : Stream) {
    Out += formatString(
        "#%llu %s attempt=%u size=%llu inlined=%llu rounds=%llu "
        "explored=%llu opts=%llu guards=%llu passes=%llu hits=%llu "
        "misses=%llu ir=%016llx",
        static_cast<unsigned long long>(R.CompileIndex), R.Symbol.c_str(),
        R.Attempt, static_cast<unsigned long long>(R.Stats.CodeSize),
        static_cast<unsigned long long>(R.Stats.InlinedCallsites),
        static_cast<unsigned long long>(R.Stats.Rounds),
        static_cast<unsigned long long>(R.Stats.ExploredNodes),
        static_cast<unsigned long long>(R.Stats.OptsTriggered),
        static_cast<unsigned long long>(R.Stats.GuardsEmitted),
        static_cast<unsigned long long>(R.Stats.PassRuns),
        static_cast<unsigned long long>(R.Stats.AnalysisCacheHits),
        static_cast<unsigned long long>(R.Stats.AnalysisCacheMisses),
        static_cast<unsigned long long>(R.IRFingerprint));
    // Ladder rung, only when degraded: rung-0 records keep the exact
    // pre-ladder byte layout, so fingerprints of unsupervised runs stay
    // comparable across the feature boundary.
    if (R.Rung != 0)
      Out += formatString(" rung=%u", R.Rung);
    // Same contract for cold-branch pruning: the field appears only when a
    // trap was actually planted, so `--cold-prune=off` streams stay
    // byte-identical to pre-feature ones.
    if (R.Stats.BranchesPruned != 0)
      Out += formatString(
          " pruned=%llu", static_cast<unsigned long long>(R.Stats.BranchesPruned));
    Out += '\n';
  }
  return Out;
}

JitRuntime::JitRuntime(ir::Module &M, Compiler &TheCompiler, JitConfig Config)
    : M(M), TheCompiler(TheCompiler), Config(std::move(Config)),
      Code(this->Config.CodeCacheBudget) {
  if (this->Config.Enabled && this->Config.Mode != JitMode::Sync) {
    CompileQueue::PopOrder Order = this->Config.Mode == JitMode::Deterministic
                                       ? CompileQueue::PopOrder::Fifo
                                       : CompileQueue::PopOrder::Priority;
    Queue = std::make_unique<CompileQueue>(this->Config.QueueCapacity, Order);
    Pool = std::make_unique<CompileWorkerPool>(*Queue, TheCompiler, M,
                                               this->Config.Threads);
  }
}

JitRuntime::~JitRuntime() {
  if (Pool)
    Pool->shutdown();
}

JitRuntimeStats JitRuntime::stats() const {
  // The code-lifecycle counters are owned by the code cache (counted once,
  // at the retire/install point); merge them into the snapshot so existing
  // readers keep one coherent struct.
  JitRuntimeStats S = Stats;
  const CodeCacheStats &C = Code.stats();
  S.Invalidations = C.Invalidations;
  S.OsrInvalidations = C.OsrInvalidations;
  S.OsrInstalls = C.OsrInstalls;
  return S;
}

interp::ResolvedBody JitRuntime::resolve(std::string_view Symbol) {
  interp::ResolvedBody Body;
  Body.ProfileName = std::string(Symbol);
  if (const ir::Function *Compiled = Code.lookupMethod(Symbol)) {
    Body.F = Compiled;
    Body.Compiled = true;
    return Body;
  }
  Body.F = M.function(Symbol);
  Body.Compiled = false;
  // Interpreted tier: mark loop-bearing bodies OSR-eligible so the
  // interpreter reports their taken backedges. The plan is computed once
  // per method (the module is immutable at runtime) and an empty plan
  // keeps the flag off — the dispatch loop pays nothing for loop-free
  // methods.
  if (Body.F && Config.Enabled && Config.Osr)
    Body.OsrEligible = !osrPlanFor(Symbol).empty();
  return Body;
}

const opt::OsrPlan &JitRuntime::osrPlanFor(std::string_view Symbol) {
  auto It = OsrPlans.find(Symbol);
  if (It != OsrPlans.end())
    return It->second;
  opt::OsrPlan Plan;
  if (const ir::Function *F = M.function(Symbol))
    Plan = opt::computeOsrPlan(*F);
  return OsrPlans.emplace(std::string(Symbol), std::move(Plan)).first->second;
}

JitRuntime::MethodState &JitRuntime::stateOf(std::string_view Symbol) {
  auto It = Methods.find(Symbol);
  if (It == Methods.end()) {
    It = Methods.emplace(std::string(Symbol), MethodState()).first;
    It->second.NextAttemptAt = Config.CompileThreshold;
  }
  return It->second;
}

void JitRuntime::onInvoke(std::string_view Symbol) {
  if (!Config.Enabled)
    return;
  MethodState &State = stateOf(Symbol);
  if (State.Compiled) {
    // Chaos hook: a forced eviction at an invocation boundary exercises the
    // evict -> reheat -> recompile round trip. When the symbol is pinned
    // (a compile of it is in flight) the evict is a no-op and the method
    // stays compiled.
    if (Config.ForceEvict && Config.ForceEvict(Symbol))
      evictNow(Symbol);
    if (State.Compiled) {
      // Degraded-rung installs keep counting: a stable lower-rung method
      // earns a retry one rung up after re-heating (no-op at rung 0, so the
      // fully-compiled fast path is unchanged).
      if (State.Rung != 0)
        maybeRequestUpgrade(Symbol, State);
      return; // Fast path: hotness stops once compiled (at full rung).
    }
  }
  ++State.Hotness;
  if (State.InFlight || State.DoNotCompile)
    return;
  if (State.Hotness < State.NextAttemptAt)
    return; // Fast path: not yet hot (or backing off after a bailout).
  // Guard against reentrant compilation (the compiler itself never runs
  // MiniOO code, but be defensive).
  if (CompilationInProgress)
    return;
  requestCompile(Symbol, State);
}

void JitRuntime::onSafepoint() {
  // Profile decay first: a tick is mutator-driven state, identical across
  // Sync and Deterministic modes (the interpreter reaches safepoints in
  // the same order), so decay alone never perturbs the bit-identity
  // contract between them.
  if (Config.ProfileDecayHalflife != 0 &&
      ++SafepointsSinceDecay >= Config.ProfileDecayHalflife) {
    SafepointsSinceDecay = 0;
    applyProfileDecay();
  }
  if (Config.Mode != JitMode::Async || !Pool)
    return;
  // One relaxed atomic load when nothing finished — the safepoint poll is
  // on the interpreter's block-transition path.
  if (Pool->deliveredCount() == ConsumedOutcomes)
    return;
  StallTimer Stall(Stats.MutatorStallNanos);
  publishBatch(Pool->takeCompleted());
}

void JitRuntime::applyProfileDecay() {
  Profiles.decay();
  // Uncompiled hotness decays with the profiles it mirrors: a method that
  // stopped being hot must earn its compile again. Compiled and in-flight
  // anchors keep their counters — their trigger already fired.
  for (auto &[Symbol, State] : Methods)
    if (!State.Compiled && !State.InFlight)
      State.Hotness >>= 1;
  Code.decayHeat();
  // Decayed profiles change every speculation input; memoized trial work
  // keyed on the old counts must not be replayed (the TrialCache keys on a
  // profile fingerprint too — this flush is the contract-level guarantee,
  // via the same interface a deopt blacklist change uses).
  if (CompileCache *Cache = TheCompiler.compileCache())
    Cache->invalidateForRuntimeEvent();
}

std::shared_ptr<support::CancellationToken>
JitRuntime::makeCompileToken(std::string_view Symbol, TierState &State) {
  unsigned Attempt = State.AttemptNo++;
  bool Forced = Config.ForceDeadlineExpiry &&
                Config.ForceDeadlineExpiry(Symbol, Attempt);
  bool Supervised = Config.CompileDeadlineUnits != 0 ||
                    Config.CompileDeadlineMs != 0 ||
                    Config.CompileNodeQuota != 0 || Forced;
  // Background compiles always carry a token — it is the cancellation
  // channel for deopt/evict/shutdown — while unsupervised sync compiles
  // (mutator-inline, nothing can cancel them) skip it entirely, keeping
  // the legacy path token-free.
  if (!Supervised && (Config.Mode == JitMode::Sync || !Queue))
    return nullptr;
  support::CancellationToken::Budgets B;
  B.WorkUnits = Config.CompileDeadlineUnits;
  B.WallMillis = Config.CompileDeadlineMs;
  B.NodeQuota = Config.CompileNodeQuota;
  // Forced expiry: a 1-unit budget is spent by the first pass run, so the
  // compile deterministically dies at its second checkpoint — same point
  // in every execution mode.
  if (Forced)
    B.WorkUnits = 1;
  return std::make_shared<support::CancellationToken>(B);
}

void JitRuntime::maybeRequestUpgrade(std::string_view Symbol,
                                     MethodState &State) {
  if (!Config.DegradeLadder || State.Rung == 0 ||
      State.Rung >= RungInterpreterOnly)
    return;
  if (State.InFlight || State.DoNotCompile || CompilationInProgress)
    return;
  ++State.Hotness;
  if (State.Hotness < State.NextAttemptAt)
    return; // Not re-heated enough yet.
  ++Stats.LadderUpgradeAttempts;
  requestCompile(Symbol, State, static_cast<int>(State.Rung) - 1);
}

void JitRuntime::requestCompile(std::string_view Symbol, MethodState &State,
                                int UpgradeToRung) {
  const bool Upgrade = UpgradeToRung >= 0;
  const unsigned Rung =
      Upgrade ? static_cast<unsigned>(UpgradeToRung) : State.Rung;
  if (Config.Mode == JitMode::Sync || !Queue) {
    ++Stats.CompileRequests;
    CompileTask Task;
    Task.Symbol = std::string(Symbol);
    Task.Rung = Rung;
    Task.Upgrade = Upgrade;
    Task.Cancel = makeCompileToken(Symbol, State);
    compileOnMutator(Task);
    return;
  }

  CompileTask Task;
  Task.Symbol = std::string(Symbol);
  Task.Hotness = State.Hotness;
  Task.Rung = Rung;
  Task.Upgrade = Upgrade;
  Task.Cancel = makeCompileToken(Symbol, State);
  // Snapshot the live profiles (and both blacklists): the worker sees
  // exactly the state a synchronous compile at this threshold crossing
  // would have seen — the deterministic-mode bit-identity guarantee
  // extends to speculation and pruning decisions.
  Task.ProfilesSnapshot = Profiles;
  Task.BlacklistSnapshot = Blacklist;
  Task.PruneBlacklistSnapshot = PruneBlacklist;
  Task.ForceColdBranch = Config.ForceColdBranch;

  CompileQueue::Outcome Enq = Queue->tryEnqueue(std::move(Task));
  if (Enq != CompileQueue::Outcome::Enqueued) {
    // Backpressure: stay interpreted and retry once the method has warmed
    // further, instead of re-snapshotting profiles every invocation.
    if (Enq == CompileQueue::Outcome::Full)
      ++Stats.QueueFullRejections;
    State.NextAttemptAt = State.Hotness + 1 + Config.CompileThreshold / 4;
    return;
  }
  ++Stats.CompileRequests;
  State.InFlight = true;
  // Pinned while in flight: the symbol's installed entries (if any) cannot
  // be budget-eviction victims until the outcome publishes.
  Code.pin(Symbol);

  if (Config.Mode == JitMode::Deterministic) {
    // The enqueue is the safepoint: block until the worker finishes and
    // install in enqueue order, exactly where Sync mode would have
    // compiled.
    StallTimer Stall(Stats.MutatorStallNanos);
    publishBatch(Pool->waitUntilDrained());
  }
}

const ir::Function *JitRuntime::onOsrEdge(std::string_view Method,
                                          const ir::BasicBlock &From,
                                          const ir::BasicBlock &To) {
  if (!Config.Enabled || !Config.Osr)
    return nullptr;
  const opt::OsrPlan &Plan = osrPlanFor(Method);
  unsigned Header = Plan.headerForEdge(From.id(), To.id());
  if (Header == opt::OsrPlan::NoHeader)
    return nullptr;
  // Backedge profiling lives in the ordinary profile table: snapshots taken
  // at enqueue time carry it to workers like every other profile. The
  // counter's address is memoized for the (method, header) pair polled last
  // — loops re-poll the same pair on every iteration — and revalidated
  // against the decay epoch (decay erases zeroed entries; eviction only
  // zeroes counters in place, so the pointer survives it).
  if (!OsrMemoCount || OsrMemoHeader != Header ||
      OsrMemoEpoch != Profiles.decayEpoch() || OsrMemoMethod != Method) {
    OsrMemoMethod = std::string(Method);
    OsrMemoHeader = Header;
    OsrMemoEpoch = Profiles.decayEpoch();
    OsrMemoCount = &Profiles.methodProfile(Method).Backedges[Header];
  }
  uint64_t Count = ++*OsrMemoCount;

  OsrState &State = OsrStates[{std::string(Method), Header}];
  if (!State.Compiled && !State.InFlight && !State.DoNotCompile &&
      !CompilationInProgress) {
    uint64_t Threshold = State.NextAttemptAt != 0 ? State.NextAttemptAt
                                                  : Config.OsrBackedgeThreshold;
    bool Forced =
        Config.ForceOsrEntry && Config.ForceOsrEntry(Method, Header, Count);
    if (Forced || Count >= Threshold)
      requestOsrCompile(Method, Header, State, Count);
  }

  // Entry only at the credited header itself: an irreducible retreating
  // edge heats its enclosing natural header but never transfers at its own
  // target, where the live frame is not the loop-entry frame.
  if (To.id() != Header)
    return nullptr;
  const ir::Function *Variant = Code.lookupOsr(Method, Header);
  if (!Variant)
    return nullptr;
  ++Stats.OsrEntries;
  return Variant;
}

void JitRuntime::requestOsrCompile(std::string_view Symbol,
                                   unsigned HeaderBlockId, OsrState &State,
                                   uint64_t BackedgeCount) {
  if (Config.Mode == JitMode::Sync || !Queue) {
    ++Stats.OsrCompileRequests;
    CompileTask Task;
    Task.Symbol = std::string(Symbol);
    Task.TaskKind = CompileTask::Kind::Osr;
    Task.OsrHeaderBlockId = HeaderBlockId;
    Task.Rung = State.Rung;
    Task.Cancel = makeCompileToken(Symbol, State);
    compileOnMutator(Task);
    return;
  }

  CompileTask Task;
  Task.Symbol = std::string(Symbol);
  Task.TaskKind = CompileTask::Kind::Osr;
  Task.OsrHeaderBlockId = HeaderBlockId;
  Task.Hotness = BackedgeCount;
  Task.Rung = State.Rung;
  Task.Cancel = makeCompileToken(Symbol, State);
  Task.ProfilesSnapshot = Profiles;
  Task.BlacklistSnapshot = Blacklist;
  Task.PruneBlacklistSnapshot = PruneBlacklist;
  Task.ForceColdBranch = Config.ForceColdBranch;

  CompileQueue::Outcome Enq = Queue->tryEnqueue(std::move(Task));
  if (Enq != CompileQueue::Outcome::Enqueued) {
    if (Enq == CompileQueue::Outcome::Full)
      ++Stats.QueueFullRejections;
    State.NextAttemptAt = BackedgeCount + 1 + Config.OsrBackedgeThreshold / 4;
    return;
  }
  ++Stats.OsrCompileRequests;
  State.InFlight = true;
  Code.pin(Symbol);

  if (Config.Mode == JitMode::Deterministic) {
    // Same blocking-drain safepoint as method tasks: the variant installs
    // at the exact backedge crossing a sync-mode compile would have used,
    // which is what keeps the compile stream bit-identical to Sync.
    StallTimer Stall(Stats.MutatorStallNanos);
    publishBatch(Pool->waitUntilDrained());
  }
}

void JitRuntime::compileOnMutator(const CompileTask &TaskShape) {
  const ir::Function *Source = M.function(TaskShape.Symbol);
  if (!Source)
    return;
  StallTimer Stall(Stats.MutatorStallNanos);
  CompileInProgressGuard Guard(CompilationInProgress);
  // Same pin discipline as the queue path; publishOutcome unpins.
  Code.pin(TaskShape.Symbol);

  CompileOutcome Outcome;
  Outcome.Task.Symbol = TaskShape.Symbol;
  Outcome.Task.TaskKind = TaskShape.TaskKind;
  Outcome.Task.OsrHeaderBlockId = TaskShape.OsrHeaderBlockId;
  Outcome.Task.Rung = TaskShape.Rung;
  Outcome.Task.Upgrade = TaskShape.Upgrade;
  Outcome.Task.Cancel = TaskShape.Cancel;

  std::unique_ptr<ir::Function> Skeleton;
  if (TaskShape.TaskKind == CompileTask::Kind::Osr) {
    Skeleton = opt::buildOsrVariant(*Source, TaskShape.OsrHeaderBlockId);
    if (!Skeleton) {
      Outcome.Error = "osr header unavailable";
      publishOutcome(std::move(Outcome));
      return;
    }
    Source = Skeleton.get();
  }

  // Mutator compiles read the live blacklists — at this point they equal
  // any snapshot a deterministic-mode enqueue would have taken here.
  opt::PassContext Ctx = TheCompiler.passContext();
  Ctx.Blacklist = &Blacklist;
  Ctx.PruneBlacklist = &PruneBlacklist;
  Ctx.ForceColdBranch = Config.ForceColdBranch;
  Ctx.Cancel = TaskShape.Cancel.get();
  Ctx.DegradeRung = TaskShape.Rung;
  try {
    Outcome.Code =
        TheCompiler.compile(*Source, M, Profiles, Outcome.Stats, Ctx);
  } catch (const support::DeadlineExceeded &E) {
    Outcome.Code = nullptr;
    Outcome.Error = E.what();
    Outcome.Exception = true;
    Outcome.Class = CompileOutcome::BailoutClass::Deadline;
  } catch (const support::ResourceExhausted &E) {
    Outcome.Code = nullptr;
    Outcome.Error = E.what();
    Outcome.Exception = true;
    Outcome.Class = CompileOutcome::BailoutClass::Resource;
  } catch (const std::bad_alloc &) {
    Outcome.Code = nullptr;
    Outcome.Error = "out of memory during compilation";
    Outcome.Exception = true;
    Outcome.Class = CompileOutcome::BailoutClass::Resource;
  } catch (const std::exception &E) {
    Outcome.Code = nullptr;
    Outcome.Error = E.what();
    Outcome.Exception = true;
  } catch (...) {
    Outcome.Code = nullptr;
    Outcome.Error = "unknown compiler exception";
    Outcome.Exception = true;
  }
  publishOutcome(std::move(Outcome));
}

void JitRuntime::publishBatch(std::vector<CompileOutcome> Batch) {
  for (CompileOutcome &Outcome : Batch) {
    ++ConsumedOutcomes;
    publishOutcome(std::move(Outcome));
  }
}

void JitRuntime::publishOutcome(CompileOutcome &&Outcome) {
  // The request pinned the symbol (enqueue or mutator-compile start); the
  // outcome — whatever it is — ends the flight.
  Code.unpin(Outcome.Task.Symbol);

  const bool IsOsr = Outcome.Task.TaskKind == CompileTask::Kind::Osr;
  TierState &State =
      IsOsr ? OsrStates[{Outcome.Task.Symbol, Outcome.Task.OsrHeaderBlockId}]
            : stateOf(Outcome.Task.Symbol);
  State.InFlight = false;

  // Backoff base: the anchor's live trigger counter — hotness for method
  // anchors, the current backedge count for OSR anchors.
  uint64_t TriggerCount = State.Hotness;
  uint64_t FallbackThreshold = Config.CompileThreshold;
  if (IsOsr) {
    FallbackThreshold = Config.OsrBackedgeThreshold;
    TriggerCount = 0;
    if (const profile::MethodProfile *P = Profiles.find(Outcome.Task.Symbol)) {
      auto It = P->Backedges.find(Outcome.Task.OsrHeaderBlockId);
      if (It != P->Backedges.end())
        TriggerCount = It->second;
    }
  }

  // Cancelled outcomes are neutral: the work was retired mid-flight (deopt
  // invalidation, eviction, shutdown), so whatever the worker produced —
  // even valid code against the stale snapshot — is discarded without a
  // strike. The anchor is typically still hot and the cancel cause wants a
  // fresh compile: retry at the next trigger.
  if (Outcome.Cancelled) {
    ++Stats.CompilesCancelled;
    if (!State.Compiled)
      State.NextAttemptAt = TriggerCount + 1;
    return;
  }

  // A re-heated ladder upgrade replaces the anchor's installed degraded
  // body instead of being discarded as stale (DESIGN.md §14).
  const bool IsUpgrade = !IsOsr && Outcome.Task.Upgrade && State.Compiled &&
                         Outcome.Task.Rung < State.Rung;
  if (State.Compiled && !IsUpgrade) {
    // Code for this anchor was already installed (e.g. a forced compileNow
    // while the task was in flight). Overwriting the cache entry would
    // destroy a Function the interpreter may be executing; record the
    // stale outcome and discard it.
    ++Stats.StaleOutcomesDiscarded;
    return;
  }
  const bool IsDeadline =
      Outcome.Class == CompileOutcome::BailoutClass::Deadline;
  const bool Supervision =
      Outcome.Class != CompileOutcome::BailoutClass::None;
  if (!Outcome.Code) {
    if (IsUpgrade) {
      // The upgrade attempt failed; the installed degraded code keeps
      // serving. No strike, no rung change — just push the next retry out.
      ++Stats.Bailouts;
      if (Supervision)
        ++(IsDeadline ? Stats.DeadlineBailouts : Stats.ResourceBailouts);
      applyBackoff(State, TriggerCount, FallbackThreshold, !IsOsr);
      return;
    }
    if (Supervision && Config.DegradeLadder) {
      stepDownLadder(State, TriggerCount, FallbackThreshold, !IsOsr,
                     IsDeadline);
      return;
    }
    if (Supervision)
      ++(IsDeadline ? Stats.DeadlineBailouts : Stats.ResourceBailouts);
    recordBailout(State, TriggerCount, FallbackThreshold, !IsOsr,
                  Outcome.Exception, /*Permanent=*/false);
    return;
  }
  // Verify unconditionally — never behind assert/NDEBUG: installing
  // unverified code in a Release build is how miscompiles escape. Invalid
  // code is a (permanent) bailout; the method stays interpreted. Frame
  // states get the same treatment: compiled functions are not module
  // members, so verifyModule never sees them — this is the only gate
  // between a dangling deopt recipe and the interpreter. OSR variants add
  // the entry-descriptor contract: descriptors must resolve against the
  // baseline at the anchored header, or the interpreter's frame transfer
  // would read values the interpreted frame does not hold.
  if (!ir::verifyFunction(*Outcome.Code).empty() ||
      !ir::verifyFrameStates(*Outcome.Code, M).empty() ||
      (IsOsr && !ir::verifyOsrEntries(*Outcome.Code, M).empty())) {
    ++Stats.VerifyFailures;
    if (IsUpgrade) {
      // Broken upgrade body: keep the working degraded code. No strike —
      // the anchor's installed code is fine, only the retry is deferred.
      ++Stats.Bailouts;
      applyBackoff(State, TriggerCount, FallbackThreshold, !IsOsr);
      return;
    }
    recordBailout(State, TriggerCount, FallbackThreshold, !IsOsr,
                  /*WasException=*/false, /*Permanent=*/true);
    return;
  }

  CompilationRecord Record;
  Record.Symbol = IsOsr ? Outcome.Task.dedupKey() // "method@osr<header>".
                        : Outcome.Task.Symbol;
  Record.Stats = Outcome.Stats;
  Record.Stats.CodeSize = Outcome.Code->instructionCount();
  Record.CompileIndex = Compilations.size();
  Record.Attempt = State.FailedAttempts + 1;
  Record.IRFingerprint =
      fnv1a(ir::printFunction(*Outcome.Code), FnvShortBasis);
  Record.Rung = Outcome.Task.Rung;

  // Install through the budgeted code cache. The record joins the compile
  // stream only when the code actually lands: a budget rejection is a
  // bailout, not a compilation.
  std::string Symbol = Outcome.Task.Symbol;
  if (IsUpgrade) {
    // Replace the degraded body: retire it (and any OSR variants compiled
    // alongside it — they embed the same degraded assumptions) through the
    // eviction path, then install the better body below.
    std::vector<CodeCache::Key> Retired = Code.evict(Symbol);
    for (const CodeCache::Key &K : Retired)
      if (!K.isMethod()) {
        OsrState &OS = OsrStates[{K.Symbol, K.Header}];
        OS.Compiled = false;
        OS.NextAttemptAt = 0;
        Profiles.methodProfile(K.Symbol).Backedges[K.Header] = 0;
      }
    if (Code.installedMethod(Symbol)) {
      // A concurrent pin (e.g. an in-flight OSR task of this symbol)
      // blocked the retire; keep the old body and retry the upgrade later.
      ++Stats.Bailouts;
      applyBackoff(State, TriggerCount, FallbackThreshold, !IsOsr);
      return;
    }
    State.Compiled = false;
  }
  CodeCache::InstallOutcome Install =
      IsOsr ? Code.installOsr(Symbol, Outcome.Task.OsrHeaderBlockId,
                              std::move(Outcome.Code))
            : Code.installMethod(Symbol, std::move(Outcome.Code));
  // Budget eviction made room by retiring someone else's code: reset the
  // victims' tier state so they re-warm honestly. Before the status
  // checks: eviction is transactional (a rejected install retires nobody,
  // so Evicted is empty on the rejection paths), but any victim that *was*
  // retired must re-warm regardless of what happened to the install.
  noteEvicted(Install.Evicted);
  if (Install.Status == CodeCache::InstallStatus::RejectedTooBig) {
    if (IsUpgrade) {
      // The upgraded body outgrew the budget the degraded one fit in. The
      // old body is already retired (the method re-warms), but a bigger
      // body is a property of this rung, not of the method: back off
      // without a strike and let the degraded rung re-install.
      ++Stats.Bailouts;
      applyBackoff(State, TriggerCount, FallbackThreshold, !IsOsr);
      return;
    }
    // The body alone exceeds the whole budget; no amount of eviction or
    // re-warming changes that. Permanent: stay interpreted.
    recordBailout(State, TriggerCount, FallbackThreshold, !IsOsr,
                  /*WasException=*/false, /*Permanent=*/true);
    return;
  }
  if (Install.Status == CodeCache::InstallStatus::RejectedPinned) {
    // Transient: the unpinned residents cannot free enough room while
    // in-flight compilations hold their pins. Not a compile failure —
    // back off and retry once the flights land, WITHOUT a FailedAttempts
    // strike: pin contention says nothing about this method's
    // compilability, and MaxCompileAttempts strikes would blacklist a hot
    // method forever under sustained budget thrash.
    ++Stats.Bailouts;
    applyBackoff(State, TriggerCount, FallbackThreshold, !IsOsr);
    return;
  }

  Stats.GuardsEmitted += Record.Stats.GuardsEmitted;
  Stats.BranchesPruned += Record.Stats.BranchesPruned;
  Compilations.push_back(std::move(Record));
  State.Compiled = true;
  if (!IsOsr) {
    if (IsUpgrade)
      ++Stats.LadderUpgrades;
    State.Rung = Outcome.Task.Rung;
    if (State.Rung != 0 && State.Rung < RungInterpreterOnly &&
        Config.DegradeLadder) {
      // Degraded code is serving; schedule the re-heat distance the anchor
      // must cover before the next upgrade attempt (maybeRequestUpgrade
      // compares Hotness against this on every invocation of the compiled
      // body).
      uint64_t Factor = Config.BailoutBackoffFactor > 1
                            ? Config.BailoutBackoffFactor
                            : 2;
      uint64_t Threshold =
          Config.CompileThreshold != 0 ? Config.CompileThreshold : 1;
      State.NextAttemptAt = State.Hotness + Threshold * Factor;
    }
  }
  if (!IsOsr && State.DeoptPending) {
    State.DeoptPending = false;
    ++Stats.RecompilesAfterDeopt;
  }
}

void JitRuntime::recordBailout(TierState &State, uint64_t TriggerCount,
                               uint64_t FallbackThreshold, bool IsMethodAnchor,
                               bool WasException, bool Permanent) {
  ++Stats.Bailouts;
  if (WasException)
    ++Stats.CompileExceptions;
  ++State.FailedAttempts;
  if (Permanent || State.FailedAttempts >= Config.MaxCompileAttempts) {
    if (!State.DoNotCompile) {
      State.DoNotCompile = true;
      if (IsMethodAnchor)
        ++Stats.BlacklistedMethods;
    }
    return;
  }
  applyBackoff(State, TriggerCount, FallbackThreshold, IsMethodAnchor);
}

void JitRuntime::applyBackoff(TierState &State, uint64_t TriggerCount,
                              uint64_t FallbackThreshold,
                              bool IsMethodAnchor) {
  // Exponential backoff: the anchor must earn its next attempt instead of
  // re-running the pipeline on every subsequent trigger.
  uint64_t Base = State.NextAttemptAt > TriggerCount ? State.NextAttemptAt
                                                     : TriggerCount;
  if (Base == 0 && !IsMethodAnchor)
    Base = FallbackThreshold != 0 ? FallbackThreshold : 1;
  uint64_t Factor = Config.BailoutBackoffFactor > 1
                        ? Config.BailoutBackoffFactor
                        : 2;
  State.NextAttemptAt = Base * Factor;
}

void JitRuntime::stepDownLadder(TierState &State, uint64_t TriggerCount,
                                uint64_t FallbackThreshold,
                                bool IsMethodAnchor, bool IsDeadline) {
  // A deadline or resource bailout is a property of the *rung*, not of the
  // method: the fix is a cheaper compilation, not a blacklist strike
  // (DESIGN.md §14). Step down one rung and retry after backoff; only the
  // bottom rung gives up on compilation — and even that is an explicit
  // interpreter-only decision, not a blacklist entry.
  ++Stats.Bailouts;
  ++(IsDeadline ? Stats.DeadlineBailouts : Stats.ResourceBailouts);
  ++Stats.LadderStepDowns;
  ++State.Rung;
  if (State.Rung >= RungInterpreterOnly) {
    State.DoNotCompile = true;
    ++Stats.LadderInterpreterOnly;
    return;
  }
  applyBackoff(State, TriggerCount, FallbackThreshold, IsMethodAnchor);
}

void JitRuntime::cancelInFlight(std::string_view Symbol) {
  if (!Pool)
    return;
  // Still-queued tasks come back removed; account their flights over here
  // (unpin + InFlight reset) since no outcome will ever arrive for them.
  // Tasks a worker already picked up keep flying: their tokens got a
  // cancel request and their outcomes arrive marked Cancelled, which
  // publishOutcome discards neutrally.
  for (const CompileTask &T : Pool->cancelTasksFor(Symbol)) {
    ++Stats.CompilesCancelled;
    Code.unpin(T.Symbol);
    TierState &State = T.TaskKind == CompileTask::Kind::Osr
                           ? static_cast<TierState &>(
                                 OsrStates[{T.Symbol, T.OsrHeaderBlockId}])
                           : stateOf(T.Symbol);
    State.InFlight = false;
  }
}

void JitRuntime::onDeopt(std::string_view Method,
                         const ir::DeoptInst &Deopt) {
  const ir::FrameState &FS = Deopt.frameState();
  if (Deopt.isColdBranch()) {
    // An uncommon trap fired: the profile lied about the branch being
    // cold, nothing more. This is *not* a guard failure — no speculation
    // failure counter, no MaxSpeculationFailures ladder. The prune is
    // retired immediately (keyed by the cold target's baseline block id):
    // unlike a speculation guard, keeping the branch costs nothing, so one
    // trap is all the evidence needed. The recompile below re-reads the
    // re-profiled branch through the grown blacklist and converges to an
    // unpruned body.
    ++Stats.ColdBranchDeopts;
    if (!PruneBlacklist.contains(Method, FS.BaselineBlockId)) {
      PruneBlacklist.add(Method, FS.BaselineBlockId);
      ++Stats.PrunesBlacklisted;
      // The prune blacklist feeds future compilations; memoized compile
      // work from before this entry existed must not be replayed.
      if (CompileCache *Cache = TheCompiler.compileCache())
        Cache->invalidateForRuntimeEvent();
    }
    invalidate(Method);
    return;
  }
  ++Stats.GuardFailures;
  // Track the failed speculation per (method, baseline callsite). At the
  // cap, blacklist it: the recompile below (and every later one) leaves
  // the site as a plain virtual call, so the method converges to a
  // guard-free body instead of deopt-looping on a lying profile.
  unsigned &Failures =
      SpeculationFailures[{std::string(Method), FS.ResumePoint}];
  ++Failures;
  if (Failures >= Config.MaxSpeculationFailures &&
      !Blacklist.contains(Method, FS.ResumePoint)) {
    Blacklist.add(Method, FS.ResumePoint);
    ++Stats.SpeculationsBlacklisted;
    // The blacklist feeds future compilations; memoized compile work from
    // before this entry existed must not be replayed.
    if (CompileCache *Cache = TheCompiler.compileCache())
      Cache->invalidateForRuntimeEvent();
  }
  invalidate(Method);
}

void JitRuntime::invalidate(std::string_view Symbol) {
  // Retire, never destroy: the deoptimizing interpreter frames up the C++
  // stack are still executing this Function. Publication stays write-once
  // (PR 3's idempotence rules): the code cache moves the entries to its
  // graveyard and bumps the epoch; nothing ever mutates an installed body
  // in place. OSR variants of the method embed the same failed speculation
  // (compiled from the same baseline against the same profiles), so a
  // deopt retires them alongside the method body — including when the
  // deopt came *from* an OSR body of a never-method-compiled method.
  std::vector<CodeCache::Key> Retired = Code.invalidate(Symbol);
  if (Retired.empty())
    return; // Already invalidated (e.g. repeated deopts of retired code).

  // Cooperative cancellation: any in-flight compile of this symbol is
  // building against assumptions this invalidation just broke. Queued
  // tasks are removed outright; running workers abandon at their next
  // checkpoint and their outcomes are discarded as Cancelled.
  cancelInFlight(Symbol);

  bool RetiredMethod = false;
  for (const CodeCache::Key &K : Retired) {
    if (K.isMethod())
      RetiredMethod = true;
    else
      // The loop is still hot; the next backedge crossing re-requests
      // against the updated blacklist.
      OsrStates[{K.Symbol, K.Header}].Compiled = false;
  }
  // Code-epoch bump: flush memoized compile work along with the code.
  if (CompileCache *Cache = TheCompiler.compileCache())
    Cache->invalidateForRuntimeEvent();
  if (!RetiredMethod)
    return; // OSR-only retire: nothing method-level to recompile.

  MethodState &State = stateOf(Symbol);
  State.Compiled = false;
  State.DeoptPending = true;
  // The method is still hot — request the recompile immediately rather
  // than re-warming from zero. If an async task is already in flight its
  // outcome will install normally (State.Compiled is false again); a
  // pre-invalidation snapshot may re-speculate once, after which the
  // failure counter above retires the speculation for good.
  if (!State.InFlight && !State.DoNotCompile && !CompilationInProgress)
    requestCompile(Symbol, State);
}

void JitRuntime::noteEvicted(const std::vector<CodeCache::Key> &Evicted) {
  // Eviction is a resource decision, not a correctness event: nothing is
  // blacklisted, no recompile is requested, and the compiler's memoization
  // cache is untouched (no assumption changed — which is exactly what
  // makes the evict -> reheat -> recompile round trip cheap). The victims
  // simply fall back to the interpreter and re-warm from zero.
  for (const CodeCache::Key &K : Evicted) {
    if (K.isMethod()) {
      MethodState &State = stateOf(K.Symbol);
      State.Compiled = false;
      State.Hotness = 0;
      State.NextAttemptAt = Config.CompileThreshold;
    } else {
      OsrState &State = OsrStates[{K.Symbol, K.Header}];
      State.Compiled = false;
      State.NextAttemptAt = 0;
      // Restart the loop's trigger counter too: the variant must earn its
      // reinstall with fresh backedges, not with the stale count that got
      // it evicted.
      Profiles.methodProfile(K.Symbol).Backedges[K.Header] = 0;
    }
  }
}

void JitRuntime::evictNow(std::string_view Symbol) {
  // Eviction respects pins, so a symbol with a compile in flight normally
  // cannot be evicted — but cancel defensively anyway: if anything *was*
  // retired while work was queued or flying, that work is for a body the
  // runtime just decided not to keep.
  std::vector<CodeCache::Key> Evicted = Code.evict(Symbol);
  if (!Evicted.empty())
    cancelInFlight(Symbol);
  noteEvicted(Evicted);
}

void JitRuntime::drainCompilations() {
  if (!Pool)
    return;
  StallTimer Stall(Stats.MutatorStallNanos);
  publishBatch(Pool->waitUntilDrained());
}

void JitRuntime::compileNow(std::string_view Symbol) {
  if (Code.installedMethod(Symbol))
    return;
  // Refuse while a background compile of the same symbol is in flight:
  // compiling here as well would race two publications of one method
  // (the worker's later outcome is dropped as stale, but the forced
  // compile would double-count work the caller did not ask for).
  MethodState &State = stateOf(Symbol);
  if (State.InFlight)
    return;
  CompileTask Task;
  Task.Symbol = std::string(Symbol);
  Task.Rung = State.Rung; // A degraded anchor stays degraded when forced.
  Task.Cancel = makeCompileToken(Symbol, State);
  compileOnMutator(Task);
}

const ir::Function *
JitRuntime::installedOsrVariant(std::string_view Method,
                                unsigned HeaderBlockId) const {
  return Code.installedOsr(Method, HeaderBlockId);
}

interp::ExecResult JitRuntime::runMain() {
  return run("main");
}

interp::ExecResult JitRuntime::runMain(const interp::ExecLimits &Limits) {
  return run("main", {}, Limits);
}

interp::ExecResult JitRuntime::run(std::string_view Symbol,
                                   const std::vector<interp::RtValue> &Args,
                                   const interp::ExecLimits &Limits) {
  interp::Interpreter Interp(M, *this, interp::CostModel(), Limits,
                             Config.Interp, &DecodedBodies);
  return Interp.run(Symbol, Args);
}

uint64_t JitRuntime::installedCodeSize() const {
  // Method bodies only, by design: OSR variants share the method's working
  // set, and the i-cache pressure term predates them (continuity of the
  // harness's effective-cycle numbers).
  return Code.methodBytes();
}

double JitRuntime::effectiveCycles(const interp::ExecResult &R) const {
  double Pressure = interp::CostModel::icachePressure(installedCodeSize());
  return static_cast<double>(R.InterpretedCycles) +
         static_cast<double>(R.CompiledCycles) * Pressure;
}
