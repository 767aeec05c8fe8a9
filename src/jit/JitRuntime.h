//===- jit/JitRuntime.h - Tiered execution runtime -------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM substitute: methods start in the profiling interpreter; when a
/// method's invocation count crosses the compile threshold a compilation is
/// requested — the online compilation stream of §II's problem statement.
/// How the request is served is the execution mode:
///
///  * `Sync` — compiled at the invocation, on the mutator, stalling it for
///    the full pipeline (the original behaviour; still the default).
///  * `Async` — enqueued on a bounded hotness-priority CompileQueue and
///    compiled by a CompileWorkerPool while the mutator keeps executing
///    the method interpreted; finished code is published into the code
///    cache at safepoints (function entries and block transitions). This
///    is how HotSpot and Graal actually run.
///  * `Deterministic` — same queue and worker threads, but the mutator
///    blocks at the enqueue safepoint until the task is compiled and
///    installed, in enqueue order. Because every compile sees exactly the
///    profile state a synchronous compile would have seen, the
///    `compilations()` stream and the program output are bit-identical to
///    Sync mode — the replay mode bench figures and differential tests
///    rely on.
///
/// Methods whose compilation bails out (compiler declined, threw, or
/// produced code that fails IR verification) stay interpreted and back off
/// exponentially; repeated failure blacklists the method (do-not-compile)
/// instead of re-running the pipeline on every invocation.
///
/// The runtime tracks installed code size; the benchmark harness combines
/// it with the cost model's i-cache pressure term to produce effective
/// cycles, reproducing the paper's code-size/performance trade-off.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_JIT_JITRUNTIME_H
#define INCLINE_JIT_JITRUNTIME_H

#include "interp/DecodedBody.h"
#include "interp/Interpreter.h"
#include "jit/CodeCache.h"
#include "jit/Compiler.h"
#include "opt/OsrPlan.h"
#include "opt/SpeculativeDevirt.h"
#include "profile/ProfileData.h"
#include "support/Cancellation.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace incline::jit {

class CompileQueue;
class CompileWorkerPool;
struct CompileOutcome;
struct CompileTask;

/// How compile requests are served (see file comment).
enum class JitMode : uint8_t { Sync, Async, Deterministic };

std::string_view jitModeName(JitMode Mode);

/// The graceful-degradation ladder (DESIGN.md §14). A deadline or resource
/// bailout steps the anchor down one rung — each rung compiles with less
/// ambition, so the next attempt is cheaper — instead of striking toward
/// the blacklist. A stable install at a lower rung may retry one rung up
/// after re-heating.
enum LadderRung : unsigned {
  RungFull = 0,           ///< Full optimization (speculation + inlining).
  RungNoSpeculation = 1,  ///< Speculative devirtualization disabled.
  RungNoInlining = 2,     ///< Baseline: no inlining, scalar opts only.
  RungInterpreterOnly = 3 ///< Give up compiling; stay interpreted.
};

/// Tiering configuration.
struct JitConfig {
  /// Invocations of a method before compilation is requested.
  uint64_t CompileThreshold = 50;
  /// Master switch (off = pure interpretation).
  bool Enabled = true;
  /// How compile requests are served.
  JitMode Mode = JitMode::Sync;
  /// Compile worker threads (Async/Deterministic; clamped to >= 1).
  unsigned Threads = 1;
  /// Bound of the compile queue; a full queue rejects requests
  /// (backpressure) and the mutator retries later.
  size_t QueueCapacity = 64;
  /// After a bailout the re-try threshold multiplies by this factor
  /// (exponential backoff).
  uint64_t BailoutBackoffFactor = 8;
  /// Failed attempts before a method is blacklisted (do-not-compile).
  unsigned MaxCompileAttempts = 3;
  /// Guard failures of one speculation (method + callsite) before it is
  /// blacklisted and the recompile leaves the site as a virtual call, so a
  /// lying profile converges to a guard-free body instead of deopt-looping.
  unsigned MaxSpeculationFailures = 2;
  /// Chaos hook: when set, a guard whose class test passed still takes its
  /// fail edge if this returns true for (method, guard profileId). Failure
  /// is output-neutral by construction (the baseline re-executes the
  /// dispatch), which is exactly what chaos fuzzing asserts.
  std::function<bool(std::string_view, unsigned)> ForceGuardFailure;

  /// Loop-entry on-stack replacement: when on, interpreted bodies report
  /// taken backedges and hot loops tier up mid-frame (see DESIGN.md §11).
  /// Off by default — `Osr = false` must leave every observable (output,
  /// compile stream, stats) exactly as before the feature existed.
  bool Osr = false;
  /// Taken backedges credited to one loop header before an OSR compilation
  /// of that header is requested.
  uint64_t OsrBackedgeThreshold = 100;
  /// Chaos hook: when set, a backedge crossing for (method, header
  /// baseline-block-id, taken-count) that returns true requests the OSR
  /// compilation immediately, ignoring the threshold and backoff. Like
  /// forced guard failures, a forced OSR entry must be output-neutral —
  /// the variant computes exactly what the interpreted loop would have.
  std::function<bool(std::string_view, unsigned, uint64_t)> ForceOsrEntry;

  /// Code-cache |ir| budget covering installed methods AND OSR variants;
  /// 0 = unbounded (the pre-lifecycle behaviour, bit-identical). Installs
  /// that would overflow evict the coldest unpinned entries first (see
  /// CodeCache.h / DESIGN.md §12); evicted methods fall back to the
  /// interpreter, re-warm from zero, and re-tier when hot again.
  uint64_t CodeCacheBudget = 0;
  /// Profile-decay halflife in safepoints; 0 = off (bit-identical to the
  /// pre-decay runtime). Every halflife-many safepoints the runtime halves
  /// all profile counters (invocations, branches, receivers, backedges),
  /// uncompiled hotness, and code-cache heat, then flushes the compiler's
  /// memoization cache — phase changes re-profile and re-speculate instead
  /// of serving stale decisions forever.
  uint64_t ProfileDecayHalflife = 0;
  /// Chaos hook: an invocation of a *compiled* method for which this
  /// returns true forcibly evicts that method (graveyard retire + re-warm),
  /// exercising evict -> reheat -> recompile round trips at schedule-chosen
  /// points. Pinned (in-flight) symbols are left untouched. Like the other
  /// chaos hooks, a forced eviction must be output-neutral: the method just
  /// runs interpreted again until it re-tiers.
  std::function<bool(std::string_view)> ForceEvict;

  /// Which interpreter core executes the frames (fast pre-decoded tables
  /// vs the reference map-frame oracle; see interp/Interpreter.h). Every
  /// observable — output, traps, cycles, profiles, the compile stream's
  /// fingerprint — is identical across cores; only host speed differs.
  interp::InterpOptions Interp;

  // Supervised compilation (DESIGN.md §14): compile deadlines, cooperative
  // cancellation, and the graceful-degradation ladder. With every knob at
  // its default the runtime is bit-identical to the unsupervised one.

  /// Deterministic compile deadline in work units (charged per pass run
  /// from the pass's IR delta — identical across execution modes, so this
  /// clock is legal in `--jit-mode=deterministic`); 0 = off.
  uint64_t CompileDeadlineUnits = 0;
  /// Wall-clock compile deadline in milliseconds; 0 = off. Inherently
  /// nondeterministic — pair with the ladder, not with bit-identity tests.
  uint64_t CompileDeadlineMs = 0;
  /// Per-compile peak IR-node quota (a resource bound, tripping
  /// ResourceExhausted rather than DeadlineExceeded); 0 = off.
  uint64_t CompileNodeQuota = 0;
  /// Graceful-degradation ladder switch: on, deadline/resource bailouts
  /// step the anchor down one rung (Full -> NoSpeculation -> NoInlining ->
  /// InterpreterOnly) with backoff and no blacklist strike; off, they take
  /// the legacy bailout->backoff->blacklist path. Moot while no deadline,
  /// quota, or forced expiry is configured.
  bool DegradeLadder = true;
  /// Chaos hook: when set, a compile request of (symbol, per-anchor attempt
  /// number) for which this returns true gets a token whose work budget is
  /// already as good as spent, so the compile deterministically dies with
  /// DeadlineExceeded at its first checkpoint — driving the ladder at
  /// schedule-chosen points. Output must stay identical (degraded code and
  /// the interpreter compute the same values); the deadline-chaos oracle
  /// stage asserts exactly that.
  std::function<bool(std::string_view, unsigned)> ForceDeadlineExpiry;

  // Cold-branch pruning (DESIGN.md §15). The compile-side thresholds
  // (--cold-prune) live in the inliner's config; the runtime owns the trap
  // recovery and the per-(method, block) prune blacklist.

  /// Chaos hook: when set, the pruning pass prunes the colder side of the
  /// branch at (method, branch profileId) whenever this returns true —
  /// regardless of thresholds, sample counts, or whether pruning is even
  /// enabled. A forced prune of a *hot* edge must be output-neutral: the
  /// trap resumes the baseline exactly where the branch would have gone,
  /// which is what the prune-chaos oracle stage asserts. Must be pure
  /// (compile workers call it concurrently).
  std::function<bool(std::string_view, unsigned)> ForceColdBranch;
};

/// One installed compilation.
struct CompilationRecord {
  std::string Symbol;
  CompileStats Stats;
  uint64_t CompileIndex = 0; ///< Order of arrival in the compile stream.
  unsigned Attempt = 1;      ///< 1 + bailed-out attempts before this one.
  /// Ladder rung the installed code was compiled at (0 = full). Nonzero
  /// rungs are recorded in the stream fingerprint; rung 0 is omitted so
  /// pre-ladder fingerprints stay byte-identical.
  unsigned Rung = 0;
  /// FNV-1a hash of the installed code's printed IR: two streams with equal
  /// fingerprints installed byte-identical code.
  uint64_t IRFingerprint = 0;
};

/// Deterministic textual digest of a compilation stream: everything the
/// compiler decided (order, symbols, sizes, inlining counts, pass runs,
/// analysis cache behaviour, installed-IR hashes) excluding wall time.
/// Equal digests mean bit-identical streams; tests compare Sync vs
/// Deterministic mode with it.
std::string streamFingerprint(const std::vector<CompilationRecord> &Stream);

/// Runtime-wide counters (all mutator-owned).
struct JitRuntimeStats {
  uint64_t CompileRequests = 0;   ///< Threshold crossings that issued a request.
  uint64_t Bailouts = 0;          ///< Requests that did not install code.
  uint64_t CompileExceptions = 0; ///< ... of which the compiler threw.
  uint64_t VerifyFailures = 0;    ///< ... of which IR verification rejected.
  uint64_t BlacklistedMethods = 0; ///< Methods marked do-not-compile.
  uint64_t QueueFullRejections = 0; ///< Requests rejected by backpressure.
  /// Worker outcomes discarded because code for the method was already
  /// installed when they arrived (e.g. compileNow raced an async task).
  uint64_t StaleOutcomesDiscarded = 0;
  /// Wall time the mutator was stalled by compilation: the whole pipeline
  /// in Sync mode, the blocking drain in Deterministic mode, only
  /// verify+publish in Async mode. The quantity bench/compiletime_async
  /// compares across modes.
  uint64_t MutatorStallNanos = 0;

  // Speculative devirtualization / deoptimization (see opt/SpeculativeDevirt
  // and DESIGN.md §9).
  uint64_t GuardsEmitted = 0;   ///< Guards in all installed compilations.
  uint64_t GuardFailures = 0;   ///< Deoptimizations taken (guard fail edges).
  uint64_t Invalidations = 0;   ///< Installed bodies retired after a deopt.
  uint64_t RecompilesAfterDeopt = 0; ///< Successful re-installs post-deopt.
  uint64_t SpeculationsBlacklisted = 0; ///< Sites that hit the failure cap.

  // Loop-entry OSR (see DESIGN.md §11). All zero when Config.Osr is off.
  uint64_t OsrCompileRequests = 0; ///< Threshold/forced OSR compile requests.
  uint64_t OsrInstalls = 0;        ///< OSR variants installed.
  uint64_t OsrEntries = 0;         ///< Frame transfers into OSR code taken.
  uint64_t OsrInvalidations = 0;   ///< OSR variants retired by a deopt.

  // Supervised compilation (see DESIGN.md §14). All zero while no
  // deadline/quota/forced expiry is configured and nothing is cancelled.
  uint64_t DeadlineBailouts = 0;  ///< Compiles killed by a deadline.
  uint64_t ResourceBailouts = 0;  ///< Compiles killed by quota/bad_alloc.
  uint64_t CompilesCancelled = 0; ///< Tasks cancelled (deopt/evict/shutdown).
  uint64_t LadderStepDowns = 0;   ///< Anchor rung decrements taken.
  uint64_t LadderUpgradeAttempts = 0; ///< Re-heated retries one rung up.
  uint64_t LadderUpgrades = 0;        ///< ... of which installed.
  uint64_t LadderInterpreterOnly = 0; ///< Anchors that hit the bottom rung.

  // Cold-branch pruning (DESIGN.md §15). All zero while pruning is off and
  // no prune is forced.
  uint64_t BranchesPruned = 0;    ///< Uncommon traps in installed code.
  uint64_t ColdBranchDeopts = 0;  ///< Pruned branches actually taken.
  uint64_t PrunesBlacklisted = 0; ///< (method, block) prunes retired.
};

/// The tiered runtime. Implements the interpreter's ExecutionEnv: hotness
/// counting on invocation, code-cache lookups on resolution, profile
/// recording for the interpreted tier, compiled-code publication at
/// safepoints.
class JitRuntime : public interp::ExecutionEnv {
public:
  JitRuntime(ir::Module &M, Compiler &TheCompiler,
             JitConfig Config = JitConfig());
  ~JitRuntime() override;

  // ExecutionEnv implementation.
  interp::ResolvedBody resolve(std::string_view Symbol) override;
  void onInvoke(std::string_view Symbol) override;
  void onSafepoint() override;
  profile::ProfileTable *profiles() override { return &Profiles; }
  void onDeopt(std::string_view Method, const ir::DeoptInst &Deopt) override;
  const ir::Function *onOsrEdge(std::string_view Method,
                                const ir::BasicBlock &From,
                                const ir::BasicBlock &To) override;
  bool shouldForceGuardFailure(std::string_view Method,
                               unsigned GuardProfileId) override {
    return Config.ForceGuardFailure &&
           Config.ForceGuardFailure(Method, GuardProfileId);
  }

  /// Runs `main` once under tiered execution. Call repeatedly to simulate
  /// benchmark iterations: hotness and compiled code persist across runs.
  interp::ExecResult runMain();
  /// Same, under explicit execution limits (the fuzzing watchdog budgets
  /// candidate runs against the reference run's step count).
  interp::ExecResult runMain(const interp::ExecLimits &Limits);
  /// Runs an arbitrary entry point once under tiered execution — the
  /// multi-tenant traffic harness drives thousands of per-request handler
  /// invocations through one runtime this way. Tier state (hotness,
  /// compiled code, profiles) persists across calls exactly as it does for
  /// runMain; each call gets a fresh heap.
  interp::ExecResult run(std::string_view Symbol,
                         const std::vector<interp::RtValue> &Args = {},
                         const interp::ExecLimits &Limits =
                             interp::ExecLimits());

  /// Total |ir| of all installed compiled code.
  uint64_t installedCodeSize() const;

  /// Effective cycles of \p R after applying i-cache pressure to its
  /// compiled-tier share (the harness's "wall clock").
  double effectiveCycles(const interp::ExecResult &R) const;

  const std::vector<CompilationRecord> &compilations() const {
    return Compilations;
  }
  const profile::ProfileTable &profileTable() const { return Profiles; }
  /// Runtime counters, returned as a snapshot: the code-lifecycle fields
  /// (installs, invalidations) are counted once, in the code cache, and
  /// merged in here — the historical duplication between runtime-side and
  /// cache-side tallies is gone.
  JitRuntimeStats stats() const;
  /// Lifecycle counters of the code cache (installs, evictions, occupancy,
  /// decay ticks) — the `code-cache` line of minioo --stats.
  const CodeCacheStats &codeCacheStats() const { return Code.stats(); }
  /// The code cache itself (read-only; tests inspect pinning/occupancy).
  const CodeCache &codeCache() const { return Code; }
  /// Mutable access for tests that stage lifecycle states the mutator
  /// cannot reach deterministically (e.g. holding a pin as a still
  /// in-flight compilation would). Production code must go through the
  /// publish/evict paths.
  CodeCache &codeCacheForTest() { return Code; }

  /// Speculations the runtime gave up on (failed >= MaxSpeculationFailures
  /// times); recompiles leave these callsites as virtual calls.
  const opt::SpeculationBlacklist &speculationBlacklist() const {
    return Blacklist;
  }

  /// Cold-branch prunes the runtime gave up on — (method, cold-target
  /// baseline block id) pairs whose uncommon trap fired; recompiles keep
  /// those branches intact.
  const opt::SpeculationBlacklist &pruneBlacklist() const {
    return PruneBlacklist;
  }

  /// The installed OSR variant for (\p Method, baseline header block
  /// \p HeaderBlockId), or null. Test/inspection hook; execution reaches
  /// OSR code only through onOsrEdge.
  const ir::Function *installedOsrVariant(std::string_view Method,
                                          unsigned HeaderBlockId) const;

  /// Monotone counter bumped by every retirement batch (deopt invalidation
  /// or eviction). Installed code is never mutated or destroyed in place —
  /// retiring an entry moves it to the code cache's graveyard and bumps
  /// this epoch, so readers (including the C++ frames of the deoptimizing
  /// interpreter itself) keep a stable view while new resolves see the
  /// interpreted tier again.
  uint64_t codeEpoch() const { return Code.epoch(); }

  /// Blocks until every queued or in-flight background compilation has
  /// been published (or recorded as a bailout). No-op in Sync mode. Useful
  /// for tests and for end-of-run reporting in Async mode.
  void drainCompilations();

  /// Forces a synchronous compilation attempt of \p Symbol now, ignoring
  /// hotness and backoff (used by tests). Bailouts are still recorded.
  /// No-op when the method is already compiled or a background compile of
  /// it is in flight (racing the worker would double-publish one method).
  void compileNow(std::string_view Symbol);

  /// Forcibly evicts \p Symbol's installed code (method body and OSR
  /// variants) through the normal eviction path: graveyard retire, epoch
  /// bump, tier state reset to re-warm from zero. Respects pins — a no-op
  /// while a compilation of the symbol is in flight. Mutator-only (tests
  /// and the ForceEvict chaos hook call it between/at safepoints).
  void evictNow(std::string_view Symbol);

private:
  /// Everything the runtime knows about one compilation anchor's tier
  /// state — the *same* struct serves method anchors (keyed by symbol; one
  /// map lookup per invocation covers the not-yet-compiled fast path) and
  /// OSR anchors (keyed by (method, baseline header block id); the
  /// backedge count in the profile table plays the Hotness role). The
  /// unification is what lets one publish path and one bailout/backoff
  /// path serve both tiers.
  struct TierState {
    /// Invocation count (method anchors); unused for OSR anchors, whose
    /// trigger counter is the profile table's backedge count.
    uint64_t Hotness = 0;
    /// Trigger count at which the next compile attempt fires. For method
    /// anchors stateOf() seeds it with the compile threshold; for OSR
    /// anchors 0 means "the configured backedge threshold applies".
    uint64_t NextAttemptAt = 0;
    unsigned FailedAttempts = 0;
    bool InFlight = false;     ///< Queued or compiling on a worker.
    bool Compiled = false;     ///< Installed in the code cache.
    bool DoNotCompile = false; ///< Blacklisted after repeated failure.
    /// The method deoptimized and its code was invalidated; the next
    /// successful install counts as a recompile-after-deopt. Method
    /// anchors only.
    bool DeoptPending = false;
    /// Graceful-degradation ladder rung the anchor currently compiles at
    /// (LadderRung; 0 = full optimization). Stepped down by deadline and
    /// resource bailouts, stepped back up by a successful re-heated
    /// upgrade. DESIGN.md §14.
    unsigned Rung = 0;
    /// Compile requests ever issued for this anchor — the deterministic
    /// per-anchor attempt number the ForceDeadlineExpiry chaos schedule
    /// keys on.
    unsigned AttemptNo = 0;
  };
  using MethodState = TierState;
  using OsrState = TierState;

  MethodState &stateOf(std::string_view Symbol);
  /// Requests a compilation of \p Symbol. \p UpgradeToRung >= 0 marks a
  /// re-heated ladder upgrade attempt compiling at that (better) rung while
  /// the anchor's current degraded code stays installed; -1 is a normal
  /// request at the anchor's current rung.
  void requestCompile(std::string_view Symbol, MethodState &State,
                      int UpgradeToRung = -1);
  /// Degraded-rung re-heat (DESIGN.md §14): a method stably installed at a
  /// lower rung keeps counting invocations; once re-heated past the pushed
  /// out threshold it retries one rung up. Mutator-only, from onInvoke.
  void maybeRequestUpgrade(std::string_view Symbol, MethodState &State);
  /// Builds the supervision token for one compile attempt of \p State
  /// (consuming its attempt number), honoring the configured deadlines and
  /// the ForceDeadlineExpiry chaos schedule. Null when the compile needs no
  /// supervision (no budgets configured and no background cancellation
  /// possible).
  std::shared_ptr<support::CancellationToken>
  makeCompileToken(std::string_view Symbol, TierState &State);
  /// Cooperatively cancels all of \p Symbol's queued or running compiles
  /// (the work's result is already retired): queued tasks unwind their
  /// flight state here; running tasks surface later as Cancelled outcomes.
  void cancelInFlight(std::string_view Symbol);
  /// The deadline/resource half of the bailout path with the ladder on:
  /// step the anchor down one rung with backoff — no FailedAttempts strike,
  /// no blacklist; the bottom rung retires the anchor to the interpreter.
  void stepDownLadder(TierState &State, uint64_t TriggerCount,
                      uint64_t FallbackThreshold, bool IsMethodAnchor,
                      bool IsDeadline);
  /// Requests the OSR compilation of (\p Symbol, \p HeaderBlockId) per the
  /// configured mode. Mutator-only; called from onOsrEdge.
  void requestOsrCompile(std::string_view Symbol, unsigned HeaderBlockId,
                         OsrState &State, uint64_t BackedgeCount);
  /// One synchronous attempt on the mutator (Sync mode, compileNow, and
  /// OSR requests in Sync mode — OSR tasks carry the header block id).
  void compileOnMutator(const CompileTask &TaskShape);
  /// Verifies, installs or records a bailout — the single publish point
  /// into the code cache, serving method and OSR outcomes alike.
  /// Mutator-only.
  void publishOutcome(CompileOutcome &&Outcome);
  void publishBatch(std::vector<CompileOutcome> Batch);
  /// Shared bailout/backoff bookkeeping. \p TriggerCount is the anchor's
  /// current trigger counter (hotness / backedge count) and
  /// \p FallbackThreshold its configured threshold (used when no backoff
  /// base exists yet); \p IsMethodAnchor gates the method-blacklist
  /// counter.
  void recordBailout(TierState &State, uint64_t TriggerCount,
                     uint64_t FallbackThreshold, bool IsMethodAnchor,
                     bool WasException, bool Permanent);
  /// Backoff without a FailedAttempts strike: pushes NextAttemptAt out
  /// exponentially so the anchor earns its next attempt. recordBailout's
  /// non-permanent tail, also used directly for transient pin-contention
  /// rejections, which must never count toward the blacklist.
  void applyBackoff(TierState &State, uint64_t TriggerCount,
                    uint64_t FallbackThreshold, bool IsMethodAnchor);
  /// Backedge-credit plan for \p Symbol's baseline, computed on first use.
  /// The module is immutable at runtime, so the plan never goes stale.
  const opt::OsrPlan &osrPlanFor(std::string_view Symbol);
  /// Retires \p Symbol's installed code (graveyard, epoch bump) and
  /// requests a recompile. Mutator-only; called from onDeopt, which runs at
  /// the deoptimization point — a safepoint by definition (the interpreter
  /// is between instructions, no publication is concurrent).
  void invalidate(std::string_view Symbol);
  /// Resets tier state for entries the code cache retired by *eviction*
  /// (budget pressure or the chaos hook): evicted methods re-warm from
  /// zero, evicted OSR anchors restart their backedge count — eviction is
  /// a resource decision, not a correctness event, so unlike invalidate()
  /// nothing is blacklisted, no recompile is requested, and the compile
  /// cache is not flushed.
  void noteEvicted(const std::vector<CodeCache::Key> &Evicted);
  /// One profile-decay tick (see JitConfig::ProfileDecayHalflife):
  /// exponentially decays profiles, uncompiled hotness, and code-cache
  /// heat, then flushes the compiler's memoization cache.
  void applyProfileDecay();

  ir::Module &M;
  Compiler &TheCompiler;
  JitConfig Config;
  profile::ProfileTable Profiles;

  std::map<std::string, MethodState, std::less<>> Methods;
  /// Installed code, graveyard, epoch, and occupancy accounting — the
  /// code-lifecycle owner (see CodeCache.h).
  CodeCache Code;

  /// Pre-decoded bodies shared across every run() of this runtime, so a
  /// function is decoded once per lifetime, not once per request. Keyed by
  /// Function::uniqueId(); the code-cache graveyard keeps retired functions
  /// alive until runtime destruction, so entries never dangle. Mutator-only,
  /// like all tier state.
  interp::DecodedCache DecodedBodies;

  /// Interned backedge counter for the hottest (method, header) pair:
  /// onOsrEdge fires on *every* taken edge of OSR-eligible loops, and the
  /// string-keyed methodProfile lookup dominated that path. Invalidated by
  /// profile decay (the epoch check — decay erases zeroed entries) exactly
  /// like the interpreter's interned handles; noteEvicted only zeroes
  /// counters in place, so the pointer survives eviction.
  std::string OsrMemoMethod;
  unsigned OsrMemoHeader = 0;
  uint64_t *OsrMemoCount = nullptr;
  uint64_t OsrMemoEpoch = 0;

  /// Loop-entry OSR state (all empty while Config.Osr is off).
  std::map<std::string, opt::OsrPlan, std::less<>> OsrPlans;
  std::map<std::pair<std::string, unsigned>, OsrState> OsrStates;
  std::vector<CompilationRecord> Compilations;
  JitRuntimeStats Stats;
  bool CompilationInProgress = false;
  /// Safepoints since the last decay tick (ProfileDecayHalflife != 0).
  uint64_t SafepointsSinceDecay = 0;

  /// Live speculation-failure bookkeeping, keyed by (method, baseline
  /// callsite profileId — the frame state's resume point).
  std::map<std::pair<std::string, unsigned>, unsigned> SpeculationFailures;
  opt::SpeculationBlacklist Blacklist;
  /// Retired cold-branch prunes, keyed by (method, cold-target baseline
  /// block id). One fired trap retires the prune for good — a trap means
  /// the profile lied about the branch, and unlike a speculation guard the
  /// branch costs nothing to keep.
  opt::SpeculationBlacklist PruneBlacklist;

  /// Background machinery (Async/Deterministic only). Queue is declared
  /// before Pool so the pool (which references the queue from its worker
  /// threads) is destroyed — and its threads joined — first.
  std::unique_ptr<CompileQueue> Queue;
  std::unique_ptr<CompileWorkerPool> Pool;
  /// Outcomes already consumed from the pool; compared against the pool's
  /// lock-free delivered counter so safepoint polls are one atomic load
  /// when nothing new finished.
  uint64_t ConsumedOutcomes = 0;
};

} // namespace incline::jit

#endif // INCLINE_JIT_JITRUNTIME_H
