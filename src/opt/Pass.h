//===- opt/Pass.h - Function passes, pass manager, instrumentation ---------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified pass framework. A `FunctionPass` transforms one function and
/// reports which cached analyses survived; a `FunctionPassManager` runs an
/// ordered list of passes over a function, wiring every run through:
///
///  * the shared `AnalysisManager` (passes consume cached dominators /
///    loops / block frequencies instead of rebuilding them),
///  * invalidation (the manager drops whatever a pass reports clobbered),
///  * the per-pass observer hook the fuzzing oracle verifies IR under, and
///  * the `PassInstrumentation` registry (wall time, runs, IR-size delta,
///    analysis cache hits/misses), which makes compile time a first-class
///    observable metric alongside simulated cycles.
///
/// Every layer that runs passes — the standard `PassPipeline` bundle, the
/// inliner's round-optimization block, the deep-inlining trials, and the
/// fuzz oracle's pipeline configurations — goes through this interface, so
/// one observer sees every transformation and one registry accounts for
/// all compile time.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_OPT_PASS_H
#define INCLINE_OPT_PASS_H

#include "opt/Analysis.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace incline::ir {
class Function;
class Module;
} // namespace incline::ir

namespace incline::support {
class CancellationToken;
} // namespace incline::support

namespace incline::opt {

class SpeculationBlacklist;

/// Called after each individual pass with the pass's name and the function
/// it just transformed (the fuzzing oracle verifies the IR here).
using PassObserver =
    std::function<void(const std::string &PassName, ir::Function &F)>;

/// One transformation over a single function.
class FunctionPass {
public:
  virtual ~FunctionPass();

  /// Display/registry name ("canonicalize", "gvn", ...). Stable across
  /// runs: bisection and instrumentation key on it.
  virtual std::string_view name() const = 0;

  /// Transforms \p F, obtaining any analyses it needs from \p AM, and
  /// reports which cached analyses are still valid afterwards.
  virtual PreservedAnalyses run(ir::Function &F, const ir::Module &M,
                                AnalysisManager &AM) = 0;
};

/// Accumulated per-pass metrics.
struct PassMetrics {
  uint64_t Runs = 0;
  uint64_t Nanos = 0;       ///< Wall time spent inside the pass.
  uint64_t IRRemoved = 0;   ///< Sum of per-run instruction-count decreases.
  uint64_t IRAdded = 0;     ///< Sum of per-run instruction-count increases.
  uint64_t CacheHits = 0;   ///< Analysis cache hits during the pass's runs.
  uint64_t CacheMisses = 0; ///< Analysis computations during the pass's runs.

  PassMetrics &operator+=(const PassMetrics &Other);
};

/// Registry of per-pass metrics. The pass manager records into the
/// process-wide `global()` registry on every run (plus an optional extra
/// sink), so `minioo --print-pass-stats` and the compile-time bench report
/// whatever actually ran.
///
/// Thread-safe: background compile workers record into `global()`
/// concurrently with the mutator, so every accessor synchronizes on an
/// internal mutex. Reads return snapshots by value — there is no way to
/// observe the metrics map mid-update.
class PassInstrumentation {
public:
  void record(std::string_view PassName, const PassMetrics &Delta);

  /// Snapshot of the per-pass metrics (copied under the lock).
  std::map<std::string, PassMetrics, std::less<>> passes() const;
  PassMetrics totals() const;
  void reset();
  bool empty() const;

  /// Merges this registry's metrics into \p Other.
  void mergeInto(PassInstrumentation &Other) const;

  /// Formatted table: one row per pass plus a totals row.
  std::string report() const;

  /// The process-wide registry.
  static PassInstrumentation &global();

private:
  mutable std::mutex Lock;
  std::map<std::string, PassMetrics, std::less<>> Metrics;
};

/// The pass-execution context a compilation session threads through every
/// layer that runs passes outside the standard bundle (inliner rounds,
/// deep-inlining trials, baseline compilers). All fields optional.
struct PassContext {
  AnalysisManager *AM = nullptr;       ///< Shared analysis cache.
  PassObserver Observer;               ///< After-each-pass hook.
  PassInstrumentation *Instr = nullptr; ///< Extra metrics sink.
  /// Callsites speculative devirtualization must leave alone (failed too
  /// often at run time). Owned by the JIT runtime; background compilations
  /// point this at the snapshot carried in their CompileTask.
  const SpeculationBlacklist *Blacklist = nullptr;
  /// Branch-edge prunes cold-branch pruning must leave alone (their trap
  /// fired at run time), keyed (method, cold-target baseline block id).
  /// Same ownership/snapshot discipline as Blacklist.
  const SpeculationBlacklist *PruneBlacklist = nullptr;
  /// Chaos hook forcing cold-branch prune decisions (null = off); must be a
  /// pure function of its arguments so concurrent compilations of the same
  /// method decide identically. See opt/ColdBranchPruning.h.
  std::function<bool(std::string_view Method, unsigned BranchProfileId)>
      ForceColdBranch;
  /// The compilation's budget/cancel token (DESIGN.md §14). When set, every
  /// pass execution checkpoints before running (throwing DeadlineExceeded /
  /// ResourceExhausted out of the compile) and charges deterministic work
  /// units from its IR delta afterwards. Null = unsupervised.
  support::CancellationToken *Cancel = nullptr;
  /// Graceful-degradation rung this compilation runs at (DESIGN.md §14):
  /// 0 = full optimization, 1 = no speculation, 2 = no inlining (baseline).
  /// Compilers that support degradation read this; others ignore it.
  unsigned DegradeRung = 0;
};

/// Runs an ordered list of function passes with caching, invalidation,
/// observation, and instrumentation.
class FunctionPassManager {
public:
  explicit FunctionPassManager(std::string Name = "pipeline")
      : Name(std::move(Name)) {}

  /// Appends \p Pass; returns it for stats-sink wiring.
  FunctionPass &addPass(std::unique_ptr<FunctionPass> Pass);

  template <typename PassT, typename... ArgTs>
  PassT &emplacePass(ArgTs &&...Args) {
    return static_cast<PassT &>(
        addPass(std::make_unique<PassT>(std::forward<ArgTs>(Args)...)));
  }

  size_t size() const { return Passes.size(); }
  const std::vector<std::string> &passNames() const { return Names; }

  void setObserver(PassObserver Obs) { Observer = std::move(Obs); }
  /// Extra per-pass metrics sink besides the global registry (null = none).
  void setInstrumentation(PassInstrumentation *Sink) { Instr = Sink; }
  /// Budget/cancel token checkpointed and charged around every pass run
  /// (null = unsupervised).
  void setCancellation(support::CancellationToken *Tok) { Cancel = Tok; }

  /// Runs every pass on \p F in order.
  void run(ir::Function &F, const ir::Module &M, AnalysisManager &AM);

  /// Runs only the first \p NumPasses passes (0 = none, >= size() = all) —
  /// the replay primitive pass bisection grows prefixes with.
  void runPrefix(ir::Function &F, const ir::Module &M, AnalysisManager &AM,
                 size_t NumPasses);

private:
  std::string Name;
  std::vector<std::unique_ptr<FunctionPass>> Passes;
  std::vector<std::string> Names;
  PassObserver Observer;
  PassInstrumentation *Instr = nullptr;
  support::CancellationToken *Cancel = nullptr;
};

/// Runs one pass under \p Ctx — the shared single-pass entry point for
/// layers with imperative pass sequences (the inliner's round-optimization
/// block and deep-inlining trials). Uses Ctx.AM when set (a run-local
/// manager otherwise), applies invalidation, records instrumentation, and
/// fires Ctx.Observer, exactly like a one-pass FunctionPassManager.
void runPass(FunctionPass &Pass, ir::Function &F, const ir::Module &M,
             const PassContext &Ctx);

} // namespace incline::opt

#endif // INCLINE_OPT_PASS_H
