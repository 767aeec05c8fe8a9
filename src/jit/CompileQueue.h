//===- jit/CompileQueue.h - Bounded, prioritized compile-task queue --------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hand-off point between the mutator and the compile worker pool: a
/// bounded, thread-safe task queue. Tasks carry a snapshot of the profile
/// table taken at enqueue time, so a worker compiles against exactly the
/// profiles the mutator had when the method crossed the compile threshold
/// — the same input a synchronous compile would have seen. That snapshot is
/// what makes `--jit-mode=deterministic` bit-identical to sync mode.
///
/// Ordering is a queue policy:
///  * `PopOrder::Priority` (async mode) pops the hottest task first,
///    breaking ties by enqueue order — the classic JIT compile queue, where
///    a method that got hot later but hotter jumps the line.
///  * `PopOrder::Fifo` (deterministic mode) pops strictly in enqueue order.
///
/// Backpressure is non-blocking by design: when the queue is full the
/// enqueue is rejected (`Outcome::Full`) and the mutator keeps running
/// interpreted — a JIT must never stall the application because the
/// compiler fell behind. The runtime retries on a later invocation (the
/// hotness counter keeps climbing). Duplicate symbols are rejected at the
/// queue level too (`Outcome::Duplicate`) as a second line of defense
/// behind the runtime's in-flight bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_JIT_COMPILEQUEUE_H
#define INCLINE_JIT_COMPILEQUEUE_H

#include "opt/SpeculativeDevirt.h"
#include "profile/ProfileData.h"
#include "support/Cancellation.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace incline::jit {

/// One unit of background compilation work.
struct CompileTask {
  /// What the worker compiles for \p Symbol.
  enum class Kind : uint8_t {
    Method, ///< The whole method, entered at function entry.
    Osr     ///< A loop-entry OSR variant anchored at `OsrHeaderBlockId`.
  };

  std::string Symbol;
  Kind TaskKind = Kind::Method;
  /// Baseline block id of the anchored loop header (OSR tasks only).
  unsigned OsrHeaderBlockId = 0;
  /// Hotness counter value at enqueue time (the pop priority).
  uint64_t Hotness = 0;
  /// Enqueue order, assigned by the queue: 0, 1, 2, ... This is also the
  /// deterministic-mode install order and the priority tie-break.
  uint64_t SequenceNo = 0;
  /// Profile state at enqueue time; the worker compiles against this.
  profile::ProfileTable ProfilesSnapshot;
  /// Speculation blacklist at enqueue time, same rationale: a worker never
  /// reads the runtime's live blacklist (the mutator mutates it on deopt),
  /// and a deterministic-mode compile sees exactly what a synchronous
  /// compile at the enqueue safepoint would have seen.
  opt::SpeculationBlacklist BlacklistSnapshot;
  /// Cold-branch prune blacklist at enqueue time — (method, cold-target
  /// baseline block id) pairs whose uncommon trap fired. Same snapshot
  /// discipline as BlacklistSnapshot.
  opt::SpeculationBlacklist PruneBlacklistSnapshot;
  /// Chaos hook forcing prune decisions (see JitConfig::ForceColdBranch);
  /// copied per task because the pool never sees the runtime's config. Must
  /// be a pure function, so sharing it across threads is safe.
  std::function<bool(std::string_view, unsigned)> ForceColdBranch;
  /// Supervision token for this compile (budgets + cooperative cancel);
  /// shared so the mutator can cancel while the worker charges. Null when
  /// the runtime is configured unsupervised.
  std::shared_ptr<support::CancellationToken> Cancel;
  /// Degradation-ladder rung this task compiles at (0 = full optimization;
  /// see JitRuntime's ladder). Recorded in the compile-stream fingerprint
  /// for nonzero rungs.
  unsigned Rung = 0;
  /// True for a re-heated ladder *upgrade* attempt: the anchor already has
  /// degraded code installed and this task compiles one rung better. The
  /// publish path replaces the installed body on success instead of
  /// discarding the outcome as stale.
  bool Upgrade = false;

  /// Queue-dedup and compile-stream key: the bare symbol for method tasks,
  /// `symbol@osr<header>` for OSR tasks — a method compilation and an OSR
  /// variant of the same method may be in flight simultaneously, but two
  /// OSR requests for the same (method, header) collapse.
  std::string dedupKey() const;
};

/// Thread-safe bounded compile-task queue with deduplication.
class CompileQueue {
public:
  enum class PopOrder : uint8_t {
    Priority, ///< Hottest first, ties by enqueue order (async mode).
    Fifo      ///< Strict enqueue order (deterministic mode).
  };

  enum class Outcome : uint8_t {
    Enqueued,
    Full,     ///< Bounded capacity reached; task rejected (backpressure).
    Duplicate ///< Symbol already queued.
  };

  explicit CompileQueue(size_t Capacity, PopOrder Order = PopOrder::Priority)
      : Capacity(Capacity == 0 ? 1 : Capacity), Order(Order) {}

  /// Attempts to enqueue; never blocks. On success the task receives its
  /// sequence number and workers are woken.
  Outcome tryEnqueue(CompileTask Task);

  /// Blocks until a task is available or the queue is closed; nullopt on
  /// close. Workers call this.
  std::optional<CompileTask> pop();

  /// Wakes every waiting worker and makes all subsequent pops fail.
  /// Already-queued tasks are dropped (the pool drains before closing when
  /// a graceful shutdown is wanted). Returns how many tasks were dropped,
  /// so drain waiters can account for deliveries that will never happen.
  size_t close();

  /// Removes every still-queued task for \p Symbol (the method task and any
  /// OSR tasks) and returns them — the cooperative-cancellation fast path
  /// for work no worker has picked up yet. Sequence numbers stay consumed
  /// (enqueuedCount is monotone), so the caller must account the removals
  /// as dropped toward any drain target.
  std::vector<CompileTask> cancel(std::string_view Symbol);

  size_t size() const;
  bool closed() const;

  /// Total tasks ever accepted (== the next SequenceNo).
  uint64_t enqueuedCount() const;

private:
  const size_t Capacity;
  const PopOrder Order;

  mutable std::mutex Lock;
  std::condition_variable TaskReady;
  std::vector<CompileTask> Tasks; ///< Unordered; pop scans by policy.
  std::set<std::string> Queued;   ///< Symbols currently in Tasks.
  uint64_t NextSequenceNo = 0;
  bool Closed = false;
};

} // namespace incline::jit

#endif // INCLINE_JIT_COMPILEQUEUE_H
