//===- jit/CompileWorkerPool.cpp ----------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "jit/CompileWorkerPool.h"

#include "ir/Module.h"
#include "opt/Analysis.h"
#include "opt/OsrPlan.h"

#include <algorithm>
#include <exception>

using namespace incline;
using namespace incline::jit;

CompileWorkerPool::CompileWorkerPool(CompileQueue &Queue,
                                     Compiler &TheCompiler,
                                     const ir::Module &M, unsigned NumThreads)
    : Queue(Queue), TheCompiler(TheCompiler), M(M) {
  if (NumThreads == 0)
    NumThreads = 1;
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

CompileWorkerPool::~CompileWorkerPool() { shutdown(); }

void CompileWorkerPool::shutdown() {
  if (ShutDown)
    return;
  ShutDown = true;
  // Workers mid-compile abandon at their next cancellation checkpoint
  // instead of finishing work nobody will consume. Their outcomes still
  // deliver (as Cancelled bailouts), so drain accounting is unaffected.
  {
    std::lock_guard<std::mutex> Guard(ActiveLock);
    for (auto &[Symbol, Tok] : Active)
      if (Tok)
        Tok->requestCancel();
  }
  // Tasks still queued at close are never delivered; account them so a
  // drain waiter's target stays reachable instead of hanging forever.
  size_t DroppedNow = Queue.close();
  if (DroppedNow != 0) {
    {
      std::lock_guard<std::mutex> Guard(CompletedLock);
      Dropped.fetch_add(DroppedNow, std::memory_order_release);
    }
    CompletedSignal.notify_all();
  }
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
}

void CompileWorkerPool::workerLoop() {
  while (std::optional<CompileTask> Task = Queue.pop()) {
    CompileOutcome Outcome;
    Outcome.Task = std::move(*Task);

    const ir::Function *Source = M.function(Outcome.Task.Symbol);
    if (!Source) {
      Outcome.Error = "unknown symbol";
      deliver(std::move(Outcome));
      continue;
    }

    // OSR tasks compile a skeleton (baseline clone entered at the anchored
    // loop header) instead of the method itself. Skeleton construction is
    // deterministic, so building it on the worker keeps the mutator stall
    // identical to a plain async compile.
    std::unique_ptr<ir::Function> OsrSkeleton;
    if (Outcome.Task.TaskKind == CompileTask::Kind::Osr) {
      OsrSkeleton =
          opt::buildOsrVariant(*Source, Outcome.Task.OsrHeaderBlockId);
      if (!OsrSkeleton) {
        Outcome.Error = "osr header unavailable";
        deliver(std::move(Outcome));
        continue;
      }
      Source = OsrSkeleton.get();
    }

    // Worker-private pass scaffolding: start from the compiler's installed
    // context (observer, extra metrics sink — both thread-safe by
    // contract) and substitute an analysis manager of our own, wired to
    // the task's profile snapshot. A fresh manager per task keeps cache
    // hit/miss counts identical to a synchronous compile of the same
    // snapshot, which deterministic mode's bit-identical guarantee relies
    // on.
    opt::PassContext WorkerCtx = TheCompiler.passContext();
    opt::AnalysisManager TaskAM(&Outcome.Task.ProfilesSnapshot);
    WorkerCtx.AM = &TaskAM;
    WorkerCtx.Blacklist = &Outcome.Task.BlacklistSnapshot;
    WorkerCtx.PruneBlacklist = &Outcome.Task.PruneBlacklistSnapshot;
    WorkerCtx.ForceColdBranch = Outcome.Task.ForceColdBranch;
    WorkerCtx.Cancel = Outcome.Task.Cancel.get();
    WorkerCtx.DegradeRung = Outcome.Task.Rung;

    // Register the token so cancelTasksFor can reach work already popped
    // from the queue; deregistered (by token identity) before delivery.
    std::shared_ptr<support::CancellationToken> Tok = Outcome.Task.Cancel;
    if (Tok) {
      std::lock_guard<std::mutex> Guard(ActiveLock);
      Active.emplace(Outcome.Task.Symbol, Tok);
    }

    try {
      Outcome.Code =
          TheCompiler.compile(*Source, M, Outcome.Task.ProfilesSnapshot,
                              Outcome.Stats, WorkerCtx);
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
      // Allocation failure mid-compile is a resource event the supervisor
      // absorbs (degrade, don't strike) — the compile's private clones all
      // unwound, so the process is healthy.
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

    if (Tok) {
      // A cancel that lands after the compile finished still marks the
      // outcome: the result is for retired work either way.
      Outcome.Cancelled = Tok->cancelRequested();
      std::lock_guard<std::mutex> Guard(ActiveLock);
      for (auto [It, End] = Active.equal_range(Outcome.Task.Symbol);
           It != End; ++It)
        if (It->second == Tok) {
          Active.erase(It);
          break;
        }
    }
    deliver(std::move(Outcome));
  }
}

std::vector<CompileTask>
CompileWorkerPool::cancelTasksFor(std::string_view Symbol) {
  // Queued tasks first: removed outright, so they must count as dropped —
  // their sequence numbers are part of every drain target.
  std::vector<CompileTask> Removed = Queue.cancel(Symbol);
  if (!Removed.empty()) {
    {
      std::lock_guard<std::mutex> Guard(CompletedLock);
      Dropped.fetch_add(Removed.size(), std::memory_order_release);
    }
    CompletedSignal.notify_all();
  }
  // In-flight tasks get a cancel request; the worker abandons at its next
  // checkpoint and the outcome arrives marked Cancelled.
  {
    std::lock_guard<std::mutex> Guard(ActiveLock);
    for (auto [It, End] = Active.equal_range(Symbol); It != End; ++It)
      if (It->second)
        It->second->requestCancel();
  }
  return Removed;
}

void CompileWorkerPool::deliver(CompileOutcome Outcome) {
  {
    std::lock_guard<std::mutex> Guard(CompletedLock);
    Completed.push_back(std::move(Outcome));
    // Must change inside the critical section: waitUntilDrained's wait
    // predicate reads this counter under CompletedLock, and an increment
    // between the waiter's predicate check and its block would otherwise
    // lose the notification (the waiter would sleep past it forever).
    Delivered.fetch_add(1, std::memory_order_release);
  }
  CompletedSignal.notify_all();
}

static void sortBySequence(std::vector<CompileOutcome> &Batch) {
  std::sort(Batch.begin(), Batch.end(),
            [](const CompileOutcome &A, const CompileOutcome &B) {
              return A.Task.SequenceNo < B.Task.SequenceNo;
            });
}

std::vector<CompileOutcome> CompileWorkerPool::takeCompleted() {
  std::vector<CompileOutcome> Batch;
  {
    std::lock_guard<std::mutex> Guard(CompletedLock);
    Batch = std::move(Completed);
    Completed.clear();
  }
  sortBySequence(Batch);
  return Batch;
}

std::vector<CompileOutcome> CompileWorkerPool::waitUntilDrained() {
  // The mutator is the only producer, so the accepted-task count is stable
  // for the duration of the wait.
  const uint64_t Target = Queue.enqueuedCount();
  std::vector<CompileOutcome> Batch;
  {
    std::unique_lock<std::mutex> Guard(CompletedLock);
    CompletedSignal.wait(Guard, [&] {
      return Delivered.load(std::memory_order_acquire) +
                 Dropped.load(std::memory_order_acquire) >=
             Target;
    });
    Batch = std::move(Completed);
    Completed.clear();
  }
  sortBySequence(Batch);
  return Batch;
}
