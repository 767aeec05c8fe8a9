//===- perfbench/runner/TimedCompiler.h - Compile-layer span recorder -----===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A forwarding jit::Compiler that times every compile() call into the
/// compiler it wraps. The traced runs hand it to the JitRuntime in place of
/// the real compiler; the untraced runs never construct it, so the gap
/// between the two is the tracing overhead.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_PERFBENCH_TIMEDCOMPILER_H
#define INCLINE_PERFBENCH_TIMEDCOMPILER_H

#include "jit/Compiler.h"

#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// One compile() call as seen from outside the compiler.
struct CompileSpan {
  uint64_t Nanos = 0;
  incline::jit::CompileStats Stats;
  /// True when the call ran on the thread that constructed the recorder
  /// (the mutator): its time is part of the mutator's run() time.
  bool OnMutator = false;
};

class TimedCompiler final : public incline::jit::Compiler {
public:
  explicit TimedCompiler(incline::jit::Compiler &Inner) : Inner(Inner) {
    setPassContext(Inner.passContext());
  }

  std::unique_ptr<incline::ir::Function>
  compile(const incline::ir::Function &Source, const incline::ir::Module &M,
          const incline::profile::ProfileTable &Profiles,
          incline::jit::CompileStats &Stats,
          const incline::opt::PassContext &Ctx) override {
    auto Start = std::chrono::steady_clock::now();
    try {
      auto Code = Inner.compile(Source, M, Profiles, Stats, Ctx);
      record(Start, Stats);
      return Code;
    } catch (...) {
      record(Start, Stats);
      throw;
    }
  }
  using incline::jit::Compiler::compile;

  std::string name() const override { return Inner.name(); }
  incline::jit::CompileCache *compileCache() override {
    return Inner.compileCache();
  }

  /// Every span recorded so far (copied under the lock: compile workers
  /// may still be appending).
  std::vector<CompileSpan> spans() const {
    std::lock_guard<std::mutex> Guard(Lock);
    return Spans;
  }

private:
  void record(std::chrono::steady_clock::time_point Start,
              const incline::jit::CompileStats &Stats) {
    auto Nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    CompileSpan Span{static_cast<uint64_t>(Nanos), Stats,
                     std::this_thread::get_id() == Mutator};
    std::lock_guard<std::mutex> Guard(Lock);
    Spans.push_back(Span);
  }

  incline::jit::Compiler &Inner;
  const std::thread::id Mutator = std::this_thread::get_id();
  mutable std::mutex Lock;
  std::vector<CompileSpan> Spans;
};

} // namespace perfbench

#endif // INCLINE_PERFBENCH_TIMEDCOMPILER_H
