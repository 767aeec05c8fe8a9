//===- tests/interp_fast_test.cpp - Fast-core equivalence tests ------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tier-0 fast execution core (DESIGN.md §13) against its semantic
/// contract: everything observable — program output, trap kind and message,
/// step and per-tier cycle totals, and recorded profile *content* — must be
/// bit-identical to the reference map-frame core, including across deopt
/// and OSR frame transfers, profile-decay ticks, and megamorphic callsites.
/// Plus the Release-mode recovery hardening: a frame transfer that does not
/// resolve and a use of an unevaluated value must trap instead of
/// transferring a truncated frame / dereferencing a map end iterator.
///
/// Suites are named InterpFast* so the TSan CI job's -R filter picks up the
/// multi-threaded ones.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "fuzz/RandomProgram.h"
#include "inliner/Compilers.h"
#include "interp/DecodedBody.h"
#include "ir/IRBuilder.h"
#include "jit/JitRuntime.h"
#include "profile/ProfileData.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace incline;
using incline::testing::compile;

namespace {

interp::InterpOptions fastOpts() {
  interp::InterpOptions Opts;
  Opts.Mode = interp::InterpMode::Fast;
  return Opts;
}

interp::InterpOptions referenceOpts() {
  interp::InterpOptions Opts;
  Opts.Mode = interp::InterpMode::Reference;
  return Opts;
}

/// Runs `Symbol` of a freshly compiled copy of \p Source under one core
/// with profile recording; returns (result, profile dump).
struct CoreRun {
  interp::ExecResult R;
  std::string ProfileDump;
};

CoreRun runCore(std::string_view Source, interp::InterpOptions Opts,
                const interp::ExecLimits &Limits = interp::ExecLimits()) {
  auto M = compile(Source);
  profile::ProfileTable PT;
  interp::ModuleEnv Env(*M, &PT);
  interp::Interpreter Interp(*M, Env, interp::CostModel(), Limits, Opts);
  CoreRun Run;
  Run.R = Interp.run("main");
  Run.ProfileDump = PT.dump();
  return Run;
}

void expectBitEqual(const CoreRun &Fast, const CoreRun &Ref,
                    const std::string &Label) {
  EXPECT_EQ(Fast.R.Output, Ref.R.Output) << Label;
  EXPECT_EQ(Fast.R.Trap, Ref.R.Trap) << Label;
  EXPECT_EQ(Fast.R.TrapMessage, Ref.R.TrapMessage) << Label;
  EXPECT_EQ(Fast.R.Steps, Ref.R.Steps) << Label;
  EXPECT_EQ(Fast.R.InterpretedCycles, Ref.R.InterpretedCycles) << Label;
  EXPECT_EQ(Fast.R.CompiledCycles, Ref.R.CompiledCycles) << Label;
  EXPECT_EQ(Fast.ProfileDump, Ref.ProfileDump) << Label;
}

//===----------------------------------------------------------------------===//
// Broken transfers: a transfer whose mapping does not resolve must trap
// unconditionally, with the same message in both cores — in Release as
// much as in Debug (a Release build must not transfer a truncated frame).
//===----------------------------------------------------------------------===//

/// A module with `base(x) = x` and `spec(x)`, which immediately deopts into
/// `base` with a frame state capturing `x` as base's argument 0 — after
/// \p Break has spoiled it. The verifier rejects every spoiled state at
/// install time; executing it directly exercises the interpreter's
/// defense-in-depth path.
std::unique_ptr<ir::Module>
brokenDeoptModule(const std::function<void(ir::FrameState &)> &Break) {
  auto M = std::make_unique<ir::Module>();

  ir::Function *Base =
      M->addFunction("base", {types::Type::intTy()}, {"x"},
                     types::Type::intTy());
  ir::BasicBlock *BaseEntry = Base->addBlock("entry");
  ir::IRBuilder BB(*Base, BaseEntry);
  ir::ReturnInst *Ret = BB.ret(Base->arg(0));

  ir::Function *Spec =
      M->addFunction("spec", {types::Type::intTy()}, {"x"},
                     types::Type::intTy());
  ir::BasicBlock *SpecEntry = Spec->addBlock("entry");
  ir::IRBuilder SB(*Spec, SpecEntry);
  ir::FrameState FS;
  FS.BaselineSymbol = "base";
  FS.BaselineBlockId = BaseEntry->id();
  FS.ResumePoint = Ret->profileId();
  FS.Slots.push_back({ir::FrameStateSlot::Target::Argument, 0});
  Break(FS);
  SB.deopt("broken", std::move(FS), {Spec->arg(0)});
  return M;
}

/// Offers \p Variant at the first CFG edge any body takes.
class OfferOsrEnv : public interp::ModuleEnv {
public:
  OfferOsrEnv(const ir::Module &M, const ir::Function &Variant)
      : ModuleEnv(M), Variant(Variant) {}

  interp::ResolvedBody resolve(std::string_view Symbol) override {
    interp::ResolvedBody Body = ModuleEnv::resolve(Symbol);
    Body.OsrEligible = true;
    return Body;
  }
  const ir::Function *onOsrEdge(std::string_view, const ir::BasicBlock &,
                                const ir::BasicBlock &) override {
    return &Variant;
  }

private:
  const ir::Function &Variant;
};

TEST(InterpFastDeoptTest, SlotOperandMismatchTrapsInBothCores) {
  using Slot = ir::FrameStateSlot;
  struct Row {
    const char *Name;
    std::function<void(ir::FrameState &)> Break;
    const char *Message;
  };
  const Row Rows[] = {
      {"slot/operand mismatch", // Two slots, one captured operand.
       [](ir::FrameState &FS) {
         FS.Slots.push_back({Slot::Target::Argument, 0});
       },
       "deoptimization (frame-state slot/operand mismatch in base)"},
      {"unknown baseline",
       [](ir::FrameState &FS) { FS.BaselineSymbol = "nope"; },
       "deoptimization (no baseline nope)"},
      {"missing block", [](ir::FrameState &FS) { FS.BaselineBlockId = 999; },
       "deoptimization (unresolved resume point in base)"},
      {"resume point not found",
       [](ir::FrameState &FS) { FS.ResumePoint = 999; },
       "deoptimization (unresolved resume point in base)"},
      {"argument slot out of range",
       [](ir::FrameState &FS) { FS.Slots[0] = {Slot::Target::Argument, 1}; },
       "deoptimization (unresolved frame-state slot in base)"},
      {"missing instruction slot",
       [](ir::FrameState &FS) {
         FS.Slots[0] = {Slot::Target::Instruction, 999};
       },
       "deoptimization (unresolved frame-state slot in base)"},
  };
  for (const Row &Case : Rows) {
    for (auto Opts : {fastOpts(), referenceOpts()}) {
      SCOPED_TRACE(std::string(Case.Name) +
                   (Opts.Mode == interp::InterpMode::Fast ? ", fast"
                                                          : ", reference"));
      auto M = brokenDeoptModule(Case.Break);
      interp::ModuleEnv Env(*M);
      interp::Interpreter Interp(*M, Env, interp::CostModel(),
                                 interp::ExecLimits(), Opts);
      interp::ExecResult R =
          Interp.run("spec", {interp::RtValue::intVal(7)});
      EXPECT_EQ(R.Trap, interp::TrapKind::Deoptimization);
      EXPECT_EQ(R.TrapMessage, Case.Message);
    }
  }

  // The OSR direction: a variant of `f` whose one entry reads a baseline
  // instruction `f` does not have, offered at f's first CFG edge.
  for (auto Opts : {fastOpts(), referenceOpts()}) {
    SCOPED_TRACE(Opts.Mode == interp::InterpMode::Fast ? "osr, fast"
                                                       : "osr, reference");
    auto M = compile(R"(
def f(n: int): int {
  var i = 0;
  while (i < n) { i = i + 1; }
  return i;
}
)");
    ir::Function Variant("f.osr", {types::Type::intTy()}, {"n"},
                         types::Type::intTy());
    ir::IRBuilder B(Variant, Variant.addBlock("osr.entry"));
    B.ret(B.osrEntry({Slot::Target::Instruction, 999}, types::Type::intTy()));
    Variant.setOsrAnchor({"f", M->function("f")->entry()->id()});
    OfferOsrEnv Env(*M, Variant);
    interp::Interpreter Interp(*M, Env, interp::CostModel(),
                               interp::ExecLimits(), Opts);
    interp::ExecResult R = Interp.run("f", {interp::RtValue::intVal(3)});
    EXPECT_EQ(R.Trap, interp::TrapKind::Deoptimization);
    EXPECT_EQ(R.TrapMessage,
              "deoptimization (unresolved osr entry slot in f.osr)");
  }
}

//===----------------------------------------------------------------------===//
// Satellite 2: recovery for use of an unevaluated value. The reference core
// traps unconditionally (historically an assert-only check, so builds
// without assertions dereferenced the map's end()). The fast core's slot
// frames make the read defined memory either way; its poison diagnostic is
// a real assert, so that half only runs under NDEBUG.
//===----------------------------------------------------------------------===//

/// `f(x)`: entry jumps straight to `join`, which returns a value defined
/// only in the unreachable `dead` block. Invalid IR (the verifier rejects
/// it); historically Release dereferenced `Frame.end()`.
std::unique_ptr<ir::Module> useBeforeDefModule() {
  auto M = std::make_unique<ir::Module>();
  ir::Function *F = M->addFunction("f", {types::Type::intTy()}, {"x"},
                                   types::Type::intTy());
  ir::BasicBlock *Entry = F->addBlock("entry");
  ir::BasicBlock *Dead = F->addBlock("dead");
  ir::BasicBlock *Join = F->addBlock("join");
  ir::IRBuilder B(*F, Entry);
  B.jump(Join);
  B.setInsertBlock(Dead);
  ir::BinOpInst *V =
      B.binop(ir::BinOpInst::Opcode::Add, F->arg(0), F->constInt(1));
  B.jump(Join);
  B.setInsertBlock(Join);
  B.ret(V); // Uses a value the taken path never evaluated.
  return M;
}

TEST(InterpFastReleaseRecoveryTest, UnevaluatedValueUseTrapsInReferenceCore) {
  // The map lookup misses and the run traps instead of dereferencing
  // end() — in every build type, since the check is no longer assert-only.
  auto M = useBeforeDefModule();
  interp::ModuleEnv Env(*M);
  interp::Interpreter Interp(*M, Env, interp::CostModel(),
                             interp::ExecLimits(), referenceOpts());
  interp::ExecResult R = Interp.run("f", {interp::RtValue::intVal(3)});
  EXPECT_EQ(R.Trap, interp::TrapKind::Deoptimization);
  EXPECT_NE(R.TrapMessage.find("use of unevaluated value"),
            std::string::npos)
      << R.TrapMessage;
}

TEST(InterpFastReleaseRecoveryTest, UnevaluatedValueUseIsDefinedInFastCore) {
#ifndef NDEBUG
  GTEST_SKIP() << "the fast core's poison diagnostic is an assert; the "
                  "defined-null fallback is only reachable under NDEBUG";
#else
  // Slot frames make the read defined (a zero-initialized null slot) — no
  // trap, no UB. Divergence between the cores is acceptable here: this IR
  // is verifier-rejected, so differential stages never see it; what
  // matters is that neither core touches undefined memory.
  auto M = useBeforeDefModule();
  interp::ModuleEnv Env(*M);
  interp::Interpreter Interp(*M, Env, interp::CostModel(),
                             interp::ExecLimits(), fastOpts());
  interp::ExecResult R = Interp.run("f", {interp::RtValue::intVal(3)});
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_TRUE(R.Return.isNull());
#endif
}

//===----------------------------------------------------------------------===//
// Satellite 3: a receiver class whose dispatch fails to resolve must not
// be recorded — the histogram feeds speculative devirtualization, and a
// class that traps can never be a devirt target.
//===----------------------------------------------------------------------===//

TEST(InterpFastProfileTest, TrappingReceiverClassIsNotRecorded) {
  for (auto Opts : {fastOpts(), referenceOpts()}) {
    auto M = std::make_unique<ir::Module>();
    int B = M->classes().addClass("B"); // Declares no method at all.

    ir::Function *Go =
        M->addFunction("go", {}, {}, types::Type::intTy());
    ir::BasicBlock *Entry = Go->addBlock("entry");
    ir::IRBuilder IB(*Go, Entry);
    ir::Value *Obj = IB.newObject(B);
    ir::VirtualCallInst *VC =
        IB.virtualCall("m", Obj, {}, types::Type::intTy());
    IB.ret(VC);

    profile::ProfileTable PT;
    interp::ModuleEnv Env(*M, &PT);
    interp::Interpreter Interp(*M, Env, interp::CostModel(),
                               interp::ExecLimits(), Opts);
    interp::ExecResult R = Interp.run("go");
    EXPECT_EQ(R.Trap, interp::TrapKind::UnknownFunction);
    // The invocation was profiled, but the receiver histogram of the
    // trapping site must stay empty — no entry at all, so the dump (and
    // with it every trial-cache fingerprint) is identical to a run that
    // never reached the call.
    profile::MethodProfile &MP = PT.methodProfile("go");
    EXPECT_EQ(MP.InvocationCount, 1u);
    EXPECT_EQ(MP.Receivers.count(VC->profileId()), 0u);
  }
}

//===----------------------------------------------------------------------===//
// decayEpoch: the contract every interned profile handle hangs off.
//===----------------------------------------------------------------------===//

TEST(InterpFastDecayTest, DecayEpochBumpsOnDecayAndClear) {
  profile::ProfileTable PT;
  uint64_t E0 = PT.decayEpoch();
  PT.methodProfile("m").Branches[1].TrueCount = 8;
  EXPECT_EQ(PT.decayEpoch(), E0) << "recording must not bump the epoch";
  PT.decay();
  EXPECT_EQ(PT.decayEpoch(), E0 + 1);
  PT.decay();
  EXPECT_EQ(PT.decayEpoch(), E0 + 2);
  PT.clear();
  EXPECT_EQ(PT.decayEpoch(), E0 + 3)
      << "clear() erases everything interned handles point at";
}

//===----------------------------------------------------------------------===//
// Bit-for-bit equivalence batteries
//===----------------------------------------------------------------------===//

/// A dispatch-heavy program: a 6-class megamorphic site (wider than the
/// 4-entry PIC, so hits, misses and the megamorphic fallthrough all record)
/// plus branches and a tight loop.
const char MegamorphicSource[] = R"(
class Shape {
  def area(): int { return 0; }
}
class Square extends Shape { def area(): int { return 4; } }
class Circle extends Shape { def area(): int { return 3; } }
class Tri extends Shape { def area(): int { return 2; } }
class Hex extends Shape { def area(): int { return 6; } }
class Oct extends Shape { def area(): int { return 8; } }
def pick(i: int): Shape {
  var m = i % 6;
  if (m == 0) { return new Shape(); }
  if (m == 1) { return new Square(); }
  if (m == 2) { return new Circle(); }
  if (m == 3) { return new Tri(); }
  if (m == 4) { return new Hex(); }
  return new Oct();
}
def main() {
  var total = 0;
  var i = 0;
  while (i < 600) {
    total = total + pick(i).area();
    i = i + 1;
  }
  print(total);
}
)";

TEST(InterpFastEquivalenceTest, MegamorphicSiteMatchesReferenceProfiles) {
  CoreRun Fast = runCore(MegamorphicSource, fastOpts());
  CoreRun Ref = runCore(MegamorphicSource, referenceOpts());
  EXPECT_TRUE(Fast.R.ok()) << Fast.R.TrapMessage;
  expectBitEqual(Fast, Ref, "megamorphic");
  // And with inline caches ablated away — recording must not depend on the
  // PIC being there.
  interp::InterpOptions NoPic = fastOpts();
  NoPic.InlineCaches = false;
  expectBitEqual(runCore(MegamorphicSource, NoPic), Ref, "megamorphic-nopic");
}

TEST(InterpFastEquivalenceTest, SeededRandomProgramsMatchReferenceBitForBit) {
  // Random programs exercise phis, nested calls, arrays, traps of every
  // kind, and early exits; both cores run under identical budgets so even
  // step-limit traps must land on the same step.
  interp::ExecLimits Limits;
  Limits.MaxSteps = 2'000'000;
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    std::string Source = fuzz::generateRandomProgram(Seed);
    frontend::CompileResult Check = frontend::compileProgram(Source);
    ASSERT_TRUE(Check.succeeded()) << "seed " << Seed;
    CoreRun Fast = runCore(Source, fastOpts(), Limits);
    CoreRun Ref = runCore(Source, referenceOpts(), Limits);
    expectBitEqual(Fast, Ref, "seed " + std::to_string(Seed));
  }
}

/// A program with a hot OSR-eligible loop over a polymorphic callsite —
/// the shape that maximizes frame-transfer traffic once the chaos hooks
/// force OSR entries and guard failures.
const char TransferSource[] = R"(
class Op {
  def apply(x: int): int { return x; }
}
class Inc extends Op { def apply(x: int): int { return x + 1; } }
class Dbl extends Op { def apply(x: int): int { return x * 2 % 9973; } }
def run(op: Op, n: int): int {
  var acc = 1;
  var i = 0;
  while (i < n) {
    acc = op.apply(acc) % 9973 + i % 3;
    i = i + 1;
  }
  return acc;
}
def main() {
  var a = run(new Inc(), 400);
  var b = run(new Dbl(), 400);
  var c = run(new Op(), 150);
  print(a);
  print(b);
  print(c);
}
)";

jit::JitConfig transferConfig(interp::InterpMode Mode) {
  jit::JitConfig Config;
  Config.CompileThreshold = 5;
  Config.Osr = true;
  Config.OsrBackedgeThreshold = 40;
  Config.Interp.Mode = Mode;
  // Deterministic pure-function chaos: both cores see the exact same forced
  // guard failures and forced OSR entries.
  Config.ForceGuardFailure = [](std::string_view Method, unsigned Id) {
    return (Method.size() + Id) % 5 == 0;
  };
  Config.ForceOsrEntry = [](std::string_view, unsigned, uint64_t Count) {
    return Count == 17;
  };
  return Config;
}

TEST(InterpFastEquivalenceTest, ForcedOsrAndGuardFailureTransfersMatch) {
  // Every iteration crosses deopt and OSR frame transfers in both
  // directions; outputs, cycle totals and the final profile tables must
  // stay bit-equal between the cores, and the compile streams must be
  // fingerprint-identical (sync mode is schedule-free). The second config
  // also forces cold-branch prunes, so the third transfer kind — an
  // uncommon trap resuming at a block's first non-phi instruction — is
  // taken too.
  for (bool ForcePrunes : {false, true}) {
    SCOPED_TRACE(ForcePrunes ? "forced prunes" : "no prunes");
    std::string Output[2], Profiles[2], Stream[2];
    uint64_t Interp[2] = {0, 0}, Compiled[2] = {0, 0};
    uint64_t ColdBranchDeopts[2] = {0, 0};
    int Core = 0;
    for (auto Mode :
         {interp::InterpMode::Fast, interp::InterpMode::Reference}) {
      auto M = compile(TransferSource);
      inliner::IncrementalCompiler Compiler;
      jit::JitConfig Config = transferConfig(Mode);
      if (ForcePrunes)
        Config.ForceColdBranch = [](std::string_view, unsigned) {
          return true;
        };
      jit::JitRuntime Runtime(*M, Compiler, Config);
      for (int Iter = 0; Iter < 8; ++Iter) {
        interp::ExecResult R = Runtime.runMain();
        ASSERT_TRUE(R.ok()) << R.TrapMessage;
        Output[Core] = std::move(R.Output);
        Interp[Core] += R.InterpretedCycles;
        Compiled[Core] += R.CompiledCycles;
      }
      Profiles[Core] = Runtime.profileTable().dump();
      Stream[Core] = jit::streamFingerprint(Runtime.compilations());
      ColdBranchDeopts[Core] = Runtime.stats().ColdBranchDeopts;
      ++Core;
    }
    EXPECT_EQ(Output[0], Output[1]);
    EXPECT_EQ(Interp[0], Interp[1]);
    EXPECT_EQ(Compiled[0], Compiled[1]);
    EXPECT_EQ(Profiles[0], Profiles[1]);
    EXPECT_EQ(Stream[0], Stream[1]);
    EXPECT_EQ(ColdBranchDeopts[0], ColdBranchDeopts[1]);
    EXPECT_EQ(ColdBranchDeopts[0] > 0, ForcePrunes);
  }
}

TEST(InterpFastEquivalenceTest, ProfileDecayTicksKeepCoresBitEqual) {
  // Decay erases the map entries every interned handle points at; the
  // epoch guard must re-intern instead of writing through dangling
  // pointers, and the decayed tables must stay bit-equal across cores.
  std::string Output[2], Profiles[2];
  int Core = 0;
  for (auto Mode :
       {interp::InterpMode::Fast, interp::InterpMode::Reference}) {
    auto M = compile(MegamorphicSource);
    inliner::IncrementalCompiler Compiler;
    jit::JitConfig Config;
    Config.CompileThreshold = 1000000; // Stay interpreted: pure tier-0.
    Config.ProfileDecayHalflife = 500; // Several ticks per run.
    Config.Interp.Mode = Mode;
    jit::JitRuntime Runtime(*M, Compiler, Config);
    for (int Iter = 0; Iter < 4; ++Iter) {
      interp::ExecResult R = Runtime.runMain();
      ASSERT_TRUE(R.ok()) << R.TrapMessage;
      Output[Core] = std::move(R.Output);
    }
    Profiles[Core] = Runtime.profileTable().dump();
    ++Core;
  }
  EXPECT_EQ(Output[0], Output[1]);
  EXPECT_EQ(Profiles[0], Profiles[1]);
}

//===----------------------------------------------------------------------===//
// Multi-threaded coverage (the TSan CI job runs InterpFast* suites): the
// decoded-body cache and PICs are mutator-only state and must stay clean
// with 4 background compiler threads publishing concurrently.
//===----------------------------------------------------------------------===//

TEST(InterpFastAsyncTest, FourCompilerThreadsStayCleanAndOutputNeutral) {
  std::string Output[2];
  int Core = 0;
  for (auto Mode :
       {interp::InterpMode::Fast, interp::InterpMode::Reference}) {
    auto M = compile(TransferSource);
    inliner::IncrementalCompiler Compiler;
    jit::JitConfig Config;
    Config.CompileThreshold = 5;
    Config.Mode = jit::JitMode::Async;
    Config.Threads = 4;
    Config.Osr = true;
    Config.OsrBackedgeThreshold = 40;
    Config.Interp.Mode = Mode;
    jit::JitRuntime Runtime(*M, Compiler, Config);
    for (int Iter = 0; Iter < 10; ++Iter) {
      interp::ExecResult R = Runtime.runMain();
      ASSERT_TRUE(R.ok()) << R.TrapMessage;
      Output[Core] = std::move(R.Output);
    }
    Runtime.drainCompilations();
    ++Core;
  }
  EXPECT_EQ(Output[0], Output[1]);
}

TEST(InterpFastAsyncTest, DeterministicModeFingerprintsMatchAcrossThreads) {
  // Deterministic mode must produce one compile stream regardless of core
  // or thread count: 2x2 cells, all four fingerprints identical.
  std::vector<std::string> Streams;
  std::vector<std::string> Outputs;
  for (auto Mode :
       {interp::InterpMode::Fast, interp::InterpMode::Reference}) {
    for (unsigned Threads : {1u, 4u}) {
      auto M = compile(TransferSource);
      inliner::IncrementalCompiler Compiler;
      jit::JitConfig Config;
      Config.CompileThreshold = 5;
      Config.Mode = jit::JitMode::Deterministic;
      Config.Threads = Threads;
      Config.Osr = true;
      Config.OsrBackedgeThreshold = 40;
      Config.Interp.Mode = Mode;
      jit::JitRuntime Runtime(*M, Compiler, Config);
      std::string Output;
      for (int Iter = 0; Iter < 8; ++Iter) {
        interp::ExecResult R = Runtime.runMain();
        ASSERT_TRUE(R.ok()) << R.TrapMessage;
        Output = std::move(R.Output);
      }
      Runtime.drainCompilations();
      Streams.push_back(jit::streamFingerprint(Runtime.compilations()));
      Outputs.push_back(std::move(Output));
    }
  }
  for (size_t I = 1; I < Streams.size(); ++I) {
    EXPECT_EQ(Streams[0], Streams[I]) << "cell " << I;
    EXPECT_EQ(Outputs[0], Outputs[I]) << "cell " << I;
  }
}

} // namespace
