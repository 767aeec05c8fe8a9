//===- tests/jit_osr_test.cpp - Loop-entry OSR round-trip battery ----------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop-entry on-stack replacement, bottom up:
///
///  * the OSR plan (which edges credit which loop header, which headers
///    are entry-eligible), including the irreducible-cycle normalization
///    that heats the enclosing natural header but never enters a
///    non-dominating block;
///  * OSR-variant construction (`buildOsrVariant`): entry-block shape,
///    anchor bookkeeping, live-set capture through `OsrEntryInst`
///    descriptors, and the verifier rules that reject broken descriptors
///    (missing baseline slot, non-dominating capture, bogus anchor);
///  * the runtime round trip: hot backedges tier up mid-loop, a failing
///    guard inside the OSR body deoptimizes back into the baseline frame,
///    the retired variant is invalidated and the recompile converges —
///    with program output bit-identical to pure interpretation in every
///    JIT mode, including under forced-OSR and forced-guard-failure chaos;
///  * OSR against the neighbouring subsystems: compile-queue dedup keys,
///    epoch-bump invalidation, the speculation blacklist inside OSR
///    bodies, and trial-cache bit-identity of the deterministic stream;
///  * properties over seeded random programs: every planned header yields
///    a verifying variant, and OSR-on execution matches the interpreter.
///
/// Suites are named Jit* so the TSan CI job's -R filter picks them up.
///
//===----------------------------------------------------------------------===//

#include "opt/OsrPlan.h"

#include "TestHelpers.h"
#include "fuzz/Oracle.h"
#include "fuzz/RandomProgram.h"
#include "inliner/Compilers.h"
#include "ir/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/IRCloner.h"
#include "ir/IRPrinter.h"
#include "ir/Instruction.h"
#include "jit/CompileQueue.h"
#include "jit/JitRuntime.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace incline;
using incline::testing::compile;

namespace {

//===----------------------------------------------------------------------===//
// OSR plan: backedge crediting and header eligibility
//===----------------------------------------------------------------------===//

constexpr const char *SingleLoopFn = R"(
def f(n: int): int {
  var i = 0;
  var acc = 0;
  while (i < n) {
    acc = acc + i;
    i = i + 1;
  }
  return acc;
}
def main() { print(f(10)); }
)";

constexpr const char *NestedLoopFn = R"(
def g(n: int): int {
  var acc = 0;
  var i = 0;
  while (i < n) {
    var j = 0;
    while (j < i) {
      acc = acc + j;
      j = j + 1;
    }
    i = i + 1;
  }
  return acc;
}
def main() { print(g(8)); }
)";

const ir::BasicBlock *blockById(const ir::Function &F, unsigned Id) {
  for (const auto &BB : F.blocks())
    if (BB->id() == Id)
      return BB.get();
  return nullptr;
}

TEST(JitOsrPlanTest, StraightLineFunctionHasEmptyPlan) {
  auto M = compile("def main() { print(1 + 2); }");
  opt::OsrPlan Plan = opt::computeOsrPlan(*M->function("main"));
  EXPECT_TRUE(Plan.empty());
  EXPECT_TRUE(Plan.Headers.empty());
}

TEST(JitOsrPlanTest, SingleLoopCreditsItsOwnHeader) {
  auto M = compile(SingleLoopFn);
  const ir::Function &F = *M->function("f");
  opt::OsrPlan Plan = opt::computeOsrPlan(F);
  ASSERT_EQ(Plan.Headers.size(), 1u);
  unsigned Header = *Plan.Headers.begin();
  // Every credited edge of a single natural loop targets the header, and
  // the header has phis (the live loop-carried state OSR entry captures).
  ASSERT_EQ(Plan.EdgeToHeader.size(), 1u);
  for (const auto &[Key, H] : Plan.EdgeToHeader) {
    EXPECT_EQ(H, Header);
    EXPECT_EQ(static_cast<unsigned>(Key & 0xffffffffu), Header)
        << "a natural backedge must target the header it credits";
  }
  const ir::BasicBlock *HeaderBB = blockById(F, Header);
  ASSERT_NE(HeaderBB, nullptr);
  EXPECT_FALSE(HeaderBB->phis().empty());
  // A non-backedge is never credited.
  EXPECT_EQ(Plan.headerForEdge(F.entry()->id(), Header), opt::OsrPlan::NoHeader);
}

TEST(JitOsrPlanTest, NestedLoopsYieldTwoEligibleHeaders) {
  auto M = compile(NestedLoopFn);
  opt::OsrPlan Plan = opt::computeOsrPlan(*M->function("g"));
  EXPECT_EQ(Plan.Headers.size(), 2u);
  EXPECT_EQ(Plan.EdgeToHeader.size(), 2u);
  // Both backedges enter their own (distinct) header.
  for (const auto &[Key, H] : Plan.EdgeToHeader)
    EXPECT_EQ(static_cast<unsigned>(Key & 0xffffffffu), H);
}

/// entry -> hdr; hdr -> {a, exit}; a -> {b, c}; b -> c; c -> {b, hdr}.
/// The cycle {b, c} is irreducible (entered at both b and c) and nested
/// inside the natural loop headed by hdr.
std::unique_ptr<ir::Function> irreducibleInNaturalLoop() {
  auto F = std::make_unique<ir::Function>(
      "irr",
      std::vector<types::Type>{types::Type::boolTy(), types::Type::boolTy(),
                               types::Type::boolTy()},
      std::vector<std::string>{"p", "q", "r"}, types::Type::intTy());
  ir::BasicBlock *Entry = F->addBlock("entry");
  ir::BasicBlock *Hdr = F->addBlock("hdr");
  ir::BasicBlock *A = F->addBlock("a");
  ir::BasicBlock *B = F->addBlock("b");
  ir::BasicBlock *C = F->addBlock("c");
  ir::BasicBlock *Exit = F->addBlock("exit");
  ir::IRBuilder Bld(*F, Entry);
  Bld.jump(Hdr);
  Bld.setInsertBlock(Hdr);
  Bld.branch(F->arg(0), A, Exit);
  Bld.setInsertBlock(A);
  Bld.branch(F->arg(1), B, C);
  Bld.setInsertBlock(B);
  Bld.jump(C);
  Bld.setInsertBlock(C);
  Bld.branch(F->arg(2), B, Hdr);
  Bld.setInsertBlock(Exit);
  Bld.ret(Bld.constInt(0));
  return F;
}

TEST(JitOsrPlanTest, IrreducibleRetreatingEdgeIsNormalizedToEnclosingHeader) {
  std::unique_ptr<ir::Function> F = irreducibleInNaturalLoop();
  opt::OsrPlan Plan = opt::computeOsrPlan(*F);
  unsigned Hdr = 1, B = 3, C = 4; // addBlock assigns ids in order.
  // Only the dominating natural header is entry-eligible; the irreducible
  // cycle's blocks must never be.
  ASSERT_EQ(Plan.Headers.size(), 1u);
  EXPECT_EQ(*Plan.Headers.begin(), Hdr);
  // The natural backedge credits (and may enter) hdr; the retreating edge
  // c -> b inside the irreducible cycle heats hdr too — but its target is
  // b, so the runtime's `To == Header` gate will never enter there.
  EXPECT_EQ(Plan.headerForEdge(C, Hdr), Hdr);
  EXPECT_EQ(Plan.headerForEdge(C, B), Hdr);
}

TEST(JitOsrPlanTest, IrreducibleCycleWithoutEnclosingLoopIsDropped) {
  auto F = std::make_unique<ir::Function>(
      "irr2",
      std::vector<types::Type>{types::Type::boolTy(), types::Type::boolTy(),
                               types::Type::boolTy()},
      std::vector<std::string>{"p", "q", "r"}, types::Type::intTy());
  ir::BasicBlock *Entry = F->addBlock("entry");
  ir::BasicBlock *A = F->addBlock("a");
  ir::BasicBlock *B = F->addBlock("b");
  ir::BasicBlock *Exit = F->addBlock("exit");
  ir::IRBuilder Bld(*F, Entry);
  Bld.branch(F->arg(0), A, B);
  Bld.setInsertBlock(A);
  Bld.branch(F->arg(1), B, Exit);
  Bld.setInsertBlock(B);
  Bld.branch(F->arg(2), A, Exit);
  Bld.setInsertBlock(Exit);
  Bld.ret(Bld.constInt(0));
  // {a, b} is a two-entry cycle with no natural loop around it: nothing to
  // credit, nothing to enter.
  opt::OsrPlan Plan = opt::computeOsrPlan(*F);
  EXPECT_TRUE(Plan.empty());
  EXPECT_TRUE(Plan.Headers.empty());
}

//===----------------------------------------------------------------------===//
// OSR-variant construction
//===----------------------------------------------------------------------===//

unsigned soleHeader(const ir::Function &F) {
  opt::OsrPlan Plan = opt::computeOsrPlan(F);
  EXPECT_EQ(Plan.Headers.size(), 1u);
  return Plan.Headers.empty() ? opt::OsrPlan::NoHeader : *Plan.Headers.begin();
}

unsigned countOsrEntries(const ir::Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (isa<ir::OsrEntryInst>(I.get()))
        ++N;
  return N;
}

TEST(JitOsrVariantTest, VariantAnchorsEntryBlockAndVerifies) {
  auto M = compile(SingleLoopFn);
  const ir::Function &Baseline = *M->function("f");
  unsigned Header = soleHeader(Baseline);
  std::unique_ptr<ir::Function> V = opt::buildOsrVariant(Baseline, Header);
  ASSERT_NE(V, nullptr);
  // Same name and signature: downstream (profiles, devirt, blacklist,
  // trial cache) must treat the variant exactly like a method compile.
  EXPECT_EQ(V->name(), Baseline.name());
  EXPECT_EQ(V->numParams(), Baseline.numParams());
  ASSERT_NE(V->osrAnchor(), nullptr);
  EXPECT_EQ(V->osrAnchor()->BaselineSymbol, "f");
  EXPECT_EQ(V->osrAnchor()->HeaderBlockId, Header);
  // The new entry leads with the OsrEntry descriptors and ends jumping to
  // the cloned header.
  const ir::BasicBlock *Entry = V->entry();
  ASSERT_FALSE(Entry->instructions().empty());
  EXPECT_TRUE(isa<ir::OsrEntryInst>(Entry->instructions().front().get()));
  incline::testing::expectVerified(*V);
  EXPECT_TRUE(ir::verifyOsrEntries(*V, *M).empty());
  // Printing round-trips the anchor and descriptors (dumps feed debugging).
  std::string Text = ir::printFunction(*V);
  EXPECT_NE(Text.find("osr("), std::string::npos) << Text;
  EXPECT_NE(Text.find("osrentry"), std::string::npos) << Text;
}

TEST(JitOsrVariantTest, CapturesExactlyTheLiveLoopState) {
  // `dead` is defined before the loop and never used inside or after it:
  // the live set at the header is exactly the two loop phis, so the
  // variant must carry exactly two descriptors — dead slots stay dead.
  auto M = compile(R"(
def h(n: int): int {
  var dead = n * 7;
  var acc = 1;
  var i = 0;
  while (i < n) {
    acc = acc + i;
    i = i + 1;
  }
  return acc;
}
def main() { print(h(5)); }
)");
  const ir::Function &Baseline = *M->function("h");
  unsigned Header = soleHeader(Baseline);
  std::unique_ptr<ir::Function> V = opt::buildOsrVariant(Baseline, Header);
  ASSERT_NE(V, nullptr);
  const ir::BasicBlock *HeaderBB = blockById(Baseline, Header);
  ASSERT_NE(HeaderBB, nullptr);
  EXPECT_EQ(countOsrEntries(*V), HeaderBB->phis().size());
  incline::testing::expectVerified(*V);
  EXPECT_TRUE(ir::verifyOsrEntries(*V, *M).empty());
}

TEST(JitOsrVariantTest, MaterializesOutOfLoopDefinitionsUsedInside) {
  // `base` is computed before the loop and read by every iteration: it is
  // not a header phi, so the variant must materialize it through an extra
  // OsrEntry descriptor naming the baseline instruction.
  auto M = compile(R"(
def k(n: int): int {
  var base = n * 3 + 1;
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc + base;
    i = i + 1;
  }
  return acc;
}
def main() { print(k(5)); }
)");
  const ir::Function &Baseline = *M->function("k");
  unsigned Header = soleHeader(Baseline);
  std::unique_ptr<ir::Function> V = opt::buildOsrVariant(Baseline, Header);
  ASSERT_NE(V, nullptr);
  const ir::BasicBlock *HeaderBB = blockById(Baseline, Header);
  ASSERT_NE(HeaderBB, nullptr);
  EXPECT_GT(countOsrEntries(*V), HeaderBB->phis().size());
  incline::testing::expectVerified(*V);
  EXPECT_TRUE(ir::verifyOsrEntries(*V, *M).empty());
}

TEST(JitOsrVariantTest, RefusesNonHeaderAndBogusBlocks) {
  auto M = compile(SingleLoopFn);
  const ir::Function &Baseline = *M->function("f");
  EXPECT_EQ(opt::buildOsrVariant(Baseline, 999), nullptr);
  // The entry block is never a loop header a frame can transfer into.
  EXPECT_EQ(opt::buildOsrVariant(Baseline, Baseline.entry()->id()), nullptr);
}

TEST(JitOsrVariantTest, CloningPreservesAnchorAndDescriptors) {
  auto M = compile(SingleLoopFn);
  const ir::Function &Baseline = *M->function("f");
  std::unique_ptr<ir::Function> V =
      opt::buildOsrVariant(Baseline, soleHeader(Baseline));
  ASSERT_NE(V, nullptr);
  auto Clone = ir::cloneFunction(*V, V->name());
  ASSERT_NE(Clone.F->osrAnchor(), nullptr);
  EXPECT_EQ(Clone.F->osrAnchor()->BaselineSymbol, "f");
  EXPECT_EQ(Clone.F->osrAnchor()->HeaderBlockId,
            V->osrAnchor()->HeaderBlockId);
  // Compilation clones carry the descriptors verbatim (block ids are
  // renumbered, so compare the descriptor set, not the raw print).
  EXPECT_EQ(countOsrEntries(*Clone.F), countOsrEntries(*V));
  incline::testing::expectVerified(*Clone.F);
  EXPECT_TRUE(ir::verifyOsrEntries(*Clone.F, *M).empty());
}

//===----------------------------------------------------------------------===//
// Verifier rejections
//===----------------------------------------------------------------------===//

/// A hand-built "variant" of SingleLoopFn's `f` whose single descriptor
/// carries \p Slot, for rejection tests.
std::unique_ptr<ir::Function> variantWithSlot(const ir::Module &,
                                              ir::FrameStateSlot Slot,
                                              unsigned HeaderBlockId) {
  auto F = std::make_unique<ir::Function>(
      "f", std::vector<types::Type>{types::Type::intTy()},
      std::vector<std::string>{"n"}, types::Type::intTy());
  ir::BasicBlock *Entry = F->addBlock("osr.entry");
  ir::IRBuilder B(*F, Entry);
  ir::Value *V = B.osrEntry(Slot, types::Type::intTy());
  B.ret(V);
  F->setOsrAnchor({"f", HeaderBlockId});
  return F;
}

TEST(JitOsrVerifierTest, RejectsUnknownBaselineAndMissingHeader) {
  auto M = compile(SingleLoopFn);
  unsigned Header = soleHeader(*M->function("f"));

  auto BadAnchor = variantWithSlot(
      *M, {ir::FrameStateSlot::Target::Argument, 0}, Header);
  BadAnchor->setOsrAnchor({"nope", Header});
  std::vector<std::string> P1 = ir::verifyOsrEntries(*BadAnchor, *M);
  ASSERT_FALSE(P1.empty());
  EXPECT_NE(P1.front().find("unknown baseline"), std::string::npos)
      << P1.front();

  auto BadBlock = variantWithSlot(
      *M, {ir::FrameStateSlot::Target::Argument, 0}, 999);
  std::vector<std::string> P2 = ir::verifyOsrEntries(*BadBlock, *M);
  ASSERT_FALSE(P2.empty());
  EXPECT_NE(P2.front().find("missing block"), std::string::npos)
      << P2.front();
}

TEST(JitOsrVerifierTest, RejectsMissingBaselineSlot) {
  auto M = compile(SingleLoopFn);
  unsigned Header = soleHeader(*M->function("f"));
  auto V = variantWithSlot(
      *M, {ir::FrameStateSlot::Target::Instruction, 999999}, Header);
  std::vector<std::string> Problems = ir::verifyOsrEntries(*V, *M);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems.front().find("missing baseline instruction"),
            std::string::npos)
      << Problems.front();
}

TEST(JitOsrVerifierTest, RejectsOutOfRangeArgumentSlot) {
  auto M = compile(SingleLoopFn);
  unsigned Header = soleHeader(*M->function("f"));
  auto V = variantWithSlot(
      *M, {ir::FrameStateSlot::Target::Argument, 7}, Header);
  std::vector<std::string> Problems = ir::verifyOsrEntries(*V, *M);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems.front().find("argument"), std::string::npos)
      << Problems.front();
}

TEST(JitOsrVerifierTest, RejectsNonDominatingCapture) {
  // A value defined inside the loop body does not dominate the header: a
  // descriptor naming it would read garbage on the entry iteration.
  auto M = compile(SingleLoopFn);
  const ir::Function &Baseline = *M->function("f");
  unsigned Header = soleHeader(Baseline);
  const ir::BasicBlock *HeaderBB = blockById(Baseline, Header);
  ASSERT_NE(HeaderBB, nullptr);
  ir::DominatorTree DT(Baseline);
  const ir::Instruction *BodyDef = nullptr;
  for (const auto &BB : Baseline.blocks()) {
    if (BB.get() == HeaderBB || !DT.isReachable(BB.get()) ||
        !DT.dominates(HeaderBB, BB.get()) || BB->phis().size() ||
        BB.get() == Baseline.entry())
      continue;
    for (const auto &I : BB->instructions())
      if (!I->type().isVoid() && !DT.dominates(I->parent(), HeaderBB)) {
        BodyDef = I.get();
        break;
      }
    if (BodyDef)
      break;
  }
  ASSERT_NE(BodyDef, nullptr) << "no loop-body definition found";
  auto V = variantWithSlot(
      *M, {ir::FrameStateSlot::Target::Instruction, BodyDef->profileId()},
      Header);
  std::vector<std::string> Problems = ir::verifyOsrEntries(*V, *M);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems.front().find("dominate"), std::string::npos)
      << Problems.front();
}

TEST(JitOsrVerifierTest, RejectsStrayOsrEntryWithoutAnchor) {
  // OsrEntryInst is only meaningful under an anchor; a stray one in a
  // plain function is a structural bug verifyFunction must catch.
  auto F = std::make_unique<ir::Function>(
      "plain", std::vector<types::Type>{}, std::vector<std::string>{},
      types::Type::intTy());
  ir::BasicBlock *Entry = F->addBlock("entry");
  ir::IRBuilder B(*F, Entry);
  ir::Value *V =
      B.osrEntry({ir::FrameStateSlot::Target::Argument, 0}, types::Type::intTy());
  B.ret(V);
  std::vector<std::string> Problems = ir::verifyFunction(*F);
  EXPECT_FALSE(Problems.empty());
}

//===----------------------------------------------------------------------===//
// Runtime round trips
//===----------------------------------------------------------------------===//

/// One long interpreter-hot loop; invocation counts never cross the method
/// threshold below, so the only way this gets compiled is through OSR.
constexpr const char *HotLoopProgram = R"(
class Box { var v: int; }
def main() {
  var b = new Box();
  b.v = 3;
  var acc = 0;
  var i = 0;
  while (i < 3000) {
    b.v = b.v + i % 5;
    acc = acc + b.v % 97;
    i = i + 1;
  }
  print(acc);
  print(b.v);
}
)";

/// A loop-borne lying profile: the receiver histogram the OSR compile sees
/// is 95% A, then the tail dispatches B through the guarded site *inside
/// the OSR body* — forcing an OSR-entry -> guard-failure -> deopt-exit ->
/// recompile round trip.
constexpr const char *OsrProfileLiesProgram = R"(
class A {
  def m(x: int): int { return x + 1; }
}
class B extends A {
  def m(x: int): int { return x * 2; }
}
def main() {
  var a: A = new A();
  var b: A = new B();
  var total = 0;
  var i = 0;
  while (i < 600) {
    var r = a;
    if (i >= 570) { r = b; }
    total = total + r.m(i);
    i = i + 1;
  }
  print(total);
}
)";

jit::JitConfig osrOnlyConfig() {
  jit::JitConfig Config;
  // Methods never get hot by invocation count: every tier-up below is OSR.
  Config.CompileThreshold = 1'000'000;
  Config.Osr = true;
  Config.OsrBackedgeThreshold = 50;
  return Config;
}

TEST(JitOsrRoundTripTest, HotLoopTiersUpMidIterationWithSameOutput) {
  auto Ref = compile(HotLoopProgram);
  const std::string Expected = interp::runMain(*Ref).Output;

  auto M = compile(HotLoopProgram);
  inliner::IncrementalCompiler Compiler;
  jit::JitRuntime Runtime(*M, Compiler, osrOnlyConfig());
  interp::ExecResult R = Runtime.runMain();
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, Expected);

  const jit::JitRuntimeStats &S = Runtime.stats();
  EXPECT_GE(S.OsrCompileRequests, 1u);
  EXPECT_GE(S.OsrInstalls, 1u);
  EXPECT_GE(S.OsrEntries, 1u);
  // The transfer happened mid-run: the tail of the loop executed compiled.
  EXPECT_GT(R.CompiledCycles, 0u);
  EXPECT_GT(R.InterpretedCycles, 0u);
  // The installed variant is queryable and anchored.
  bool FoundVariant = false;
  for (const jit::CompilationRecord &Rec : Runtime.compilations())
    if (Rec.Symbol.find("@osr") != std::string::npos)
      FoundVariant = true;
  EXPECT_TRUE(FoundVariant);
}

TEST(JitOsrRoundTripTest, OsrOffLeavesEveryObservableUnchanged) {
  auto Ref = compile(HotLoopProgram);
  const std::string Expected = interp::runMain(*Ref).Output;

  auto M = compile(HotLoopProgram);
  inliner::IncrementalCompiler Compiler;
  jit::JitConfig Config = osrOnlyConfig();
  Config.Osr = false; // The default; spelled out for the contrast.
  jit::JitRuntime Runtime(*M, Compiler, Config);
  interp::ExecResult R = Runtime.runMain();
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, Expected);
  EXPECT_EQ(Runtime.stats().OsrCompileRequests, 0u);
  EXPECT_EQ(Runtime.stats().OsrInstalls, 0u);
  EXPECT_EQ(Runtime.stats().OsrEntries, 0u);
  EXPECT_EQ(R.CompiledCycles, 0u);
  EXPECT_TRUE(Runtime.compilations().empty());
}

TEST(JitOsrRoundTripTest, AllModesMatchInterpreterOnOsrDeoptRoundTrips) {
  auto Ref = compile(OsrProfileLiesProgram);
  const std::string Expected = interp::runMain(*Ref).Output;

  struct ModeCase {
    jit::JitMode Mode;
    unsigned Threads;
  };
  for (ModeCase MC : {ModeCase{jit::JitMode::Sync, 1},
                      ModeCase{jit::JitMode::Deterministic, 2},
                      ModeCase{jit::JitMode::Deterministic, 4},
                      ModeCase{jit::JitMode::Async, 2},
                      ModeCase{jit::JitMode::Async, 4}}) {
    auto M = compile(OsrProfileLiesProgram);
    inliner::IncrementalCompiler Compiler;
    jit::JitConfig Config = osrOnlyConfig();
    Config.Mode = MC.Mode;
    Config.Threads = MC.Threads;
    jit::JitRuntime Runtime(*M, Compiler, Config);
    for (int Run = 0; Run < 6; ++Run) {
      interp::ExecResult R = Runtime.runMain();
      ASSERT_TRUE(R.ok())
          << jit::jitModeName(MC.Mode) << " t" << MC.Threads << ": "
          << R.TrapMessage;
      EXPECT_EQ(R.Output, Expected)
          << jit::jitModeName(MC.Mode) << " t" << MC.Threads << " run "
          << Run;
      Runtime.drainCompilations();
    }
    EXPECT_GE(Runtime.stats().OsrInstalls, 1u) << jit::jitModeName(MC.Mode);
    EXPECT_GE(Runtime.stats().OsrEntries, 1u) << jit::jitModeName(MC.Mode);
  }
}

TEST(JitOsrRoundTripTest, GuardFailureInOsrBodyDeoptsInvalidatesAndConverges) {
  auto Ref = compile(OsrProfileLiesProgram);
  const std::string Expected = interp::runMain(*Ref).Output;

  auto M = compile(OsrProfileLiesProgram);
  inliner::IncrementalCompiler Compiler;
  jit::JitRuntime Runtime(*M, Compiler, osrOnlyConfig());
  for (int Run = 0; Run < 8; ++Run) {
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.Output, Expected) << "run " << Run;
  }
  const jit::JitRuntimeStats &S = Runtime.stats();
  EXPECT_GE(S.OsrEntries, 1u);
  EXPECT_GE(S.GuardFailures, 1u);
  EXPECT_GE(S.OsrInvalidations, 1u);
  EXPECT_GE(S.SpeculationsBlacklisted, 1u);
  EXPECT_GE(Runtime.codeEpoch(), 1u);
  EXPECT_FALSE(Runtime.speculationBlacklist().empty());

  // Converged: the blacklist-informed OSR recompile is guard-free, so one
  // more run enters the loop variant and finishes without a new deopt.
  uint64_t FailuresBefore = Runtime.stats().GuardFailures;
  uint64_t EntriesBefore = Runtime.stats().OsrEntries;
  interp::ExecResult Final = Runtime.runMain();
  ASSERT_TRUE(Final.ok());
  EXPECT_EQ(Final.Output, Expected);
  EXPECT_EQ(Runtime.stats().GuardFailures, FailuresBefore);
  EXPECT_GT(Runtime.stats().OsrEntries, EntriesBefore);
}

TEST(JitOsrRoundTripTest, ForcedOsrAndForcedGuardFailureAreOutputNeutral) {
  // Maximum hostility, the chaos stages' invariant in miniature: every
  // backedge forces an OSR request and every guard is forced onto its
  // fail edge. Entry -> immediate deopt -> re-entry loops must converge
  // (blacklist) and never change output.
  auto Ref = compile(OsrProfileLiesProgram);
  const std::string Expected = interp::runMain(*Ref).Output;

  auto M = compile(OsrProfileLiesProgram);
  inliner::IncrementalCompiler Compiler;
  jit::JitConfig Config = osrOnlyConfig();
  Config.OsrBackedgeThreshold = 1'000'000; // Forcing is the only trigger.
  // Force every backedge from the 16th on: by then the receiver histogram
  // has enough (all-A) samples for the OSR compile to speculate, so the
  // forced guard failures below actually have a guard to fail.
  Config.ForceOsrEntry = [](std::string_view, unsigned, uint64_t Count) {
    return Count >= 16;
  };
  Config.ForceGuardFailure = [](std::string_view, unsigned) { return true; };
  jit::JitRuntime Runtime(*M, Compiler, Config);
  for (int Run = 0; Run < 8; ++Run) {
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.Output, Expected) << "run " << Run;
  }
  EXPECT_GE(Runtime.stats().OsrCompileRequests, 1u);
  EXPECT_GE(Runtime.stats().OsrEntries, 1u);
  EXPECT_GE(Runtime.stats().GuardFailures, 1u);
}

//===----------------------------------------------------------------------===//
// OSR against the neighbouring subsystems
//===----------------------------------------------------------------------===//

jit::CompileTask osrTask(std::string Symbol, unsigned Header,
                         uint64_t Hotness = 1) {
  jit::CompileTask Task;
  Task.Symbol = std::move(Symbol);
  Task.TaskKind = jit::CompileTask::Kind::Osr;
  Task.OsrHeaderBlockId = Header;
  Task.Hotness = Hotness;
  return Task;
}

TEST(JitOsrQueueTest, DedupKeysSeparateMethodAndPerHeaderOsrTasks) {
  jit::CompileQueue Queue(8, jit::CompileQueue::PopOrder::Fifo);
  jit::CompileTask Method;
  Method.Symbol = "f";
  EXPECT_EQ(Queue.tryEnqueue(std::move(Method)),
            jit::CompileQueue::Outcome::Enqueued);
  // A method compile and an OSR variant of the same symbol coexist...
  EXPECT_EQ(Queue.tryEnqueue(osrTask("f", 2)),
            jit::CompileQueue::Outcome::Enqueued);
  // ...two OSR requests for the same (method, header) collapse...
  EXPECT_EQ(Queue.tryEnqueue(osrTask("f", 2)),
            jit::CompileQueue::Outcome::Duplicate);
  // ...and a different header of the same method is distinct work.
  EXPECT_EQ(Queue.tryEnqueue(osrTask("f", 5)),
            jit::CompileQueue::Outcome::Enqueued);
  EXPECT_EQ(Queue.size(), 3u);
  // Popping an OSR task frees its key for re-request.
  std::optional<jit::CompileTask> First = Queue.pop();
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(First->dedupKey(), "f");
  std::optional<jit::CompileTask> Second = Queue.pop();
  ASSERT_TRUE(Second.has_value());
  EXPECT_EQ(Second->dedupKey(), "f@osr2");
  EXPECT_EQ(Queue.tryEnqueue(osrTask("f", 2)),
            jit::CompileQueue::Outcome::Enqueued);
}

TEST(JitOsrQueueTest, BackpressureRejectsOsrTasksWithoutBlocking) {
  jit::CompileQueue Queue(1, jit::CompileQueue::PopOrder::Priority);
  EXPECT_EQ(Queue.tryEnqueue(osrTask("f", 2)),
            jit::CompileQueue::Outcome::Enqueued);
  EXPECT_EQ(Queue.tryEnqueue(osrTask("g", 3)),
            jit::CompileQueue::Outcome::Full);
}

TEST(JitOsrSubsystemTest, DeoptRetiresInstalledVariantAndBumpsEpoch) {
  // The lying tail sits in the last three iterations, so after the deopt
  // the loop ends before the re-request backoff expires: the retire must
  // be observable from outside the run.
  constexpr const char *TailLiesProgram = R"(
class A {
  def m(x: int): int { return x + 1; }
}
class B extends A {
  def m(x: int): int { return x * 2; }
}
def main() {
  var a: A = new A();
  var b: A = new B();
  var total = 0;
  var i = 0;
  while (i < 600) {
    var r = a;
    if (i >= 597) { r = b; }
    total = total + r.m(i);
    i = i + 1;
  }
  print(total);
}
)";
  auto Ref = compile(TailLiesProgram);
  const std::string Expected = interp::runMain(*Ref).Output;

  auto M = compile(TailLiesProgram);
  inliner::IncrementalCompiler Compiler;
  jit::JitConfig Config = osrOnlyConfig();
  // Pin the request schedule: exactly one OSR compile request per run (at
  // the 100th backedge of each 600-crossing run). Without this the
  // runtime's deopt-driven recompile reinstalls a fresh variant within
  // the same run — correct, but it would hide the retire we assert on.
  Config.OsrBackedgeThreshold = 1'000'000'000;
  Config.ForceOsrEntry = [](std::string_view, unsigned, uint64_t Count) {
    return Count % 600 == 100;
  };
  jit::JitRuntime Runtime(*M, Compiler, Config);

  // First run: OSR compile + entry, then the tail's guard failure deopts
  // and retires the variant mid-loop.
  interp::ExecResult R = Runtime.runMain();
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, Expected);
  ASSERT_GE(Runtime.stats().OsrInstalls, 1u);
  ASSERT_GE(Runtime.stats().GuardFailures, 1u);
  EXPECT_GE(Runtime.stats().OsrInvalidations, 1u);
  EXPECT_GE(Runtime.codeEpoch(), 1u);

  // The retired variant is gone from the install cache; later runs reheat
  // the header and the blacklist-informed recompile reinstalls it.
  unsigned Header = 0;
  for (const auto &[Key, H] : opt::computeOsrPlan(*M->function("main"))
           .EdgeToHeader)
    Header = H;
  EXPECT_EQ(Runtime.installedOsrVariant("main", Header), nullptr);
  for (int Run = 0; Run < 6; ++Run) {
    interp::ExecResult Again = Runtime.runMain();
    ASSERT_TRUE(Again.ok());
    EXPECT_EQ(Again.Output, Expected) << "run " << Run;
  }
  const ir::Function *Reinstalled =
      Runtime.installedOsrVariant("main", Header);
  ASSERT_NE(Reinstalled, nullptr);
  ASSERT_NE(Reinstalled->osrAnchor(), nullptr);
  EXPECT_EQ(Reinstalled->osrAnchor()->HeaderBlockId, Header);
  EXPECT_GE(Runtime.stats().OsrInstalls, 2u);
}

TEST(JitOsrSubsystemTest, BlacklistedSpeculationStaysOutOfOsrBodies) {
  auto M = compile(OsrProfileLiesProgram);
  inliner::IncrementalCompiler Compiler;
  jit::JitRuntime Runtime(*M, Compiler, osrOnlyConfig());
  // Drive the site into the blacklist through OSR-body guard failures.
  for (int Run = 0; Run < 8; ++Run) {
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok());
  }
  ASSERT_FALSE(Runtime.speculationBlacklist().empty());
  // Every OSR body compiled after the blacklisting carries no guard on
  // the poisoned site: the final installed variant must be deopt-free at
  // runtime. Two more runs, zero new guard failures, entries still taken.
  uint64_t Failures = Runtime.stats().GuardFailures;
  uint64_t Entries = Runtime.stats().OsrEntries;
  for (int Run = 0; Run < 2; ++Run) {
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok());
  }
  EXPECT_EQ(Runtime.stats().GuardFailures, Failures);
  EXPECT_GT(Runtime.stats().OsrEntries, Entries);
}

//===----------------------------------------------------------------------===//
// Determinism: stream fingerprints with OSR in the mix
//===----------------------------------------------------------------------===//

struct OsrModeRun {
  std::string Output;
  std::string Fingerprint;
};

OsrModeRun runOsrProgram(const char *Source, jit::JitMode Mode,
                         unsigned Threads, inliner::TrialCacheMode TcMode) {
  auto M = compile(Source);
  inliner::InlinerConfig IC;
  IC.TrialCache = TcMode;
  inliner::IncrementalCompiler Compiler(IC);
  jit::JitConfig Config;
  Config.CompileThreshold = 2; // Methods and loops both tier up.
  Config.Osr = true;
  Config.OsrBackedgeThreshold = 50;
  Config.Mode = Mode;
  Config.Threads = Threads;
  jit::JitRuntime Runtime(*M, Compiler, Config);
  OsrModeRun Result;
  for (int Run = 0; Run < 4; ++Run) {
    interp::ExecResult R = Runtime.runMain();
    EXPECT_TRUE(R.ok()) << R.TrapMessage;
    Result.Output = R.Output;
    if (Mode == jit::JitMode::Async)
      Runtime.drainCompilations();
  }
  Runtime.drainCompilations();
  Result.Fingerprint = jit::streamFingerprint(Runtime.compilations());
  return Result;
}

TEST(JitOsrDeterminismTest, DeterministicStreamIsBitIdenticalToSync) {
  OsrModeRun Sync = runOsrProgram(OsrProfileLiesProgram, jit::JitMode::Sync,
                                  1, inliner::TrialCacheMode::Off);
  OsrModeRun Det =
      runOsrProgram(OsrProfileLiesProgram, jit::JitMode::Deterministic, 4,
                    inliner::TrialCacheMode::Off);
  EXPECT_EQ(Sync.Output, Det.Output);
  EXPECT_EQ(Sync.Fingerprint, Det.Fingerprint);
  EXPECT_NE(Sync.Fingerprint.find("osr"), std::string::npos)
      << "the compile stream must contain OSR records: "
      << Sync.Fingerprint;
}

TEST(JitOsrDeterminismTest, TrialCacheModesPreserveTheOsrStream) {
  OsrModeRun Reference =
      runOsrProgram(HotLoopProgram, jit::JitMode::Deterministic, 2,
                    inliner::TrialCacheMode::Off);
  OsrModeRun Shared =
      runOsrProgram(HotLoopProgram, jit::JitMode::Deterministic, 2,
                    inliner::TrialCacheMode::Shared);
  EXPECT_EQ(Reference.Output, Shared.Output);
  EXPECT_EQ(Reference.Fingerprint, Shared.Fingerprint);
}

//===----------------------------------------------------------------------===//
// Properties over seeded random programs
//===----------------------------------------------------------------------===//

TEST(JitOsrPropertyTest, EveryBuiltVariantVerifiesOnRandomLiveSets) {
  // FrameState capture -> OSR descriptor -> verifier round trip on
  // whatever live sets the generator randomizes into loop headers. A
  // planned header may be conservatively refused (inner headers whose
  // outer-loop live state would need SSA reconstruction), but a built
  // variant must always pass both the SSA verifier and the descriptor
  // resolution rules.
  unsigned VariantsBuilt = 0, HeadersRefused = 0;
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    std::string Source = fuzz::generateRandomProgram(Seed);
    auto M = compile(Source);
    for (const auto &[Name, F] : M->functions()) {
      opt::OsrPlan Plan = opt::computeOsrPlan(*F);
      for (unsigned Header : Plan.Headers) {
        std::unique_ptr<ir::Function> V = opt::buildOsrVariant(*F, Header);
        if (!V) {
          ++HeadersRefused;
          continue;
        }
        ++VariantsBuilt;
        std::vector<std::string> Problems = ir::verifyFunction(*V);
        std::vector<std::string> OsrProblems = ir::verifyOsrEntries(*V, *M);
        Problems.insert(Problems.end(), OsrProblems.begin(),
                        OsrProblems.end());
        EXPECT_TRUE(Problems.empty())
            << "seed " << Seed << ": " << Problems.front() << "\n"
            << ir::printFunction(*V);
      }
    }
  }
  // The generator makes loops by default; the property must not pass
  // vacuously, and refusal must be the exception, not the rule.
  EXPECT_GT(VariantsBuilt, 20u);
  EXPECT_LT(HeadersRefused, VariantsBuilt);
}

class JitOsrRandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JitOsrRandomProgramTest, ForcedOsrMatchesInterpreterOnRandomPrograms) {
  std::string Source = fuzz::generateRandomProgram(GetParam());
  auto Ref = compile(Source);
  interp::ExecResult RefRun = interp::runMain(*Ref);
  if (!RefRun.ok())
    GTEST_SKIP() << "reference traps; covered by the differential oracle";
  auto M = compile(Source);
  inliner::IncrementalCompiler Compiler;
  jit::JitConfig Config;
  Config.CompileThreshold = 3;
  Config.Osr = true;
  Config.OsrBackedgeThreshold = 2;
  jit::JitRuntime Runtime(*M, Compiler, Config);
  for (int Run = 0; Run < 2; ++Run) {
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok()) << R.TrapMessage << "\n" << Source;
    EXPECT_EQ(R.Output, RefRun.Output) << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitOsrRandomProgramTest,
                         ::testing::Range<uint64_t>(0, 40));

//===----------------------------------------------------------------------===//
// Chaos oracle with OSR stages
//===----------------------------------------------------------------------===//

TEST(JitOsrChaosOracleTest, ChaosOsrRoundTripsPreserveOutput) {
  // The full chaos gauntlet on the OSR-hostile program: forced OSR
  // entries, forced guard failures, injected compile faults, async
  // publication jitter — output must stay bit-identical everywhere.
  fuzz::OracleOptions Opts;
  Opts.CompileThreshold = 2;
  Opts.JitIterations = 4;
  Opts.Chaos.Enabled = true;
  Opts.Chaos.Seed = 11;
  Opts.Chaos.GuardFailureRate = 1.0;
  Opts.Chaos.CompileFaultRate = 0.3;
  Opts.Chaos.OsrForceRate = 1.0;

  fuzz::DifferentialOracle Oracle(Opts);
  std::optional<fuzz::Divergence> Div =
      Oracle.check(std::string(OsrProfileLiesProgram));
  EXPECT_FALSE(Div.has_value()) << Div->render();
}

TEST(JitOsrChaosOracleTest, OsrStagesRunByDefaultAndCanBeDisabled) {
  fuzz::OracleOptions Opts;
  Opts.CompileThreshold = 2;
  Opts.JitIterations = 3;
  fuzz::DifferentialOracle Oracle(Opts);
  std::optional<fuzz::Divergence> Div =
      Oracle.check(std::string(HotLoopProgram));
  EXPECT_FALSE(Div.has_value()) << Div->render();

  Opts.CheckOsr = false;
  fuzz::DifferentialOracle NoOsr(Opts);
  EXPECT_FALSE(NoOsr.check(std::string(HotLoopProgram)).has_value());
}

} // namespace
