//===- tests/ir_framemapping_test.cpp - Frame-transfer mapping tests ------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ir::FrameMapping, the one resolver of deopt and OSR frame transfers: the
/// mappings it builds, the errors it reports in check order, and the
/// install-time checks built on it (verifyFrameStates, verifyOsrEntries),
/// pinned as exact message lists for hand-broken transfers against one
/// baseline function.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "ir/FrameMapping.h"
#include "ir/IRBuilder.h"
#include "ir/IRVerifier.h"
#include "support/Casting.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace incline;
using namespace incline::ir;
using incline::testing::compile;
using types::Type;
using Problems = std::vector<std::string>;
using SlotKind = FrameStateSlot::Target;

namespace {

/// `base(s, n)`: a virtual call in the entry block, then a loop whose
/// header starts with a phi.
const char BaseSource[] = R"(
class Shape { def area(): int { return 1; } }
def base(s: Shape, n: int): int {
  var a = s.area();
  var i = 0;
  while (i < n) { i = i + a; }
  return i;
}
)";

/// The parts of `base` the cases name.
struct Base {
  std::unique_ptr<Module> M;
  const Function *F = nullptr;
  const BasicBlock *Entry = nullptr;
  const BasicBlock *Header = nullptr; ///< The loop header.
  const Instruction *Call = nullptr;  ///< The virtual call.
  const Instruction *Phi = nullptr;   ///< The header's first phi.
  const Instruction *HeaderFirst = nullptr; ///< Its first non-phi.
  const Instruction *BodyDef = nullptr; ///< A value the header does not see.
  const Instruction *Void = nullptr;    ///< A void instruction.
};

Base buildBase() {
  Base B;
  B.M = compile(BaseSource);
  B.F = B.M->function("base");
  B.Entry = B.F->entry();
  for (const auto &BB : B.F->blocks()) {
    for (const auto &I : BB->instructions()) {
      if (isa<VirtualCallInst>(I.get()))
        B.Call = I.get();
      if (isa<PhiInst>(I.get()) && !B.Header) {
        B.Header = BB.get();
        B.Phi = I.get();
        B.HeaderFirst = BB->instructions()[BB->phis().size()].get();
      }
      if (I->type().isVoid() && !B.Void)
        B.Void = I.get();
    }
  }
  // The loop body: the header's in-loop successor, which it dominates.
  for (const auto &BB : B.F->blocks())
    if (BB.get() != B.Header && BB->terminator() &&
        isa<JumpInst>(BB->terminator()) &&
        cast<JumpInst>(BB->terminator())->target() == B.Header &&
        BB.get() != B.Entry)
      for (const auto &I : BB->instructions())
        if (!I->type().isVoid() && !B.BodyDef)
          B.BodyDef = I.get();
  return B;
}

/// `spec(x, y)`, one deopt into `base` per frame state in \p States, each
/// capturing (x, y, x, y, ...) — one operand per slot unless \p Operands
/// says otherwise.
std::unique_ptr<Function> deoptsInto(std::vector<FrameState> States,
                                     const char *Reason = "test",
                                     int Operands = -1) {
  auto F = std::make_unique<Function>(
      "spec", std::vector<Type>{Type::intTy(), Type::intTy()},
      std::vector<std::string>{"x", "y"}, Type::intTy());
  BasicBlock *Entry = F->addBlock("entry");
  IRBuilder B(*F, Entry);
  for (size_t S = 0; S < States.size(); ++S) {
    std::vector<Value *> Captured;
    size_t N = Operands < 0 ? States[S].Slots.size() : size_t(Operands);
    for (size_t I = 0; I < N; ++I)
      Captured.push_back(F->arg(I % 2));
    if (S + 1 < States.size()) {
      BasicBlock *Trap = F->addBlock("trap");
      BasicBlock *Next = F->addBlock("next");
      B.branch(B.constBool(true), Next, Trap);
      B.setInsertBlock(Trap);
      B.deopt(Reason, std::move(States[S]), Captured);
      B.setInsertBlock(Next);
    } else {
      B.deopt(Reason, std::move(States[S]), Captured);
    }
  }
  return F;
}

FrameState stateAt(const BasicBlock *BB, unsigned Resume,
                   std::vector<FrameStateSlot> Slots = {}) {
  FrameState FS;
  FS.BaselineSymbol = "base";
  FS.BaselineBlockId = BB->id();
  FS.ResumePoint = Resume;
  FS.Slots = std::move(Slots);
  return FS;
}

TEST(FrameStateVerifierTest, ResolvableStatesPass) {
  Base B = buildBase();
  auto Spec = deoptsInto(
      {stateAt(B.Entry, B.Call->profileId(),
               {{SlotKind::Argument, 0}, {SlotKind::Argument, 1}})});
  EXPECT_EQ(verifyFrameStates(*Spec, *B.M), Problems{});
  auto Cold = deoptsInto(
      {stateAt(B.Header, B.HeaderFirst->profileId(),
               {{SlotKind::Instruction, B.Phi->profileId()},
                {SlotKind::Instruction, B.Call->profileId()}})},
      DeoptInst::ColdBranchReason);
  EXPECT_EQ(verifyFrameStates(*Cold, *B.M), Problems{});
}

TEST(FrameStateVerifierTest, UnknownBaselineAndMissingBlock) {
  Base B = buildBase();
  FrameState Unknown = stateAt(B.Entry, B.Call->profileId());
  Unknown.BaselineSymbol = "nope";
  FrameState NoBlock = stateAt(B.Entry, B.Call->profileId());
  NoBlock.BaselineBlockId = 999;
  auto Spec = deoptsInto({Unknown, NoBlock});
  EXPECT_EQ(verifyFrameStates(*Spec, *B.M),
            (Problems{"[spec] deopt frame state names unknown baseline "
                      "function nope",
                      "[spec] deopt frame state names missing block 999 of "
                      "base"}));
}

TEST(FrameStateVerifierTest, GuardResumeMustBeAVirtualCall) {
  Base B = buildBase();
  auto Spec = deoptsInto({stateAt(B.Header, B.HeaderFirst->profileId()),
                          stateAt(B.Header, B.Phi->profileId()),
                          stateAt(B.Entry, 999)});
  EXPECT_EQ(
      verifyFrameStates(*Spec, *B.M),
      (Problems{
          formatString("[spec] deopt frame state resume point #%u is not a "
                       "virtual call in block %u of base",
                       B.HeaderFirst->profileId(), B.Header->id()),
          formatString("[spec] deopt frame state resume point #%u is not a "
                       "virtual call in block %u of base",
                       B.Phi->profileId(), B.Header->id()),
          formatString("[spec] deopt frame state resume point #999 is not a "
                       "virtual call in block %u of base",
                       B.Entry->id())}));
}

TEST(FrameStateVerifierTest, ColdBranchResumeMustBeTheFirstNonPhi) {
  Base B = buildBase();
  auto Spec = deoptsInto({stateAt(B.Header, B.Phi->profileId()),
                          stateAt(B.Entry, 999)},
                         DeoptInst::ColdBranchReason);
  auto Msg = [&](unsigned Resume, const BasicBlock *BB) {
    return formatString("[spec] cold-branch frame state resume point #%u is "
                        "not the first non-phi instruction of block %u of "
                        "base",
                        Resume, BB->id());
  };
  EXPECT_EQ(verifyFrameStates(*Spec, *B.M),
            (Problems{Msg(B.Phi->profileId(), B.Header),
                      Msg(999, B.Entry)}));
}

TEST(FrameStateVerifierTest, EveryUnresolvableSlotIsReported) {
  Base B = buildBase();
  std::vector<FrameStateSlot> Slots = {
      {SlotKind::Argument, 5},
      {SlotKind::Instruction, 999},
      {SlotKind::Argument, 1},
      {SlotKind::Instruction, B.Void->profileId()},
      {SlotKind::Instruction, B.BodyDef->profileId()}};
  Problems Expected = {
      "[spec] deopt frame state maps to argument 5 of base (which has 2 "
      "parameters)",
      "[spec] deopt frame state maps to missing baseline instruction #999 "
      "of base",
      formatString("[spec] deopt frame state maps to missing baseline "
                   "instruction #%u of base",
                   B.Void->profileId())};
  auto Spec = deoptsInto({stateAt(B.Entry, B.Call->profileId(), Slots)});
  EXPECT_EQ(verifyFrameStates(*Spec, *B.M), Expected);
  // The slot count is verifyFunction's concern: a state with more slots
  // than captured operands still has each slot resolved.
  auto Short = deoptsInto({stateAt(B.Entry, B.Call->profileId(), Slots)},
                          "test", /*Operands=*/1);
  EXPECT_EQ(verifyFrameStates(*Short, *B.M), Expected);
}

//===----------------------------------------------------------------------===//
// OSR entry runs.
//===----------------------------------------------------------------------===//

/// `v(s, n)`, an OSR variant of `base` anchored at \p HeaderId whose entry
/// block begins with one OsrEntryInst per slot in \p Slots; with \p Stray,
/// one more entry sits in a second block.
std::unique_ptr<Function> variant(unsigned HeaderId,
                                  std::vector<FrameStateSlot> Slots,
                                  const FrameStateSlot *Stray = nullptr) {
  auto F = std::make_unique<Function>(
      "v", std::vector<Type>{Type::object(0), Type::intTy()},
      std::vector<std::string>{"s", "n"}, Type::intTy());
  BasicBlock *Entry = F->addBlock("osr.entry");
  IRBuilder B(*F, Entry);
  Value *Last = F->arg(1);
  for (const FrameStateSlot &Slot : Slots)
    Last = B.osrEntry(Slot, Type::intTy());
  if (Stray) {
    BasicBlock *Next = F->addBlock("next");
    B.jump(Next);
    B.setInsertBlock(Next);
    B.osrEntry(*Stray, Type::intTy());
  }
  B.ret(Last);
  F->setOsrAnchor({"base", HeaderId});
  return F;
}

TEST(OsrEntryVerifierTest, AvailableSourcesPass) {
  Base B = buildBase();
  auto V = variant(B.Header->id(),
                   {{SlotKind::Argument, 0},
                    {SlotKind::Instruction, B.Call->profileId()},
                    {SlotKind::Instruction, B.Phi->profileId()}});
  EXPECT_EQ(verifyOsrEntries(*V, *B.M), Problems{});
  // A function without an anchor has nothing to resolve against.
  Function Unanchored("u", {}, {}, Type::voidTy());
  IRBuilder(Unanchored, Unanchored.addBlock("entry"))
      .osrEntry({SlotKind::Argument, 9}, Type::intTy());
  EXPECT_EQ(verifyOsrEntries(Unanchored, *B.M), Problems{});
}

TEST(OsrEntryVerifierTest, AnchorMustNameAReachableBaselineBlock) {
  Base B = buildBase();
  auto Unknown = variant(B.Header->id(), {});
  Unknown->setOsrAnchor({"nope", B.Header->id()});
  EXPECT_EQ(verifyOsrEntries(*Unknown, *B.M),
            Problems{"[v] osr anchor names unknown baseline function nope"});
  EXPECT_EQ(verifyOsrEntries(*variant(999, {}), *B.M),
            Problems{"[v] osr anchor names missing block 999 of base"});
  Function *Mutable = B.M->function("base");
  BasicBlock *Dead = Mutable->addBlock("dead");
  IRBuilder(*Mutable, Dead).ret(Mutable->constInt(0));
  EXPECT_EQ(verifyOsrEntries(*variant(Dead->id(), {}), *B.M),
            Problems{formatString("[v] osr anchor block %u of base is "
                                  "unreachable",
                                  Dead->id())});
}

TEST(OsrEntryVerifierTest, EveryUnavailableSourceIsReported) {
  Base B = buildBase();
  FrameStateSlot Stray{SlotKind::Instruction, 998};
  auto V = variant(B.Header->id(),
                   {{SlotKind::Argument, 5},
                    {SlotKind::Instruction, 999},
                    {SlotKind::Instruction, B.BodyDef->profileId()},
                    {SlotKind::Instruction, B.HeaderFirst->profileId()},
                    {SlotKind::Instruction, B.Void->profileId()},
                    {SlotKind::Argument, 1}},
                   &Stray);
  auto NotDominating = [&](const Instruction *I) {
    return formatString("[v] osr entry reads baseline instruction #%u of "
                        "base, which does not dominate the anchor header "
                        "bb%u",
                        I->profileId(), B.Header->id());
  };
  EXPECT_EQ(
      verifyOsrEntries(*V, *B.M),
      (Problems{"[v] osr entry reads argument 5 of base (which has 2 "
                "parameters)",
                "[v] osr entry reads missing baseline instruction #999 of "
                "base",
                NotDominating(B.BodyDef), NotDominating(B.HeaderFirst),
                formatString("[v] osr entry reads missing baseline "
                             "instruction #%u of base",
                             B.Void->profileId()),
                "[v] osr entry reads missing baseline instruction #998 of "
                "base"}));
}

/// The deopt of a deoptsInto function with one frame state.
const DeoptInst &soleDeopt(const Function &F) {
  return *cast<DeoptInst>(F.entry()->terminator());
}

using Moves = std::vector<std::pair<const Value *, const Value *>>;

Moves movesOf(const FrameMapping &Map) {
  Moves Result;
  for (const FrameMapping::Move &Mv : Map.Moves)
    Result.push_back({Mv.From, Mv.To});
  return Result;
}

TEST(FrameMappingTest, DeoptMovesEachCapturedOperandToItsSlot) {
  Base B = buildBase();
  auto Spec = deoptsInto({stateAt(B.Entry, B.Call->profileId(),
                                  {{SlotKind::Argument, 1},
                                   {SlotKind::Instruction,
                                    B.Call->profileId()}})});
  FrameMappingResult R = resolveDeopt(soleDeopt(*Spec), *B.M);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Map.Target, B.F);
  EXPECT_EQ(R.Map.ResumeBlock, B.Entry);
  EXPECT_EQ(B.Entry->instructions()[R.Map.ResumeIndex].get(), B.Call);
  EXPECT_EQ(movesOf(R.Map), (Moves{{Spec->arg(0), B.F->arg(1)},
                                   {Spec->arg(1), B.Call}}));
  EXPECT_TRUE(R.UnresolvedSlots.empty());

  // A cold-branch trap resumes past the block's phis, whose values the
  // slots carry.
  auto Cold = deoptsInto({stateAt(B.Header, B.HeaderFirst->profileId(),
                                  {{SlotKind::Instruction,
                                    B.Phi->profileId()}})},
                         DeoptInst::ColdBranchReason);
  R = resolveDeopt(soleDeopt(*Cold), *B.M);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Map.ResumeIndex, B.Header->numPhis());
  EXPECT_EQ(movesOf(R.Map), (Moves{{Cold->arg(0), B.Phi}}));
}

TEST(FrameMappingTest, DeoptErrorsComeInCheckOrder) {
  Base B = buildBase();
  auto errorOf = [&](FrameState FS, int Operands = -1) {
    auto Spec = deoptsInto({std::move(FS)}, "test", Operands);
    return resolveDeopt(soleDeopt(*Spec), *B.M);
  };
  FrameState Unknown = stateAt(B.Entry, 999);
  Unknown.BaselineSymbol = "nope";
  EXPECT_EQ(errorOf(Unknown).Error, FrameMappingError::UnknownBaseline);
  FrameState NoBlock = stateAt(B.Entry, 999);
  NoBlock.BaselineBlockId = 999;
  EXPECT_EQ(errorOf(NoBlock).Error, FrameMappingError::MissingBlock);
  EXPECT_EQ(errorOf(stateAt(B.Entry, 999)).Error,
            FrameMappingError::ResumeNotFound);
  // A phi is never a resume point.
  EXPECT_EQ(errorOf(stateAt(B.Header, B.Phi->profileId())).Error,
            FrameMappingError::ResumeNotFound);

  std::vector<FrameStateSlot> Slots = {{SlotKind::Argument, 0},
                                       {SlotKind::Instruction, 999},
                                       {SlotKind::Argument, 2}};
  FrameMappingResult R =
      errorOf(stateAt(B.Entry, B.Call->profileId(), Slots));
  EXPECT_EQ(R.Error, FrameMappingError::UnresolvedSlot);
  EXPECT_EQ(R.UnresolvedSlots, (std::vector<size_t>{1, 2}));
  // A slot count that disagrees with the operands wins over unresolved
  // slots, which are still all listed.
  R = errorOf(stateAt(B.Entry, B.Call->profileId(), Slots), 1);
  EXPECT_EQ(R.Error, FrameMappingError::SlotCountMismatch);
  EXPECT_EQ(R.UnresolvedSlots, (std::vector<size_t>{1, 2}));
}

TEST(FrameMappingTest, OsrEntryMovesArgumentsThenTheEntryRun) {
  Base B = buildBase();
  auto V = variant(B.Header->id(),
                   {{SlotKind::Instruction, B.Phi->profileId()},
                    {SlotKind::Argument, 0}});
  FrameMappingResult R = resolveOsrEntry(*V, *B.F);
  ASSERT_TRUE(R.ok());
  const auto &Entry = V->entry()->instructions();
  EXPECT_EQ(R.Map.Target, V.get());
  EXPECT_EQ(R.Map.ResumeBlock, V->entry());
  EXPECT_EQ(R.Map.ResumeIndex, 2u);
  EXPECT_EQ(movesOf(R.Map), (Moves{{B.F->arg(0), V->arg(0)},
                                   {B.F->arg(1), V->arg(1)},
                                   {B.Phi, Entry[0].get()},
                                   {B.F->arg(0), Entry[1].get()}}));

  auto Bad = variant(B.Header->id(), {{SlotKind::Argument, 0},
                                      {SlotKind::Instruction, 999},
                                      {SlotKind::Argument, 7}});
  R = resolveOsrEntry(*Bad, *B.F);
  EXPECT_EQ(R.Error, FrameMappingError::UnresolvedSlot);
  EXPECT_EQ(R.UnresolvedSlots, (std::vector<size_t>{1, 2}));
}

} // namespace
