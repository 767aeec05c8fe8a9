//===- opt/LoopPeeling.cpp ----------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "opt/LoopPeeling.h"

#include "ir/Dominators.h"
#include "ir/Function.h"
#include "ir/IRCloner.h"
#include "ir/LoopInfo.h"
#include "support/Casting.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace incline;
using namespace incline::ir;
using namespace incline::opt;

namespace {

/// The canonical while-loop shape required for peeling.
struct PeelableLoop {
  BasicBlock *Header = nullptr;
  BasicBlock *Preheader = nullptr; ///< The unique entry predecessor.
  BasicBlock *Latch = nullptr;
  BasicBlock *Exit = nullptr; ///< Unique exit block; only edge is H -> E.
  std::vector<BasicBlock *> Blocks; ///< Deterministic order, header first.
};

/// Returns the canonical shape of \p L, or nullopt when it does not match.
std::optional<PeelableLoop> matchShape(const Loop &L, const Function &F) {
  PeelableLoop Shape;
  Shape.Header = L.Header;
  if (L.Latches.size() != 1)
    return std::nullopt;
  Shape.Latch = L.Latches[0];

  for (BasicBlock *Pred : L.Header->predecessors()) {
    if (Pred == Shape.Latch)
      continue;
    if (Shape.Preheader)
      return std::nullopt; // Multiple entry edges.
    Shape.Preheader = Pred;
  }
  if (!Shape.Preheader)
    return std::nullopt;

  // All exit edges must leave from the header, to a single outside block
  // whose only predecessor is the header.
  for (BasicBlock *BB : F.reversePostOrder()) {
    if (!L.contains(BB))
      continue;
    for (BasicBlock *Succ : BB->successors()) {
      if (L.contains(Succ))
        continue;
      if (BB != L.Header)
        return std::nullopt; // Break-style exit from the body.
      if (Shape.Exit && Shape.Exit != Succ)
        return std::nullopt;
      Shape.Exit = Succ;
    }
  }
  if (!Shape.Exit || Shape.Exit->predecessors().size() != 1)
    return std::nullopt;

  // Deterministic block order: function order restricted to the loop.
  for (const auto &BB : F.blocks())
    if (L.contains(BB.get()))
      Shape.Blocks.push_back(BB.get());
  // Header phis must be exactly [preheader, latch] shaped.
  for (PhiInst *Phi : L.Header->phis())
    if (Phi->numIncoming() != 2 || !Phi->incomingValueFor(Shape.Preheader) ||
        !Phi->incomingValueFor(Shape.Latch))
      return std::nullopt;
  return Shape;
}

/// The paper's trigger: some header phi is more precisely typed on the
/// entry edge than in the steady state.
bool hasTypeTrigger(const PeelableLoop &Shape) {
  for (PhiInst *Phi : Shape.Header->phis()) {
    Value *Entry = Phi->incomingValueFor(Shape.Preheader);
    if (!Phi->type().isObject())
      continue;
    if (Entry->hasExactType() && !Phi->hasExactType())
      return true;
  }
  return false;
}

size_t loopSize(const PeelableLoop &Shape) {
  size_t Size = 0;
  for (const BasicBlock *BB : Shape.Blocks)
    Size += BB->size();
  return Size;
}

void peelOne(Function &F, const PeelableLoop &Shape) {
  BasicBlock *H = Shape.Header;
  BasicBlock *Pre = Shape.Preheader;
  BasicBlock *L = Shape.Latch;
  BasicBlock *E = Shape.Exit;

  // Seed: header phis become their entry values in the peeled copy.
  std::unordered_map<const Value *, Value *> Seed;
  BasicBlock::PhiList HeaderPhis = H->phis();
  for (PhiInst *Phi : HeaderPhis)
    Seed[Phi] = Phi->incomingValueFor(Pre);

  ClonedRegion Region = cloneRegion(F, Shape.Blocks, Seed);
  BasicBlock *HPeel = Region.BlockMap.at(H);
  BasicBlock *LPeel = Region.BlockMap.at(L);

  // The peeled latch continues into the *original* loop header, not into
  // another peeled iteration.
  replaceSuccessor(LPeel->terminator(), HPeel, H);

  // Enter the peeled copy instead of the loop.
  replaceSuccessor(Pre->terminator(), H, HPeel);

  // Header phis: the entry edge is now the peeled latch, carrying the
  // peeled copy of the latch value.
  for (PhiInst *Phi : HeaderPhis) {
    Value *LatchVal = Phi->incomingValueFor(L);
    Phi->removeIncoming(Pre);
    auto It = Region.ValueMap.find(LatchVal);
    Value *PeeledVal = It != Region.ValueMap.end() ? It->second : LatchVal;
    Phi->addIncoming(PeeledVal, LPeel);
  }

  // Exit block: it gained the edge HPeel -> E. Merge every loop-defined
  // value used outside the loop through a phi in E. (Also covers E's own
  // pre-existing phis implicitly, since those only referenced values via
  // the H edge; E had a single predecessor, so it had no phis in canonical
  // form — but be thorough and fix any anyway.)
  for (PhiInst *Phi : E->phis()) {
    Value *FromH = Phi->incomingValueFor(H);
    assert(FromH && "exit phi must have an H edge");
    auto It = Region.ValueMap.find(FromH);
    Phi->addIncoming(It != Region.ValueMap.end() ? It->second : FromH,
                     HPeel);
  }

  std::unordered_set<const BasicBlock *> InLoop(Shape.Blocks.begin(),
                                                Shape.Blocks.end());
  for (BasicBlock *BB : Shape.Blocks) {
    for (const auto &InstOwner : BB->instructions()) {
      Instruction *Inst = InstOwner.get();
      if (Inst->type().isVoid())
        continue;
      // Users outside the loop (and outside the peeled copy).
      std::vector<Instruction *> OutsideUsers;
      for (Instruction *User : Inst->users()) {
        BasicBlock *UserBB = User->parent();
        bool Outside = !InLoop.count(UserBB);
        for (const auto &[Orig, Clone] : Region.BlockMap)
          if (UserBB == Clone)
            Outside = false;
        if (Outside && UserBB != E)
          OutsideUsers.push_back(User);
        else if (Outside && UserBB == E && !isa<PhiInst>(User))
          OutsideUsers.push_back(User);
      }
      // Phis in E that we just patched already merge correctly.
      if (OutsideUsers.empty())
        continue;
      auto MergePhi = std::make_unique<PhiInst>(Inst->type());
      MergePhi->setProfileId(F.takeNextProfileId());
      auto *Merge = cast<PhiInst>(E->insertAt(0, std::move(MergePhi)));
      Merge->addIncoming(Inst, H);
      auto It = Region.ValueMap.find(static_cast<Value *>(Inst));
      Merge->addIncoming(It != Region.ValueMap.end() ? It->second : Inst,
                         HPeel);
      for (Instruction *User : OutsideUsers)
        User->replaceUsesOfWith(Inst, Merge);
    }
  }
}

} // namespace

size_t incline::opt::peelLoops(Function &F, const DominatorTree &DT,
                               const LoopInfo &LI, const PeelOptions &Options) {
  (void)DT; // Shape matching only needs LoopInfo; DT kept it current.

  // Collect candidates before mutating (peeling invalidates LoopInfo).
  std::vector<PeelableLoop> Candidates;
  for (const auto &L : LI.loops()) {
    std::optional<PeelableLoop> Shape = matchShape(*L, F);
    if (!Shape)
      continue;
    if (loopSize(*Shape) > Options.MaxLoopSize)
      continue;
    if (Options.RequireTypeTrigger && !hasTypeTrigger(*Shape))
      continue;
    Candidates.push_back(std::move(*Shape));
  }
  // Peel outermost-first is unnecessary: peel only non-overlapping loops in
  // one run to keep block lists valid (nested candidates share blocks).
  std::unordered_set<const BasicBlock *> Touched;
  size_t Peeled = 0;
  for (const PeelableLoop &Shape : Candidates) {
    bool Overlaps = false;
    for (BasicBlock *BB : Shape.Blocks)
      if (Touched.count(BB))
        Overlaps = true;
    if (Overlaps)
      continue;
    for (BasicBlock *BB : Shape.Blocks)
      Touched.insert(BB);
    peelOne(F, Shape);
    ++Peeled;
  }
  return Peeled;
}
