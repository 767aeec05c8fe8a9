//===- opt/OsrPlan.cpp - Loop-entry OSR planning and skeleton building -----===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "opt/OsrPlan.h"

#include "ir/Dominators.h"
#include "ir/Function.h"
#include "ir/IRBuilder.h"
#include "ir/IRCloner.h"
#include "ir/IRVerifier.h"
#include "ir/Instruction.h"
#include "ir/LoopInfo.h"
#include "opt/CFGUtils.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace incline::opt {
using namespace incline::ir;

//===----------------------------------------------------------------------===//
// computeOsrPlan
//===----------------------------------------------------------------------===//

OsrPlan computeOsrPlan(const Function &F) {
  OsrPlan Plan;
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  if (LI.loops().empty())
    return Plan;

  // Iterative DFS from the entry to find retreating edges (target still on
  // the DFS stack). Dominance-backedges are the natural subset; the rest
  // belong to irreducible cycles and are normalized to the innermost
  // enclosing natural loop, counting toward its header without ever being
  // entry points themselves.
  enum : uint8_t { White, Grey, Black };
  std::unordered_map<const BasicBlock *, uint8_t> Color;
  struct DFSFrame {
    const BasicBlock *BB;
    SuccessorList Succs;
    size_t Next = 0;
  };
  std::vector<DFSFrame> Stack;
  const BasicBlock *Entry = F.entry();
  Color[Entry] = Grey;
  Stack.push_back({Entry, Entry->successors()});
  while (!Stack.empty()) {
    DFSFrame &Top = Stack.back();
    if (Top.Next == Top.Succs.size()) {
      Color[Top.BB] = Black;
      Stack.pop_back();
      continue;
    }
    BasicBlock *Succ = Top.Succs[Top.Next++];
    uint8_t &C = Color[Succ];
    if (C == White) {
      C = Grey;
      Stack.push_back({Succ, Succ->successors()});
      continue;
    }
    if (C != Grey)
      continue; // Forward/cross edge.
    // Retreating edge Top.BB -> Succ.
    const BasicBlock *From = Top.BB;
    if (DT.dominates(Succ, From) && LI.isHeader(Succ)) {
      Plan.EdgeToHeader[OsrPlan::edgeKey(From->id(), Succ->id())] = Succ->id();
      Plan.Headers.insert(Succ->id());
    } else if (const Loop *L = LI.loopFor(From)) {
      // Irreducible retreating edge: heat the innermost natural loop that
      // contains the source, but never enter at the irreducible target.
      Plan.EdgeToHeader[OsrPlan::edgeKey(From->id(), Succ->id())] =
          L->Header->id();
      Plan.Headers.insert(L->Header->id());
    }
    // Otherwise the cycle sits outside every natural loop; drop it.
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// buildOsrVariant
//===----------------------------------------------------------------------===//

std::unique_ptr<Function> buildOsrVariant(const Function &Baseline,
                                          unsigned HeaderBlockId) {
  // Locate the header by POSITION, not id: the clone renumbers block ids to
  // 0..N-1 in source block order, so position is the stable coordinate.
  size_t HeaderPos = ~size_t(0);
  for (size_t I = 0, E = Baseline.blocks().size(); I != E; ++I)
    if (Baseline.blocks()[I]->id() == HeaderBlockId) {
      HeaderPos = I;
      break;
    }
  if (HeaderPos == ~size_t(0) || HeaderPos == 0)
    return nullptr; // Unknown header, or header is the function entry.

  // Same name and signature as the baseline: the downstream pipeline
  // (devirt frame states, profiles, blacklists, trial cache) keys on the
  // method name and must treat the variant as "the method".
  ClonedFunction Clone = cloneFunction(Baseline, Baseline.name());
  Function &F = *Clone.F;
  BasicBlock *Header = F.blocks()[HeaderPos].get();

  // The loop region R: everything reachable from the header. Values defined
  // outside R but used inside it must dominate the header in the baseline
  // (any entry->use path passes their def before entering R), so they are
  // exactly the values available in the interpreted frame at loop entry.
  std::unordered_set<const BasicBlock *> R;
  {
    std::vector<BasicBlock *> Worklist{Header};
    R.insert(Header);
    while (!Worklist.empty()) {
      BasicBlock *BB = Worklist.back();
      Worklist.pop_back();
      for (BasicBlock *Succ : BB->successors())
        if (R.insert(Succ).second)
          Worklist.push_back(Succ);
    }
  }

  BasicBlock *EntryBB = F.addBlock("osr.entry");
  IRBuilder B(F, EntryBB);

  // One entry per header phi: the interpreted frame holds the phi's value
  // for the current iteration (the interpreter evaluates header phis before
  // transferring), keyed by the phi's own baseline profile id. These keep
  // their fresh builder-assigned ids — the cloned phi already carries the
  // baseline id, and frame-state capture resolves through the phi.
  BasicBlock::PhiList HeaderPhis = Header->phis();
  std::vector<Value *> PhiEntries;
  PhiEntries.reserve(HeaderPhis.size());
  for (PhiInst *Phi : HeaderPhis)
    PhiEntries.push_back(B.osrEntry(
        {FrameStateSlot::Target::Instruction, Phi->profileId()}, Phi->type()));

  // Drop phi incomings from outside the region: those predecessors become
  // unreachable in the variant. (removeUnreachableBlocks would fix them too,
  // but pruning first keeps the operand scan below from materializing
  // entries for values only the dead edges referenced.)
  for (const auto &BBPtr : F.blocks()) {
    if (!R.count(BBPtr.get()))
      continue;
    for (PhiInst *Phi : BBPtr->phis()) {
      std::vector<const BasicBlock *> Dead;
      for (size_t I = 0, E = Phi->numIncoming(); I != E; ++I)
        if (!R.count(Phi->incomingBlock(I)))
          Dead.push_back(Phi->incomingBlock(I));
      for (const BasicBlock *Pred : Dead)
        Phi->removeIncoming(Pred);
    }
  }

  // Materialize every out-of-region definition used inside the region, one
  // OsrEntryInst per definition. The entry takes OVER the definition's
  // baseline profile id: speculative devirtualization's frame-state capture
  // resolves captured operands via `CloneValues.at(baselineId)` on the
  // compile clone, and the materialization is now that id's definition.
  std::unordered_map<const Instruction *, OsrEntryInst *> Materialized;
  for (const auto &BBPtr : F.blocks()) {
    if (!R.count(BBPtr.get()))
      continue;
    for (const auto &InstPtr : BBPtr->instructions()) {
      Instruction *Inst = InstPtr.get();
      for (size_t I = 0, E = Inst->numOperands(); I != E; ++I) {
        auto *Def = dyn_cast<Instruction>(Inst->operand(I));
        if (!Def || R.count(Def->parent()) || Def->parent() == EntryBB)
          continue;
        OsrEntryInst *&OE = Materialized[Def];
        if (!OE) {
          OE = B.osrEntry(
              {FrameStateSlot::Target::Instruction, Def->profileId()},
              Def->type());
          OE->setProfileId(Def->profileId());
        }
        Inst->setOperand(I, OE);
      }
    }
  }

  B.jump(Header);
  for (size_t I = 0, E = HeaderPhis.size(); I != E; ++I)
    HeaderPhis[I]->addIncoming(PhiEntries[I], EntryBB);

  F.moveBlockToFront(EntryBB);
  removeUnreachableBlocks(F);
  F.setOsrAnchor({Baseline.name(), HeaderBlockId});

  // Conservative eligibility gate. Entering at an *inner* loop header can
  // leave outer-loop state live across the inner loop without a dominating
  // definition: the block that computed it sits on the skipped path from
  // the outer header, so in the variant it no longer dominates its uses in
  // the outer latch/exit. Repairing that needs full SSA reconstruction
  // (fresh header phis merging the materialized entry with the recomputed
  // def); instead — like production VMs that bail out of OSR at
  // unsupported loop shapes — we refuse the header, and the runtime's
  // bailout/backoff path keeps the loop interpreted. The dominating
  // (outermost-entry) headers of the nest remain eligible.
  if (!ir::verifyFunction(F).empty())
    return nullptr;
  return std::move(Clone.F);
}

} // namespace incline::opt
