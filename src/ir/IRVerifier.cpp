//===- ir/IRVerifier.cpp -----------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRVerifier.h"

#include "ir/Dominators.h"
#include "ir/FrameMapping.h"
#include "ir/Module.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>

using namespace incline;
using namespace incline::ir;

namespace {

constexpr uint32_t NoSlot = UINT32_MAX;

/// The verifier's tables, flat and indexed by the dense ids of Function's
/// id contract. One Scratch serves every function of a verifyModule call:
/// each function re-sizes the tables to its own id bounds, so the storage
/// grows to the largest function and is freed when the call returns.
struct Scratch {
  // Instruction slots: an instruction's id is its slot, unless the id is
  // out of range or already taken (both reported), in which case it gets
  // an overflow slot past instIdBound().
  std::vector<const Instruction *> InstAt;
  std::vector<uint32_t> Position; ///< Index in the block, by slot.
  // Expected users per value slot (argument I is slot I, instruction slot
  // S is numParams() + S), as one bucketed array.
  std::vector<uint32_t> UseBegin;
  std::vector<const Instruction *> Uses;
  std::vector<const Instruction *> Actual;
  // Blocks by id, and the sources of the terminator edges into each block.
  std::vector<const BasicBlock *> BlockAt;
  std::vector<uint32_t> EdgeBegin;
  std::vector<const BasicBlock *> EdgeSources;
  std::vector<int> Count;
  // Per-block-id marks: a block is in a set when its mark equals the set's
  // generation, so starting a new set costs nothing.
  std::vector<uint32_t> PredMark, EdgeMark, SeenMark;
  std::vector<const BasicBlock *> ForeignPreds;
};

class Verifier {
public:
  Verifier(const Function &F, Scratch &S) : F(F), S(S) {}

  std::vector<std::string> run() {
    checkBlocks();
    checkUseDefSymmetry();
    checkPredecessorSymmetry();
    checkPhis();
    checkGuardsAndFrameStates();
    checkOsrEntries();
    checkDominance();
    return std::move(Problems);
  }

private:
  void problem(std::string Msg) {
    Problems.push_back("[" + F.name() + "] " + std::move(Msg));
  }

  void checkBlocks() {
    S.InstAt.assign(F.instIdBound(), nullptr);
    S.Position.assign(F.instIdBound(), 0);
    S.BlockAt.assign(F.blockIdBound(), nullptr);
    for (const auto &BB : F.blocks()) {
      assert(BB->id() < S.BlockAt.size() && !S.BlockAt[BB->id()] &&
             "block ids are unique and in range by construction");
      S.BlockAt[BB->id()] = BB.get();
    }
    if (F.blocks().empty()) {
      problem("function has no blocks");
      return;
    }
    if (!F.entry()->predecessors().empty())
      problem("entry block has predecessors");
    for (const auto &BB : F.blocks()) {
      if (BB->empty()) {
        problem("block " + BB->name() + " is empty");
        continue;
      }
      bool SeenNonPhi = false;
      for (size_t I = 0; I < BB->size(); ++I) {
        const Instruction *Inst = BB->instructions()[I].get();
        if (Inst->parent() != BB.get())
          problem("instruction parent link broken in " + BB->name());
        if (isa<PhiInst>(Inst)) {
          if (SeenNonPhi)
            problem("phi after non-phi in " + BB->name());
        } else {
          SeenNonPhi = true;
        }
        bool IsLast = I + 1 == BB->size();
        if (Inst->isTerminator() != IsLast)
          problem(IsLast ? "block " + BB->name() + " lacks a terminator"
                         : "terminator in the middle of " + BB->name());
        claimSlot(Inst, *BB, static_cast<uint32_t>(I));
      }
    }
  }

  /// Gives \p Inst, at \p Position in \p BB, its slot: its id, or an
  /// overflow slot when the id breaks Function's id contract.
  void claimSlot(const Instruction *Inst, const BasicBlock &BB,
                 uint32_t Position) {
    unsigned Id = Inst->instId();
    uint32_t Slot = Id;
    bool InRange = Id != 0 && Id < F.instIdBound();
    if (!InRange || S.InstAt[Id]) {
      problem(formatString(InRange ? "instruction id %u in %s is shared with "
                                     "another instruction"
                                   : "instruction id %u in %s is outside the "
                                     "function's id range",
                           Id, BB.name().c_str()));
      Slot = static_cast<uint32_t>(S.InstAt.size());
      S.InstAt.push_back(nullptr);
      S.Position.push_back(0);
    }
    S.InstAt[Slot] = Inst;
    S.Position[Slot] = Position;
  }

  /// \p Inst's slot, or NoSlot if it is not an instruction of this function.
  uint32_t instSlot(const Instruction *Inst) const {
    unsigned Id = Inst->instId();
    if (Id < F.instIdBound() && S.InstAt[Id] == Inst)
      return Id;
    for (size_t Slot = F.instIdBound(); Slot < S.InstAt.size(); ++Slot)
      if (S.InstAt[Slot] == Inst)
        return static_cast<uint32_t>(Slot);
    return NoSlot;
  }

  /// \p V's value slot, or NoSlot for constants and for values of other
  /// functions.
  uint32_t valueSlot(const Value *V) const {
    if (const auto *Arg = dyn_cast<Argument>(V))
      return Arg->index() < F.numParams() && F.arg(Arg->index()) == Arg
                 ? Arg->index()
                 : NoSlot;
    const auto *Inst = dyn_cast<Instruction>(V);
    uint32_t Slot = Inst ? instSlot(Inst) : NoSlot;
    return Slot == NoSlot ? NoSlot
                          : static_cast<uint32_t>(F.numParams()) + Slot;
  }

  void checkUseDefSymmetry() {
    // Every operand's use list must contain the user exactly as many times
    // as the user references the operand, and vice versa. The expected
    // users of each value go into its bucket of S.Uses.
    const size_t NumSlots = F.numParams() + S.InstAt.size();
    S.UseBegin.assign(NumSlots + 1, 0);
    for (const auto &BB : F.blocks())
      for (const auto &Inst : BB->instructions())
        for (const Value *Op : Inst->operands()) {
          uint32_t Slot = valueSlot(Op);
          if (Slot != NoSlot)
            ++S.UseBegin[Slot + 1];
          else if (!isa<Constant>(Op))
            problem("operand defined outside the function");
        }
    for (size_t Slot = 0; Slot < NumSlots; ++Slot)
      S.UseBegin[Slot + 1] += S.UseBegin[Slot];
    S.Uses.resize(S.UseBegin[NumSlots]);
    // Fill each bucket from its front, which leaves UseBegin[Slot] at the
    // bucket's end; shifting by one restores the starts.
    for (const auto &BB : F.blocks())
      for (const auto &Inst : BB->instructions())
        for (const Value *Op : Inst->operands())
          if (uint32_t Slot = valueSlot(Op); Slot != NoSlot)
            S.Uses[S.UseBegin[Slot]++] = Inst.get();
    for (size_t Slot = NumSlots; Slot > 0; --Slot)
      S.UseBegin[Slot] = S.UseBegin[Slot - 1];
    S.UseBegin[0] = 0;

    for (size_t Slot = 0; Slot < NumSlots; ++Slot) {
      const Value *V = Slot < F.numParams()
                           ? static_cast<const Value *>(F.arg(Slot))
                           : S.InstAt[Slot - F.numParams()];
      if (V && !sameUsers(V->users(), S.UseBegin[Slot], S.UseBegin[Slot + 1]))
        problem("use-list out of sync for a value");
    }
  }

  /// True if \p Users and S.Uses[Begin, End) are equal as multisets.
  bool sameUsers(const Value::UserList &Users, uint32_t Begin,
                 uint32_t End) {
    if (Users.size() != End - Begin)
      return false;
    auto Expected = S.Uses.begin() + Begin;
    if (std::equal(Users.begin(), Users.end(), Expected))
      return true;
    S.Actual.assign(Users.begin(), Users.end());
    std::sort(S.Actual.begin(), S.Actual.end());
    std::sort(Expected, S.Uses.begin() + End);
    return std::equal(S.Actual.begin(), S.Actual.end(), Expected);
  }

  bool isOwnBlock(const BasicBlock *BB) const {
    return BB && BB->id() < S.BlockAt.size() && S.BlockAt[BB->id()] == BB;
  }

  void checkPredecessorSymmetry() {
    // BB->predecessors() must match the multiset of terminator edges. The
    // sources of the edges into each block go into its bucket of
    // S.EdgeSources (filled as in checkUseDefSymmetry).
    const size_t NumBlocks = S.BlockAt.size();
    S.EdgeBegin.assign(NumBlocks + 1, 0);
    for (const auto &BB : F.blocks()) {
      const Instruction *Term = BB->terminator();
      if (!Term)
        continue;
      for (unsigned I = 0; I < numSuccessors(Term); ++I) {
        const BasicBlock *Succ = successor(Term, I);
        if (isOwnBlock(Succ))
          ++S.EdgeBegin[Succ->id() + 1];
        else
          problem("edge from " + BB->name() +
                  " to a block that is not a block of this function");
      }
    }
    for (size_t Id = 0; Id < NumBlocks; ++Id)
      S.EdgeBegin[Id + 1] += S.EdgeBegin[Id];
    S.EdgeSources.resize(S.EdgeBegin[NumBlocks]);
    for (const auto &BB : F.blocks())
      if (const Instruction *Term = BB->terminator())
        for (unsigned I = 0; I < numSuccessors(Term); ++I)
          if (const BasicBlock *Succ = successor(Term, I); isOwnBlock(Succ))
            S.EdgeSources[S.EdgeBegin[Succ->id()]++] = BB.get();
    for (size_t Id = NumBlocks; Id > 0; --Id)
      S.EdgeBegin[Id] = S.EdgeBegin[Id - 1];
    S.EdgeBegin[0] = 0;

    S.Count.assign(NumBlocks, 0);
    for (const auto &BB : F.blocks()) {
      const BasicBlock::PredecessorList &Preds = BB->predecessors();
      uint32_t Begin = S.EdgeBegin[BB->id()], End = S.EdgeBegin[BB->id() + 1];
      bool Same = Preds.size() == End - Begin;
      for (uint32_t K = Begin; Same && K < End; ++K)
        ++S.Count[S.EdgeSources[K]->id()];
      for (size_t K = 0; Same && K < Preds.size(); ++K) {
        Same = isOwnBlock(Preds[K]) && S.Count[Preds[K]->id()] > 0;
        if (Same)
          --S.Count[Preds[K]->id()];
      }
      for (uint32_t K = Begin; K < End; ++K)
        S.Count[S.EdgeSources[K]->id()] = 0;
      if (!Same)
        problem("predecessor list out of sync for " + BB->name());
    }
  }

  void checkPhis() {
    // Validate phis against the *actual* CFG edges (terminator successor
    // lists), not only the cached predecessor lists: inliner cleanup edits
    // terminators and predecessor lists separately, and a stale-but-
    // internally-consistent pair would otherwise let a phi reference a
    // block that no longer branches here.
    S.PredMark.assign(S.BlockAt.size(), 0);
    S.EdgeMark.assign(S.BlockAt.size(), 0);
    S.SeenMark.assign(S.BlockAt.size(), 0);
    uint32_t Generation = 0;
    for (const auto &BB : F.blocks()) {
      if (BB->empty() || !isa<PhiInst>(BB->front()))
        continue;
      // The distinct predecessors, and the distinct sources of edges here.
      const uint32_t Marked = ++Generation;
      size_t NumPreds = 0;
      S.ForeignPreds.clear();
      for (const BasicBlock *Pred : BB->predecessors()) {
        if (!isOwnBlock(Pred))
          S.ForeignPreds.push_back(Pred);
        else if (S.PredMark[Pred->id()] != Marked) {
          S.PredMark[Pred->id()] = Marked;
          ++NumPreds;
        }
      }
      std::sort(S.ForeignPreds.begin(), S.ForeignPreds.end());
      NumPreds += static_cast<size_t>(
          std::unique(S.ForeignPreds.begin(), S.ForeignPreds.end()) -
          S.ForeignPreds.begin());
      for (uint32_t K = S.EdgeBegin[BB->id()]; K < S.EdgeBegin[BB->id() + 1];
           ++K)
        S.EdgeMark[S.EdgeSources[K]->id()] = Marked;

      for (const auto &Inst : BB->instructions()) {
        const auto *Phi = dyn_cast<PhiInst>(Inst.get());
        if (!Phi)
          break; // checkBlocks reports phis after the prefix.
        const uint32_t Seen = ++Generation;
        size_t NumSeen = 0;
        for (size_t I = 0; I < Phi->numIncoming(); ++I) {
          const BasicBlock *In = Phi->incomingBlock(I);
          if (!isOwnBlock(In)) {
            problem("phi in " + BB->name() +
                    " has an incoming block that is not a block of this "
                    "function");
            continue;
          }
          if (S.PredMark[In->id()] != Marked)
            problem("phi in " + BB->name() +
                    " has an incoming edge from a non-predecessor");
          else if (S.EdgeMark[In->id()] != Marked)
            problem("phi in " + BB->name() + " has an incoming block (" +
                    In->name() + ") with no CFG edge to " + BB->name());
          if (S.SeenMark[In->id()] == Seen) {
            problem("phi in " + BB->name() + " has a duplicate incoming edge");
          } else {
            S.SeenMark[In->id()] = Seen;
            ++NumSeen;
          }
        }
        if (NumSeen != NumPreds)
          problem("phi in " + BB->name() + " misses a predecessor entry");
      }
    }
  }

  void checkGuardsAndFrameStates() {
    // Structural guard/deopt invariants. The captured frame-state values
    // are ordinary operands, so the generic dominance check below already
    // rejects guards/deopts whose mapped values do not dominate them; here
    // we check what is specific to speculation: a guard tests an object
    // receiver, its fail edge ends in a recovery point, and a frame state
    // describes exactly the operands the deopt captured.
    for (const auto &BB : F.blocks()) {
      for (const auto &Inst : BB->instructions()) {
        if (const auto *G = dyn_cast<GuardInst>(Inst.get())) {
          types::Type RecvTy = G->receiver()->type();
          if (!RecvTy.isObject() && !RecvTy.isNull())
            problem("guard in " + BB->name() +
                    " tests a non-object receiver");
          const Instruction *FailTerm = G->failSuccessor()->terminator();
          if (!FailTerm || (!isa<DeoptInst>(FailTerm) &&
                            !isa<JumpInst>(FailTerm)))
            problem("guard in " + BB->name() +
                    " has a fail successor that neither deopts nor jumps "
                    "toward a deopt");
        }
        if (const auto *D = dyn_cast<DeoptInst>(Inst.get())) {
          if (!D->hasFrameState()) {
            if (D->numOperands() != 0)
              problem("deopt without frame state captures operands in " +
                      BB->name());
            continue;
          }
          const FrameState &FS = D->frameState();
          if (FS.BaselineSymbol.empty())
            problem("deopt frame state without a baseline symbol in " +
                    BB->name());
          if (FS.Slots.size() != D->numOperands())
            problem(formatString(
                "deopt frame state in %s has %zu slots for %zu captured "
                "operands",
                BB->name().c_str(), FS.Slots.size(), D->numOperands()));
        }
      }
    }
  }

  void checkOsrEntries() {
    // Placement rules for OSR entry materialization (the cross-function
    // slot resolution lives in verifyOsrEntries): entries exist only in
    // anchored OSR variants, only in the entry block, contiguous from its
    // top, and each produces a value.
    bool Anchored = F.osrAnchor() != nullptr;
    for (const auto &BB : F.blocks()) {
      bool IsEntry = !F.blocks().empty() && BB.get() == F.entry();
      bool SeenNonOsrEntry = false;
      for (const auto &Inst : BB->instructions()) {
        if (!isa<OsrEntryInst>(Inst.get())) {
          SeenNonOsrEntry = true;
          continue;
        }
        if (!Anchored)
          problem("osr entry in a function without an OSR anchor (" +
                  BB->name() + ")");
        if (!IsEntry)
          problem("osr entry outside the entry block (" + BB->name() + ")");
        else if (SeenNonOsrEntry)
          problem("osr entry after a non-osr-entry instruction in " +
                  BB->name());
        if (Inst->type().isVoid())
          problem("osr entry with void type in " + BB->name());
        if (Inst->numOperands() != 0)
          problem("osr entry with operands in " + BB->name());
      }
    }
  }

  void checkDominance() {
    if (F.blocks().empty() || !Problems.empty())
      return; // Skip when structure is already broken.
    DominatorTree DT(F);
    for (const auto &BB : F.blocks()) {
      if (!DT.isReachable(BB.get()))
        continue;
      for (size_t UsePos = 0; UsePos < BB->size(); ++UsePos) {
        const Instruction *Inst = BB->instructions()[UsePos].get();
        for (size_t OpIdx = 0; OpIdx < Inst->numOperands(); ++OpIdx) {
          const Value *Op = Inst->operand(OpIdx);
          const auto *Def = dyn_cast<Instruction>(Op);
          if (!Def)
            continue; // Arguments and constants dominate everything.
          const BasicBlock *DefBB = Def->parent();
          if (const auto *Phi = dyn_cast<PhiInst>(Inst)) {
            // A phi operand must dominate the incoming edge's source.
            const BasicBlock *In = Phi->incomingBlock(OpIdx);
            if (!DT.dominates(DefBB, In))
              problem("phi operand does not dominate incoming block in " +
                      BB->name());
            continue;
          }
          if (DefBB == BB.get()) {
            // With no problems so far, every operand is an instruction of
            // this function holding its own id slot.
            assert(S.InstAt[Def->instId()] == Def && "def without a slot");
            if (S.Position[Def->instId()] >= UsePos)
              problem("use before def inside " + BB->name());
          } else if (!DT.dominates(DefBB, BB.get())) {
            problem("operand def does not dominate use in " + BB->name());
          }
        }
      }
    }
  }

  const Function &F;
  Scratch &S;
  std::vector<std::string> Problems;
};

} // namespace

std::vector<std::string> incline::ir::verifyFunction(const Function &F) {
  Scratch S;
  return Verifier(F, S).run();
}

std::vector<std::string>
incline::ir::verifyFrameStates(const Function &F, const Module &M) {
  std::vector<std::string> Problems;
  auto Problem = [&](std::string Msg) {
    Problems.push_back("[" + F.name() + "] " + std::move(Msg));
  };
  for (const auto &BB : F.blocks()) {
    for (const auto &Inst : BB->instructions()) {
      const auto *D = dyn_cast<DeoptInst>(Inst.get());
      if (!D || !D->hasFrameState())
        continue;
      const FrameState &FS = D->frameState();
      const FrameMappingResult R = resolveDeopt(*D, M);
      if (R.Error == FrameMappingError::UnknownBaseline) {
        Problem("deopt frame state names unknown baseline function " +
                FS.BaselineSymbol);
        continue;
      }
      if (R.Error == FrameMappingError::MissingBlock) {
        Problem(formatString("deopt frame state names missing block %u of %s",
                             FS.BaselineBlockId, FS.BaselineSymbol.c_str()));
        continue;
      }
      const Instruction *Resume =
          R.Error == FrameMappingError::ResumeNotFound
              ? nullptr
              : R.Map.ResumeBlock->instructions()[R.Map.ResumeIndex].get();
      if (D->isColdBranch()) {
        // A cold-branch uncommon trap resumes at the pruned target's entry:
        // the first non-phi instruction of the named baseline block. Phis
        // are not resumable (their values arrive through the frame-state
        // slots, already selected for the pruned edge).
        if (!Resume || R.Map.ResumeIndex != R.Map.ResumeBlock->numPhis()) {
          Problem(formatString(
              "cold-branch frame state resume point #%u is not the first "
              "non-phi instruction of block %u of %s",
              FS.ResumePoint, FS.BaselineBlockId, FS.BaselineSymbol.c_str()));
          continue;
        }
      } else if (!Resume || !isa<VirtualCallInst>(Resume)) {
        Problem(formatString(
            "deopt frame state resume point #%u is not a virtual call in "
            "block %u of %s",
            FS.ResumePoint, FS.BaselineBlockId, FS.BaselineSymbol.c_str()));
        continue;
      }
      // Every slot must land on a baseline value.
      for (size_t I : R.UnresolvedSlots) {
        const FrameStateSlot &Slot = FS.Slots[I];
        if (Slot.Kind == FrameStateSlot::Target::Argument)
          Problem(formatString(
              "deopt frame state maps to argument %u of %s (which has "
              "%zu parameters)",
              Slot.BaselineId, FS.BaselineSymbol.c_str(),
              R.Map.Target->numParams()));
        else
          Problem(formatString(
              "deopt frame state maps to missing baseline instruction #%u "
              "of %s",
              Slot.BaselineId, FS.BaselineSymbol.c_str()));
      }
    }
  }
  return Problems;
}

std::vector<std::string>
incline::ir::verifyOsrEntries(const Function &F, const Module &M) {
  std::vector<std::string> Problems;
  const OsrAnchor *A = F.osrAnchor();
  if (!A)
    return Problems; // verifyFunction rejects stray OsrEntryInsts.
  auto Problem = [&](std::string Msg) {
    Problems.push_back("[" + F.name() + "] " + std::move(Msg));
  };
  const Function *Baseline = M.function(A->BaselineSymbol);
  if (!Baseline) {
    Problem("osr anchor names unknown baseline function " +
            A->BaselineSymbol);
    return Problems;
  }
  const BasicBlock *Header = nullptr;
  for (const auto &BB : Baseline->blocks())
    if (BB->id() == A->HeaderBlockId)
      Header = BB.get();
  if (!Header) {
    Problem(formatString("osr anchor names missing block %u of %s",
                         A->HeaderBlockId, A->BaselineSymbol.c_str()));
    return Problems;
  }
  const DominatorTree BDT(*Baseline);
  if (!BDT.isReachable(Header)) {
    Problem(formatString("osr anchor block %u of %s is unreachable",
                         A->HeaderBlockId, A->BaselineSymbol.c_str()));
    return Problems;
  }

  // Every OsrEntryInst is checked, also one verifyFunction reports as
  // misplaced (the transfer only reads the entry block's leading run).
  const BaselineSlots Values(*Baseline);
  for (const auto &BB : F.blocks()) {
    for (const auto &Inst : BB->instructions()) {
      const auto *OE = dyn_cast<OsrEntryInst>(Inst.get());
      if (!OE)
        continue;
      const FrameStateSlot &Slot = OE->source();
      const Value *Source = Values.resolve(Slot);
      if (!Source) {
        Problem(Slot.Kind == FrameStateSlot::Target::Argument
                    ? formatString("osr entry reads argument %u of %s (which "
                                   "has %zu parameters)",
                                   Slot.BaselineId, A->BaselineSymbol.c_str(),
                                   Baseline->numParams())
                    : formatString("osr entry reads missing baseline "
                                   "instruction #%u of %s",
                                   Slot.BaselineId, A->BaselineSymbol.c_str()));
        continue;
      }
      // Arguments are defined everywhere. The transfer fires at the loop
      // header after its phis were evaluated, so an instruction must be
      // defined by then on *every* path: either its block strictly
      // dominates the header, or it is one of the header's own phis.
      const auto *Def = dyn_cast<Instruction>(Source);
      if (!Def)
        continue;
      const BasicBlock *DefBB = Def->parent();
      bool Available =
          DefBB == Header ? isa<PhiInst>(Def)
                          : BDT.isReachable(DefBB) &&
                                BDT.dominates(DefBB, Header);
      if (!Available)
        Problem(formatString(
            "osr entry reads baseline instruction #%u of %s, which does "
            "not dominate the anchor header bb%u",
            Slot.BaselineId, A->BaselineSymbol.c_str(), A->HeaderBlockId));
    }
  }
  return Problems;
}

std::vector<std::string> incline::ir::verifyModule(const Module &M) {
  std::vector<std::string> Problems;
  Scratch S;
  for (const auto &[Name, F] : M.functions()) {
    std::vector<std::string> Local = Verifier(*F, S).run();
    Problems.insert(Problems.end(), Local.begin(), Local.end());
    Local = verifyFrameStates(*F, M);
    Problems.insert(Problems.end(), Local.begin(), Local.end());
    Local = verifyOsrEntries(*F, M);
    Problems.insert(Problems.end(), Local.begin(), Local.end());
    // Cross-function checks: every direct call target must exist and the
    // argument count must match its signature.
    for (const auto &BB : F->blocks()) {
      for (const auto &Inst : BB->instructions()) {
        const auto *Call = dyn_cast<CallInst>(Inst.get());
        if (!Call)
          continue;
        const Function *Callee = M.function(Call->callee());
        if (!Callee) {
          Problems.push_back("[" + Name + "] call to unknown function " +
                             Call->callee());
          continue;
        }
        if (Callee->numParams() != Call->numArgs())
          Problems.push_back("[" + Name + "] call to " + Call->callee() +
                             " with wrong argument count");
      }
    }
  }
  return Problems;
}

bool incline::ir::verifyFunctionOrDie(const Function &F) {
  std::vector<std::string> Problems = verifyFunction(F);
  if (Problems.empty())
    return true;
  for (const std::string &P : Problems)
    std::fprintf(stderr, "verifier: %s\n", P.c_str());
  INCLINE_FATAL("IR verification failed");
}
