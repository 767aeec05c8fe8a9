//===- opt/ColdBranchPruning.cpp -------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "opt/ColdBranchPruning.h"

#include "ir/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "opt/CFGUtils.h"
#include "profile/ProfileData.h"
#include "support/Casting.h"

#include <unordered_map>
#include <unordered_set>

using namespace incline;
using namespace incline::ir;
using namespace incline::opt;

namespace {

/// The baseline instructions executed at-or-after the resume point (the
/// cold target's first non-phi instruction): everything from the resume
/// onward in its block, plus every block reachable from the target's
/// successors. A captured value must have a user here — otherwise nothing
/// the baseline executes after the transfer can read it.
struct AfterSet {
  const BasicBlock *SiteBB = nullptr;
  size_t SiteIndex = 0;
  std::unordered_set<const BasicBlock *> FullBlocks;

  explicit AfterSet(const Instruction *Resume) {
    SiteBB = Resume->parent();
    SiteIndex = SiteBB->indexOf(Resume);
    std::vector<const BasicBlock *> Worklist;
    for (const BasicBlock *Succ : SiteBB->successors())
      Worklist.push_back(Succ);
    while (!Worklist.empty()) {
      const BasicBlock *BB = Worklist.back();
      Worklist.pop_back();
      if (!FullBlocks.insert(BB).second)
        continue;
      for (const BasicBlock *Succ : BB->successors())
        Worklist.push_back(Succ);
    }
  }

  bool contains(const Instruction *I) const {
    const BasicBlock *BB = I->parent();
    if (FullBlocks.count(BB))
      return true;
    return BB == SiteBB && BB->indexOf(I) >= SiteIndex;
  }
};

/// True if some baseline user of \p V executes at-or-after the resume point.
bool liveAcrossResume(const Value *V, const AfterSet &After) {
  for (const Instruction *User : V->users())
    if (After.contains(User))
      return true;
  return false;
}

/// One branch edge the collection phase approved for pruning.
struct PruneSite {
  BranchInst *Branch = nullptr;     ///< The clone-side branch.
  bool PruneTrueSide = false;       ///< Which edge becomes the trap.
  FrameState State;                 ///< Fully resolved against the baseline.
};

class ColdBranchPruningImpl {
public:
  ColdBranchPruningImpl(Function &F, const Module &M,
                        const profile::ProfileTable &Profiles,
                        const ColdBranchPruningOptions &Opts,
                        const SpeculationBlacklist *PruneBlacklist)
      : F(F), M(M), Profiles(Profiles), Opts(Opts),
        PruneBlacklist(PruneBlacklist) {}

  ColdBranchPruningStats run() {
    // Only ever rewrite a compilation clone whose baseline still exists
    // unmodified in the module — the frame states point back into it.
    Baseline = M.function(F.name());
    if (!Baseline || Baseline == &F)
      return Stats;

    std::vector<PruneSite> Sites = collectSites();
    if (Sites.empty())
      return Stats;

    // Clone-side value lookup for frame-state capture: profileId -> value
    // (ids are clone-preserved).
    for (const auto &BB : F.blocks())
      for (const auto &Inst : BB->instructions())
        if (!Inst->type().isVoid())
          CloneValues[Inst->profileId()] = Inst.get();

    for (PruneSite &Site : Sites)
      transform(Site);

    // Pruned edges may leave cold targets (and everything only they
    // reached) unreachable — exactly the slice we no longer compile.
    removeUnreachableBlocks(F);
    return Stats;
  }

private:
  //===--------------------------------------------------------------------===//
  // Collection
  //===--------------------------------------------------------------------===//

  std::vector<PruneSite> collectSites() {
    std::unordered_map<unsigned, const Instruction *> BaselineInsts;
    for (const auto &BB : Baseline->blocks())
      for (const auto &Inst : BB->instructions())
        BaselineInsts[Inst->profileId()] = Inst.get();

    const DominatorTree BDT(*Baseline);
    const profile::MethodProfile *MP = Profiles.find(F.name());

    std::vector<PruneSite> Sites;
    for (const auto &BB : F.blocks()) {
      for (const auto &Inst : BB->instructions()) {
        auto *Br = dyn_cast<BranchInst>(Inst.get());
        if (!Br || Br->trueSuccessor() == Br->falseSuccessor())
          continue;
        PruneSite Site;
        if (considerSite(Br, MP, BaselineInsts, BDT, Site))
          Sites.push_back(std::move(Site));
      }
    }
    return Sites;
  }

  bool considerSite(
      BranchInst *Br, const profile::MethodProfile *MP,
      const std::unordered_map<unsigned, const Instruction *> &BaselineInsts,
      const DominatorTree &BDT, PruneSite &Site) {
    // The baseline counterpart we deoptimize back to. Branches the clone
    // acquired with fresh ids (none today — the pass runs on the pristine
    // clone — but cheap to keep honest) have no resume point.
    auto It = BaselineInsts.find(Br->profileId());
    if (It == BaselineInsts.end())
      return false;
    const auto *BBr = dyn_cast<BranchInst>(It->second);
    if (!BBr || BBr->trueSuccessor() == BBr->falseSuccessor() ||
        !BDT.isReachable(BBr->parent()))
      return false;

    // Decide which side is cold. The chaos hook may force a prune with no
    // profile at all — output-neutral by construction, the trap recovers —
    // in which case the less-taken side (ties: the false side) is pruned.
    double TrueProb = 0.5;
    uint64_t Total = 0;
    if (MP) {
      auto BIt = MP->Branches.find(Br->profileId());
      if (BIt != MP->Branches.end()) {
        TrueProb = BIt->second.trueProbability();
        Total = BIt->second.total();
      }
    }
    bool PruneTrue;
    if (Opts.ForceColdBranch &&
        Opts.ForceColdBranch(F.name(), Br->profileId())) {
      PruneTrue = TrueProb < 0.5;
    } else {
      if (Total < Opts.MinSamples)
        return false;
      double ColdProb = TrueProb <= 1.0 - TrueProb ? TrueProb : 1.0 - TrueProb;
      if (ColdProb > Opts.MaxProbability || ColdProb >= 1.0 - ColdProb)
        return false;
      PruneTrue = TrueProb < 0.5;
    }

    const BasicBlock *BaselineTarget =
        PruneTrue ? BBr->trueSuccessor() : BBr->falseSuccessor();
    if (PruneBlacklist &&
        PruneBlacklist->contains(F.name(), BaselineTarget->id())) {
      ++Stats.BlacklistSkipped;
      return false;
    }

    if (!buildFrameState(BaselineTarget, BDT, Site.State))
      return false;
    Site.Branch = Br;
    Site.PruneTrueSide = PruneTrue;
    return true;
  }

  /// Captures the baseline values a resume at the entry of \p Target needs:
  /// every argument or instruction result that dominates the resume *and*
  /// is used at-or-after it. The target's own phis land here too (they sit
  /// before the resume in its block): the interpreter skips phi evaluation
  /// on a mid-block resume, so their values travel through the slots —
  /// selected, on the capture side, for the pruned edge.
  bool buildFrameState(const BasicBlock *Target, const DominatorTree &BDT,
                       FrameState &State) {
    // The resume point: the target's first non-phi instruction (always
    // exists — every block has a terminator).
    if (Target->numPhis() == Target->size())
      return false;
    const Instruction *Resume = Target->instructions()[Target->numPhis()].get();

    const AfterSet After(Resume);
    State.BaselineSymbol = Baseline->name();
    State.BaselineBlockId = Target->id();
    State.ResumePoint = Resume->profileId();
    State.Slots.clear();

    for (size_t I = 0; I < Baseline->numParams(); ++I)
      if (liveAcrossResume(Baseline->arg(I), After))
        State.Slots.push_back({FrameStateSlot::Target::Argument,
                               static_cast<unsigned>(I)});

    // Any def strictly dominating the target block dominates every one of
    // its predecessors — including the branch block the trap hangs off —
    // so each captured slot has a clone-side value available at the trap.
    for (const auto &BB : Baseline->blocks()) {
      bool DominatesSite =
          BB.get() != Target && BDT.dominates(BB.get(), Target);
      for (const auto &Inst : BB->instructions()) {
        if (Inst->type().isVoid())
          continue;
        bool Dominates =
            DominatesSite || (BB.get() == Target &&
                              BB->indexOf(Inst.get()) < After.SiteIndex);
        if (Dominates && liveAcrossResume(Inst.get(), After))
          State.Slots.push_back(
              {FrameStateSlot::Target::Instruction, Inst->profileId()});
      }
    }
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Transformation
  //===--------------------------------------------------------------------===//

  void transform(PruneSite &Site) {
    BranchInst *Br = Site.Branch;
    BasicBlock *Pre = Br->parent();
    BasicBlock *ColdTarget =
        Site.PruneTrueSide ? Br->trueSuccessor() : Br->falseSuccessor();

    // Clone-side phi lookup for the cold target: a captured slot naming one
    // of its phis materializes the value the phi would have carried along
    // the pruned edge (the phi itself lives past the trap and does not
    // dominate it).
    std::unordered_map<unsigned, PhiInst *> TargetPhis;
    for (PhiInst *Phi : ColdTarget->phis())
      TargetPhis[Phi->profileId()] = Phi;

    std::vector<Value *> Captured;
    Captured.reserve(Site.State.Slots.size());
    for (const FrameStateSlot &Slot : Site.State.Slots) {
      if (Slot.Kind == FrameStateSlot::Target::Argument) {
        Captured.push_back(F.arg(Slot.BaselineId));
        continue;
      }
      auto PhiIt = TargetPhis.find(Slot.BaselineId);
      if (PhiIt != TargetPhis.end()) {
        Captured.push_back(PhiIt->second->incomingValueFor(Pre));
        continue;
      }
      Captured.push_back(CloneValues.at(Slot.BaselineId));
    }

    BasicBlock *TrapBB = F.addBlock("prune.trap");
    IRBuilder B(F, TrapBB);
    B.deopt(DeoptInst::ColdBranchReason, std::move(Site.State), Captured);

    replaceSuccessor(Br, ColdTarget, TrapBB);
    removePhiEntriesForEdge(*ColdTarget, *Pre);
    ++Stats.BranchesPruned;
  }

  Function &F;
  const Module &M;
  const profile::ProfileTable &Profiles;
  const ColdBranchPruningOptions &Opts;
  const SpeculationBlacklist *PruneBlacklist;
  const Function *Baseline = nullptr;
  std::unordered_map<unsigned, Value *> CloneValues;
  ColdBranchPruningStats Stats;
};

} // namespace

ColdBranchPruningStats
incline::opt::pruneColdBranches(Function &F, const Module &M,
                                const profile::ProfileTable &Profiles,
                                const ColdBranchPruningOptions &Opts,
                                const SpeculationBlacklist *PruneBlacklist) {
  return ColdBranchPruningImpl(F, M, Profiles, Opts, PruneBlacklist).run();
}

PreservedAnalyses ColdBranchPruningPass::run(Function &F, const Module &M,
                                             AnalysisManager &AM) {
  const profile::ProfileTable *Profiles = AM.profiles();
  if (!Profiles)
    return PreservedAnalyses::all();
  ColdBranchPruningStats Run =
      pruneColdBranches(F, M, *Profiles, Opts, PruneBlacklist);
  if (StatsSink) {
    StatsSink->BranchesPruned += Run.BranchesPruned;
    StatsSink->BlacklistSkipped += Run.BlacklistSkipped;
  }
  return PreservedAnalyses::allIf(Run.BranchesPruned == 0);
}
