//===- ir/FrameMapping.cpp - Deopt and OSR frame mappings ------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/FrameMapping.h"

#include "ir/Module.h"
#include "support/Casting.h"

#include <cassert>

using namespace incline;
using namespace incline::ir;

BaselineSlots::BaselineSlots(const Function &Baseline)
    : Baseline(Baseline), ByProfileId(Baseline.nextProfileIdWatermark()) {
  for (const auto &BB : Baseline.blocks())
    for (const auto &I : BB->instructions())
      if (!I->type().isVoid()) {
        if (I->profileId() >= ByProfileId.size())
          ByProfileId.resize(I->profileId() + 1);
        ByProfileId[I->profileId()] = I.get();
      }
}

const Value *BaselineSlots::resolve(const FrameStateSlot &Slot) const {
  unsigned Id = Slot.BaselineId;
  if (Slot.Kind == FrameStateSlot::Target::Argument)
    return Id < Baseline.numParams() ? Baseline.arg(Id) : nullptr;
  return Id < ByProfileId.size() ? ByProfileId[Id] : nullptr;
}

FrameMappingResult incline::ir::resolveDeopt(const DeoptInst &D,
                                             const Module &M) {
  assert(D.hasFrameState() && "deopt without a frame state has no mapping");
  const FrameState &FS = D.frameState();
  FrameMappingResult R;
  FrameMapping &Map = R.Map;
  Map.Target = M.function(FS.BaselineSymbol);
  if (!Map.Target) {
    R.Error = FrameMappingError::UnknownBaseline;
    return R;
  }
  for (const auto &BB : Map.Target->blocks())
    if (BB->id() == FS.BaselineBlockId) {
      Map.ResumeBlock = BB.get();
      break;
    }
  if (!Map.ResumeBlock) {
    R.Error = FrameMappingError::MissingBlock;
    return R;
  }
  const auto &Insts = Map.ResumeBlock->instructions();
  Map.ResumeIndex = Map.ResumeBlock->numPhis();
  while (Map.ResumeIndex < Insts.size() &&
         Insts[Map.ResumeIndex]->profileId() != FS.ResumePoint)
    ++Map.ResumeIndex;
  if (Map.ResumeIndex == Insts.size()) {
    R.Error = FrameMappingError::ResumeNotFound;
    return R;
  }

  BaselineSlots Values(*Map.Target);
  for (size_t I = 0; I < FS.Slots.size(); ++I) {
    const Value *To = Values.resolve(FS.Slots[I]);
    if (!To)
      R.UnresolvedSlots.push_back(I);
    else if (I < D.numOperands())
      Map.Moves.push_back({D.operand(I), To});
  }
  // A state whose slot count disagrees with the captured operands cannot
  // be materialized soundly, whatever its slots resolve to.
  if (FS.Slots.size() != D.numOperands())
    R.Error = FrameMappingError::SlotCountMismatch;
  else if (!R.UnresolvedSlots.empty())
    R.Error = FrameMappingError::UnresolvedSlot;
  return R;
}

FrameMappingResult incline::ir::resolveOsrEntry(const Function &Variant,
                                                const Function &Baseline) {
  assert(Variant.osrAnchor() && "OSR transfer into an unanchored function");
  assert(Variant.numParams() == Baseline.numParams() &&
         "OSR variant signature mismatch");
  FrameMappingResult R;
  FrameMapping &Map = R.Map;
  Map.Target = &Variant;
  Map.ResumeBlock = Variant.entry();
  for (size_t I = 0; I < Variant.numParams(); ++I)
    Map.Moves.push_back({Baseline.arg(I), Variant.arg(I)});

  BaselineSlots Values(Baseline);
  const auto &Insts = Map.ResumeBlock->instructions();
  for (; Map.ResumeIndex < Insts.size(); ++Map.ResumeIndex) {
    const auto *OE = dyn_cast<OsrEntryInst>(Insts[Map.ResumeIndex].get());
    if (!OE)
      break;
    if (const Value *From = Values.resolve(OE->source()))
      Map.Moves.push_back({From, OE});
    else
      R.UnresolvedSlots.push_back(Map.ResumeIndex);
  }
  if (!R.UnresolvedSlots.empty())
    R.Error = FrameMappingError::UnresolvedSlot;
  return R;
}
