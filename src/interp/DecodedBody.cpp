//===- interp/DecodedBody.cpp - Pre-decoded execution tables ---------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/DecodedBody.h"

#include "ir/Function.h"
#include "support/Casting.h"

#include <unordered_map>

using namespace incline;
using namespace incline::interp;

DecodedBody::DecodedBody(const ir::Function &Fn, const CostModel &Costs) {
  // Pass 1: assign a dense frame slot to every argument (its index) and
  // every non-void instruction (phis included), function-wide, so operands
  // defined in later blocks (phi inputs along backedges) already have slots
  // in pass 2.
  NumSlots = uint32_t(Fn.numParams());
  SlotByInstId.assign(Fn.instIdBound(), -1);
  for (const auto &BB : Fn.blocks())
    for (const auto &I : BB->instructions())
      if (!I->type().isVoid()) {
        assert(I->instId() < SlotByInstId.size() &&
               SlotByInstId[I->instId()] < 0 &&
               "instruction id outside the function's id contract");
        SlotByInstId[I->instId()] = int32_t(NumSlots++);
      }

  // Constants live in a read-only tail after the value slots, so operand
  // reads never branch on "constant or not".
  std::unordered_map<const ir::Value *, int32_t> ConstRef;
  auto operandRef = [&](const ir::Value *V) -> int32_t {
    if (!isa<ir::Constant>(V)) {
      int32_t Ref = refOf(*V);
      assert(Ref >= 0 && "operand is neither slotted nor a constant");
      return Ref;
    }
    auto [CIt, New] = ConstRef.try_emplace(V, 0);
    if (New) {
      CIt->second = int32_t(NumSlots + ConstPool.size());
      ConstValues.push_back(V);
      if (const auto *CI = dyn_cast<ir::ConstInt>(V))
        ConstPool.push_back(RtValue::intVal(CI->value()));
      else if (const auto *CB = dyn_cast<ir::ConstBool>(V))
        ConstPool.push_back(RtValue::boolVal(CB->value()));
      else
        ConstPool.push_back(RtValue::nullVal());
    }
    return CIt->second;
  };

  std::vector<uint32_t> BlockById(Fn.blockIdBound(), UINT32_MAX);
  for (const auto &BB : Fn.blocks()) {
    BlockById[BB->id()] = uint32_t(Blocks.size());
    Blocks.push_back({});
    Blocks.back().BB = BB.get();
  }
  auto blockIdx = [&](const ir::BasicBlock *BB) {
    assert(BB->id() < BlockById.size() && BlockById[BB->id()] != UINT32_MAX &&
           "successor outside the function");
    return BlockById[BB->id()];
  };

  // Pass 2: decode phis into per-edge move lists and everything else into
  // the flat instruction table.
  uint32_t NumBranches = 0, NumVCalls = 0;
  for (size_t BI = 0; BI < Fn.blocks().size(); ++BI) {
    const ir::BasicBlock &BB = *Fn.blocks()[BI];
    Block &Blk = Blocks[BI];

    size_t PhiEnd = BB.numPhis();
    Blk.NumPhis = uint32_t(PhiEnd);

    // One move list per *unique* predecessor: `predecessors()` repeats a
    // block once per edge, but a phi's incoming value is the same along
    // duplicate edges, so one list serves them all.
    Blk.FirstEdge = uint32_t(Edges.size());
    for (const ir::BasicBlock *Pred : BB.predecessors()) {
      bool Seen = false;
      for (uint32_t E = Blk.FirstEdge; E < Edges.size() && !Seen; ++E)
        Seen = Edges[E].Pred == Pred;
      if (Seen)
        continue;
      Edge Ed;
      Ed.Pred = Pred;
      Ed.MovesBegin = uint32_t(Moves.size());
      for (size_t P = 0; P < PhiEnd; ++P) {
        const auto *Phi = cast<ir::PhiInst>(BB.instructions()[P].get());
        ir::Value *In = Phi->incomingValueFor(Pred);
        assert(In && "phi lacks an incoming value for a predecessor");
        Moves.push_back({refOf(*Phi), operandRef(In)});
      }
      Ed.MovesCount = uint32_t(Moves.size()) - Ed.MovesBegin;
      Edges.push_back(Ed);
    }
    Blk.NumEdges = uint32_t(Edges.size()) - Blk.FirstEdge;

    Blk.FirstInst = uint32_t(Insts.size());
    for (size_t II = PhiEnd; II < BB.instructions().size(); ++II) {
      const ir::Instruction &I = *BB.instructions()[II];
      Inst DI;
      DI.I = &I;
      DI.Kind = I.kind();
      DI.Cost = uint32_t(Costs.opCost(I));
      DI.Dest = refOf(I);
      DI.FirstOp = uint32_t(Ops.size());
      for (ir::Value *Op : I.operands())
        Ops.push_back(operandRef(Op));
      DI.NumOps = uint32_t(Ops.size()) - DI.FirstOp;

      switch (I.kind()) {
      case ir::ValueKind::BinOp:
        DI.Sub = uint8_t(cast<ir::BinOpInst>(&I)->opcode());
        break;
      case ir::ValueKind::UnOp:
        DI.Sub = uint8_t(cast<ir::UnOpInst>(&I)->opcode());
        break;
      case ir::ValueKind::NewObject:
        DI.A = cast<ir::NewObjectInst>(&I)->classId();
        break;
      case ir::ValueKind::NewArray:
        DI.A = I.type().isIntArray() ? 1 : 0;
        break;
      case ir::ValueKind::LoadField:
        DI.A = int32_t(cast<ir::LoadFieldInst>(&I)->fieldSlot());
        break;
      case ir::ValueKind::StoreField:
        DI.A = int32_t(cast<ir::StoreFieldInst>(&I)->fieldSlot());
        break;
      case ir::ValueKind::InstanceOf:
        DI.A = cast<ir::InstanceOfInst>(&I)->testClassId();
        break;
      case ir::ValueKind::CheckCast:
        DI.A = cast<ir::CheckCastInst>(&I)->targetClassId();
        break;
      case ir::ValueKind::Branch: {
        const auto *Br = cast<ir::BranchInst>(&I);
        DI.ProfileSlot = NumBranches++;
        DI.S0 = blockIdx(Br->trueSuccessor());
        DI.S1 = blockIdx(Br->falseSuccessor());
        break;
      }
      case ir::ValueKind::Jump:
        DI.S0 = blockIdx(cast<ir::JumpInst>(&I)->target());
        break;
      case ir::ValueKind::Guard: {
        const auto *G = cast<ir::GuardInst>(&I);
        DI.A = G->expectedClassId();
        DI.S0 = blockIdx(G->passSuccessor());
        DI.S1 = blockIdx(G->failSuccessor());
        break;
      }
      case ir::ValueKind::VirtualCall:
        DI.ProfileSlot = NumVCalls++;
        break;
      default:
        break;
      }
      Insts.push_back(DI);
    }
    Blk.NumInsts = uint32_t(Insts.size()) - Blk.FirstInst;
  }

  BranchCache.assign(NumBranches, nullptr);
  Pics.assign(NumVCalls, Pic{});
}

int32_t DecodedBody::refOf(const ir::Value &V) const {
  if (const auto *A = dyn_cast<ir::Argument>(&V))
    return int32_t(A->index());
  if (const auto *I = dyn_cast<ir::Instruction>(&V))
    return I->instId() < SlotByInstId.size() ? SlotByInstId[I->instId()] : -1;
  for (size_t C = 0; C < ConstValues.size(); ++C)
    if (ConstValues[C] == &V)
      return int32_t(NumSlots + C);
  return -1;
}

uint32_t DecodedBody::blockIndexOf(const ir::BasicBlock &BB) const {
  uint32_t Idx = 0;
  while (Blocks[Idx].BB != &BB) {
    ++Idx;
    assert(Idx < Blocks.size() && "block of another function");
  }
  return Idx;
}

void DecodedBody::flushProfileCaches(profile::ProfileTable *Profiles,
                                     uint64_t Epoch) {
  PTable = Profiles;
  PEpoch = Epoch;
  MP = nullptr;
  BranchCache.assign(BranchCache.size(), nullptr);
  Pics.assign(Pics.size(), Pic{});
}

DecodedBody &DecodedCache::bodyFor(const ir::Function &F,
                                   const CostModel &Costs) {
  auto It = Bodies.find(F.uniqueId());
  if (It == Bodies.end())
    It = Bodies
             .emplace(F.uniqueId(), std::make_unique<DecodedBody>(F, Costs))
             .first;
  return *It->second;
}
