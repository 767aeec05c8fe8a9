//===- ir/IRBuilder.h - Convenience instruction factory --------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A builder that appends instructions to a current insertion block and
/// assigns fresh profile ids. Used by the frontend lowering, the inliner's
/// typeswitch emission, and tests.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_IR_IRBUILDER_H
#define INCLINE_IR_IRBUILDER_H

#include "ir/Function.h"

#include <memory>
#include <utility>

namespace incline::ir {

/// Appends instructions to an insertion point.
class IRBuilder {
public:
  explicit IRBuilder(Function &F, BasicBlock *InsertBlock = nullptr)
      : F(F), Block(InsertBlock) {}

  Function &function() const { return F; }
  BasicBlock *insertBlock() const { return Block; }
  void setInsertBlock(BasicBlock *BB) { Block = BB; }

  /// True once the current block is terminated (no more appends allowed).
  bool isTerminated() const { return Block && Block->hasTerminator(); }

  //===--------------------------------------------------------------------===//
  // Constants (uniqued; not appended to the block).
  //===--------------------------------------------------------------------===//

  ConstInt *constInt(int64_t V) { return F.constInt(V); }
  ConstBool *constBool(bool V) { return F.constBool(V); }
  ConstNull *constNull() { return F.constNull(); }

  //===--------------------------------------------------------------------===//
  // Instructions.
  //===--------------------------------------------------------------------===//

  PhiInst *phi(types::Type Ty) {
    // Phis go to the head of the block, after any existing phis.
    auto Inst = std::make_unique<PhiInst>(Ty);
    Inst->setProfileId(F.takeNextProfileId());
    PhiInst *Raw = Inst.get();
    Block->insertAt(Block->numPhis(), std::move(Inst));
    return Raw;
  }

  BinOpInst *binop(BinOpInst::Opcode Op, Value *Lhs, Value *Rhs) {
    return append(std::make_unique<BinOpInst>(Op, Lhs, Rhs));
  }
  UnOpInst *unop(UnOpInst::Opcode Op, Value *V) {
    return append(std::make_unique<UnOpInst>(Op, V));
  }
  CallInst *call(std::string Callee, std::span<Value *const> Args,
                 types::Type RetTy) {
    return append(std::make_unique<CallInst>(std::move(Callee), Args, RetTy));
  }
  VirtualCallInst *virtualCall(std::string Method, Value *Receiver,
                               std::span<Value *const> Args,
                               types::Type RetTy) {
    return append(std::make_unique<VirtualCallInst>(std::move(Method),
                                                    Receiver, Args, RetTy));
  }
  NewObjectInst *newObject(int ClassId) {
    return append(std::make_unique<NewObjectInst>(ClassId));
  }
  NewArrayInst *newArray(types::Type ArrayTy, Value *Length) {
    return append(std::make_unique<NewArrayInst>(ArrayTy, Length));
  }
  LoadFieldInst *loadField(Value *Obj, unsigned Slot, types::Type FieldTy) {
    return append(std::make_unique<LoadFieldInst>(Obj, Slot, FieldTy));
  }
  StoreFieldInst *storeField(Value *Obj, unsigned Slot, Value *Val) {
    return append(std::make_unique<StoreFieldInst>(Obj, Slot, Val));
  }
  LoadIndexInst *loadIndex(Value *Array, Value *Index, types::Type ElemTy) {
    return append(std::make_unique<LoadIndexInst>(Array, Index, ElemTy));
  }
  StoreIndexInst *storeIndex(Value *Array, Value *Index, Value *Val) {
    return append(std::make_unique<StoreIndexInst>(Array, Index, Val));
  }
  ArrayLengthInst *arrayLength(Value *Array) {
    return append(std::make_unique<ArrayLengthInst>(Array));
  }
  InstanceOfInst *instanceOf(Value *Obj, int ClassId) {
    return append(std::make_unique<InstanceOfInst>(Obj, ClassId));
  }
  CheckCastInst *checkCast(Value *Obj, int ClassId) {
    return append(std::make_unique<CheckCastInst>(Obj, ClassId));
  }
  GetClassIdInst *getClassId(Value *Obj) {
    return append(std::make_unique<GetClassIdInst>(Obj));
  }
  NullCheckInst *nullCheck(Value *Obj) {
    return append(std::make_unique<NullCheckInst>(Obj));
  }
  PrintInst *print(Value *V) {
    return append(std::make_unique<PrintInst>(V));
  }
  OsrEntryInst *osrEntry(FrameStateSlot Source, types::Type Ty) {
    return append(std::make_unique<OsrEntryInst>(Source, Ty));
  }
  BranchInst *branch(Value *Cond, BasicBlock *TrueSucc, BasicBlock *FalseSucc) {
    return append(std::make_unique<BranchInst>(Cond, TrueSucc, FalseSucc));
  }
  JumpInst *jump(BasicBlock *Target) {
    return append(std::make_unique<JumpInst>(Target));
  }
  GuardInst *guard(Value *Receiver, int ExpectedClassId, BasicBlock *PassSucc,
                   BasicBlock *FailSucc) {
    return append(std::make_unique<GuardInst>(Receiver, ExpectedClassId,
                                              PassSucc, FailSucc));
  }
  ReturnInst *ret(Value *V = nullptr) {
    return append(std::make_unique<ReturnInst>(V));
  }
  DeoptInst *deopt(std::string Reason) {
    return append(std::make_unique<DeoptInst>(std::move(Reason)));
  }
  DeoptInst *deopt(std::string Reason, FrameState State,
                   const std::vector<Value *> &Captured) {
    return append(std::make_unique<DeoptInst>(std::move(Reason),
                                              std::move(State), Captured));
  }

private:
  template <typename InstT> InstT *append(std::unique_ptr<InstT> Inst) {
    assert(Block && "no insertion block set");
    Inst->setProfileId(F.takeNextProfileId());
    InstT *Raw = Inst.get();
    Block->append(std::move(Inst));
    return Raw;
  }

  Function &F;
  BasicBlock *Block;
};

} // namespace incline::ir

#endif // INCLINE_IR_IRBUILDER_H
