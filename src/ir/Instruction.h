//===- ir/Instruction.h - IR instruction class hierarchy -----------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All IR instructions. The set mirrors what MiniOO programs need: SSA phis,
/// integer/boolean arithmetic, direct and virtual calls, object and array
/// allocation and access, type tests/casts, a print intrinsic, and
/// terminators. Virtual calls (`VirtualCallInst`) are the raw material of
/// the paper's inliner: devirtualization rewrites them into direct
/// `CallInst`s, and polymorphic inlining expands them into typeswitches
/// built from `GetClassIdInst` + comparisons.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_IR_INSTRUCTION_H
#define INCLINE_IR_INSTRUCTION_H

#include "ir/Value.h"
#include "support/Casting.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace incline::ir {

class BasicBlock;

/// Base class for everything that lives inside a basic block.
///
/// Each instruction carries a `profileId`, a function-unique id assigned at
/// creation and *preserved by cloning*: runtime profiles (branch
/// probabilities, receiver types) are keyed by (function name, profileId),
/// so specialized copies of a method made by the inliner's call-tree
/// exploration still find their profiles.
class Instruction : public Value {
public:
  ~Instruction() override;

  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  /// The function-unique profiling id (see class comment).
  unsigned profileId() const { return ProfileId; }
  void setProfileId(unsigned Id) { ProfileId = Id; }

  /// Identity within the parent function, assigned when the instruction
  /// first joins a block and kept across moves between blocks. Unlike the
  /// instruction's address, which a later allocation can take over once it
  /// is erased, an id is never reused within its function. 0 until
  /// inserted. Never printed, hashed or used to order anything; it indexes
  /// flat side tables (see Function::instIdBound).
  unsigned instId() const { return InstId; }

  /// Three inline slots hold every operand list of the lowered suite and
  /// traffic programs; calls with more arguments spill to the heap.
  using OperandList = SmallVector<Value *, 3>;

  size_t numOperands() const { return Operands.size(); }
  Value *operand(size_t I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  const OperandList &operands() const { return Operands; }

  /// Replaces operand \p I, maintaining use lists on both values.
  void setOperand(size_t I, Value *V);

  /// Replaces every occurrence of \p Old among the operands with \p New.
  void replaceUsesOfWith(Value *Old, Value *New);

  /// Drops all operands (removing this from their use lists). Called before
  /// an instruction is destroyed or abandoned.
  void dropAllOperands();

  bool isTerminator() const {
    return kind() >= FirstTerminatorKind && kind() <= LastTerminatorKind;
  }

  /// True if the instruction writes memory or performs I/O and therefore
  /// must not be removed even when unused.
  bool hasSideEffects() const;

  /// True if the instruction may read mutable memory (so it cannot be
  /// freely value-numbered across stores).
  bool readsMemory() const;

  static bool classof(const Value *V) {
    return V->kind() >= FirstInstKind && V->kind() <= LastInstKind;
  }

protected:
  Instruction(ValueKind Kind, types::Type Ty) : Value(Kind, Ty) {}

  void addOperand(Value *V);

  /// Erases operand slot \p I (shifting later slots down), maintaining the
  /// use list. Only variadic instructions (phis) may shrink.
  void removeOperand(size_t I);

private:
  friend class BasicBlock; // Assigns InstId.

  BasicBlock *Parent = nullptr;
  unsigned ProfileId = 0;
  unsigned InstId = 0;
  OperandList Operands;
};

// Value: vtable pointer 8, kind/type/exact bit 16, inline user list 32.
static_assert(sizeof(Value) == 56, "Value changed size");
// Instruction: Value 56, parent 8, profile and instruction ids 8 (InstId
// fills what was padding), inline operand list 40.
static_assert(sizeof(Instruction) == 112, "Instruction changed size");

//===----------------------------------------------------------------------===//
// Phi
//===----------------------------------------------------------------------===//

/// An SSA phi. Incoming blocks are stored explicitly (parallel to the
/// operand list) so CFG edits can update them precisely.
class PhiInst : public Instruction {
public:
  explicit PhiInst(types::Type Ty) : Instruction(ValueKind::Phi, Ty) {}

  void addIncoming(Value *V, BasicBlock *Pred);
  size_t numIncoming() const { return Incoming.size(); }
  BasicBlock *incomingBlock(size_t I) const {
    assert(I < Incoming.size());
    return Incoming[I];
  }
  void setIncomingBlock(size_t I, BasicBlock *BB) {
    assert(I < Incoming.size());
    Incoming[I] = BB;
  }
  Value *incomingValue(size_t I) const { return operand(I); }
  void setIncomingValue(size_t I, Value *V) { setOperand(I, V); }

  /// Returns the incoming value for \p Pred, or null if absent.
  Value *incomingValueFor(const BasicBlock *Pred) const;

  /// Removes the incoming entry for \p Pred (must exist).
  void removeIncoming(const BasicBlock *Pred);

  /// If all incoming values are the same value X (ignoring self-references),
  /// returns X; otherwise null.
  Value *uniqueIncomingValue() const;

  static bool classof(const Value *V) { return V->kind() == ValueKind::Phi; }

private:
  /// Parallel to the operands; nearly every phi merges two edges.
  SmallVector<BasicBlock *, 2> Incoming;
};

// PhiInst: Instruction 112, inline incoming-block list 32.
static_assert(sizeof(PhiInst) == 144, "PhiInst changed size");

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

/// Binary integer/boolean operations, including comparisons (bool result).
class BinOpInst : public Instruction {
public:
  enum class Opcode : uint8_t {
    Add, Sub, Mul, Div, Mod,
    And, Or, Xor, Shl, Shr,
    Eq, Ne, Lt, Le, Gt, Ge,
  };

  BinOpInst(Opcode Op, Value *Lhs, Value *Rhs)
      : Instruction(ValueKind::BinOp, resultType(Op)), Op(Op) {
    addOperand(Lhs);
    addOperand(Rhs);
  }

  Opcode opcode() const { return Op; }
  Value *lhs() const { return operand(0); }
  Value *rhs() const { return operand(1); }

  static bool isComparison(Opcode Op) { return Op >= Opcode::Eq; }
  bool isComparison() const { return isComparison(Op); }
  /// Commutative in the algebraic sense (Eq/Ne included).
  static bool isCommutative(Opcode Op);
  static types::Type resultType(Opcode Op) {
    return isComparison(Op) ? types::Type::boolTy() : types::Type::intTy();
  }
  static std::string_view opcodeName(Opcode Op);

  static bool classof(const Value *V) { return V->kind() == ValueKind::BinOp; }

private:
  Opcode Op;
};

/// Unary operations: integer negation and boolean not.
class UnOpInst : public Instruction {
public:
  enum class Opcode : uint8_t { Neg, Not };

  UnOpInst(Opcode Op, Value *V)
      : Instruction(ValueKind::UnOp, Op == Opcode::Neg
                                         ? types::Type::intTy()
                                         : types::Type::boolTy()),
        Op(Op) {
    addOperand(V);
  }

  Opcode opcode() const { return Op; }
  static bool classof(const Value *V) { return V->kind() == ValueKind::UnOp; }

private:
  Opcode Op;
};

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

/// A direct call to the function named `callee()`. For method calls the
/// receiver is operand 0. Direct calls are what the inliner can expand
/// (call-tree kind C) and ultimately inline.
class CallInst : public Instruction {
public:
  CallInst(std::string Callee, std::span<Value *const> Args,
           types::Type RetTy)
      : Instruction(ValueKind::Call, RetTy), Callee(std::move(Callee)) {
    for (Value *A : Args)
      addOperand(A);
  }

  const std::string &callee() const { return Callee; }
  void setCallee(std::string NewCallee) { Callee = std::move(NewCallee); }
  size_t numArgs() const { return numOperands(); }
  Value *arg(size_t I) const { return operand(I); }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Call; }

private:
  std::string Callee;
};

/// A virtual (receiver-polymorphic) call: operand 0 is the receiver and the
/// callee is resolved from its dynamic class at run time. The inliner marks
/// these as kind G (cannot inline) unless it can devirtualize them or
/// speculate on the receiver type profile (kind P, §IV "Polymorphic
/// inlining").
class VirtualCallInst : public Instruction {
public:
  VirtualCallInst(std::string MethodName, Value *Receiver,
                  std::span<Value *const> Args, types::Type RetTy)
      : Instruction(ValueKind::VirtualCall, RetTy),
        MethodName(std::move(MethodName)) {
    addOperand(Receiver);
    for (Value *A : Args)
      addOperand(A);
  }

  const std::string &methodName() const { return MethodName; }
  Value *receiver() const { return operand(0); }
  size_t numArgs() const { return numOperands() - 1; }
  Value *arg(size_t I) const { return operand(I + 1); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::VirtualCall;
  }

private:
  std::string MethodName;
};

//===----------------------------------------------------------------------===//
// Allocation and memory access
//===----------------------------------------------------------------------===//

/// `new C`: allocates an instance with zero-initialized fields. The result
/// type is exact — the seed of devirtualization.
class NewObjectInst : public Instruction {
public:
  explicit NewObjectInst(int ClassId)
      : Instruction(ValueKind::NewObject, types::Type::object(ClassId)),
        ClassId(ClassId) {
    setExactType(true);
  }

  int classId() const { return ClassId; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::NewObject;
  }

private:
  int ClassId;
};

/// `new int[n]` / `new C[n]`: allocates a zero/null-initialized array.
class NewArrayInst : public Instruction {
public:
  NewArrayInst(types::Type ArrayTy, Value *Length)
      : Instruction(ValueKind::NewArray, ArrayTy) {
    assert(ArrayTy.isArray() && "NewArray must produce an array type");
    setExactType(true);
    addOperand(Length);
  }

  Value *length() const { return operand(0); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::NewArray;
  }
};

/// Reads field slot `fieldSlot()` of the object operand.
class LoadFieldInst : public Instruction {
public:
  LoadFieldInst(Value *Obj, unsigned FieldSlot, types::Type FieldTy)
      : Instruction(ValueKind::LoadField, FieldTy), FieldSlot(FieldSlot) {
    addOperand(Obj);
  }

  Value *object() const { return operand(0); }
  unsigned fieldSlot() const { return FieldSlot; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::LoadField;
  }

private:
  unsigned FieldSlot;
};

/// Writes field slot `fieldSlot()` of the object operand.
class StoreFieldInst : public Instruction {
public:
  StoreFieldInst(Value *Obj, unsigned FieldSlot, Value *Val)
      : Instruction(ValueKind::StoreField, types::Type::voidTy()),
        FieldSlot(FieldSlot) {
    addOperand(Obj);
    addOperand(Val);
  }

  Value *object() const { return operand(0); }
  Value *storedValue() const { return operand(1); }
  unsigned fieldSlot() const { return FieldSlot; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::StoreField;
  }

private:
  unsigned FieldSlot;
};

/// Reads `array[index]`.
class LoadIndexInst : public Instruction {
public:
  LoadIndexInst(Value *Array, Value *Index, types::Type ElemTy)
      : Instruction(ValueKind::LoadIndex, ElemTy) {
    addOperand(Array);
    addOperand(Index);
  }

  Value *array() const { return operand(0); }
  Value *index() const { return operand(1); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::LoadIndex;
  }
};

/// Writes `array[index] = value`.
class StoreIndexInst : public Instruction {
public:
  StoreIndexInst(Value *Array, Value *Index, Value *Val)
      : Instruction(ValueKind::StoreIndex, types::Type::voidTy()) {
    addOperand(Array);
    addOperand(Index);
    addOperand(Val);
  }

  Value *array() const { return operand(0); }
  Value *index() const { return operand(1); }
  Value *storedValue() const { return operand(2); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::StoreIndex;
  }
};

/// `array.length`.
class ArrayLengthInst : public Instruction {
public:
  explicit ArrayLengthInst(Value *Array)
      : Instruction(ValueKind::ArrayLength, types::Type::intTy()) {
    addOperand(Array);
  }

  Value *array() const { return operand(0); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ArrayLength;
  }
};

//===----------------------------------------------------------------------===//
// Type tests
//===----------------------------------------------------------------------===//

/// `obj instanceof C` — true iff the dynamic class is C or a subclass.
/// Null is not an instance of anything. Folded by the canonicalizer when
/// the operand's type is exact ("type-check folding", §IV).
class InstanceOfInst : public Instruction {
public:
  InstanceOfInst(Value *Obj, int TestClassId)
      : Instruction(ValueKind::InstanceOf, types::Type::boolTy()),
        TestClassId(TestClassId) {
    addOperand(Obj);
  }

  Value *object() const { return operand(0); }
  int testClassId() const { return TestClassId; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::InstanceOf;
  }

private:
  int TestClassId;
};

/// `(C) obj` — narrows the static type; traps at run time on mismatch.
class CheckCastInst : public Instruction {
public:
  CheckCastInst(Value *Obj, int TargetClassId)
      : Instruction(ValueKind::CheckCast, types::Type::object(TargetClassId)),
        TargetClassId(TargetClassId) {
    addOperand(Obj);
  }

  Value *object() const { return operand(0); }
  int targetClassId() const { return TargetClassId; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::CheckCast;
  }

private:
  int TargetClassId;
};

/// Asserts that the operand is non-null and forwards it (a pi node): traps
/// with a NullPointer error otherwise. Emitted when devirtualizing through
/// class-hierarchy analysis, so a direct call keeps the virtual call's NPE
/// semantics. Folds away when the operand is provably non-null.
class NullCheckInst : public Instruction {
public:
  explicit NullCheckInst(Value *Obj)
      : Instruction(ValueKind::NullCheck, Obj->type()) {
    setExactType(Obj->hasExactType());
    addOperand(Obj);
  }

  Value *object() const { return operand(0); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::NullCheck;
  }
};

/// Reads the dynamic class id of an object — the dispatch-table load used
/// to build typeswitches for polymorphic inlining (Hölzle & Ungar style).
class GetClassIdInst : public Instruction {
public:
  explicit GetClassIdInst(Value *Obj)
      : Instruction(ValueKind::GetClassId, types::Type::intTy()) {
    addOperand(Obj);
  }

  Value *object() const { return operand(0); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::GetClassId;
  }
};

//===----------------------------------------------------------------------===//
// I/O
//===----------------------------------------------------------------------===//

/// The MiniOO `print(x)` intrinsic (int or bool operand). Program output is
/// the observable behaviour that differential tests compare across
/// optimization levels and inliner policies.
class PrintInst : public Instruction {
public:
  explicit PrintInst(Value *V)
      : Instruction(ValueKind::Print, types::Type::voidTy()) {
    addOperand(V);
  }

  Value *value() const { return operand(0); }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Print; }
};

//===----------------------------------------------------------------------===//
// Terminators
//===----------------------------------------------------------------------===//

/// Conditional branch on a boolean operand.
class BranchInst : public Instruction {
public:
  BranchInst(Value *Cond, BasicBlock *TrueSucc, BasicBlock *FalseSucc)
      : Instruction(ValueKind::Branch, types::Type::voidTy()),
        TrueSucc(TrueSucc), FalseSucc(FalseSucc) {
    addOperand(Cond);
  }

  Value *condition() const { return operand(0); }
  BasicBlock *trueSuccessor() const { return TrueSucc; }
  BasicBlock *falseSuccessor() const { return FalseSucc; }
  void setTrueSuccessor(BasicBlock *BB) { TrueSucc = BB; }
  void setFalseSuccessor(BasicBlock *BB) { FalseSucc = BB; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Branch;
  }

private:
  BasicBlock *TrueSucc;
  BasicBlock *FalseSucc;
};

/// Unconditional jump.
class JumpInst : public Instruction {
public:
  explicit JumpInst(BasicBlock *Target)
      : Instruction(ValueKind::Jump, types::Type::voidTy()), Target(Target) {}

  BasicBlock *target() const { return Target; }
  void setTarget(BasicBlock *BB) { Target = BB; }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Jump; }

private:
  BasicBlock *Target;
};

/// Describes where one captured SSA value lands in the baseline frame a
/// deoptimization materializes: either a formal argument (by index) or an
/// instruction result (by baseline profileId — stable across cloning, see
/// Instruction's class comment).
struct FrameStateSlot {
  enum class Target : uint8_t { Argument, Instruction };
  Target Kind = Target::Argument;
  unsigned BaselineId = 0; ///< Argument index or baseline profileId.
};

/// The resume recipe a `DeoptInst` carries: which baseline function to
/// transfer into, which block, which instruction to re-execute, and how the
/// deopt's captured operands map onto the baseline's live values there.
///
/// Invariants (checked by the verifier):
///  * `Slots.size()` equals the deopt's operand count (slot i describes
///    operand i);
///  * every captured operand dominates the deopt (the generic SSA dominance
///    rule — capturing only values that dominate the guarded point is what
///    makes the transfer sound);
///  * under `verifyModule`, `BaselineSymbol` names a module function whose
///    block `BaselineBlockId` contains the resume instruction with
///    profileId `ResumePoint`, and every slot resolves to an
///    argument/instruction of that function. For speculation-guard deopts
///    the resume instruction must be a virtual call; for cold-branch
///    uncommon traps (reason `DeoptInst::ColdBranchReason`) it must be the
///    first non-phi instruction of the named block — the pruned branch
///    target's entry point.
struct FrameState {
  std::string BaselineSymbol; ///< The unoptimized function to resume in.
  unsigned BaselineBlockId = 0;
  /// ProfileId of the baseline instruction to re-execute on resume.
  /// For a speculation guard this is the baseline VirtualCallInst:
  /// re-executing the dispatch (instead of resuming after it) is what makes
  /// guard failure output-neutral — the baseline simply performs the
  /// virtual call the speculation tried to avoid. For a cold-branch trap it
  /// is the first non-phi instruction of the pruned branch target: the
  /// interpreter enters the cold block exactly where compiled code would
  /// have (phi values arrive pre-materialized through the slots).
  unsigned ResumePoint = 0;
  std::vector<FrameStateSlot> Slots; ///< Parallel to the deopt's operands.
};

/// Materializes one live baseline value at a loop-entry OSR point. OSR
/// variants (functions carrying an `OsrAnchor`, see Function.h) begin with a
/// contiguous run of these in their entry block: when the interpreter
/// transfers a mid-loop frame into compiled code, each OsrEntryInst names —
/// via the same `FrameStateSlot` encoding the deopt machinery uses, just in
/// the opposite direction — which baseline frame value (argument by index,
/// or instruction result by baseline profileId) it receives.
///
/// Invariants (checked by the verifier):
///  * only appears in functions with an OSR anchor, only in the entry
///    block, and only before any non-OsrEntry instruction;
///  * produces a non-void value;
///  * under `verifyOsrEntries`, every slot resolves against the anchor's
///    baseline function and its definition reaches the anchored loop
///    header: arguments always do, instruction slots must be defined in a
///    block that strictly dominates the header or be one of the header's
///    own phis (the transfer happens after the header's phi evaluation).
///
/// Reports side effects so no pass removes, merges, or reorders entry
/// materialization — a dead slot must still be *transferable*, exactly like
/// a deopt's captured operands pin values live on the other side.
class OsrEntryInst : public Instruction {
public:
  OsrEntryInst(FrameStateSlot Source, types::Type Ty)
      : Instruction(ValueKind::OsrEntry, Ty), Source(Source) {}

  const FrameStateSlot &source() const { return Source; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::OsrEntry;
  }

private:
  FrameStateSlot Source;
};

/// Speculation guard: tests whether the receiver operand's dynamic class id
/// equals `expectedClassId()`. Falls through to the pass successor when it
/// does (the speculated direct call), to the fail successor (which must
/// reach a frame-state-carrying DeoptInst) when it does not — including
/// when the receiver is null, so the baseline re-dispatch reproduces the
/// virtual call's null-pointer trap exactly.
class GuardInst : public Instruction {
public:
  GuardInst(Value *Receiver, int ExpectedClassId, BasicBlock *PassSucc,
            BasicBlock *FailSucc)
      : Instruction(ValueKind::Guard, types::Type::voidTy()),
        ExpectedClassId(ExpectedClassId), PassSucc(PassSucc),
        FailSucc(FailSucc) {
    addOperand(Receiver);
  }

  Value *receiver() const { return operand(0); }
  int expectedClassId() const { return ExpectedClassId; }
  BasicBlock *passSuccessor() const { return PassSucc; }
  BasicBlock *failSuccessor() const { return FailSucc; }
  void setPassSuccessor(BasicBlock *BB) { PassSucc = BB; }
  void setFailSuccessor(BasicBlock *BB) { FailSucc = BB; }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Guard; }

private:
  int ExpectedClassId;
  BasicBlock *PassSucc;
  BasicBlock *FailSucc;
};

/// Function return, with an optional value.
class ReturnInst : public Instruction {
public:
  explicit ReturnInst(Value *Val)
      : Instruction(ValueKind::Return, types::Type::voidTy()) {
    if (Val)
      addOperand(Val);
  }

  bool hasValue() const { return numOperands() == 1; }
  Value *returnValue() const { return hasValue() ? operand(0) : nullptr; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Return;
  }
};

/// A deoptimization point. Without a frame state it marks a point the
/// compiled code believes unreachable, and executing it is a fatal trap
/// (the legacy meaning). With a frame state it is a recovery mechanism:
/// the interpreter materializes the captured operands into the baseline
/// function's frame per `frameState()` and continues there, so a failed
/// speculation degrades to interpretation instead of killing the program.
class DeoptInst : public Instruction {
public:
  /// Reason string of a cold-branch uncommon trap (ColdBranchPruning).
  /// These deopts are accounted separately from speculation-guard failures:
  /// taking one means the profile was stale, not that a guarded assumption
  /// broke, so the runtime blacklists the prune and recompiles without it
  /// instead of charging a speculation failure.
  static constexpr const char *ColdBranchReason = "cold-branch";

  explicit DeoptInst(std::string Reason)
      : Instruction(ValueKind::Deopt, types::Type::voidTy()),
        Reason(std::move(Reason)) {}

  /// Frame-state form: \p Captured are the compiled-frame SSA values to
  /// transfer (they become the operands), described slot-by-slot by
  /// \p State.
  DeoptInst(std::string Reason, FrameState State,
            const std::vector<Value *> &Captured)
      : Instruction(ValueKind::Deopt, types::Type::voidTy()),
        Reason(std::move(Reason)), State(std::move(State)), HasState(true) {
    for (Value *V : Captured)
      addOperand(V);
  }

  const std::string &reason() const { return Reason; }
  /// True for a cold-branch uncommon trap (see ColdBranchReason).
  bool isColdBranch() const { return Reason == ColdBranchReason; }
  bool hasFrameState() const { return HasState; }
  const FrameState &frameState() const {
    assert(HasState && "deopt has no frame state");
    return State;
  }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Deopt; }

private:
  std::string Reason;
  FrameState State;
  bool HasState = false;
};

/// Successor blocks of a terminator; a terminator has at most two, so the
/// list never leaves its inline storage.
using SuccessorList = SmallVector<BasicBlock *, 2>;

/// Successor blocks of a terminator instruction, in a fixed order.
SuccessorList successorsOf(const Instruction *Term);

/// The size of successorsOf(\p Term) and its element \p I, without
/// building the vector.
inline unsigned numSuccessors(const Instruction *Term) {
  assert(Term->isTerminator() && "numSuccessors on a non-terminator");
  switch (Term->kind()) {
  case ValueKind::Branch:
  case ValueKind::Guard:
    return 2;
  case ValueKind::Jump:
    return 1;
  default:
    return 0; // Return, Deopt.
  }
}
inline BasicBlock *successor(const Instruction *Term, unsigned I) {
  assert(I < numSuccessors(Term) && "successor index out of range");
  if (const auto *Br = dyn_cast<BranchInst>(Term))
    return I == 0 ? Br->trueSuccessor() : Br->falseSuccessor();
  if (const auto *G = dyn_cast<GuardInst>(Term))
    return I == 0 ? G->passSuccessor() : G->failSuccessor();
  return cast<JumpInst>(Term)->target();
}

/// Rewrites every successor edge \p Old of \p Term to \p New.
void replaceSuccessor(Instruction *Term, BasicBlock *Old, BasicBlock *New);

} // namespace incline::ir

#endif // INCLINE_IR_INSTRUCTION_H
