//===- ir/Instruction.cpp --------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Instruction.h"

#include "ir/BasicBlock.h"
#include "support/ErrorHandling.h"

#include <algorithm>

using namespace incline;
using namespace incline::ir;

Instruction::~Instruction() {
  assert(Operands.empty() &&
         "instruction destroyed without dropping operands");
}

void Instruction::setOperand(size_t I, Value *V) {
  assert(I < Operands.size() && "operand index out of range");
  assert(V && "operand must not be null");
  Value *Old = Operands[I];
  if (Old == V)
    return;
  Old->removeUser(this);
  Operands[I] = V;
  V->addUser(this);
}

void Instruction::replaceUsesOfWith(Value *Old, Value *New) {
  for (size_t I = 0; I < Operands.size(); ++I)
    if (Operands[I] == Old)
      setOperand(I, New);
}

void Instruction::dropAllOperands() {
  for (Value *Op : Operands)
    Op->removeUser(this);
  Operands.clear();
}

void Instruction::addOperand(Value *V) {
  assert(V && "operand must not be null");
  Operands.push_back(V);
  V->addUser(this);
}

void Instruction::removeOperand(size_t I) {
  assert(I < Operands.size() && "operand index out of range");
  Operands[I]->removeUser(this);
  Operands.erase(Operands.begin() + static_cast<long>(I));
}

bool Instruction::hasSideEffects() const {
  switch (kind()) {
  case ValueKind::StoreField:
  case ValueKind::StoreIndex:
  case ValueKind::Print:
  case ValueKind::Call:
  case ValueKind::VirtualCall:
  case ValueKind::CheckCast: // May trap.
  case ValueKind::NullCheck: // May trap.
  case ValueKind::OsrEntry:  // Frame transfer; dead slots must survive DCE.
  case ValueKind::Branch:
  case ValueKind::Jump:
  case ValueKind::Guard:
  case ValueKind::Return:
  case ValueKind::Deopt:
    return true;
  default:
    return false;
  }
}

bool Instruction::readsMemory() const {
  switch (kind()) {
  case ValueKind::LoadField:
  case ValueKind::LoadIndex:
  case ValueKind::Call:
  case ValueKind::VirtualCall:
    return true;
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// PhiInst
//===----------------------------------------------------------------------===//

void PhiInst::addIncoming(Value *V, BasicBlock *Pred) {
  assert(V && Pred && "phi incoming must be non-null");
  addOperand(V);
  Incoming.push_back(Pred);
}

Value *PhiInst::incomingValueFor(const BasicBlock *Pred) const {
  for (size_t I = 0; I < Incoming.size(); ++I)
    if (Incoming[I] == Pred)
      return incomingValue(I);
  return nullptr;
}

void PhiInst::removeIncoming(const BasicBlock *Pred) {
  for (size_t I = 0; I < Incoming.size(); ++I) {
    if (Incoming[I] != Pred)
      continue;
    removeOperand(I);
    Incoming.erase(Incoming.begin() + static_cast<long>(I));
    return;
  }
  incline_unreachable("removeIncoming: predecessor not found");
}

Value *PhiInst::uniqueIncomingValue() const {
  Value *Unique = nullptr;
  for (size_t I = 0; I < numIncoming(); ++I) {
    Value *V = incomingValue(I);
    if (V == this)
      continue; // Self-reference through a loop.
    if (Unique && Unique != V)
      return nullptr;
    Unique = V;
  }
  return Unique;
}

//===----------------------------------------------------------------------===//
// BinOpInst
//===----------------------------------------------------------------------===//

bool BinOpInst::isCommutative(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Eq:
  case Opcode::Ne:
    return true;
  default:
    return false;
  }
}

std::string_view BinOpInst::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Add: return "add";
  case Opcode::Sub: return "sub";
  case Opcode::Mul: return "mul";
  case Opcode::Div: return "div";
  case Opcode::Mod: return "mod";
  case Opcode::And: return "and";
  case Opcode::Or: return "or";
  case Opcode::Xor: return "xor";
  case Opcode::Shl: return "shl";
  case Opcode::Shr: return "shr";
  case Opcode::Eq: return "eq";
  case Opcode::Ne: return "ne";
  case Opcode::Lt: return "lt";
  case Opcode::Le: return "le";
  case Opcode::Gt: return "gt";
  case Opcode::Ge: return "ge";
  }
  incline_unreachable("unknown binop opcode");
}

//===----------------------------------------------------------------------===//
// Terminator helpers
//===----------------------------------------------------------------------===//

std::vector<BasicBlock *> incline::ir::successorsOf(const Instruction *Term) {
  unsigned N = numSuccessors(Term);
  std::vector<BasicBlock *> Succs;
  Succs.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Succs.push_back(successor(Term, I));
  return Succs;
}

void incline::ir::replaceSuccessor(Instruction *Term, BasicBlock *Old,
                                   BasicBlock *New) {
  assert(Term->isTerminator() && "replaceSuccessor on a non-terminator");
  BasicBlock *Source = Term->parent();
  assert(Source && "terminator must be attached to a block");
  bool Replaced = false;
  if (auto *Br = dyn_cast<BranchInst>(Term)) {
    if (Br->trueSuccessor() == Old) {
      Br->setTrueSuccessor(New);
      Replaced = true;
      Old->removePredecessor(Source);
      New->addPredecessor(Source);
    }
    if (Br->falseSuccessor() == Old) {
      Br->setFalseSuccessor(New);
      Replaced = true;
      Old->removePredecessor(Source);
      New->addPredecessor(Source);
    }
  } else if (auto *Jmp = dyn_cast<JumpInst>(Term)) {
    if (Jmp->target() == Old) {
      Jmp->setTarget(New);
      Replaced = true;
      Old->removePredecessor(Source);
      New->addPredecessor(Source);
    }
  } else if (auto *G = dyn_cast<GuardInst>(Term)) {
    if (G->passSuccessor() == Old) {
      G->setPassSuccessor(New);
      Replaced = true;
      Old->removePredecessor(Source);
      New->addPredecessor(Source);
    }
    if (G->failSuccessor() == Old) {
      G->setFailSuccessor(New);
      Replaced = true;
      Old->removePredecessor(Source);
      New->addPredecessor(Source);
    }
  }
  assert(Replaced && "replaceSuccessor: edge not found");
  (void)Replaced;
}
