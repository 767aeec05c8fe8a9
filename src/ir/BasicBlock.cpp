//===- ir/BasicBlock.cpp ---------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/BasicBlock.h"

#include "ir/Function.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"

#include <algorithm>

using namespace incline;
using namespace incline::ir;

BasicBlock::~BasicBlock() {
  // Tear down in reverse so later instructions (users) release their
  // operands before earlier instructions (defs) are destroyed.
  while (!Insts.empty()) {
    Insts.back()->dropAllOperands();
    Insts.pop_back();
  }
}

Instruction *BasicBlock::terminator() const {
  if (Insts.empty())
    return nullptr;
  Instruction *Last = Insts.back().get();
  return Last->isTerminator() ? Last : nullptr;
}

Instruction *BasicBlock::append(std::unique_ptr<Instruction> Inst) {
  assert(!hasTerminator() && "appending after a terminator");
  Instruction *Raw = Inst.get();
  Raw->setParent(this);
  if (!Raw->InstId)
    Raw->InstId = Parent->takeNextInstId();
  Insts.push_back(std::move(Inst));
  if (Raw->isTerminator())
    for (BasicBlock *Succ : successorsOf(Raw))
      Succ->addPredecessor(this);
  return Raw;
}

Instruction *BasicBlock::insertAt(size_t Index,
                                  std::unique_ptr<Instruction> Inst) {
  assert(Index <= Insts.size() && "insert position out of range");
  assert(!Inst->isTerminator() && "terminators must be appended");
  Instruction *Raw = Inst.get();
  Raw->setParent(this);
  if (!Raw->InstId)
    Raw->InstId = Parent->takeNextInstId();
  Insts.insert(Insts.begin() + static_cast<long>(Index), std::move(Inst));
  return Raw;
}

Instruction *BasicBlock::insertBefore(Instruction *Before,
                                      std::unique_ptr<Instruction> Inst) {
  return insertAt(indexOf(Before), std::move(Inst));
}

void BasicBlock::erase(Instruction *Inst) {
  assert(!Inst->hasUses() && "erasing an instruction that still has uses");
  if (Inst->isTerminator())
    for (BasicBlock *Succ : successorsOf(Inst))
      Succ->removePredecessor(this);
  Inst->dropAllOperands();
  size_t Index = indexOf(Inst);
  Insts.erase(Insts.begin() + static_cast<long>(Index));
}

std::unique_ptr<Instruction> BasicBlock::detach(Instruction *Inst) {
  // Detaching a terminator must unhook CFG edges; the caller re-attaches.
  if (Inst->isTerminator())
    for (BasicBlock *Succ : successorsOf(Inst))
      Succ->removePredecessor(this);
  size_t Index = indexOf(Inst);
  std::unique_ptr<Instruction> Owned = std::move(Insts[Index]);
  Insts.erase(Insts.begin() + static_cast<long>(Index));
  Owned->setParent(nullptr);
  return Owned;
}

size_t BasicBlock::indexOf(const Instruction *Inst) const {
  for (size_t I = 0; I < Insts.size(); ++I)
    if (Insts[I].get() == Inst)
      return I;
  incline_unreachable("instruction not found in its parent block");
}

SuccessorList BasicBlock::successors() const {
  Instruction *Term = terminator();
  return Term ? successorsOf(Term) : SuccessorList{};
}

BasicBlock::PhiList BasicBlock::phis() const {
  PhiList Result;
  for (size_t I = 0; I < Insts.size() && isa<PhiInst>(Insts[I].get()); ++I)
    Result.push_back(cast<PhiInst>(Insts[I].get()));
  return Result;
}

size_t BasicBlock::numPhis() const {
  size_t N = 0; // Phis are a prefix of the block.
  while (N < Insts.size() && isa<PhiInst>(Insts[N].get()))
    ++N;
  return N;
}

void BasicBlock::dropAllReferences() {
  for (const auto &Inst : Insts)
    Inst->dropAllOperands();
}

void BasicBlock::addPredecessor(BasicBlock *Pred) {
  Preds.push_back(Pred);
  if (Parent)
    Parent->noteCFGChanged();
}

void BasicBlock::removePredecessor(BasicBlock *Pred) {
  auto It = std::find(Preds.begin(), Preds.end(), Pred);
  assert(It != Preds.end() && "removing a non-existent predecessor");
  Preds.erase(It); // Keep order: phi bookkeeping is order-insensitive but
                   // deterministic iteration aids debugging.
  if (Parent)
    Parent->noteCFGChanged();
}
