//===- ir/BasicBlock.h - Basic block container -----------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A basic block owns its instructions (phis first, then straight-line code,
/// then exactly one terminator). Predecessor lists are maintained eagerly:
/// all CFG mutations go through the block/terminator helpers here.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_IR_BASICBLOCK_H
#define INCLINE_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <memory>
#include <string>
#include <vector>

namespace incline::ir {

class Function;

/// A node of the control-flow graph.
class BasicBlock {
public:
  /// Every block of the lowered suite and traffic programs has at most two
  /// predecessors.
  using PredecessorList = SmallVector<BasicBlock *, 2>;
  /// No block of the lowered suite or traffic programs has more than three
  /// phis; eight leaves room for the merges inlining adds.
  using PhiList = SmallVector<PhiInst *, 8>;

  BasicBlock(Function *Parent, std::string Name, unsigned Id)
      : Parent(Parent), Name(std::move(Name)), Id(Id) {}
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;
  ~BasicBlock();

  Function *parent() const { return Parent; }
  const std::string &name() const { return Name; }
  /// Function-unique id in [0, Function::blockIdBound()), assigned at
  /// creation and never changed or reused.
  unsigned id() const { return Id; }

  const std::vector<std::unique_ptr<Instruction>> &instructions() const {
    return Insts;
  }
  size_t size() const { return Insts.size(); }
  bool empty() const { return Insts.empty(); }
  Instruction *front() const { return Insts.empty() ? nullptr : Insts[0].get(); }

  /// The terminator, or null if the block is still under construction.
  Instruction *terminator() const;
  bool hasTerminator() const { return terminator() != nullptr; }

  /// Appends \p Inst; if it is a terminator, successor predecessor lists are
  /// updated. A block must not receive a second terminator.
  Instruction *append(std::unique_ptr<Instruction> Inst);

  /// Inserts \p Inst before position \p Index.
  Instruction *insertAt(size_t Index, std::unique_ptr<Instruction> Inst);

  /// Inserts \p Inst immediately before \p Before (which must be in this
  /// block).
  Instruction *insertBefore(Instruction *Before,
                            std::unique_ptr<Instruction> Inst);

  /// Makes room for \p N instructions without appending any.
  void reserve(size_t N) { Insts.reserve(N); }

  /// Unlinks and destroys \p Inst. The instruction must have no remaining
  /// uses. Terminator removal detaches successor edges.
  void erase(Instruction *Inst);

  /// Unlinks \p Inst and returns ownership without destroying it (used when
  /// moving instructions between blocks during inlining).
  std::unique_ptr<Instruction> detach(Instruction *Inst);

  /// Index of \p Inst within this block; asserts if absent.
  size_t indexOf(const Instruction *Inst) const;

  /// Predecessor blocks (one entry per incoming edge; a conditional branch
  /// with both edges to this block contributes two entries).
  const PredecessorList &predecessors() const { return Preds; }
  SuccessorList successors() const;

  /// The phi instructions at the head of the block, as a snapshot: the
  /// caller may add or remove phis while walking it.
  PhiList phis() const;
  /// How many there are, without collecting them.
  size_t numPhis() const;

  /// Edge bookkeeping; called from append/erase/replaceSuccessor only.
  /// Both bump the parent function's CFG epoch (see Function::cfgEpoch).
  void addPredecessor(BasicBlock *Pred);
  void removePredecessor(BasicBlock *Pred);

  /// Severs every operand link of every instruction in this block (without
  /// destroying anything). Used before bulk-destroying blocks that may
  /// reference each other.
  void dropAllReferences();

private:
  Function *Parent;
  std::string Name;
  unsigned Id;
  std::vector<std::unique_ptr<Instruction>> Insts;
  PredecessorList Preds;
};

// BasicBlock: parent 8, name 32, id 8 (4 of padding), instruction vector
// 24, inline predecessor list 32.
static_assert(sizeof(BasicBlock) == 104, "BasicBlock changed size");

} // namespace incline::ir

#endif // INCLINE_IR_BASICBLOCK_H
