//===- ir/Function.h - IR function -----------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Function owns its basic blocks, arguments, and uniqued constants. Its
/// instruction count is the paper's `|ir(n)|` — the unit of all cost/size
/// metrics (Eqs. 1-2, 5, 8, 12).
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_IR_FUNCTION_H
#define INCLINE_IR_FUNCTION_H

#include "ir/BasicBlock.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace incline::ir {

/// Marks a function as a loop-entry OSR variant: its entry block
/// materializes the live frame of `BaselineSymbol` at the loop headed by
/// baseline block `HeaderBlockId` (see OsrEntryInst). The anchor is copied
/// by cloneFunction so compilation clones of an OSR skeleton stay OSR
/// variants.
struct OsrAnchor {
  std::string BaselineSymbol;
  unsigned HeaderBlockId = 0;
};

/// A function (free function or method; methods take `this` as parameter 0).
class Function {
public:
  Function(std::string Name, std::vector<types::Type> ParamTypes,
           std::vector<std::string> ParamNames, types::Type ReturnType);
  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;
  ~Function();

  const std::string &name() const { return Name; }
  types::Type returnType() const { return ReturnType; }
  size_t numParams() const { return Args.size(); }
  Argument *arg(size_t I) const {
    assert(I < Args.size());
    return Args[I].get();
  }
  const std::vector<std::unique_ptr<Argument>> &args() const { return Args; }

  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }
  BasicBlock *entry() const {
    assert(!Blocks.empty() && "function has no entry block");
    return Blocks[0].get();
  }

  /// Creates a new block. The first block created is the entry.
  BasicBlock *addBlock(std::string NameHint);

  /// Unlinks and destroys \p BB. The block must have no predecessors and
  /// its instructions no outside uses. Renumbers remaining block ids.
  void removeBlock(BasicBlock *BB);

  /// Moves \p BB to the end of the block list (block order is only
  /// cosmetic; entry stays at index 0).
  void moveBlockToEnd(BasicBlock *BB);

  /// Moves \p BB to the front of the block list, making it the entry block
  /// (used when grafting an OSR entry onto a cloned loop body). \p BB must
  /// have no predecessors.
  void moveBlockToFront(BasicBlock *BB);

  /// OSR-variant marker; null for ordinary functions.
  const OsrAnchor *osrAnchor() const {
    return Anchor ? &*Anchor : nullptr;
  }
  void setOsrAnchor(OsrAnchor A) { Anchor = std::move(A); }

  /// Total instruction count: the paper's |ir|.
  size_t instructionCount() const;

  /// Uniqued constants.
  ConstInt *constInt(int64_t V);
  ConstBool *constBool(bool V);
  ConstNull *constNull();

  /// Fresh profile id for a newly created instruction; see
  /// Instruction::profileId().
  unsigned takeNextProfileId() { return NextProfileId++; }
  unsigned nextProfileIdWatermark() const { return NextProfileId; }
  /// Raises the watermark (used by the cloner so clones can keep original
  /// ids while new instructions still get fresh ones).
  void reserveProfileIdsUpTo(unsigned Watermark);

  /// Fresh Instruction::instId(); called by BasicBlock on first insertion.
  unsigned takeNextInstId() { return ++NextInstId; }

  /// Blocks in reverse post order from the entry (every reachable block).
  std::vector<BasicBlock *> reversePostOrder() const;

  /// Process-unique id, assigned at construction and never reused. Analysis
  /// caches key on it instead of the Function address so a cache outliving a
  /// function can never confuse it with a newer allocation at the same
  /// address.
  uint64_t uniqueId() const { return UniqueId; }

  /// Monotonic counter bumped by every CFG mutation (block creation and
  /// removal, and every edge insertion or removal via the predecessor-list
  /// bookkeeping). CFG-derived analyses (dominators, loops, block
  /// frequencies) record the epoch they were computed at; a changed epoch
  /// means the snapshot is stale.
  uint64_t cfgEpoch() const { return CFGEpoch; }
  /// Called from the CFG mutators; not for general use.
  void noteCFGChanged() { ++CFGEpoch; }

private:
  std::string Name;
  types::Type ReturnType;
  std::vector<std::unique_ptr<Argument>> Args;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;

  std::map<int64_t, std::unique_ptr<ConstInt>> IntConstants;
  std::unique_ptr<ConstBool> TrueConstant;
  std::unique_ptr<ConstBool> FalseConstant;
  std::unique_ptr<ConstNull> NullConstant;

  std::optional<OsrAnchor> Anchor;
  unsigned NextProfileId = 0;
  unsigned NextInstId = 0;
  unsigned NextBlockId = 0;
  uint64_t UniqueId;
  uint64_t CFGEpoch = 0;
};

} // namespace incline::ir

#endif // INCLINE_IR_FUNCTION_H
