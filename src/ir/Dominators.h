//===- ir/Dominators.h - Dominator tree -------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree built with the Cooper-Harvey-Kennedy iterative algorithm.
/// Consumers: GVN (dominance-scoped value numbering), the verifier (defs
/// dominate uses), and loop detection (back edge = edge to a dominator).
///
/// Storage is flat and indexed by BasicBlock::id() (see Function's id
/// contract): a block maps to its reverse-post-order position, and every
/// other table is indexed by that position. dominates() is O(1) through the
/// pre/post order numbers of a walk of the tree.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_IR_DOMINATORS_H
#define INCLINE_IR_DOMINATORS_H

#include <cstdint>
#include <vector>

namespace incline::ir {

class BasicBlock;
class Function;

/// An immutable dominator tree snapshot of a function's CFG. Invalidated by
/// any CFG mutation; rebuild after transformations.
class DominatorTree {
public:
  explicit DominatorTree(const Function &F);

  /// The immediate dominator of \p BB (null for the entry block and for
  /// unreachable blocks).
  BasicBlock *idom(const BasicBlock *BB) const;

  /// True if \p A dominates \p B (reflexive). False whenever either block
  /// is unreachable from the entry or is not a block of the function the
  /// tree was built for: an unreachable block neither dominates nor is
  /// dominated.
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

  /// Children of \p BB in the dominator tree, in reverse post order.
  std::vector<BasicBlock *> children(const BasicBlock *BB) const;

  /// Reverse post order used to build the tree (reachable blocks only).
  const std::vector<BasicBlock *> &reversePostOrder() const { return RPO; }

  bool isReachable(const BasicBlock *BB) const {
    return position(BB) != NoPosition;
  }

private:
  static constexpr uint32_t NoPosition = UINT32_MAX;

  /// \p BB's reverse-post-order position, or NoPosition if it is
  /// unreachable or belongs to another function.
  uint32_t position(const BasicBlock *BB) const;

  std::vector<BasicBlock *> RPO;
  std::vector<uint32_t> PositionById; ///< Block id -> RPO position.
  // The rest is indexed by RPO position.
  std::vector<uint32_t> IDom; ///< Entry maps to itself.
  std::vector<uint32_t> ChildBegin; ///< Children[ChildBegin[P]..[P+1]).
  std::vector<uint32_t> Children;
  std::vector<uint32_t> Pre, Post; ///< Dominator-tree walk numbers.
};

} // namespace incline::ir

#endif // INCLINE_IR_DOMINATORS_H
