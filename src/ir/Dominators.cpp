//===- ir/Dominators.cpp ----------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Dominators.h"

#include "ir/Function.h"

#include <cassert>

using namespace incline;
using namespace incline::ir;

DominatorTree::DominatorTree(const Function &F) {
  RPO = F.reversePostOrder();
  const uint32_t N = static_cast<uint32_t>(RPO.size());
  PositionById.assign(F.blockIdBound(), NoPosition);
  for (uint32_t I = 0; I < N; ++I) {
    assert(RPO[I]->id() < PositionById.size() && "block id out of range");
    PositionById[RPO[I]->id()] = I;
  }
  IDom.assign(N, NoPosition);
  if (N == 0)
    return;
  IDom[0] = 0; // Entry's idom is itself during the fixpoint.

  // Cooper-Harvey-Kennedy: intersect along idom chains until stable.
  auto Intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (A > B)
        A = IDom[A];
      while (B > A)
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t I = 1; I < N; ++I) {
      uint32_t NewIdom = NoPosition;
      for (const BasicBlock *Pred : RPO[I]->predecessors()) {
        uint32_t PredPos = position(Pred);
        if (PredPos == NoPosition)
          continue; // Unreachable predecessor.
        if (IDom[PredPos] == NoPosition)
          continue; // Not yet processed this round.
        NewIdom = NewIdom == NoPosition ? PredPos : Intersect(NewIdom, PredPos);
      }
      assert(NewIdom != NoPosition && "reachable block with no processed pred");
      if (IDom[I] != NewIdom) {
        IDom[I] = NewIdom;
        Changed = true;
      }
    }
  }

  // Children as one flat array, grouped by parent and in RPO within a group.
  ChildBegin.assign(N + 1, 0);
  for (uint32_t I = 1; I < N; ++I)
    ++ChildBegin[IDom[I] + 1];
  for (uint32_t I = 0; I < N; ++I)
    ChildBegin[I + 1] += ChildBegin[I];
  Children.resize(N - 1);
  std::vector<uint32_t> Fill(ChildBegin.begin(), ChildBegin.end() - 1);
  for (uint32_t I = 1; I < N; ++I)
    Children[Fill[IDom[I]]++] = I;

  // Number the tree in pre and post order: A dominates B exactly when B's
  // visit nests inside A's.
  Pre.assign(N, 0);
  Post.assign(N, 0);
  uint32_t Clock = 0;
  std::vector<uint32_t> Next(ChildBegin.begin(), ChildBegin.end() - 1);
  std::vector<uint32_t> Stack{0};
  Pre[0] = Clock++;
  while (!Stack.empty()) {
    uint32_t P = Stack.back();
    if (Next[P] == ChildBegin[P + 1]) {
      Post[P] = Clock++;
      Stack.pop_back();
      continue;
    }
    uint32_t Child = Children[Next[P]++];
    Pre[Child] = Clock++;
    Stack.push_back(Child);
  }
}

uint32_t DominatorTree::position(const BasicBlock *BB) const {
  if (!BB || BB->id() >= PositionById.size())
    return NoPosition;
  uint32_t P = PositionById[BB->id()];
  // A block of another function can carry the same id.
  return P != NoPosition && RPO[P] == BB ? P : NoPosition;
}

BasicBlock *DominatorTree::idom(const BasicBlock *BB) const {
  uint32_t P = position(BB);
  if (P == NoPosition || P == 0)
    return nullptr;
  return RPO[IDom[P]];
}

bool DominatorTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  uint32_t PA = position(A), PB = position(B);
  if (PA == NoPosition || PB == NoPosition)
    return false;
  return Pre[PA] <= Pre[PB] && Post[PB] <= Post[PA];
}

std::vector<BasicBlock *> DominatorTree::children(const BasicBlock *BB) const {
  std::vector<BasicBlock *> Result;
  uint32_t P = position(BB);
  if (P == NoPosition)
    return Result;
  for (uint32_t K = ChildBegin[P]; K < ChildBegin[P + 1]; ++K)
    Result.push_back(RPO[Children[K]]);
  return Result;
}
