//===- ir/Function.cpp -----------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <atomic>

using namespace incline;
using namespace incline::ir;

Function::Function(std::string Name, std::vector<types::Type> ParamTypes,
                   std::vector<std::string> ParamNames,
                   types::Type ReturnType)
    : Name(std::move(Name)), ReturnType(ReturnType) {
  // Atomic: compile worker threads clone functions concurrently with the
  // mutator; ids must stay process-unique without a lock.
  static std::atomic<uint64_t> NextUniqueId{0};
  UniqueId = NextUniqueId.fetch_add(1, std::memory_order_relaxed);
  assert(ParamNames.size() == ParamTypes.size() &&
         "one name per parameter required");
  for (size_t I = 0; I < ParamTypes.size(); ++I)
    Args.push_back(std::make_unique<Argument>(
        static_cast<unsigned>(I), std::move(ParamNames[I]), ParamTypes[I]));
}

Function::~Function() {
  // Cross-block and constant/argument use-def links must be severed before
  // any Value is destroyed (Value's destructor asserts an empty use list,
  // and members are destroyed in reverse declaration order).
  for (const auto &BB : Blocks)
    BB->dropAllReferences();
}

BasicBlock *Function::addBlock(std::string NameHint) {
  Blocks.push_back(
      std::make_unique<BasicBlock>(this, std::move(NameHint), NextBlockId++));
  noteCFGChanged();
  return Blocks.back().get();
}

void Function::removeBlock(BasicBlock *BB) {
  assert(BB->predecessors().empty() &&
         "removing a block that still has predecessors");
  assert(BB != entry() && "cannot remove the entry block");
  // Unhook the terminator's outgoing edges first.
  if (Instruction *Term = BB->terminator()) {
    std::unique_ptr<Instruction> Owned = BB->detach(Term);
    Owned->dropAllOperands();
  }
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [&](const auto &B) { return B.get() == BB; });
  assert(It != Blocks.end() && "block does not belong to this function");
  Blocks.erase(It);
  noteCFGChanged();
}

void Function::moveBlockToEnd(BasicBlock *BB) {
  assert(BB != entry() && "entry block must stay first");
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [&](const auto &B) { return B.get() == BB; });
  assert(It != Blocks.end() && "block does not belong to this function");
  std::unique_ptr<BasicBlock> Owned = std::move(*It);
  Blocks.erase(It);
  Blocks.push_back(std::move(Owned));
}

void Function::moveBlockToFront(BasicBlock *BB) {
  assert(BB->predecessors().empty() &&
         "an entry block cannot have predecessors");
  auto It = std::find_if(Blocks.begin(), Blocks.end(),
                         [&](const auto &B) { return B.get() == BB; });
  assert(It != Blocks.end() && "block does not belong to this function");
  std::unique_ptr<BasicBlock> Owned = std::move(*It);
  Blocks.erase(It);
  Blocks.insert(Blocks.begin(), std::move(Owned));
  // The entry changed, so every CFG-derived analysis is stale.
  noteCFGChanged();
}

size_t Function::instructionCount() const {
  size_t Count = 0;
  for (const auto &BB : Blocks)
    Count += BB->size();
  return Count;
}

ConstInt *Function::constInt(int64_t V) {
  auto It = std::lower_bound(
      IntConstants.begin(), IntConstants.end(), V,
      [](const std::unique_ptr<ConstInt> &C, int64_t V) {
        return C->value() < V;
      });
  if (It == IntConstants.end() || (*It)->value() != V)
    It = IntConstants.insert(It, std::make_unique<ConstInt>(V));
  return It->get();
}

ConstBool *Function::constBool(bool V) {
  auto &Slot = V ? TrueConstant : FalseConstant;
  if (!Slot)
    Slot = std::make_unique<ConstBool>(V);
  return Slot.get();
}

ConstNull *Function::constNull() {
  if (!NullConstant)
    NullConstant = std::make_unique<ConstNull>();
  return NullConstant.get();
}

void Function::reserveProfileIdsUpTo(unsigned Watermark) {
  NextProfileId = std::max(NextProfileId, Watermark);
}

std::vector<BasicBlock *> Function::reversePostOrder() const {
  std::vector<BasicBlock *> PostOrder;
  std::vector<bool> Visited(blockIdBound(), false);
  // Iterative DFS with an explicit stack of (block, next-successor-index).
  std::vector<std::pair<BasicBlock *, size_t>> Stack;
  BasicBlock *Entry = entry();
  Visited[Entry->id()] = true;
  Stack.emplace_back(Entry, 0);
  while (!Stack.empty()) {
    auto &[BB, NextIdx] = Stack.back();
    const Instruction *Term = BB->terminator();
    if (!Term || NextIdx >= numSuccessors(Term)) {
      PostOrder.push_back(BB);
      Stack.pop_back();
      continue;
    }
    BasicBlock *Succ = successor(Term, NextIdx++);
    assert(Succ->parent() == this && "edge into another function");
    if (!Visited[Succ->id()]) {
      Visited[Succ->id()] = true;
      Stack.emplace_back(Succ, 0);
    }
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  return PostOrder;
}
