//===- tests/ir_structure_test.cpp - IR core structural tests ---------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "fuzz/RandomProgram.h"
#include "ir/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/IRCloner.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"
#include "ir/LoopInfo.h"
#include "ir/Module.h"
#include "support/Casting.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

using namespace incline;
using namespace incline::ir;
using types::Type;

namespace {

/// Builds: entry -> cond <-> body (loop), cond -> exit. Returns the sum of
/// 0..n-1 via a loop phi.
std::unique_ptr<Function> buildLoopFunction() {
  auto F = std::make_unique<Function>(
      "sum", std::vector<Type>{Type::intTy()},
      std::vector<std::string>{"n"}, Type::intTy());
  BasicBlock *Entry = F->addBlock("entry");
  BasicBlock *Cond = F->addBlock("cond");
  BasicBlock *Body = F->addBlock("body");
  BasicBlock *Exit = F->addBlock("exit");

  IRBuilder B(*F, Entry);
  B.jump(Cond);

  B.setInsertBlock(Cond);
  PhiInst *I = B.phi(Type::intTy());
  PhiInst *Acc = B.phi(Type::intTy());
  Value *Lt = B.binop(BinOpInst::Opcode::Lt, I, F->arg(0));
  B.branch(Lt, Body, Exit);

  B.setInsertBlock(Body);
  Value *NewAcc = B.binop(BinOpInst::Opcode::Add, Acc, I);
  Value *NewI = B.binop(BinOpInst::Opcode::Add, I, B.constInt(1));
  B.jump(Cond);

  B.setInsertBlock(Exit);
  B.ret(Acc);

  I->addIncoming(F->constInt(0), Entry);
  I->addIncoming(NewI, Body);
  Acc->addIncoming(F->constInt(0), Entry);
  Acc->addIncoming(NewAcc, Body);
  return F;
}

TEST(IRStructureTest, UseListsAreSymmetric) {
  auto F = buildLoopFunction();
  EXPECT_TRUE(verifyFunction(*F).empty());
  // The argument n is used once (by the compare).
  EXPECT_EQ(F->arg(0)->numUses(), 1u);
}

TEST(IRStructureTest, RAUWRewritesAllUses) {
  auto F = std::make_unique<Function>("f", std::vector<Type>{Type::intTy()},
                                      std::vector<std::string>{"x"},
                                      Type::intTy());
  BasicBlock *Entry = F->addBlock("entry");
  IRBuilder B(*F, Entry);
  Value *A = B.binop(BinOpInst::Opcode::Add, F->arg(0), F->arg(0));
  Value *M = B.binop(BinOpInst::Opcode::Mul, A, A);
  B.ret(M);

  EXPECT_EQ(A->numUses(), 2u);
  A->replaceAllUsesWith(F->constInt(5));
  EXPECT_EQ(A->numUses(), 0u);
  auto *Mul = cast<BinOpInst>(M);
  EXPECT_EQ(Mul->lhs(), F->constInt(5));
  EXPECT_EQ(Mul->rhs(), F->constInt(5));
}

TEST(IRStructureTest, ConstantsAreUniqued) {
  Function F("f", {}, {}, Type::voidTy());
  EXPECT_EQ(F.constInt(7), F.constInt(7));
  EXPECT_NE(F.constInt(7), F.constInt(8));
  EXPECT_EQ(F.constBool(true), F.constBool(true));
  EXPECT_NE(F.constBool(true), F.constBool(false));
  EXPECT_EQ(F.constNull(), F.constNull());
}

TEST(IRStructureTest, PredecessorMaintenance) {
  auto F = buildLoopFunction();
  BasicBlock *Cond = F->blocks()[1].get();
  EXPECT_EQ(Cond->predecessors().size(), 2u); // entry + body.
  BasicBlock *Exit = F->blocks()[3].get();
  EXPECT_EQ(Exit->predecessors().size(), 1u);
  // Detaching the body's terminator unhooks its edge.
  BasicBlock *Body = F->blocks()[2].get();
  std::unique_ptr<Instruction> Term = Body->detach(Body->terminator());
  EXPECT_EQ(Cond->predecessors().size(), 1u);
  Term->dropAllOperands();
}

// Successor and phi queries return inline lists: a terminator has at most
// two successors, so successors() never touches the heap.
TEST(IRStructureTest, EdgeQueriesReturnInlineLists) {
  auto F = buildLoopFunction();
  for (const auto &BB : F->blocks()) {
    SuccessorList Succs = BB->successors();
    EXPECT_TRUE(Succs.isInline());
    ASSERT_EQ(Succs.size(), numSuccessors(BB->terminator()));
    for (unsigned I = 0; I < Succs.size(); ++I)
      EXPECT_EQ(Succs[I], successor(BB->terminator(), I));
    EXPECT_EQ(BB->phis().size(), BB->numPhis());
    EXPECT_TRUE(BB->phis().isInline());
    EXPECT_TRUE(BB->predecessors().isInline());
  }
  BasicBlock *Cond = F->blocks()[1].get();
  BasicBlock::PhiList Phis = Cond->phis();
  ASSERT_EQ(Phis.size(), 2u); // i and sum.
  EXPECT_EQ(Phis[0], Cond->instructions()[0].get());
  EXPECT_EQ(Phis[1], Cond->instructions()[1].get());
}

TEST(IRStructureTest, VerifierFlagsPhiIncomingWithoutCFGEdge) {
  auto F = buildLoopFunction();
  BasicBlock *Cond = F->blocks()[1].get();
  BasicBlock *Body = F->blocks()[2].get();
  // Simulate a buggy inliner CFG cleanup: the body's branch back to cond
  // is removed, but a stale predecessor entry is put back so the cached
  // predecessor list and the phis stay mutually consistent. The phi check
  // must still notice that no terminator edge body->cond exists.
  std::unique_ptr<Instruction> Term = Body->detach(Body->terminator());
  Cond->addPredecessor(Body);
  std::vector<std::string> Problems = verifyFunction(*F);
  bool FlaggedPhi = false;
  for (const std::string &P : Problems)
    FlaggedPhi = FlaggedPhi || P.find("no CFG edge") != std::string::npos;
  EXPECT_TRUE(FlaggedPhi) << "problems reported:\n"
                          << [&] {
                               std::string All;
                               for (const std::string &P : Problems)
                                 All += P + "\n";
                               return All;
                             }();
  Cond->removePredecessor(Body);
  Term->dropAllOperands();
}

TEST(IRStructureTest, VerifierFlagsPhiIncomingFromForeignBlock) {
  auto F = buildLoopFunction();
  auto G = buildLoopFunction();
  BasicBlock *Cond = F->blocks()[1].get();
  PhiInst *Phi = Cond->phis()[0];
  // Point one incoming-block slot at a block of a different function
  // (what a missed remap during cross-function cloning produces).
  ASSERT_EQ(Phi->numIncoming(), 2u);
  BasicBlock *Stolen = Phi->incomingBlock(1);
  Phi->setIncomingBlock(1, G->entry());
  std::vector<std::string> Problems = verifyFunction(*F);
  bool Flagged = false;
  for (const std::string &P : Problems)
    Flagged = Flagged ||
              P.find("not a block of this function") != std::string::npos;
  EXPECT_TRUE(Flagged);
  Phi->setIncomingBlock(1, Stolen);
  EXPECT_TRUE(verifyFunction(*F).empty());
}

TEST(IRStructureTest, InstructionCount) {
  auto F = buildLoopFunction();
  // jump + 2 phis + lt + br + 2 adds + jump + ret = 9.
  EXPECT_EQ(F->instructionCount(), 9u);
}

TEST(IRStructureTest, ReversePostOrderStartsAtEntry) {
  auto F = buildLoopFunction();
  std::vector<BasicBlock *> RPO = F->reversePostOrder();
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO[0], F->entry());
  // Exit must come after cond.
  size_t CondIdx = 0, ExitIdx = 0;
  for (size_t I = 0; I < RPO.size(); ++I) {
    if (RPO[I]->name() == "cond")
      CondIdx = I;
    if (RPO[I]->name() == "exit")
      ExitIdx = I;
  }
  EXPECT_LT(CondIdx, ExitIdx);
}

TEST(IRStructureTest, PrinterOutputsAllPieces) {
  auto F = buildLoopFunction();
  std::string Text = printFunction(*F);
  EXPECT_NE(Text.find("func sum"), std::string::npos);
  EXPECT_NE(Text.find("phi int"), std::string::npos);
  EXPECT_NE(Text.find("br"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
  EXPECT_NE(Text.find("preds:"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Dominators and loops
//===----------------------------------------------------------------------===//

TEST(DominatorTest, LoopCFG) {
  auto F = buildLoopFunction();
  DominatorTree DT(*F);
  BasicBlock *Entry = F->blocks()[0].get();
  BasicBlock *Cond = F->blocks()[1].get();
  BasicBlock *Body = F->blocks()[2].get();
  BasicBlock *Exit = F->blocks()[3].get();

  EXPECT_EQ(DT.idom(Entry), nullptr);
  EXPECT_EQ(DT.idom(Cond), Entry);
  EXPECT_EQ(DT.idom(Body), Cond);
  EXPECT_EQ(DT.idom(Exit), Cond);
  EXPECT_TRUE(DT.dominates(Entry, Exit));
  EXPECT_TRUE(DT.dominates(Cond, Body));
  EXPECT_FALSE(DT.dominates(Body, Exit));
  EXPECT_TRUE(DT.dominates(Cond, Cond));
}

TEST(DominatorTest, DiamondCFG) {
  Function F("f", {Type::boolTy()}, {"c"}, Type::intTy());
  BasicBlock *Entry = F.addBlock("entry");
  BasicBlock *Then = F.addBlock("then");
  BasicBlock *Else = F.addBlock("else");
  BasicBlock *Merge = F.addBlock("merge");
  IRBuilder B(F, Entry);
  B.branch(F.arg(0), Then, Else);
  B.setInsertBlock(Then);
  B.jump(Merge);
  B.setInsertBlock(Else);
  B.jump(Merge);
  B.setInsertBlock(Merge);
  B.ret(F.constInt(0));

  DominatorTree DT(F);
  EXPECT_EQ(DT.idom(Merge), Entry); // Neither branch dominates the merge.
  EXPECT_FALSE(DT.dominates(Then, Merge));
  auto Children = DT.children(Entry);
  EXPECT_EQ(Children.size(), 3u);
}

/// Dominators of \p F the slow, obvious way: reverse post order from a
/// recursive DFS over the successors in terminator order, dominator sets
/// iterated to a fixpoint, the immediate dominator as the strict dominator
/// with the largest dominator set, and dominance by walking idom chains.
class NaiveDominators {
public:
  explicit NaiveDominators(const Function &F) {
    std::set<const BasicBlock *> Visited;
    std::vector<BasicBlock *> PostOrder;
    std::function<void(BasicBlock *)> Visit = [&](BasicBlock *BB) {
      Visited.insert(BB);
      for (BasicBlock *Succ : BB->successors())
        if (!Visited.count(Succ))
          Visit(Succ);
      PostOrder.push_back(BB);
    };
    Visit(F.entry());
    RPO.assign(PostOrder.rbegin(), PostOrder.rend());

    std::map<const BasicBlock *, size_t> Index;
    for (size_t I = 0; I < RPO.size(); ++I)
      Index[RPO[I]] = I;
    size_t N = RPO.size();
    std::vector<std::vector<bool>> Dom(N, std::vector<bool>(N, true));
    Dom[0].assign(N, false);
    Dom[0][0] = true;
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (size_t I = 1; I < N; ++I) {
        std::vector<bool> New(N, true);
        for (const BasicBlock *Pred : RPO[I]->predecessors()) {
          auto It = Index.find(Pred);
          if (It == Index.end())
            continue;
          for (size_t J = 0; J < N; ++J)
            New[J] = New[J] && Dom[It->second][J];
        }
        New[I] = true;
        if (New != Dom[I]) {
          Dom[I] = New;
          Changed = true;
        }
      }
    }
    auto SetSize = [&](size_t I) {
      return std::count(Dom[I].begin(), Dom[I].end(), true);
    };
    IDom[RPO[0]] = nullptr;
    for (size_t I = 1; I < N; ++I) {
      const BasicBlock *Best = nullptr;
      long BestSize = 0;
      for (size_t J = 0; J < N; ++J)
        if (J != I && Dom[I][J] && SetSize(J) > BestSize) {
          Best = RPO[J];
          BestSize = SetSize(J);
        }
      IDom[RPO[I]] = Best;
    }
  }

  bool isReachable(const BasicBlock *BB) const { return IDom.count(BB); }
  const BasicBlock *idom(const BasicBlock *BB) const {
    auto It = IDom.find(BB);
    return It == IDom.end() ? nullptr : It->second;
  }
  bool dominates(const BasicBlock *A, const BasicBlock *B) const {
    if (!isReachable(A) || !isReachable(B))
      return false;
    for (const BasicBlock *Cur = B; Cur; Cur = idom(Cur))
      if (Cur == A)
        return true;
    return false;
  }
  std::vector<BasicBlock *> children(const BasicBlock *BB) const {
    std::vector<BasicBlock *> Result;
    for (size_t I = 1; I < RPO.size(); ++I)
      if (idom(RPO[I]) == BB)
        Result.push_back(RPO[I]);
    return Result;
  }

  std::vector<BasicBlock *> RPO;

private:
  std::map<const BasicBlock *, const BasicBlock *> IDom;
};

/// Checks DominatorTree(F) query by query against NaiveDominators(F), with
/// \p Foreign (blocks of another function) mixed into the dominance pairs.
void expectMatchesNaive(const Function &F,
                        const std::vector<BasicBlock *> &Foreign) {
  SCOPED_TRACE(F.name());
  DominatorTree DT(F);
  NaiveDominators Naive(F);
  ASSERT_EQ(DT.reversePostOrder(), Naive.RPO);
  ASSERT_EQ(F.reversePostOrder(), Naive.RPO);
  std::vector<const BasicBlock *> All;
  for (const auto &BB : F.blocks()) {
    All.push_back(BB.get());
    ASSERT_EQ(DT.isReachable(BB.get()), Naive.isReachable(BB.get()))
        << BB->name();
    ASSERT_EQ(DT.idom(BB.get()), Naive.idom(BB.get())) << BB->name();
    ASSERT_EQ(DT.children(BB.get()), Naive.children(BB.get())) << BB->name();
  }
  for (const BasicBlock *BB : Foreign) {
    All.push_back(BB);
    ASSERT_FALSE(DT.isReachable(BB));
    ASSERT_EQ(DT.idom(BB), nullptr);
    ASSERT_TRUE(DT.children(BB).empty());
  }
  for (const BasicBlock *A : All)
    for (const BasicBlock *B : All)
      ASSERT_EQ(DT.dominates(A, B), Naive.dominates(A, B))
          << A->name() << " dom " << B->name();
}

/// Checks every function of \p M as lowered, then again with two
/// unreachable blocks (orphan -> orphan2 -> the last block) hung onto it.
void expectModuleMatchesNaive(const Module &M) {
  // Blocks of another function whose ids overlap those of the function
  // under test.
  Function Other("other", {}, {}, Type::voidTy());
  std::vector<BasicBlock *> Foreign;
  for (int I = 0; I < 4; ++I)
    Foreign.push_back(Other.addBlock("foreign"));
  for (const auto &[Name, F] : M.functions()) {
    expectMatchesNaive(*F, Foreign);
    BasicBlock *Target = F->blocks().back().get();
    BasicBlock *Orphan = F->addBlock("orphan");
    BasicBlock *Orphan2 = F->addBlock("orphan2");
    IRBuilder(*F, Orphan).jump(Orphan2);
    IRBuilder(*F, Orphan2).jump(Target);
    expectMatchesNaive(*F, Foreign);
    F->removeBlock(Orphan);
    F->removeBlock(Orphan2);
  }
}

TEST(DominatorPropertyTest, RandomProgramsMatchNaiveDominators) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    frontend::CompileResult R =
        frontend::compileProgram(fuzz::generateRandomProgram(Seed));
    ASSERT_TRUE(R.succeeded());
    expectModuleMatchesNaive(*R.Mod);
  }
}

TEST(DominatorPropertyTest, WorkloadsMatchNaiveDominators) {
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    SCOPED_TRACE(W.Name);
    frontend::CompileResult R = frontend::compileProgram(W.Source);
    ASSERT_TRUE(R.succeeded());
    expectModuleMatchesNaive(*R.Mod);
  }
}

TEST(LoopInfoTest, DetectsNaturalLoop) {
  auto F = buildLoopFunction();
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &L = *LI.loops()[0];
  EXPECT_EQ(L.Header->name(), "cond");
  ASSERT_EQ(L.Latches.size(), 1u);
  EXPECT_EQ(L.Latches[0]->name(), "body");
  EXPECT_EQ(L.Blocks.size(), 2u); // cond + body.
  EXPECT_EQ(LI.depthOf(L.Header), 1u);
  EXPECT_EQ(LI.depthOf(F->entry()), 0u);
  EXPECT_TRUE(LI.isHeader(L.Header));
}

TEST(LoopInfoTest, NestedLoopsGetDepths) {
  // entry -> outer <- inner; built from MiniOO for brevity is not possible
  // here (no frontend dependency), so construct by hand.
  Function F("f", {Type::intTy()}, {"n"}, Type::voidTy());
  BasicBlock *Entry = F.addBlock("entry");
  BasicBlock *Outer = F.addBlock("outer");
  BasicBlock *Inner = F.addBlock("inner");
  BasicBlock *Exit = F.addBlock("exit");
  IRBuilder B(F, Entry);
  B.jump(Outer);
  B.setInsertBlock(Outer);
  Value *C1 = B.binop(BinOpInst::Opcode::Lt, F.constInt(0), F.arg(0));
  B.branch(C1, Inner, Exit);
  B.setInsertBlock(Inner);
  Value *C2 = B.binop(BinOpInst::Opcode::Lt, F.constInt(1), F.arg(0));
  B.branch(C2, Inner, Outer); // Self-loop + backedge to outer.
  B.setInsertBlock(Exit);
  B.ret();

  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  ASSERT_EQ(LI.loops().size(), 2u);
  EXPECT_EQ(LI.depthOf(Inner), 2u);
  EXPECT_EQ(LI.depthOf(Outer), 1u);
}

//===----------------------------------------------------------------------===//
// Cloner
//===----------------------------------------------------------------------===//

TEST(ClonerTest, CloneFunctionIsDeepAndEquivalent) {
  auto F = buildLoopFunction();
  ClonedFunction Clone = cloneFunction(*F, "sum2");
  EXPECT_TRUE(verifyFunction(*Clone.F).empty());
  EXPECT_EQ(Clone.F->name(), "sum2");
  EXPECT_EQ(Clone.F->instructionCount(), F->instructionCount());
  EXPECT_EQ(Clone.F->blocks().size(), F->blocks().size());
  // Value map covers arguments and instructions.
  EXPECT_TRUE(Clone.ValueMap.count(F->arg(0)));
  // Profile ids preserved.
  for (size_t BI = 0; BI < F->blocks().size(); ++BI) {
    const auto &Old = F->blocks()[BI];
    const auto &New = Clone.F->blocks()[BI];
    for (size_t II = 0; II < Old->size(); ++II)
      EXPECT_EQ(Old->instructions()[II]->profileId(),
                New->instructions()[II]->profileId());
  }
  // Mutating the clone leaves the original untouched.
  size_t Before = F->instructionCount();
  Clone.F->entry()->erase(
      Clone.F->entry()->terminator()); // Unhook the jump.
  EXPECT_EQ(F->instructionCount(), Before);
}

TEST(ClonerTest, CloneBodyIntoGetsFreshProfileIds) {
  auto Callee = buildLoopFunction();
  Function Host("host", {Type::intTy()}, {"n"}, Type::intTy());
  BasicBlock *Entry = Host.addBlock("entry");
  (void)Entry;
  unsigned Watermark = Host.nextProfileIdWatermark();
  ClonedBody Body = cloneBodyInto(*Callee, Host, {Host.arg(0)});
  ASSERT_NE(Body.Entry, nullptr);
  EXPECT_EQ(Body.Returns.size(), 1u);
  for (const auto &BB : Host.blocks())
    for (const auto &Inst : BB->instructions())
      EXPECT_GE(Inst->profileId(), Watermark);
  // The callee argument was replaced by the host's argument.
  bool UsesHostArg = false;
  for (const Instruction *User : Host.arg(0)->users())
    UsesHostArg |= User->parent()->parent() == &Host;
  EXPECT_TRUE(UsesHostArg);
}

//===----------------------------------------------------------------------===//
// Verifier negative tests
//===----------------------------------------------------------------------===//

TEST(VerifierTest, DetectsMissingTerminator) {
  Function F("f", {}, {}, Type::voidTy());
  BasicBlock *Entry = F.addBlock("entry");
  IRBuilder B(F, Entry);
  B.binop(BinOpInst::Opcode::Add, F.constInt(1), F.constInt(2));
  std::vector<std::string> Problems = verifyFunction(F);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("terminator"), std::string::npos);
}

TEST(VerifierTest, DetectsPhiPredecessorMismatch) {
  Function F("f", {Type::boolTy()}, {"c"}, Type::intTy());
  BasicBlock *Entry = F.addBlock("entry");
  BasicBlock *Next = F.addBlock("next");
  IRBuilder B(F, Entry);
  B.jump(Next);
  B.setInsertBlock(Next);
  PhiInst *Phi = B.phi(Type::intTy());
  // Wrong: incoming from Next itself, which is not a predecessor.
  Phi->addIncoming(F.constInt(1), Next);
  B.ret(Phi);
  std::vector<std::string> Problems = verifyFunction(F);
  EXPECT_FALSE(Problems.empty());
}

TEST(VerifierTest, DetectsUseBeforeDef) {
  Function F("f", {}, {}, Type::intTy());
  BasicBlock *Entry = F.addBlock("entry");
  IRBuilder B(F, Entry);
  Value *A = B.binop(BinOpInst::Opcode::Add, F.constInt(1), F.constInt(2));
  Value *M = B.binop(BinOpInst::Opcode::Mul, A, A);
  B.ret(M);
  // Move the mul before the add by detaching/reinserting.
  auto *MulInst = cast<Instruction>(M);
  std::unique_ptr<Instruction> Owned = Entry->detach(MulInst);
  Entry->insertAt(0, std::move(Owned));
  std::vector<std::string> Problems = verifyFunction(F);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("use before def"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Verifier negative battery: one hand-broken function per message family,
// each asserting the exact problem list.
//===----------------------------------------------------------------------===//

using Problems = std::vector<std::string>;

/// entry: %a = add x, 1; ret %a
std::unique_ptr<Function> buildAddFunction(const std::string &Name) {
  auto F = std::make_unique<Function>(Name, std::vector<Type>{Type::intTy()},
                                      std::vector<std::string>{"x"},
                                      Type::intTy());
  IRBuilder B(*F, F->addBlock("entry"));
  B.ret(B.binop(BinOpInst::Opcode::Add, F->arg(0), B.constInt(1)));
  return F;
}

/// entry: br c, then, else; then, else: jump merge; merge: ret. Tests add
/// instructions through at() before finish() terminates the three blocks.
struct Diamond {
  Function F{"f", {Type::boolTy(), Type::intTy()}, {"c", "x"}, Type::intTy()};
  BasicBlock *Entry = F.addBlock("entry");
  BasicBlock *Then = F.addBlock("then");
  BasicBlock *Else = F.addBlock("else");
  BasicBlock *Merge = F.addBlock("merge");
  IRBuilder B{F, Entry};

  Diamond() { B.branch(F.arg(0), Then, Else); }
  IRBuilder &at(BasicBlock *BB) {
    B.setInsertBlock(BB);
    return B;
  }
  void finish(Value *Result) {
    at(Then).jump(Merge);
    at(Else).jump(Merge);
    at(Merge).ret(Result);
  }
};

TEST(VerifierBatteryTest, WellFormedShapesVerify) {
  EXPECT_EQ(verifyFunction(*buildAddFunction("f")), Problems{});
  Diamond D;
  PhiInst *Phi = D.at(D.Merge).phi(Type::intTy());
  Phi->addIncoming(D.F.constInt(1), D.Then);
  Phi->addIncoming(D.F.arg(1), D.Else);
  D.finish(Phi);
  EXPECT_EQ(verifyFunction(D.F), Problems{});
}

TEST(VerifierBatteryTest, FunctionWithoutBlocks) {
  Function F("f", {}, {}, Type::voidTy());
  EXPECT_EQ(verifyFunction(F), Problems{"[f] function has no blocks"});
}

TEST(VerifierBatteryTest, EntryBlockWithPredecessors) {
  Function F("f", {}, {}, Type::voidTy());
  BasicBlock *Entry = F.addBlock("entry");
  BasicBlock *Next = F.addBlock("next");
  IRBuilder B(F, Entry);
  B.jump(Next);
  B.setInsertBlock(Next);
  B.jump(Entry);
  EXPECT_EQ(verifyFunction(F), Problems{"[f] entry block has predecessors"});
}

TEST(VerifierBatteryTest, EmptyBlock) {
  Function F("f", {}, {}, Type::voidTy());
  BasicBlock *Entry = F.addBlock("entry");
  BasicBlock *Next = F.addBlock("next");
  IRBuilder(F, Entry).jump(Next);
  EXPECT_EQ(verifyFunction(F), Problems{"[f] block next is empty"});
}

TEST(VerifierBatteryTest, BrokenParentLink) {
  auto F = buildAddFunction("f");
  auto G = buildAddFunction("g");
  Instruction *Add = F->entry()->front();
  Add->setParent(G->entry());
  EXPECT_EQ(verifyFunction(*F),
            Problems{"[f] instruction parent link broken in entry"});
  Add->setParent(F->entry());
  EXPECT_EQ(verifyFunction(*F), Problems{});
}

TEST(VerifierBatteryTest, PhiAfterNonPhi) {
  Function F("f", {}, {}, Type::voidTy());
  BasicBlock *Entry = F.addBlock("entry");
  IRBuilder B(F, Entry);
  B.print(B.constInt(1));
  B.ret();
  Entry->insertAt(1, std::make_unique<PhiInst>(Type::intTy()));
  EXPECT_EQ(verifyFunction(F), Problems{"[f] phi after non-phi in entry"});
}

TEST(VerifierBatteryTest, UserMissingFromUseList) {
  auto F = buildAddFunction("f");
  Instruction *Add = F->entry()->front();
  F->arg(0)->removeUser(Add);
  EXPECT_EQ(verifyFunction(*F),
            Problems{"[f] use-list out of sync for a value"});
  F->arg(0)->addUser(Add);
  EXPECT_EQ(verifyFunction(*F), Problems{});
}

TEST(VerifierBatteryTest, ExtraUserInUseList) {
  auto F = buildAddFunction("f");
  Instruction *Add = F->entry()->front();
  Instruction *Ret = F->entry()->terminator();
  // The add's use list names the return twice, the argument's names it once
  // although the return never reads the argument.
  Add->addUser(Ret);
  F->arg(0)->addUser(Ret);
  EXPECT_EQ(verifyFunction(*F),
            (Problems{"[f] use-list out of sync for a value",
                      "[f] use-list out of sync for a value"}));
  F->arg(0)->removeUser(Ret);
  Add->removeUser(Ret);
  EXPECT_EQ(verifyFunction(*F), Problems{});
}

TEST(VerifierBatteryTest, OperandFromAnotherFunction) {
  auto G = buildAddFunction("g");
  Function F("f", {Type::intTy()}, {"x"}, Type::intTy());
  IRBuilder B(F, F.addBlock("entry"));
  B.ret(B.binop(BinOpInst::Opcode::Add, G->arg(0), B.constInt(1)));
  EXPECT_EQ(verifyFunction(F),
            Problems{"[f] operand defined outside the function"});
  // g's argument now lists a user that is not one of g's instructions.
  EXPECT_EQ(verifyFunction(*G),
            Problems{"[g] use-list out of sync for a value"});
}

TEST(VerifierBatteryTest, PredecessorListOutOfSync) {
  Function F("f", {}, {}, Type::voidTy());
  BasicBlock *Entry = F.addBlock("entry");
  BasicBlock *Next = F.addBlock("next");
  IRBuilder B(F, Entry);
  B.jump(Next);
  B.setInsertBlock(Next);
  B.ret();
  Next->addPredecessor(Entry); // A second entry->next edge no jump makes.
  EXPECT_EQ(verifyFunction(F),
            Problems{"[f] predecessor list out of sync for next"});
  Next->removePredecessor(Entry);
  Next->removePredecessor(Entry);
  Next->addPredecessor(Next); // The wrong predecessor, right count.
  EXPECT_EQ(verifyFunction(F),
            Problems{"[f] predecessor list out of sync for next"});
  Next->removePredecessor(Next);
  Next->addPredecessor(Entry);
  EXPECT_EQ(verifyFunction(F), Problems{});
}

TEST(VerifierBatteryTest, PhiWithDuplicateIncomingEdge) {
  Diamond D;
  PhiInst *Phi = D.at(D.Merge).phi(Type::intTy());
  Phi->addIncoming(D.F.constInt(1), D.Then);
  Phi->addIncoming(D.F.constInt(2), D.Else);
  Phi->addIncoming(D.F.constInt(3), D.Then);
  D.finish(Phi);
  EXPECT_EQ(verifyFunction(D.F),
            Problems{"[f] phi in merge has a duplicate incoming edge"});
}

TEST(VerifierBatteryTest, PhiMissingPredecessorEntry) {
  Diamond D;
  PhiInst *Phi = D.at(D.Merge).phi(Type::intTy());
  Phi->addIncoming(D.F.constInt(1), D.Then);
  D.finish(Phi);
  EXPECT_EQ(verifyFunction(D.F),
            Problems{"[f] phi in merge misses a predecessor entry"});
}

TEST(VerifierBatteryTest, PhiIncomingFromNonPredecessor) {
  Diamond D;
  PhiInst *Phi = D.at(D.Merge).phi(Type::intTy());
  Phi->addIncoming(D.F.constInt(1), D.Then);
  Phi->addIncoming(D.F.constInt(2), D.Entry);
  D.finish(Phi);
  // Two distinct incoming blocks for two predecessors: the entry count
  // matches, so only the stray edge is reported.
  EXPECT_EQ(
      verifyFunction(D.F),
      Problems{"[f] phi in merge has an incoming edge from a non-predecessor"});
}

TEST(VerifierBatteryTest, DefInAnotherBlockDoesNotDominateUse) {
  Diamond D;
  Value *A = D.at(D.Then).binop(BinOpInst::Opcode::Add, D.F.arg(1),
                                D.F.constInt(1));
  Value *Sum = D.at(D.Merge).binop(BinOpInst::Opcode::Add, A, D.F.constInt(1));
  D.finish(Sum);
  EXPECT_EQ(verifyFunction(D.F),
            Problems{"[f] operand def does not dominate use in merge"});
}

TEST(VerifierBatteryTest, PhiOperandDoesNotDominateIncomingBlock) {
  Diamond D;
  Value *A = D.at(D.Then).binop(BinOpInst::Opcode::Add, D.F.arg(1),
                                D.F.constInt(1));
  PhiInst *Phi = D.at(D.Merge).phi(Type::intTy());
  Phi->addIncoming(A, D.Then); // Fine: then defines A.
  Phi->addIncoming(A, D.Else); // Not fine: A is not defined on that edge.
  D.finish(Phi);
  EXPECT_EQ(
      verifyFunction(D.F),
      Problems{"[f] phi operand does not dominate incoming block in merge"});
}

TEST(VerifierBatteryTest, GuardPlacementRules) {
  Function F("f", {Type::intTy()}, {"x"}, Type::voidTy());
  BasicBlock *Entry = F.addBlock("entry");
  BasicBlock *Pass = F.addBlock("pass");
  BasicBlock *Fail = F.addBlock("fail");
  IRBuilder B(F, Entry);
  B.guard(F.arg(0), 0, Pass, Fail); // An int receiver...
  B.setInsertBlock(Pass);
  B.ret();
  B.setInsertBlock(Fail);
  B.ret(); // ...and a fail edge that returns instead of deoptimizing.
  EXPECT_EQ(verifyFunction(F),
            (Problems{"[f] guard in entry tests a non-object receiver",
                      "[f] guard in entry has a fail successor that neither "
                      "deopts nor jumps toward a deopt"}));
}

TEST(VerifierBatteryTest, DeoptFrameStateRules) {
  Function F("f", {Type::intTy()}, {"x"}, Type::voidTy());
  IRBuilder B(F, F.addBlock("entry"));
  B.deopt("test", FrameState{}, {F.arg(0)});
  EXPECT_EQ(
      verifyFunction(F),
      (Problems{"[f] deopt frame state without a baseline symbol in entry",
                "[f] deopt frame state in entry has 0 slots for 1 captured "
                "operands"}));
}

TEST(VerifierBatteryTest, OsrEntryOutsideAnOsrVariant) {
  Function F("f", {}, {}, Type::voidTy());
  BasicBlock *Entry = F.addBlock("entry");
  BasicBlock *Next = F.addBlock("next");
  IRBuilder B(F, Entry);
  B.osrEntry(FrameStateSlot{}, Type::intTy());
  B.jump(Next);
  B.setInsertBlock(Next);
  B.osrEntry(FrameStateSlot{}, Type::voidTy());
  B.ret();
  EXPECT_EQ(
      verifyFunction(F),
      (Problems{"[f] osr entry in a function without an OSR anchor (entry)",
                "[f] osr entry in a function without an OSR anchor (next)",
                "[f] osr entry outside the entry block (next)",
                "[f] osr entry with void type in next"}));
}

//===----------------------------------------------------------------------===//
// The id contract (Function::instIdBound): ids stay unique per function
// unless an instruction moves across functions, which the verifier reports.
//===----------------------------------------------------------------------===//

TEST(InstIdContractTest, IdsAreUniqueAndBelowTheBound) {
  auto F = buildLoopFunction();
  std::set<unsigned> Ids;
  for (const auto &BB : F->blocks()) {
    EXPECT_LT(BB->id(), F->blockIdBound());
    for (const auto &Inst : BB->instructions()) {
      EXPECT_GE(Inst->instId(), 1u);
      EXPECT_LT(Inst->instId(), F->instIdBound());
      EXPECT_TRUE(Ids.insert(Inst->instId()).second);
    }
  }
  // Removal frees no id for reuse.
  unsigned BlockBound = F->blockIdBound();
  BasicBlock *Extra = F->addBlock("extra");
  IRBuilder(*F, Extra).ret(F->constInt(0));
  unsigned ExtraId = Extra->id();
  F->removeBlock(Extra);
  EXPECT_EQ(ExtraId, BlockBound);
  EXPECT_EQ(F->addBlock("again")->id(), BlockBound + 1);
}

TEST(InstIdContractTest, VerifierReportsASharedInstructionId) {
  // g outlives f: the moved add keeps using g's constants.
  Function G("g", {}, {}, Type::voidTy());
  auto F = buildAddFunction("f");
  IRBuilder B(G, G.addBlock("entry"));
  Instruction *Moved =
      B.binop(BinOpInst::Opcode::Add, B.constInt(1), B.constInt(2));
  B.ret();
  ASSERT_EQ(Moved->instId(), F->entry()->front()->instId());
  // A move across functions keeps the id, which f's add already has.
  F->entry()->insertAt(0, G.entry()->detach(Moved));
  EXPECT_EQ(verifyFunction(*F),
            Problems{"[f] instruction id 1 in entry is shared with another "
                     "instruction"});
}

TEST(InstIdContractTest, VerifierReportsAnInstructionIdOutOfRange) {
  Function G("g", {}, {}, Type::voidTy());
  auto F = buildAddFunction("f");
  IRBuilder B(G, G.addBlock("entry"));
  Instruction *Moved = nullptr;
  for (int I = 0; I < 4; ++I)
    Moved = B.binop(BinOpInst::Opcode::Add, B.constInt(I), B.constInt(2));
  B.ret();
  ASSERT_GE(Moved->instId(), F->instIdBound());
  F->entry()->insertAt(0, G.entry()->detach(Moved));
  EXPECT_EQ(verifyFunction(*F),
            Problems{"[f] instruction id 4 in entry is outside the function's "
                     "id range"});
  // The moved add is still tracked as one of f's values: its use list,
  // which holds no f user, is checked like any other.
  Moved->addUser(F->entry()->terminator());
  EXPECT_EQ(verifyFunction(*F),
            (Problems{"[f] instruction id 4 in entry is outside the "
                      "function's id range",
                      "[f] use-list out of sync for a value"}));
  Moved->removeUser(F->entry()->terminator());
}

TEST(VerifierTighteningTest, EdgeToAnotherFunction) {
  auto G = buildAddFunction("g");
  Function F("f", {}, {}, Type::voidTy());
  IRBuilder(F, F.addBlock("entry")).jump(G->entry());
  EXPECT_EQ(verifyFunction(F),
            Problems{"[f] edge from entry to a block that is not a block of "
                     "this function"});
  F.entry()->erase(F.entry()->terminator());
}

TEST(VerifierBatteryTest, OsrEntryAfterOtherInstructions) {
  Function F("f", {}, {}, Type::voidTy());
  F.setOsrAnchor({"f", 0});
  IRBuilder B(F, F.addBlock("entry"));
  B.osrEntry(FrameStateSlot{}, Type::intTy());
  B.print(B.constInt(1));
  B.osrEntry(FrameStateSlot{}, Type::intTy());
  B.ret();
  EXPECT_EQ(
      verifyFunction(F),
      Problems{"[f] osr entry after a non-osr-entry instruction in entry"});
}

} // namespace
