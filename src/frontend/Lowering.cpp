//===- frontend/Lowering.cpp ---------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lowering.h"

#include "ir/IRBuilder.h"
#include "support/ErrorHandling.h"
#include "support/SmallVector.h"

#include <algorithm>

using namespace incline;
using namespace incline::frontend;
using namespace incline::ir;
using types::Type;

namespace {

/// Lowering's Braun SSA state, indexed by block id (and local id). One set
/// serves every function of a program: each function starts it empty, and
/// the storage the largest function needed is kept for the next.
struct SsaTables {
  std::vector<Value *> CurrentDef; ///< [block id * NumVars + local id].
  std::vector<bool> Sealed;
  std::vector<std::vector<std::pair<int, PhiInst *>>> IncompletePhis;
  /// Trivial phis removed so far, and what replaced each (by instId).
  std::vector<std::unique_ptr<Instruction>> RemovedPhis;
  std::vector<Value *> ReplacedBy;

  void clear() {
    CurrentDef.clear();
    Sealed.clear();
    for (auto &Phis : IncompletePhis)
      Phis.clear();
    RemovedPhis.clear();
    ReplacedBy.clear();
  }
};

/// Lowers one function body with Braun-style on-the-fly SSA construction.
class FunctionLowering {
public:
  FunctionLowering(const FunctionDecl &Decl, Function &F, SsaTables &Tables)
      : Decl(Decl), F(F), Builder(F), NumVars(Decl.LocalTypes.size()),
        Ssa(Tables) {
    Ssa.clear();
  }

  void run() {
    BasicBlock *Entry = addBlock("entry");
    Builder.setInsertBlock(Entry);
    sealBlock(Entry);
    // Parameters (including the receiver at slot 0 for methods) seed the
    // SSA variable state.
    for (size_t I = 0; I < F.numParams(); ++I)
      writeVariable(static_cast<int>(I), Entry, F.arg(I));

    lowerStmt(Decl.Body);

    // Implicit return at fall-through.
    if (Builder.insertBlock() && !Builder.isTerminated()) {
      Type RetTy = F.returnType();
      if (RetTy.isVoid())
        Builder.ret();
      else if (RetTy.isInt())
        Builder.ret(Builder.constInt(0));
      else if (RetTy.isBool())
        Builder.ret(Builder.constBool(false));
      else
        Builder.ret(Builder.constNull());
    }
    assert(std::all_of(Ssa.IncompletePhis.begin(), Ssa.IncompletePhis.end(),
                       [](const auto &Phis) { return Phis.empty(); }) &&
           "unsealed block at end of lowering");
  }

private:
  /// A new block with room for four instructions, where growing from empty
  /// would allocate for one, then two, then four. Of the 4,242 blocks the
  /// 706-handler traffic program lowers to, half end with two to four
  /// instructions and the rest with five to fourteen; the reserve saves
  /// about 7,800 allocations there (DESIGN §16).
  BasicBlock *addBlock(std::string Name) {
    BasicBlock *BB = F.addBlock(std::move(Name));
    BB->reserve(4);
    return BB;
  }

  //===--------------------------------------------------------------------===//
  // SSA variable bookkeeping (Braun et al.)
  //===--------------------------------------------------------------------===//

  /// The current definition of \p Var in \p BB (null while unknown).
  Value *&currentDef(int Var, const BasicBlock *BB) {
    size_t Index = BB->id() * NumVars + static_cast<size_t>(Var);
    assert(static_cast<size_t>(Var) < NumVars && "local id out of range");
    if (Index >= Ssa.CurrentDef.size())
      Ssa.CurrentDef.resize(F.blockIdBound() * NumVars, nullptr);
    return Ssa.CurrentDef[Index];
  }

  void writeVariable(int Var, BasicBlock *BB, Value *V) {
    currentDef(Var, BB) = V;
  }

  Value *readVariable(int Var, BasicBlock *BB) {
    Value *&Def = currentDef(Var, BB);
    if (!Def)
      return readVariableRecursive(Var, BB);
    return Def = forwarded(Def);
  }

  /// \p V, or what replaced it if it is a removed trivial phi.
  Value *forwarded(Value *V) const {
    while (const auto *Phi = dyn_cast<PhiInst>(V)) {
      unsigned Id = Phi->instId();
      if (Id >= Ssa.ReplacedBy.size() || !Ssa.ReplacedBy[Id])
        break;
      V = Ssa.ReplacedBy[Id];
    }
    return V;
  }

  bool isSealed(const BasicBlock *BB) const {
    return BB->id() < Ssa.Sealed.size() && Ssa.Sealed[BB->id()];
  }

  Value *readVariableRecursive(int Var, BasicBlock *BB) {
    Value *V;
    if (!isSealed(BB)) {
      // Unknown predecessors: place an operandless phi and complete it when
      // the block is sealed.
      PhiInst *Phi = placePhi(Var, BB);
      if (BB->id() >= Ssa.IncompletePhis.size())
        Ssa.IncompletePhis.resize(F.blockIdBound());
      Ssa.IncompletePhis[BB->id()].emplace_back(Var, Phi);
      V = Phi;
    } else if (BB->predecessors().size() == 1) {
      V = readVariable(Var, BB->predecessors()[0]);
    } else if (Value *Same = sameDefInAllPredecessors(Var, BB)) {
      // The phi placed here would be trivial and removed at once. Skip
      // making it, but take the ids it would have taken, so every later
      // instruction keeps its ids.
      F.takeNextProfileId();
      F.takeNextInstId();
      V = Same;
    } else {
      assert(!BB->predecessors().empty() &&
             "reading a variable in an unreachable block");
      PhiInst *Phi = placePhi(Var, BB);
      writeVariable(Var, BB, Phi);
      V = addPhiOperands(Var, Phi);
    }
    writeVariable(Var, BB, V);
    return V;
  }

  /// The one value every predecessor of \p BB already holds for \p Var,
  /// or null when one has none yet or two differ. Reads nothing
  /// recursively, so it creates nothing.
  Value *sameDefInAllPredecessors(int Var, const BasicBlock *BB) {
    Value *Same = nullptr;
    for (const BasicBlock *Pred : BB->predecessors()) {
      Value *&Def = currentDef(Var, Pred);
      if (!Def)
        return nullptr;
      Def = forwarded(Def);
      if (Same && Def != Same)
        return nullptr;
      Same = Def;
    }
    return Same;
  }

  PhiInst *placePhi(int Var, BasicBlock *BB) {
    Type Ty = Decl.LocalTypes[static_cast<size_t>(Var)];
    auto Phi = std::make_unique<PhiInst>(Ty);
    Phi->setProfileId(F.takeNextProfileId());
    PhiInst *Raw = Phi.get();
    BB->insertAt(BB->numPhis(), std::move(Phi));
    return Raw;
  }

  Value *addPhiOperands(int Var, PhiInst *Phi) {
    BasicBlock *BB = Phi->parent();
    for (BasicBlock *Pred : BB->predecessors())
      Phi->addIncoming(readVariable(Var, Pred), Pred);
    return tryRemoveTrivialPhi(Phi);
  }

  Value *tryRemoveTrivialPhi(PhiInst *Phi) {
    Value *Same = Phi->uniqueIncomingValue();
    if (!Same)
      return Phi; // Non-trivial (or, pathological: only self-references —
                  // impossible for variables initialized at declaration).
    // Collect phi users before rewriting, to recurse afterwards.
    std::vector<PhiInst *> PhiUsers;
    for (Instruction *User : Phi->users())
      if (auto *P = dyn_cast<PhiInst>(User); P && P != Phi)
        PhiUsers.push_back(P);
    Phi->replaceAllUsesWith(Same);
    // CurrentDef may still name the dead phi. Rather than search it, keep
    // the phi allocated but out of its block, and let reads forward.
    if (Phi->instId() >= Ssa.ReplacedBy.size())
      Ssa.ReplacedBy.resize(F.instIdBound(), nullptr);
    Ssa.ReplacedBy[Phi->instId()] = Same;
    Ssa.RemovedPhis.push_back(Phi->parent()->detach(Phi));
    Ssa.RemovedPhis.back()->dropAllOperands();
    for (PhiInst *P : PhiUsers)
      tryRemoveTrivialPhi(P);
    return Same;
  }

  void sealBlock(BasicBlock *BB) {
    assert(!isSealed(BB) && "sealing a block twice");
    if (BB->id() >= Ssa.Sealed.size())
      Ssa.Sealed.resize(F.blockIdBound(), false);
    Ssa.Sealed[BB->id()] = true;
    if (BB->id() >= Ssa.IncompletePhis.size())
      return;
    std::vector<std::pair<int, PhiInst *>> Pending =
        std::move(Ssa.IncompletePhis[BB->id()]);
    Ssa.IncompletePhis[BB->id()].clear();
    for (auto &[Var, Phi] : Pending)
      addPhiOperands(Var, Phi);
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  bool reachable() const {
    return Builder.insertBlock() && !Builder.isTerminated();
  }

  void lowerStmt(const Stmt *S) {
    if (!reachable())
      return; // Dead code after return.
    switch (S->kind()) {
    case StmtKind::Block:
      for (const Stmt *Child : cast<BlockStmt>(S)->statements()) {
        if (!reachable())
          return;
        lowerStmt(Child);
      }
      return;
    case StmtKind::VarDecl: {
      const auto *Decl = cast<VarDeclStmt>(S);
      Value *Init = lowerExpr(Decl->init());
      writeVariable(Decl->localId(), Builder.insertBlock(), Init);
      return;
    }
    case StmtKind::AssignLocal: {
      const auto *Assign = cast<AssignLocalStmt>(S);
      Value *V = lowerExpr(Assign->value());
      writeVariable(Assign->localId(), Builder.insertBlock(), V);
      return;
    }
    case StmtKind::AssignField: {
      const auto *Assign = cast<AssignFieldStmt>(S);
      Value *Obj = lowerExpr(Assign->object());
      Value *V = lowerExpr(Assign->value());
      Builder.storeField(Obj, Assign->fieldSlot(), V);
      return;
    }
    case StmtKind::AssignIndex: {
      const auto *Assign = cast<AssignIndexStmt>(S);
      Value *Arr = lowerExpr(Assign->array());
      Value *Idx = lowerExpr(Assign->index());
      Value *V = lowerExpr(Assign->value());
      Builder.storeIndex(Arr, Idx, V);
      return;
    }
    case StmtKind::If:
      lowerIf(cast<IfStmt>(S));
      return;
    case StmtKind::While:
      lowerWhile(cast<WhileStmt>(S));
      return;
    case StmtKind::Return: {
      const auto *Ret = cast<ReturnStmt>(S);
      Value *V = Ret->value() ? lowerExpr(Ret->value()) : nullptr;
      Builder.ret(V);
      return;
    }
    case StmtKind::Print:
      Builder.print(lowerExpr(cast<PrintStmt>(S)->value()));
      return;
    case StmtKind::ExprStmt:
      lowerExpr(cast<ExprStmt>(S)->expr());
      return;
    }
    incline_unreachable("unknown statement kind in lowering");
  }

  void lowerIf(const IfStmt *If) {
    Value *Cond = lowerExpr(If->condition());
    BasicBlock *ThenBB = addBlock("then");
    BasicBlock *ElseBB = If->elseStmt() ? addBlock("else") : nullptr;
    BasicBlock *MergeBB = addBlock("merge");

    Builder.branch(Cond, ThenBB, ElseBB ? ElseBB : MergeBB);
    sealBlock(ThenBB);
    if (ElseBB)
      sealBlock(ElseBB);

    Builder.setInsertBlock(ThenBB);
    lowerStmt(If->thenStmt());
    if (reachable())
      Builder.jump(MergeBB);

    if (ElseBB) {
      Builder.setInsertBlock(ElseBB);
      lowerStmt(If->elseStmt());
      if (reachable())
        Builder.jump(MergeBB);
    }

    sealBlock(MergeBB);
    if (MergeBB->predecessors().empty()) {
      // Both arms returned: everything after the if is unreachable.
      F.removeBlock(MergeBB);
      Builder.setInsertBlock(nullptr);
      return;
    }
    Builder.setInsertBlock(MergeBB);
  }

  void lowerWhile(const WhileStmt *While) {
    BasicBlock *CondBB = addBlock("while.cond");
    BasicBlock *BodyBB = addBlock("while.body");
    BasicBlock *ExitBB = addBlock("while.exit");

    Builder.jump(CondBB);
    // CondBB stays unsealed until the latch edge exists.
    Builder.setInsertBlock(CondBB);
    Value *Cond = lowerExpr(While->condition());
    Builder.branch(Cond, BodyBB, ExitBB);
    sealBlock(BodyBB);

    Builder.setInsertBlock(BodyBB);
    lowerStmt(While->body());
    if (reachable())
      Builder.jump(CondBB);
    sealBlock(CondBB);
    sealBlock(ExitBB);
    Builder.setInsertBlock(ExitBB);
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  Value *lowerExpr(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return Builder.constInt(cast<IntLitExpr>(E)->value());
    case ExprKind::BoolLit:
      return Builder.constBool(cast<BoolLitExpr>(E)->value());
    case ExprKind::NullLit:
      return Builder.constNull();
    case ExprKind::This:
      return readVariable(0, Builder.insertBlock());
    case ExprKind::VarRef: {
      const auto *Var = cast<VarRefExpr>(E);
      assert(Var->localId() >= 0 && "unresolved variable in lowering");
      return readVariable(Var->localId(), Builder.insertBlock());
    }
    case ExprKind::Binary: {
      const auto *Bin = cast<BinaryExpr>(E);
      Value *L = lowerExpr(Bin->lhs());
      Value *R = lowerExpr(Bin->rhs());
      return Builder.binop(binOpcode(Bin->op()), L, R);
    }
    case ExprKind::Unary: {
      const auto *Un = cast<UnaryExpr>(E);
      Value *V = lowerExpr(Un->sub());
      return Builder.unop(Un->op() == UnaryExpr::Op::Neg
                              ? UnOpInst::Opcode::Neg
                              : UnOpInst::Opcode::Not,
                          V);
    }
    case ExprKind::Call: {
      const auto *Call = cast<CallExpr>(E);
      SmallVector<Value *, 8> Args;
      for (const Expr *Arg : Call->args())
        Args.push_back(lowerExpr(Arg));
      return Builder.call(std::string(Call->callee()), Args, E->type());
    }
    case ExprKind::MethodCall: {
      const auto *MCall = cast<MethodCallExpr>(E);
      Value *Recv = lowerExpr(MCall->receiver());
      SmallVector<Value *, 8> Args;
      for (const Expr *Arg : MCall->args())
        Args.push_back(lowerExpr(Arg));
      return Builder.virtualCall(std::string(MCall->method()), Recv, Args,
                                 E->type());
    }
    case ExprKind::FieldAccess: {
      const auto *FA = cast<FieldAccessExpr>(E);
      Value *Obj = lowerExpr(FA->object());
      if (FA->isArrayLength())
        return Builder.arrayLength(Obj);
      return Builder.loadField(Obj, FA->fieldSlot(), E->type());
    }
    case ExprKind::Index: {
      const auto *Idx = cast<IndexExpr>(E);
      Value *Arr = lowerExpr(Idx->array());
      Value *Index = lowerExpr(Idx->index());
      return Builder.loadIndex(Arr, Index, E->type());
    }
    case ExprKind::NewObject:
      return Builder.newObject(cast<NewObjectExpr>(E)->classId());
    case ExprKind::NewArray: {
      const auto *New = cast<NewArrayExpr>(E);
      Value *Len = lowerExpr(New->length());
      return Builder.newArray(E->type(), Len);
    }
    case ExprKind::Is: {
      const auto *Is = cast<IsExpr>(E);
      return Builder.instanceOf(lowerExpr(Is->object()), Is->classId());
    }
    case ExprKind::As: {
      const auto *As = cast<AsExpr>(E);
      return Builder.checkCast(lowerExpr(As->object()), As->classId());
    }
    }
    incline_unreachable("unknown expression kind in lowering");
  }

  static BinOpInst::Opcode binOpcode(BinaryExpr::Op Op) {
    using In = BinaryExpr::Op;
    using Out = BinOpInst::Opcode;
    switch (Op) {
    case In::Add: return Out::Add;
    case In::Sub: return Out::Sub;
    case In::Mul: return Out::Mul;
    case In::Div: return Out::Div;
    case In::Mod: return Out::Mod;
    case In::And: return Out::And;
    case In::Or: return Out::Or;
    case In::Eq: return Out::Eq;
    case In::Ne: return Out::Ne;
    case In::Lt: return Out::Lt;
    case In::Le: return Out::Le;
    case In::Gt: return Out::Gt;
    case In::Ge: return Out::Ge;
    }
    incline_unreachable("unknown binary op");
  }

  const FunctionDecl &Decl;
  Function &F;
  IRBuilder Builder;

  // Blocks are only added while a function is lowered, so the tables grow
  // with Function::blockIdBound().
  const size_t NumVars;
  SsaTables &Ssa;
};

/// Creates the Function shell (signature) for \p Decl in \p M.
Function *createShell(const FunctionDecl &Decl, const Sema &S,
                      const types::ClassHierarchy &Classes, Module &M) {
  std::vector<Type> ParamTypes;
  std::vector<std::string> ParamNames;
  if (Decl.isMethod()) {
    std::optional<int> OwnerId = Classes.classIdOf(Decl.OwnerClass);
    assert(OwnerId && "method owner must exist after sema");
    ParamTypes.push_back(Type::object(*OwnerId));
    ParamNames.push_back("this");
  }
  for (const ParamDecl &P : Decl.Params) {
    assert(P.LocalId >= 0 && "params must be resolved by sema");
    ParamTypes.push_back(Decl.LocalTypes[static_cast<size_t>(P.LocalId)]);
    ParamNames.emplace_back(P.Name);
  }
  Type RetTy;
  if (Decl.isMethod()) {
    std::optional<int> OwnerId = Classes.classIdOf(Decl.OwnerClass);
    const types::MethodInfo *Info =
        Classes.resolveMethod(*OwnerId, Decl.Name);
    assert(Info && "method must be registered");
    RetTy = Info->ReturnType;
  } else {
    RetTy = S.freeFunctions().at(Decl.Name).ReturnType;
  }
  return M.addFunction(Decl.Symbol, std::move(ParamTypes),
                       std::move(ParamNames), RetTy);
}

} // namespace

std::unique_ptr<Module>
incline::frontend::lowerProgram(const Program &Prog, const Sema &S,
                                types::ClassHierarchy Classes) {
  auto M = std::make_unique<Module>();
  M->classes() = std::move(Classes);

  // Shells first so calls resolve regardless of declaration order.
  std::vector<std::pair<const FunctionDecl *, Function *>> Work;
  for (const auto &C : Prog.Classes)
    for (const auto &Method : C->Methods)
      Work.emplace_back(Method.get(),
                        createShell(*Method, S, M->classes(), *M));
  for (const auto &F : Prog.Functions)
    Work.emplace_back(F.get(), createShell(*F, S, M->classes(), *M));

  SsaTables Tables;
  for (auto &[Decl, F] : Work)
    FunctionLowering(*Decl, *F, Tables).run();
  return M;
}
