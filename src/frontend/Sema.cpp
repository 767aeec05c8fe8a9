//===- frontend/Sema.cpp ------------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Sema.h"

#include "support/ErrorHandling.h"
#include "support/StringUtils.h"

using namespace incline;
using namespace incline::frontend;
using types::Type;

/// \p Name in single quotes, for diagnostics.
static std::string quoted(std::string_view Name) {
  std::string Out;
  Out.reserve(Name.size() + 2);
  Out += '\'';
  Out += Name;
  Out += '\'';
  return Out;
}

void Sema::error(SourceLocation Loc, std::string Message) {
  Diags.push_back({Loc, std::move(Message)});
}

bool Sema::run() {
  if (!registerClasses())
    return false;
  if (!registerMembers())
    return false;
  if (!registerFreeFunctions())
    return false;
  for (auto &C : Prog.Classes)
    for (auto &M : C->Methods)
      checkFunction(*M);
  for (auto &F : Prog.Functions)
    checkFunction(*F);
  return Diags.empty();
}

//===----------------------------------------------------------------------===//
// Declaration registration
//===----------------------------------------------------------------------===//

bool Sema::registerClasses() {
  // Supers must be registered before subclasses: process as a worklist.
  std::vector<ClassDecl *> Pending;
  for (auto &C : Prog.Classes)
    Pending.push_back(C.get());

  bool Progress = true;
  while (!Pending.empty() && Progress) {
    Progress = false;
    std::vector<ClassDecl *> Next;
    for (ClassDecl *C : Pending) {
      if (Classes.classIdOf(C->Name)) {
        error(C->Loc, "duplicate class '" + C->Name + "'");
        continue;
      }
      if (C->SuperName.empty()) {
        Classes.addClass(C->Name);
        Progress = true;
        continue;
      }
      std::optional<int> SuperId = Classes.classIdOf(C->SuperName);
      if (!SuperId) {
        Next.push_back(C); // Forward reference — retry next round.
        continue;
      }
      Classes.addClass(C->Name, *SuperId);
      Progress = true;
    }
    Pending = std::move(Next);
  }
  for (ClassDecl *C : Pending)
    error(C->Loc, "unknown or cyclic superclass '" + C->SuperName +
                      "' of class '" + C->Name + "'");
  return Diags.empty();
}

Type Sema::resolveTypeRef(const TypeRef &Ty) {
  switch (Ty.K) {
  case TypeRef::Kind::Void:
    return Type::voidTy();
  case TypeRef::Kind::Int:
    return Type::intTy();
  case TypeRef::Kind::Bool:
    return Type::boolTy();
  case TypeRef::Kind::IntArray:
    return Type::intArray();
  case TypeRef::Kind::Named: {
    std::optional<int> Id = Classes.classIdOf(Ty.Name);
    if (!Id) {
      error(Ty.Loc, "unknown type " + quoted(Ty.Name));
      return Type::intTy();
    }
    return Type::object(*Id);
  }
  case TypeRef::Kind::NamedArray: {
    std::optional<int> Id = Classes.classIdOf(Ty.Name);
    if (!Id) {
      error(Ty.Loc, "unknown type " + quoted(Ty.Name));
      return Type::intArray();
    }
    return Type::objectArray(*Id);
  }
  }
  incline_unreachable("unknown TypeRef kind");
}

bool Sema::registerMembers() {
  for (auto &C : Prog.Classes) {
    std::optional<int> Id = Classes.classIdOf(C->Name);
    if (!Id)
      continue; // Already diagnosed.
    for (const FieldDecl &F : C->Fields) {
      Type FieldTy = resolveTypeRef(F.Ty);
      // Shadowing check mirrors ClassHierarchy's, but with a diagnostic
      // instead of a fatal error.
      bool Shadows = false;
      const types::ClassInfo *Info = &Classes.classInfo(*Id);
      for (int Cur = Info->SuperId; Cur != types::NullClassId;
           Cur = Classes.classInfo(Cur).SuperId)
        for (const types::FieldInfo &Existing : Classes.classInfo(Cur).Fields)
          if (Existing.Name == F.Name)
            Shadows = true;
      for (const types::FieldInfo &Existing : Info->Fields)
        if (Existing.Name == F.Name)
          Shadows = true;
      if (Shadows) {
        error(F.Loc, "field '" + F.Name + "' duplicates an existing field");
        continue;
      }
      Classes.addField(*Id, F.Name, FieldTy);
    }
    for (auto &M : C->Methods) {
      std::vector<Type> ParamTypes;
      for (const ParamDecl &P : M->Params)
        ParamTypes.push_back(resolveTypeRef(P.Ty));
      Type RetTy = resolveTypeRef(M->ReturnTy);
      // Override compatibility: identical parameter and return types.
      if (const types::MethodInfo *Inherited =
              Classes.classInfo(*Id).SuperId != types::NullClassId
                  ? Classes.resolveMethod(Classes.classInfo(*Id).SuperId,
                                          M->Name)
                  : nullptr) {
        if (Inherited->ParamTypes != ParamTypes ||
            Inherited->ReturnType != RetTy)
          error(M->Loc, "override of '" + M->Name +
                            "' changes the method signature");
      }
      bool Duplicate = false;
      for (const types::MethodInfo &Existing : Classes.classInfo(*Id).Methods)
        if (Existing.Name == M->Name)
          Duplicate = true;
      if (Duplicate) {
        error(M->Loc, "duplicate method '" + M->Name + "'");
        continue;
      }
      Classes.addMethod(*Id, M->Name, ParamTypes, RetTy);
      M->Symbol = C->Name + "." + M->Name;
    }
  }
  return Diags.empty();
}

bool Sema::registerFreeFunctions() {
  for (auto &F : Prog.Functions) {
    if (FreeFuncs.count(F->Name)) {
      error(F->Loc, "duplicate function '" + F->Name + "'");
      continue;
    }
    FreeFunctionSig Sig;
    for (const ParamDecl &P : F->Params)
      Sig.ParamTypes.push_back(resolveTypeRef(P.Ty));
    Sig.ReturnType = resolveTypeRef(F->ReturnTy);
    Sig.Decl = F.get();
    F->Symbol = F->Name;
    FreeFuncs.emplace(F->Name, std::move(Sig));
  }
  return Diags.empty();
}

//===----------------------------------------------------------------------===//
// Scopes
//===----------------------------------------------------------------------===//

int Sema::declareLocal(std::string_view Name, Type Ty, SourceLocation Loc) {
  // MiniOO forbids shadowing: a name in any enclosing scope is taken.
  for (const ScopedLocal &L : InScope) {
    if (L.Name == Name.data()) {
      error(Loc, "redeclaration of " + quoted(Name));
      return -1;
    }
  }
  int Id = static_cast<int>(LocalTypes.size());
  LocalTypes.push_back(Ty);
  InScope.push_back({Name.data(), Id});
  return Id;
}

int Sema::lookupLocal(std::string_view Name, SourceLocation Loc) {
  for (auto It = InScope.rbegin(); It != InScope.rend(); ++It)
    if (It->Name == Name.data())
      return It->Id;
  error(Loc, "use of undeclared variable " + quoted(Name));
  return -1;
}

//===----------------------------------------------------------------------===//
// Body checking
//===----------------------------------------------------------------------===//

void Sema::checkFunction(FunctionDecl &F) {
  CurFunc = &F;
  LocalTypes.clear();
  InScope.clear();
  ScopeStarts.clear();
  pushScope();

  if (F.isMethod()) {
    std::optional<int> OwnerId = Classes.classIdOf(F.OwnerClass);
    assert(OwnerId && "method owner class must be registered");
    // `this` occupies local id 0 but is referenced via ThisExpr, not by
    // name; register it under an unutterable name.
    int ThisId = declareLocal(Prog.Arena.intern("$this"),
                              Type::object(*OwnerId), F.Loc);
    (void)ThisId;
    assert(ThisId == 0 && "receiver must be local 0");
  }
  for (ParamDecl &P : F.Params) {
    Type Ty = resolveTypeRef(P.Ty);
    P.LocalId = declareLocal(P.Name, Ty, P.Loc);
  }

  if (F.Body)
    checkStmt(F.Body);

  F.NumLocals = static_cast<int>(LocalTypes.size());
  F.LocalTypes = LocalTypes;
  popScope();
  CurFunc = nullptr;
}

void Sema::requireAssignable(Type From, Type To, SourceLocation Loc,
                             const char *Context) {
  if (!Classes.isAssignable(From, To))
    error(Loc, formatString("type mismatch in %s", Context));
}

void Sema::checkStmt(Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Block: {
    auto *Block = cast<BlockStmt>(S);
    pushScope();
    for (Stmt *Child : Block->statements())
      checkStmt(Child);
    popScope();
    return;
  }
  case StmtKind::VarDecl: {
    auto *Decl = cast<VarDeclStmt>(S);
    Type InitTy = checkExpr(Decl->init());
    Type VarTy = InitTy;
    if (Decl->declaredType()) {
      VarTy = resolveTypeRef(*Decl->declaredType());
      requireAssignable(InitTy, VarTy, S->loc(), "variable initialization");
    } else if (InitTy.isNull()) {
      error(S->loc(), "cannot infer the type of " + quoted(Decl->name()) +
                          " from a null initializer");
      VarTy = Type::intTy();
    } else if (InitTy.isVoid()) {
      error(S->loc(), "cannot initialize a variable from a void expression");
      VarTy = Type::intTy();
    }
    Decl->setVarType(VarTy);
    Decl->setLocalId(declareLocal(Decl->name(), VarTy, S->loc()));
    return;
  }
  case StmtKind::AssignLocal: {
    auto *Assign = cast<AssignLocalStmt>(S);
    int Id = lookupLocal(Assign->name(), S->loc());
    Assign->setLocalId(Id);
    Type ValueTy = checkExpr(Assign->value());
    if (Id >= 0)
      requireAssignable(ValueTy, LocalTypes[static_cast<size_t>(Id)],
                        S->loc(), "assignment");
    return;
  }
  case StmtKind::AssignField: {
    auto *Assign = cast<AssignFieldStmt>(S);
    Type ObjTy = checkExpr(Assign->object());
    Type ValueTy = checkExpr(Assign->value());
    if (!ObjTy.isObject() || ObjTy.isNull()) {
      error(S->loc(), "field assignment requires an object receiver");
      return;
    }
    const auto &Layout = Classes.fieldLayout(ObjTy.classId());
    for (const types::FieldInfo &F : Layout) {
      if (F.Name != Assign->field())
        continue;
      Assign->setFieldSlot(F.Index);
      requireAssignable(ValueTy, F.Ty, S->loc(), "field assignment");
      return;
    }
    error(S->loc(), "unknown field " + quoted(Assign->field()));
    return;
  }
  case StmtKind::AssignIndex: {
    auto *Assign = cast<AssignIndexStmt>(S);
    Type ArrTy = checkExpr(Assign->array());
    Type IdxTy = checkExpr(Assign->index());
    Type ValueTy = checkExpr(Assign->value());
    if (!IdxTy.isInt())
      error(S->loc(), "array index must be an int");
    if (ArrTy.isIntArray())
      requireAssignable(ValueTy, Type::intTy(), S->loc(), "array store");
    else if (ArrTy.isObjectArray())
      requireAssignable(ValueTy, Type::object(ArrTy.classId()), S->loc(),
                        "array store");
    else
      error(S->loc(), "indexed assignment requires an array");
    return;
  }
  case StmtKind::If: {
    auto *If = cast<IfStmt>(S);
    Type CondTy = checkExpr(If->condition());
    if (!CondTy.isBool())
      error(S->loc(), "if condition must be a bool");
    checkStmt(If->thenStmt());
    if (If->elseStmt())
      checkStmt(If->elseStmt());
    return;
  }
  case StmtKind::While: {
    auto *While = cast<WhileStmt>(S);
    Type CondTy = checkExpr(While->condition());
    if (!CondTy.isBool())
      error(S->loc(), "while condition must be a bool");
    checkStmt(While->body());
    return;
  }
  case StmtKind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    Type RetTy = resolveTypeRef(CurFunc->ReturnTy);
    if (Ret->value()) {
      Type ValueTy = checkExpr(Ret->value());
      if (RetTy.isVoid())
        error(S->loc(), "returning a value from a void function");
      else
        requireAssignable(ValueTy, RetTy, S->loc(), "return");
    } else if (!RetTy.isVoid()) {
      error(S->loc(), "missing return value");
    }
    return;
  }
  case StmtKind::Print: {
    auto *Print = cast<PrintStmt>(S);
    Type Ty = checkExpr(Print->value());
    if (!Ty.isInt() && !Ty.isBool())
      error(S->loc(), "print takes an int or bool");
    return;
  }
  case StmtKind::ExprStmt:
    checkExpr(cast<ExprStmt>(S)->expr());
    return;
  }
  incline_unreachable("unknown statement kind");
}

Type Sema::checkExpr(Expr *E) {
  Type Ty = Type::voidTy();
  switch (E->kind()) {
  case ExprKind::IntLit:
    Ty = Type::intTy();
    break;
  case ExprKind::BoolLit:
    Ty = Type::boolTy();
    break;
  case ExprKind::NullLit:
    Ty = Type::nullTy();
    break;
  case ExprKind::This: {
    if (!CurFunc->isMethod()) {
      error(E->loc(), "'this' outside a method");
      Ty = Type::intTy();
      break;
    }
    Ty = LocalTypes[0];
    break;
  }
  case ExprKind::VarRef: {
    auto *Var = cast<VarRefExpr>(E);
    int Id = lookupLocal(Var->name(), E->loc());
    Var->setLocalId(Id);
    Ty = Id >= 0 ? LocalTypes[static_cast<size_t>(Id)] : Type::intTy();
    break;
  }
  case ExprKind::Binary:
    Ty = checkBinary(cast<BinaryExpr>(E));
    break;
  case ExprKind::Unary: {
    auto *Un = cast<UnaryExpr>(E);
    Type SubTy = checkExpr(Un->sub());
    if (Un->op() == UnaryExpr::Op::Neg) {
      if (!SubTy.isInt())
        error(E->loc(), "unary '-' requires an int");
      Ty = Type::intTy();
    } else {
      if (!SubTy.isBool())
        error(E->loc(), "'!' requires a bool");
      Ty = Type::boolTy();
    }
    break;
  }
  case ExprKind::Call:
    Ty = checkCall(cast<CallExpr>(E));
    break;
  case ExprKind::MethodCall:
    Ty = checkMethodCall(cast<MethodCallExpr>(E));
    break;
  case ExprKind::FieldAccess:
    Ty = checkFieldAccess(cast<FieldAccessExpr>(E));
    break;
  case ExprKind::Index: {
    auto *Idx = cast<IndexExpr>(E);
    Type ArrTy = checkExpr(Idx->array());
    Type IdxTy = checkExpr(Idx->index());
    if (!IdxTy.isInt())
      error(E->loc(), "array index must be an int");
    if (ArrTy.isIntArray()) {
      Ty = Type::intTy();
    } else if (ArrTy.isObjectArray()) {
      Ty = Type::object(ArrTy.classId());
    } else {
      error(E->loc(), "indexing requires an array");
      Ty = Type::intTy();
    }
    break;
  }
  case ExprKind::NewObject: {
    auto *New = cast<NewObjectExpr>(E);
    std::optional<int> Id = Classes.classIdOf(New->className());
    if (!Id) {
      error(E->loc(), "unknown class " + quoted(New->className()));
      Ty = Type::intTy();
      break;
    }
    New->setClassId(*Id);
    Ty = Type::object(*Id);
    break;
  }
  case ExprKind::NewArray: {
    auto *New = cast<NewArrayExpr>(E);
    Type LenTy = checkExpr(New->length());
    if (!LenTy.isInt())
      error(E->loc(), "array length must be an int");
    if (New->elemType().K == TypeRef::Kind::Int) {
      Ty = Type::intArray();
    } else {
      std::optional<int> Id = Classes.classIdOf(New->elemType().Name);
      if (!Id) {
        error(E->loc(), "unknown class " + quoted(New->elemType().Name));
        Ty = Type::intArray();
        break;
      }
      Ty = Type::objectArray(*Id);
    }
    break;
  }
  case ExprKind::Is: {
    auto *Is = cast<IsExpr>(E);
    Type ObjTy = checkExpr(Is->object());
    if (!ObjTy.isObject())
      error(E->loc(), "'is' requires an object operand");
    std::optional<int> Id = Classes.classIdOf(Is->className());
    if (!Id)
      error(E->loc(), "unknown class " + quoted(Is->className()));
    else
      Is->setClassId(*Id);
    Ty = Type::boolTy();
    break;
  }
  case ExprKind::As: {
    auto *As = cast<AsExpr>(E);
    Type ObjTy = checkExpr(As->object());
    if (!ObjTy.isObject())
      error(E->loc(), "'as' requires an object operand");
    std::optional<int> Id = Classes.classIdOf(As->className());
    if (!Id) {
      error(E->loc(), "unknown class " + quoted(As->className()));
      Ty = Type::intTy();
      break;
    }
    As->setClassId(*Id);
    Ty = Type::object(*Id);
    break;
  }
  }
  E->setType(Ty);
  return Ty;
}

Type Sema::checkBinary(BinaryExpr *E) {
  Type L = checkExpr(E->lhs());
  Type R = checkExpr(E->rhs());
  using Op = BinaryExpr::Op;
  switch (E->op()) {
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::Div:
  case Op::Mod:
    if (!L.isInt() || !R.isInt())
      error(E->loc(), "arithmetic requires int operands");
    return Type::intTy();
  case Op::And:
  case Op::Or:
    if (!L.isBool() || !R.isBool())
      error(E->loc(), "'&&'/'||' require bool operands");
    return Type::boolTy();
  case Op::Eq:
  case Op::Ne: {
    bool BothInt = L.isInt() && R.isInt();
    bool BothBool = L.isBool() && R.isBool();
    bool BothRef = L.isReference() && R.isReference();
    if (!BothInt && !BothBool && !BothRef)
      error(E->loc(), "'=='/'!=' require matching operand kinds");
    return Type::boolTy();
  }
  case Op::Lt:
  case Op::Le:
  case Op::Gt:
  case Op::Ge:
    if (!L.isInt() || !R.isInt())
      error(E->loc(), "comparison requires int operands");
    return Type::boolTy();
  }
  incline_unreachable("unknown binary op");
}

Type Sema::checkCall(CallExpr *E) {
  auto It = FreeFuncs.find(E->callee());
  if (It == FreeFuncs.end()) {
    error(E->loc(), "call to unknown function " + quoted(E->callee()));
    for (Expr *Arg : E->args())
      checkExpr(Arg);
    return Type::intTy();
  }
  const FreeFunctionSig &Sig = It->second;
  if (E->args().size() != Sig.ParamTypes.size())
    error(E->loc(), formatString("'%s' expects %zu arguments, got %zu",
                                 std::string(E->callee()).c_str(),
                                 Sig.ParamTypes.size(),
                                 E->args().size()));
  for (size_t I = 0; I < E->args().size(); ++I) {
    Type ArgTy = checkExpr(E->args()[I]);
    if (I < Sig.ParamTypes.size())
      requireAssignable(ArgTy, Sig.ParamTypes[I], E->loc(), "argument");
  }
  return Sig.ReturnType;
}

Type Sema::checkMethodCall(MethodCallExpr *E) {
  Type RecvTy = checkExpr(E->receiver());
  if (!RecvTy.isObject() || RecvTy.isNull()) {
    error(E->loc(), "method call requires an object receiver");
    for (Expr *Arg : E->args())
      checkExpr(Arg);
    return Type::intTy();
  }
  const types::MethodInfo *M =
      Classes.resolveMethod(RecvTy.classId(), E->method());
  if (!M) {
    error(E->loc(), "class has no method " + quoted(E->method()));
    for (Expr *Arg : E->args())
      checkExpr(Arg);
    return Type::intTy();
  }
  E->setResolved(M);
  if (E->args().size() != M->ParamTypes.size())
    error(E->loc(), formatString("'%s' expects %zu arguments, got %zu",
                                 std::string(E->method()).c_str(),
                                 M->ParamTypes.size(),
                                 E->args().size()));
  for (size_t I = 0; I < E->args().size(); ++I) {
    Type ArgTy = checkExpr(E->args()[I]);
    if (I < M->ParamTypes.size())
      requireAssignable(ArgTy, M->ParamTypes[I], E->loc(), "argument");
  }
  return M->ReturnType;
}

Type Sema::checkFieldAccess(FieldAccessExpr *E) {
  Type ObjTy = checkExpr(E->object());
  if (ObjTy.isArray() && E->field() == "length") {
    E->setIsArrayLength(true);
    return Type::intTy();
  }
  if (!ObjTy.isObject() || ObjTy.isNull()) {
    error(E->loc(), "field access requires an object receiver");
    return Type::intTy();
  }
  for (const types::FieldInfo &F : Classes.fieldLayout(ObjTy.classId())) {
    if (F.Name != E->field())
      continue;
    E->setFieldSlot(F.Index);
    return F.Ty;
  }
  error(E->loc(), "unknown field " + quoted(E->field()));
  return Type::intTy();
}
