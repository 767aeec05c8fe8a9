//===- frontend/Ast.h - MiniOO abstract syntax tree ------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniOO AST. Nodes carry source locations for diagnostics plus slots
/// that semantic analysis fills in (resolved types, local variable ids,
/// field slots, resolved methods) so lowering never re-resolves names.
///
/// Ownership: every `Expr` and `Stmt` node, every child list and every
/// identifier lives in the `AstArena` of the `Program` that was parsed
/// (see AstArena.h). Child links are plain pointers, lists are spans and
/// names are interned views, all valid while the Program lives. Nodes are
/// trivially destructible and have no virtual functions; the kind field
/// drives `isa`/`cast`. Declarations (`FunctionDecl`, `ClassDecl`) are
/// ordinary heap objects owned by the Program.
///
/// MiniOO in one screen:
/// \code
///   class Shape { var area: int; def describe(): int { return this.area; } }
///   class Circle extends Shape { def describe(): int { return 314; } }
///   def main() { var s: Shape = new Circle(); print(s.describe()); }
/// \endcode
///
/// Notes: single inheritance, virtual dispatch on all method calls,
/// `e is C` / `e as C` type test and cast, one-dimensional `int[]`/`C[]`
/// arrays with `.length`, non-short-circuit `&&`/`||` (both operands are
/// always evaluated), and a `print(int|bool)` intrinsic.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_FRONTEND_AST_H
#define INCLINE_FRONTEND_AST_H

#include "frontend/AstArena.h"
#include "frontend/SourceLocation.h"
#include "support/Casting.h"
#include "types/Type.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace incline::types {
struct MethodInfo;
}

namespace incline::frontend {

/// An unresolved syntactic type: `int`, `bool`, `C`, `int[]`, `C[]`, or the
/// implicit `void` of a procedure.
struct TypeRef {
  enum class Kind : uint8_t { Void, Int, Bool, Named, IntArray, NamedArray };
  Kind K = Kind::Void;
  std::string_view Name; ///< For Named / NamedArray (interned).
  SourceLocation Loc;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLit,
  BoolLit,
  NullLit,
  This,
  VarRef,
  Binary,
  Unary,
  Call,
  MethodCall,
  FieldAccess,
  Index,
  NewObject,
  NewArray,
  Is,
  As,
};

/// Base class of expressions. `type()` is set by Sema.
class Expr {
public:
  ExprKind kind() const { return Kind; }
  SourceLocation loc() const { return Loc; }

  types::Type type() const { return Ty; }
  void setType(types::Type T) { Ty = T; }

protected:
  Expr(ExprKind Kind, SourceLocation Loc) : Kind(Kind), Loc(Loc) {}

private:
  ExprKind Kind;
  SourceLocation Loc;
  types::Type Ty;
};

/// A list of child expressions (call arguments), stored in the arena.
using ExprList = std::span<Expr *const>;

class IntLitExpr : public Expr {
public:
  IntLitExpr(int64_t Value, SourceLocation Loc)
      : Expr(ExprKind::IntLit, Loc), Value(Value) {}
  int64_t value() const { return Value; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::IntLit; }

private:
  int64_t Value;
};

class BoolLitExpr : public Expr {
public:
  BoolLitExpr(bool Value, SourceLocation Loc)
      : Expr(ExprKind::BoolLit, Loc), Value(Value) {}
  bool value() const { return Value; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::BoolLit; }

private:
  bool Value;
};

class NullLitExpr : public Expr {
public:
  explicit NullLitExpr(SourceLocation Loc) : Expr(ExprKind::NullLit, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::NullLit; }
};

class ThisExpr : public Expr {
public:
  explicit ThisExpr(SourceLocation Loc) : Expr(ExprKind::This, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::This; }
};

/// Reference to a local variable or parameter. Sema sets `localId()`.
class VarRefExpr : public Expr {
public:
  VarRefExpr(std::string_view Name, SourceLocation Loc)
      : Expr(ExprKind::VarRef, Loc), Name(Name) {}
  std::string_view name() const { return Name; }
  int localId() const { return LocalId; }
  void setLocalId(int Id) { LocalId = Id; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::VarRef; }

private:
  std::string_view Name;
  int LocalId = -1;
};

class BinaryExpr : public Expr {
public:
  enum class Op : uint8_t {
    Add, Sub, Mul, Div, Mod,
    And, Or,
    Eq, Ne, Lt, Le, Gt, Ge,
  };

  BinaryExpr(Op O, Expr *Lhs, Expr *Rhs, SourceLocation Loc)
      : Expr(ExprKind::Binary, Loc), O(O), Lhs(Lhs), Rhs(Rhs) {}
  Op op() const { return O; }
  Expr *lhs() const { return Lhs; }
  Expr *rhs() const { return Rhs; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

private:
  Op O;
  Expr *Lhs, *Rhs;
};

class UnaryExpr : public Expr {
public:
  enum class Op : uint8_t { Neg, Not };
  UnaryExpr(Op O, Expr *Sub, SourceLocation Loc)
      : Expr(ExprKind::Unary, Loc), O(O), Sub(Sub) {}
  Op op() const { return O; }
  Expr *sub() const { return Sub; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

private:
  Op O;
  Expr *Sub;
};

/// Call to a free function: `f(a, b)`.
class CallExpr : public Expr {
public:
  CallExpr(std::string_view Callee, ExprList Args, SourceLocation Loc)
      : Expr(ExprKind::Call, Loc), Callee(Callee), Args(Args) {}
  std::string_view callee() const { return Callee; }
  ExprList args() const { return Args; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Call; }

private:
  std::string_view Callee;
  ExprList Args;
};

/// Virtual method call: `recv.m(a, b)`. Sema resolves the static target.
class MethodCallExpr : public Expr {
public:
  MethodCallExpr(Expr *Receiver, std::string_view Method,
                 ExprList Args, SourceLocation Loc)
      : Expr(ExprKind::MethodCall, Loc), Receiver(Receiver),
        Method(Method), Args(Args) {}
  Expr *receiver() const { return Receiver; }
  std::string_view method() const { return Method; }
  ExprList args() const { return Args; }
  const types::MethodInfo *resolved() const { return Resolved; }
  void setResolved(const types::MethodInfo *M) { Resolved = M; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::MethodCall;
  }

private:
  Expr *Receiver;
  std::string_view Method;
  ExprList Args;
  const types::MethodInfo *Resolved = nullptr;
};

/// Field read `obj.f`, or `arr.length` (Sema sets `isArrayLength()`).
class FieldAccessExpr : public Expr {
public:
  FieldAccessExpr(Expr *Object, std::string_view Field, SourceLocation Loc)
      : Expr(ExprKind::FieldAccess, Loc), Object(Object), Field(Field) {}
  Expr *object() const { return Object; }
  std::string_view field() const { return Field; }
  unsigned fieldSlot() const { return FieldSlot; }
  void setFieldSlot(unsigned Slot) { FieldSlot = Slot; }
  bool isArrayLength() const { return ArrayLength; }
  void setIsArrayLength(bool B) { ArrayLength = B; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::FieldAccess;
  }

private:
  Expr *Object;
  std::string_view Field;
  unsigned FieldSlot = 0;
  bool ArrayLength = false;
};

/// Array element read `arr[i]`.
class IndexExpr : public Expr {
public:
  IndexExpr(Expr *Array, Expr *Index, SourceLocation Loc)
      : Expr(ExprKind::Index, Loc), Array(Array), Index(Index) {}
  Expr *array() const { return Array; }
  Expr *index() const { return Index; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Index; }

private:
  Expr *Array, *Index;
};

/// `new C()`.
class NewObjectExpr : public Expr {
public:
  NewObjectExpr(std::string_view ClassName, SourceLocation Loc)
      : Expr(ExprKind::NewObject, Loc), ClassName(ClassName) {}
  std::string_view className() const { return ClassName; }
  int classId() const { return ClassId; }
  void setClassId(int Id) { ClassId = Id; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::NewObject;
  }

private:
  std::string_view ClassName;
  int ClassId = -1;
};

/// `new int[n]` / `new C[n]`.
class NewArrayExpr : public Expr {
public:
  NewArrayExpr(TypeRef ElemTy, Expr *Length, SourceLocation Loc)
      : Expr(ExprKind::NewArray, Loc), ElemTy(ElemTy), Length(Length) {}
  const TypeRef &elemType() const { return ElemTy; }
  Expr *length() const { return Length; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::NewArray;
  }

private:
  TypeRef ElemTy;
  Expr *Length;
};

/// `e is C`.
class IsExpr : public Expr {
public:
  IsExpr(Expr *Object, std::string_view ClassName, SourceLocation Loc)
      : Expr(ExprKind::Is, Loc), Object(Object), ClassName(ClassName) {}
  Expr *object() const { return Object; }
  std::string_view className() const { return ClassName; }
  int classId() const { return ClassId; }
  void setClassId(int Id) { ClassId = Id; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Is; }

private:
  Expr *Object;
  std::string_view ClassName;
  int ClassId = -1;
};

/// `e as C`.
class AsExpr : public Expr {
public:
  AsExpr(Expr *Object, std::string_view ClassName, SourceLocation Loc)
      : Expr(ExprKind::As, Loc), Object(Object), ClassName(ClassName) {}
  Expr *object() const { return Object; }
  std::string_view className() const { return ClassName; }
  int classId() const { return ClassId; }
  void setClassId(int Id) { ClassId = Id; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::As; }

private:
  Expr *Object;
  std::string_view ClassName;
  int ClassId = -1;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Block,
  VarDecl,
  AssignLocal,
  AssignField,
  AssignIndex,
  If,
  While,
  Return,
  Print,
  ExprStmt,
};

class Stmt {
public:
  StmtKind kind() const { return Kind; }
  SourceLocation loc() const { return Loc; }

protected:
  Stmt(StmtKind Kind, SourceLocation Loc) : Kind(Kind), Loc(Loc) {}

private:
  StmtKind Kind;
  SourceLocation Loc;
};

/// A list of statements (a block's body), stored in the arena.
using StmtList = std::span<Stmt *const>;

class BlockStmt : public Stmt {
public:
  BlockStmt(StmtList Stmts, SourceLocation Loc)
      : Stmt(StmtKind::Block, Loc), Stmts(Stmts) {}
  StmtList statements() const { return Stmts; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Block; }

private:
  StmtList Stmts;
};

/// `var x: T = init;` (type optional — inferred from the initializer).
class VarDeclStmt : public Stmt {
public:
  VarDeclStmt(std::string_view Name, std::optional<TypeRef> DeclaredTy,
              Expr *Init, SourceLocation Loc)
      : Stmt(StmtKind::VarDecl, Loc), Name(Name),
        DeclaredTy(DeclaredTy), Init(Init) {}
  std::string_view name() const { return Name; }
  const std::optional<TypeRef> &declaredType() const { return DeclaredTy; }
  Expr *init() const { return Init; }
  int localId() const { return LocalId; }
  void setLocalId(int Id) { LocalId = Id; }
  types::Type varType() const { return VarTy; }
  void setVarType(types::Type T) { VarTy = T; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::VarDecl; }

private:
  std::string_view Name;
  std::optional<TypeRef> DeclaredTy;
  Expr *Init;
  int LocalId = -1;
  types::Type VarTy;
};

/// `x = e;`
class AssignLocalStmt : public Stmt {
public:
  AssignLocalStmt(std::string_view Name, Expr *Value, SourceLocation Loc)
      : Stmt(StmtKind::AssignLocal, Loc), Name(Name), Value(Value) {}
  std::string_view name() const { return Name; }
  Expr *value() const { return Value; }
  int localId() const { return LocalId; }
  void setLocalId(int Id) { LocalId = Id; }
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::AssignLocal;
  }

private:
  std::string_view Name;
  Expr *Value;
  int LocalId = -1;
};

/// `obj.f = e;`
class AssignFieldStmt : public Stmt {
public:
  AssignFieldStmt(Expr *Object, std::string_view Field, Expr *Value,
                  SourceLocation Loc)
      : Stmt(StmtKind::AssignField, Loc), Object(Object),
        Field(Field), Value(Value) {}
  Expr *object() const { return Object; }
  std::string_view field() const { return Field; }
  Expr *value() const { return Value; }
  unsigned fieldSlot() const { return FieldSlot; }
  void setFieldSlot(unsigned Slot) { FieldSlot = Slot; }
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::AssignField;
  }

private:
  Expr *Object;
  std::string_view Field;
  Expr *Value;
  unsigned FieldSlot = 0;
};

/// `arr[i] = e;`
class AssignIndexStmt : public Stmt {
public:
  AssignIndexStmt(Expr *Array, Expr *Index, Expr *Value,
                  SourceLocation Loc)
      : Stmt(StmtKind::AssignIndex, Loc), Array(Array),
        Index(Index), Value(Value) {}
  Expr *array() const { return Array; }
  Expr *index() const { return Index; }
  Expr *value() const { return Value; }
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::AssignIndex;
  }

private:
  Expr *Array, *Index, *Value;
};

class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt * Then, Stmt * Else, SourceLocation Loc)
      : Stmt(StmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  Expr *condition() const { return Cond; }
  Stmt *thenStmt() const { return Then; }
  Stmt *elseStmt() const { return Else; } ///< May be null.
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

private:
  Expr *Cond;
  Stmt *Then, *Else;
};

class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt * Body, SourceLocation Loc)
      : Stmt(StmtKind::While, Loc), Cond(Cond), Body(Body) {}
  Expr *condition() const { return Cond; }
  Stmt *body() const { return Body; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::While; }

private:
  Expr *Cond;
  Stmt * Body;
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *Value, SourceLocation Loc)
      : Stmt(StmtKind::Return, Loc), Value(Value) {}
  Expr *value() const { return Value; } ///< May be null.
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Return; }

private:
  Expr *Value;
};

class PrintStmt : public Stmt {
public:
  PrintStmt(Expr *Value, SourceLocation Loc)
      : Stmt(StmtKind::Print, Loc), Value(Value) {}
  Expr *value() const { return Value; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Print; }

private:
  Expr *Value;
};

/// A call evaluated for effect: `f(x);` / `o.m();`.
class ExprStmt : public Stmt {
public:
  ExprStmt(Expr *E, SourceLocation Loc)
      : Stmt(StmtKind::ExprStmt, Loc), E(E) {}
  Expr *expr() const { return E; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::ExprStmt; }

private:
  Expr *E;
};

// The Program's arena frees nodes without destroying them.
static_assert(std::is_trivially_destructible_v<IntLitExpr> &&
                  std::is_trivially_destructible_v<BoolLitExpr> &&
                  std::is_trivially_destructible_v<NullLitExpr> &&
                  std::is_trivially_destructible_v<ThisExpr> &&
                  std::is_trivially_destructible_v<VarRefExpr> &&
                  std::is_trivially_destructible_v<BinaryExpr> &&
                  std::is_trivially_destructible_v<UnaryExpr> &&
                  std::is_trivially_destructible_v<CallExpr> &&
                  std::is_trivially_destructible_v<MethodCallExpr> &&
                  std::is_trivially_destructible_v<FieldAccessExpr> &&
                  std::is_trivially_destructible_v<IndexExpr> &&
                  std::is_trivially_destructible_v<NewObjectExpr> &&
                  std::is_trivially_destructible_v<NewArrayExpr> &&
                  std::is_trivially_destructible_v<IsExpr> &&
                  std::is_trivially_destructible_v<AsExpr> &&
                  std::is_trivially_destructible_v<BlockStmt> &&
                  std::is_trivially_destructible_v<VarDeclStmt> &&
                  std::is_trivially_destructible_v<AssignLocalStmt> &&
                  std::is_trivially_destructible_v<AssignFieldStmt> &&
                  std::is_trivially_destructible_v<AssignIndexStmt> &&
                  std::is_trivially_destructible_v<IfStmt> &&
                  std::is_trivially_destructible_v<WhileStmt> &&
                  std::is_trivially_destructible_v<ReturnStmt> &&
                  std::is_trivially_destructible_v<PrintStmt> &&
                  std::is_trivially_destructible_v<ExprStmt>,
              "every AST node must be trivially destructible");

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

struct ParamDecl {
  std::string_view Name; ///< Interned.
  TypeRef Ty;
  SourceLocation Loc;
  int LocalId = -1; ///< Assigned by Sema.
};

/// A method or a free function. For methods, `OwnerClass` names the class.
struct FunctionDecl {
  std::string Name;
  std::string OwnerClass; ///< Empty for free functions.
  std::vector<ParamDecl> Params;
  TypeRef ReturnTy; ///< Kind::Void when omitted.
  BlockStmt *Body = nullptr; ///< In the Program's arena.
  SourceLocation Loc;

  /// Sema results.
  std::string Symbol;  ///< "main" or "Class.method".
  int NumLocals = 0;   ///< Locals + params, for the SSA construction.
  std::vector<types::Type> LocalTypes; ///< Indexed by local id.

  bool isMethod() const { return !OwnerClass.empty(); }
};

struct FieldDecl {
  std::string Name;
  TypeRef Ty;
  SourceLocation Loc;
};

struct ClassDecl {
  std::string Name;
  std::string SuperName; ///< Empty when no `extends`.
  std::vector<FieldDecl> Fields;
  std::vector<std::unique_ptr<FunctionDecl>> Methods;
  SourceLocation Loc;
};

/// A parsed compilation unit. Declared first, the arena outlives the
/// declarations that point into it.
struct Program {
  AstArena Arena;
  std::vector<std::unique_ptr<ClassDecl>> Classes;
  std::vector<std::unique_ptr<FunctionDecl>> Functions;
};

} // namespace incline::frontend

#endif // INCLINE_FRONTEND_AST_H
