//===- frontend/Sema.h - MiniOO semantic analysis --------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis: builds the ClassHierarchy from class declarations,
/// resolves types, assigns local-variable ids, resolves method and field
/// references, and type-checks every function body. After a successful run
/// the AST carries everything lowering needs.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_FRONTEND_SEMA_H
#define INCLINE_FRONTEND_SEMA_H

#include "frontend/Ast.h"
#include "types/ClassHierarchy.h"

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace incline::frontend {

/// Signature of a free function, for call checking and lowering.
struct FreeFunctionSig {
  std::vector<types::Type> ParamTypes;
  types::Type ReturnType;
  const FunctionDecl *Decl = nullptr;
};

/// Runs semantic analysis over a parsed Program.
class Sema {
public:
  /// \p Classes is populated by run() (must start empty).
  Sema(Program &Prog, types::ClassHierarchy &Classes)
      : Prog(Prog), Classes(Classes) {}

  /// Returns true on success (no diagnostics).
  bool run();

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  using FreeFunctionMap = std::map<std::string, FreeFunctionSig, std::less<>>;
  const FreeFunctionMap &freeFunctions() const {
    return FreeFuncs;
  }

private:
  void error(SourceLocation Loc, std::string Message);

  // Phase 1-3: declaration registration.
  bool registerClasses();
  bool registerMembers();
  bool registerFreeFunctions();
  types::Type resolveTypeRef(const TypeRef &Ty);

  // Phase 4: body checking.
  void checkFunction(FunctionDecl &F);
  void checkStmt(Stmt *S);
  types::Type checkExpr(Expr *E);
  types::Type checkBinary(BinaryExpr *E);
  types::Type checkCall(CallExpr *E);
  types::Type checkMethodCall(MethodCallExpr *E);
  types::Type checkFieldAccess(FieldAccessExpr *E);
  void requireAssignable(types::Type From, types::Type To,
                         SourceLocation Loc, const char *Context);

  // Scope handling for the current function. The locals in scope form one
  // stack, innermost last; a scope is the stack's height when it opened.
  // Names are the AST's interned identifiers, so equal names share an
  // address and lookups compare pointers.
  struct ScopedLocal {
    const char *Name;
    int Id;
  };
  void pushScope() { ScopeStarts.push_back(InScope.size()); }
  void popScope() {
    InScope.resize(ScopeStarts.back());
    ScopeStarts.pop_back();
  }
  int declareLocal(std::string_view Name, types::Type Ty,
                   SourceLocation Loc);
  /// Returns the local id or -1 (with a diagnostic) when undeclared.
  int lookupLocal(std::string_view Name, SourceLocation Loc);

  Program &Prog;
  types::ClassHierarchy &Classes;
  std::vector<Diagnostic> Diags;
  FreeFunctionMap FreeFuncs;

  // Current function state.
  FunctionDecl *CurFunc = nullptr;
  std::vector<ScopedLocal> InScope;
  std::vector<size_t> ScopeStarts;
  std::vector<types::Type> LocalTypes;
};

} // namespace incline::frontend

#endif // INCLINE_FRONTEND_SEMA_H
