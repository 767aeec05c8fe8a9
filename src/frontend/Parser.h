//===- frontend/Parser.h - MiniOO recursive-descent parser ----------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A recursive-descent parser with operator-precedence expression parsing.
/// Errors are collected as diagnostics; on an error the parser synchronizes
/// to the next declaration/statement boundary and continues, so a single
/// run reports multiple problems.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_FRONTEND_PARSER_H
#define INCLINE_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Token.h"

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace incline::frontend {

/// Parses a token stream into a Program.
class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  /// Parses the whole unit. Check `diagnostics()` before using the result.
  /// Call once: the Program owns every node the parser makes.
  std::unique_ptr<Program> parseProgram();

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

private:
  // Token cursor.
  const Token &peek(size_t Ahead = 0) const;
  const Token &current() const { return peek(0); }
  /// Consumes the current token (never the EndOfFile sentinel) and
  /// returns it; the reference stays valid while the parser lives.
  const Token &advance();
  bool check(TokenKind Kind) const { return current().is(Kind); }
  bool match(TokenKind Kind);
  /// Consumes a token of \p Kind or reports \p What and returns false.
  bool expect(TokenKind Kind, const char *What);
  void error(SourceLocation Loc, std::string Message);
  void synchronizeToDecl();
  void synchronizeToStmt();

  // Declarations.
  std::unique_ptr<ClassDecl> parseClass();
  std::unique_ptr<FunctionDecl> parseFunction(std::string OwnerClass);
  bool parseParams(std::vector<ParamDecl> &Params);
  TypeRef parseType();

  // Statements.
  BlockStmt *parseBlock();
  Stmt *parseStatement();
  Stmt *parseVarDecl();
  Stmt *parseIf();
  Stmt *parseWhile();
  Stmt *parseReturn();
  Stmt *parsePrint();
  Stmt *parseExprOrAssign();

  // Expressions (precedence climbing).
  Expr *parseExpr();
  /// A unary expression followed by every binary operator (and `is` /
  /// `as`) that binds at least as tightly as \p MinPrecedence.
  Expr *parseBinary(unsigned MinPrecedence);
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();
  bool parseArgs(ExprList &Args);

  /// Nodes go to the arena of the Program being parsed.
  template <typename T, typename... Args> T *make(Args &&...A) {
    return Arena->make<T>(std::forward<Args>(A)...);
  }
  std::string_view intern(std::string_view Text) {
    return Arena->intern(Text);
  }

  std::vector<Token> Tokens;
  size_t Pos = 0;
  AstArena *Arena = nullptr;
  std::vector<Diagnostic> Diags;
};

} // namespace incline::frontend

#endif // INCLINE_FRONTEND_PARSER_H
