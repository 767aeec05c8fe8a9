//===- frontend/Parser.cpp ---------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "support/ErrorHandling.h"
#include "support/SmallVector.h"
#include "support/StringUtils.h"

using namespace incline;
using namespace incline::frontend;

const Token &Parser::peek(size_t Ahead) const {
  size_t Index = Pos + Ahead;
  if (Index >= Tokens.size())
    Index = Tokens.size() - 1; // EndOfFile sentinel.
  return Tokens[Index];
}

const Token &Parser::advance() {
  const Token &T = current();
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::match(TokenKind Kind) {
  if (!check(Kind))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *What) {
  if (match(Kind))
    return true;
  error(current().Loc,
        formatString("expected %s, found %s", What,
                     std::string(tokenKindName(current().Kind)).c_str()));
  return false;
}

void Parser::error(SourceLocation Loc, std::string Message) {
  Diags.push_back({Loc, std::move(Message)});
}

void Parser::synchronizeToDecl() {
  while (!check(TokenKind::EndOfFile) && !check(TokenKind::KwClass) &&
         !check(TokenKind::KwDef))
    advance();
}

void Parser::synchronizeToStmt() {
  while (!check(TokenKind::EndOfFile)) {
    if (match(TokenKind::Semicolon))
      return;
    if (check(TokenKind::RBrace) || check(TokenKind::KwIf) ||
        check(TokenKind::KwWhile) || check(TokenKind::KwReturn) ||
        check(TokenKind::KwVar) || check(TokenKind::KwPrint))
      return;
    advance();
  }
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> Parser::parseProgram() {
  auto Prog = std::make_unique<Program>();
  Arena = &Prog->Arena;
  while (!check(TokenKind::EndOfFile)) {
    if (check(TokenKind::KwClass)) {
      if (auto C = parseClass())
        Prog->Classes.push_back(std::move(C));
      else
        synchronizeToDecl();
    } else if (check(TokenKind::KwDef)) {
      if (auto F = parseFunction(/*OwnerClass=*/""))
        Prog->Functions.push_back(std::move(F));
      else
        synchronizeToDecl();
    } else {
      error(current().Loc, "expected 'class' or 'def' at top level");
      synchronizeToDecl();
      if (!check(TokenKind::KwClass) && !check(TokenKind::KwDef))
        break;
    }
  }
  return Prog;
}

std::unique_ptr<ClassDecl> Parser::parseClass() {
  SourceLocation Loc = current().Loc;
  expect(TokenKind::KwClass, "'class'");
  auto Decl = std::make_unique<ClassDecl>();
  Decl->Loc = Loc;
  if (!check(TokenKind::Identifier)) {
    error(current().Loc, "expected class name");
    return nullptr;
  }
  Decl->Name = std::string(advance().Text);
  if (match(TokenKind::KwExtends)) {
    if (!check(TokenKind::Identifier)) {
      error(current().Loc, "expected superclass name after 'extends'");
      return nullptr;
    }
    Decl->SuperName = std::string(advance().Text);
  }
  if (!expect(TokenKind::LBrace, "'{'"))
    return nullptr;
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    if (check(TokenKind::KwVar)) {
      SourceLocation FieldLoc = advance().Loc; // 'var'
      if (!check(TokenKind::Identifier)) {
        error(current().Loc, "expected field name");
        synchronizeToStmt();
        continue;
      }
      FieldDecl Field;
      Field.Loc = FieldLoc;
      Field.Name = std::string(advance().Text);
      if (!expect(TokenKind::Colon, "':' before field type")) {
        synchronizeToStmt();
        continue;
      }
      Field.Ty = parseType();
      expect(TokenKind::Semicolon, "';' after field declaration");
      Decl->Fields.push_back(std::move(Field));
    } else if (check(TokenKind::KwDef)) {
      if (auto M = parseFunction(Decl->Name))
        Decl->Methods.push_back(std::move(M));
      else
        synchronizeToDecl();
    } else {
      error(current().Loc, "expected 'var' or 'def' in class body");
      advance();
    }
  }
  expect(TokenKind::RBrace, "'}' closing class body");
  return Decl;
}

std::unique_ptr<FunctionDecl> Parser::parseFunction(std::string OwnerClass) {
  SourceLocation Loc = current().Loc;
  expect(TokenKind::KwDef, "'def'");
  auto Decl = std::make_unique<FunctionDecl>();
  Decl->Loc = Loc;
  Decl->OwnerClass = std::move(OwnerClass);
  if (!check(TokenKind::Identifier)) {
    error(current().Loc, "expected function name");
    return nullptr;
  }
  Decl->Name = std::string(advance().Text);
  if (!expect(TokenKind::LParen, "'('"))
    return nullptr;
  if (!parseParams(Decl->Params))
    return nullptr;
  if (match(TokenKind::Colon) || match(TokenKind::Arrow))
    Decl->ReturnTy = parseType();
  else
    Decl->ReturnTy.K = TypeRef::Kind::Void;
  Decl->Body = parseBlock();
  if (!Decl->Body)
    return nullptr;
  return Decl;
}

bool Parser::parseParams(std::vector<ParamDecl> &Params) {
  if (match(TokenKind::RParen))
    return true;
  while (true) {
    if (!check(TokenKind::Identifier)) {
      error(current().Loc, "expected parameter name");
      return false;
    }
    ParamDecl P;
    P.Loc = current().Loc;
    P.Name = intern(advance().Text);
    if (!expect(TokenKind::Colon, "':' before parameter type"))
      return false;
    P.Ty = parseType();
    Params.push_back(std::move(P));
    if (match(TokenKind::RParen))
      return true;
    if (!expect(TokenKind::Comma, "',' between parameters"))
      return false;
  }
}

TypeRef Parser::parseType() {
  TypeRef Ty;
  Ty.Loc = current().Loc;
  if (match(TokenKind::KwInt)) {
    Ty.K = TypeRef::Kind::Int;
  } else if (match(TokenKind::KwBool)) {
    Ty.K = TypeRef::Kind::Bool;
  } else if (check(TokenKind::Identifier)) {
    Ty.K = TypeRef::Kind::Named;
    Ty.Name = intern(advance().Text);
  } else {
    error(current().Loc, "expected a type");
    Ty.K = TypeRef::Kind::Int; // Recover with a plausible type.
    return Ty;
  }
  if (match(TokenKind::LBracket)) {
    expect(TokenKind::RBracket, "']' in array type");
    if (Ty.K == TypeRef::Kind::Int) {
      Ty.K = TypeRef::Kind::IntArray;
    } else if (Ty.K == TypeRef::Kind::Named) {
      Ty.K = TypeRef::Kind::NamedArray;
    } else {
      error(Ty.Loc, "bool arrays are not supported");
      Ty.K = TypeRef::Kind::IntArray;
    }
  }
  return Ty;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

BlockStmt *Parser::parseBlock() {
  SourceLocation Loc = current().Loc;
  if (!expect(TokenKind::LBrace, "'{'"))
    return nullptr;
  SmallVector<Stmt *, 16> Stmts;
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    if (Stmt *S = parseStatement())
      Stmts.push_back(S);
    else
      synchronizeToStmt();
  }
  expect(TokenKind::RBrace, "'}' closing block");
  return make<BlockStmt>(Arena->copyList<Stmt>(Stmts), Loc);
}

Stmt *Parser::parseStatement() {
  switch (current().Kind) {
  case TokenKind::KwVar:
    return parseVarDecl();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwReturn:
    return parseReturn();
  case TokenKind::KwPrint:
    return parsePrint();
  case TokenKind::LBrace:
    return parseBlock();
  default:
    return parseExprOrAssign();
  }
}

Stmt *Parser::parseVarDecl() {
  SourceLocation Loc = advance().Loc; // 'var'
  if (!check(TokenKind::Identifier)) {
    error(current().Loc, "expected variable name");
    return nullptr;
  }
  std::string_view Name = intern(advance().Text);
  std::optional<TypeRef> DeclaredTy;
  if (match(TokenKind::Colon))
    DeclaredTy = parseType();
  if (!expect(TokenKind::Assign, "'=' (variables must be initialized)"))
    return nullptr;
  Expr *Init = parseExpr();
  if (!Init)
    return nullptr;
  expect(TokenKind::Semicolon, "';' after variable declaration");
  return make<VarDeclStmt>(Name, DeclaredTy, Init, Loc);
}

Stmt *Parser::parseIf() {
  SourceLocation Loc = advance().Loc; // 'if'
  if (!expect(TokenKind::LParen, "'(' after 'if'"))
    return nullptr;
  Expr *Cond = parseExpr();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::RParen, "')' after condition"))
    return nullptr;
  Stmt *Then = parseBlock();
  if (!Then)
    return nullptr;
  Stmt *Else = nullptr;
  if (match(TokenKind::KwElse)) {
    if (check(TokenKind::KwIf))
      Else = parseIf();
    else
      Else = parseBlock();
    if (!Else)
      return nullptr;
  }
  return make<IfStmt>(Cond, Then, Else, Loc);
}

Stmt *Parser::parseWhile() {
  SourceLocation Loc = advance().Loc; // 'while'
  if (!expect(TokenKind::LParen, "'(' after 'while'"))
    return nullptr;
  Expr *Cond = parseExpr();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::RParen, "')' after condition"))
    return nullptr;
  Stmt *Body = parseBlock();
  if (!Body)
    return nullptr;
  return make<WhileStmt>(Cond, Body, Loc);
}

Stmt *Parser::parseReturn() {
  SourceLocation Loc = advance().Loc; // 'return'
  Expr *Value = nullptr;
  if (!check(TokenKind::Semicolon)) {
    Value = parseExpr();
    if (!Value)
      return nullptr;
  }
  expect(TokenKind::Semicolon, "';' after return");
  return make<ReturnStmt>(Value, Loc);
}

Stmt *Parser::parsePrint() {
  SourceLocation Loc = advance().Loc; // 'print'
  if (!expect(TokenKind::LParen, "'(' after 'print'"))
    return nullptr;
  Expr *Value = parseExpr();
  if (!Value)
    return nullptr;
  expect(TokenKind::RParen, "')' after print argument");
  expect(TokenKind::Semicolon, "';' after print");
  return make<PrintStmt>(Value, Loc);
}

Stmt *Parser::parseExprOrAssign() {
  SourceLocation Loc = current().Loc;
  Expr *E = parseExpr();
  if (!E)
    return nullptr;
  if (match(TokenKind::Assign)) {
    Expr *Value = parseExpr();
    if (!Value)
      return nullptr;
    expect(TokenKind::Semicolon, "';' after assignment");
    // The parsed LHS determines the assignment form; the statement takes
    // over its children (the LHS node itself stays unused in the arena).
    if (auto *Var = dyn_cast<VarRefExpr>(E))
      return make<AssignLocalStmt>(Var->name(), Value, Loc);
    if (auto *FA = dyn_cast<FieldAccessExpr>(E))
      return make<AssignFieldStmt>(FA->object(), FA->field(), Value, Loc);
    if (auto *IE = dyn_cast<IndexExpr>(E))
      return make<AssignIndexStmt>(IE->array(), IE->index(), Value, Loc);
    error(Loc, "invalid assignment target");
    return nullptr;
  }
  expect(TokenKind::Semicolon, "';' after expression statement");
  if (!isa<CallExpr>(E) && !isa<MethodCallExpr>(E))
    error(Loc, "only call expressions may be used as statements");
  return make<ExprStmt>(E, Loc);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// How tightly the binary operator \p Kind binds (higher binds tighter), or
/// 0 if \p Kind is no binary operator. The postfix type operators `is` and
/// `as` share the comparisons' level.
static unsigned precedenceOf(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::PipePipe:
    return 1;
  case TokenKind::AmpAmp:
    return 2;
  case TokenKind::EqEq:
  case TokenKind::BangEq:
    return 3;
  case TokenKind::Less:
  case TokenKind::LessEq:
  case TokenKind::Greater:
  case TokenKind::GreaterEq:
  case TokenKind::KwIs:
  case TokenKind::KwAs:
    return 4;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 5;
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 6;
  default:
    return 0;
  }
}

static BinaryExpr::Op binaryOpOf(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::PipePipe: return BinaryExpr::Op::Or;
  case TokenKind::AmpAmp: return BinaryExpr::Op::And;
  case TokenKind::EqEq: return BinaryExpr::Op::Eq;
  case TokenKind::BangEq: return BinaryExpr::Op::Ne;
  case TokenKind::Less: return BinaryExpr::Op::Lt;
  case TokenKind::LessEq: return BinaryExpr::Op::Le;
  case TokenKind::Greater: return BinaryExpr::Op::Gt;
  case TokenKind::GreaterEq: return BinaryExpr::Op::Ge;
  case TokenKind::Plus: return BinaryExpr::Op::Add;
  case TokenKind::Minus: return BinaryExpr::Op::Sub;
  case TokenKind::Star: return BinaryExpr::Op::Mul;
  case TokenKind::Slash: return BinaryExpr::Op::Div;
  case TokenKind::Percent: return BinaryExpr::Op::Mod;
  default: break;
  }
  incline_unreachable("not a binary operator token");
}

Expr *Parser::parseExpr() { return parseBinary(1); }

Expr *Parser::parseBinary(unsigned MinPrecedence) {
  Expr *Lhs = parseUnary();
  // After an operator, only operators that bind no tighter may follow at
  // this level. A binary operator's right operand takes the tighter ones;
  // `is` and `as` have no right operand, so `a is C + 1` ends at `C`.
  unsigned MaxPrecedence = ~0u;
  while (Lhs) {
    TokenKind Kind = current().Kind;
    unsigned Precedence = precedenceOf(Kind);
    if (Precedence == 0 || Precedence < MinPrecedence ||
        Precedence > MaxPrecedence)
      break;
    MaxPrecedence = Precedence;
    SourceLocation Loc = advance().Loc;
    if (Kind == TokenKind::KwIs || Kind == TokenKind::KwAs) {
      if (!check(TokenKind::Identifier)) {
        error(current().Loc, "expected class name after 'is'/'as'");
        return nullptr;
      }
      std::string_view ClassName = intern(advance().Text);
      if (Kind == TokenKind::KwIs)
        Lhs = make<IsExpr>(Lhs, ClassName, Loc);
      else
        Lhs = make<AsExpr>(Lhs, ClassName, Loc);
      continue;
    }
    // Every binary operator is left-associative: the right operand takes
    // only operators that bind tighter.
    Expr *Rhs = parseBinary(Precedence + 1);
    if (!Rhs)
      return nullptr;
    Lhs = make<BinaryExpr>(binaryOpOf(Kind), Lhs, Rhs, Loc);
  }
  return Lhs;
}

Expr *Parser::parseUnary() {
  if (check(TokenKind::Minus)) {
    SourceLocation Loc = advance().Loc;
    Expr *Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return make<UnaryExpr>(UnaryExpr::Op::Neg, Sub, Loc);
  }
  if (check(TokenKind::Bang)) {
    SourceLocation Loc = advance().Loc;
    Expr *Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return make<UnaryExpr>(UnaryExpr::Op::Not, Sub, Loc);
  }
  return parsePostfix();
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  while (E) {
    if (check(TokenKind::Dot)) {
      SourceLocation Loc = advance().Loc;
      if (!check(TokenKind::Identifier)) {
        error(current().Loc, "expected member name after '.'");
        return nullptr;
      }
      std::string_view Member = intern(advance().Text);
      if (check(TokenKind::LParen)) {
        advance();
        ExprList Args;
        if (!parseArgs(Args))
          return nullptr;
        E = make<MethodCallExpr>(E, Member, Args, Loc);
      } else {
        E = make<FieldAccessExpr>(E, Member, Loc);
      }
      continue;
    }
    if (check(TokenKind::LBracket)) {
      SourceLocation Loc = advance().Loc;
      Expr *Index = parseExpr();
      if (!Index)
        return nullptr;
      expect(TokenKind::RBracket, "']' after index");
      E = make<IndexExpr>(E, Index, Loc);
      continue;
    }
    break;
  }
  return E;
}

Expr *Parser::parsePrimary() {
  SourceLocation Loc = current().Loc;
  switch (current().Kind) {
  case TokenKind::IntLiteral: {
    const Token &T = advance();
    return make<IntLitExpr>(T.IntValue, Loc);
  }
  case TokenKind::KwTrue:
    advance();
    return make<BoolLitExpr>(true, Loc);
  case TokenKind::KwFalse:
    advance();
    return make<BoolLitExpr>(false, Loc);
  case TokenKind::KwNull:
    advance();
    return make<NullLitExpr>(Loc);
  case TokenKind::KwThis:
    advance();
    return make<ThisExpr>(Loc);
  case TokenKind::LParen: {
    advance();
    Expr *E = parseExpr();
    if (!E)
      return nullptr;
    expect(TokenKind::RParen, "')'");
    return E;
  }
  case TokenKind::KwNew: {
    advance();
    if (match(TokenKind::KwInt)) {
      if (!expect(TokenKind::LBracket, "'[' in array allocation"))
        return nullptr;
      Expr *Len = parseExpr();
      if (!Len)
        return nullptr;
      expect(TokenKind::RBracket, "']' after array length");
      TypeRef Elem;
      Elem.K = TypeRef::Kind::Int;
      Elem.Loc = Loc;
      return make<NewArrayExpr>(Elem, Len, Loc);
    }
    if (!check(TokenKind::Identifier)) {
      error(current().Loc, "expected class name after 'new'");
      return nullptr;
    }
    std::string_view ClassName = intern(advance().Text);
    if (match(TokenKind::LBracket)) {
      Expr *Len = parseExpr();
      if (!Len)
        return nullptr;
      expect(TokenKind::RBracket, "']' after array length");
      TypeRef Elem;
      Elem.K = TypeRef::Kind::Named;
      Elem.Name = ClassName;
      Elem.Loc = Loc;
      return make<NewArrayExpr>(Elem, Len, Loc);
    }
    if (!expect(TokenKind::LParen, "'(' in object allocation"))
      return nullptr;
    expect(TokenKind::RParen, "')' (constructors take no arguments)");
    return make<NewObjectExpr>(ClassName, Loc);
  }
  case TokenKind::Identifier: {
    std::string_view Name = intern(advance().Text);
    if (match(TokenKind::LParen)) {
      ExprList Args;
      if (!parseArgs(Args))
        return nullptr;
      return make<CallExpr>(Name, Args, Loc);
    }
    return make<VarRefExpr>(Name, Loc);
  }
  default:
    error(Loc, formatString(
                   "expected an expression, found %s",
                   std::string(tokenKindName(current().Kind)).c_str()));
    return nullptr;
  }
}

bool Parser::parseArgs(ExprList &Args) {
  if (match(TokenKind::RParen))
    return true;
  SmallVector<Expr *, 8> Parsed;
  while (true) {
    Expr *Arg = parseExpr();
    if (!Arg)
      return false;
    Parsed.push_back(Arg);
    if (match(TokenKind::RParen)) {
      Args = Arena->copyList<Expr>(Parsed);
      return true;
    }
    if (!expect(TokenKind::Comma, "',' between arguments"))
      return false;
  }
}
