//===- frontend/Lexer.cpp ------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include "support/ErrorHandling.h"

#include <utility>

using namespace incline;
using namespace incline::frontend;

// The <cctype> classifiers of the "C" locale, inline.
static bool isSpace(char C) {
  return C == ' ' || (C >= '\t' && C <= '\r');
}
static bool isDigit(char C) { return C >= '0' && C <= '9'; }
static bool isIdentifierStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
static bool isIdentifierChar(char C) {
  return isIdentifierStart(C) || isDigit(C);
}

std::string_view incline::frontend::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::EndOfFile: return "end of file";
  case TokenKind::Error: return "invalid token";
  case TokenKind::Identifier: return "identifier";
  case TokenKind::IntLiteral: return "integer literal";
  case TokenKind::KwClass: return "'class'";
  case TokenKind::KwExtends: return "'extends'";
  case TokenKind::KwVar: return "'var'";
  case TokenKind::KwDef: return "'def'";
  case TokenKind::KwIf: return "'if'";
  case TokenKind::KwElse: return "'else'";
  case TokenKind::KwWhile: return "'while'";
  case TokenKind::KwReturn: return "'return'";
  case TokenKind::KwPrint: return "'print'";
  case TokenKind::KwNew: return "'new'";
  case TokenKind::KwTrue: return "'true'";
  case TokenKind::KwFalse: return "'false'";
  case TokenKind::KwNull: return "'null'";
  case TokenKind::KwThis: return "'this'";
  case TokenKind::KwInt: return "'int'";
  case TokenKind::KwBool: return "'bool'";
  case TokenKind::KwIs: return "'is'";
  case TokenKind::KwAs: return "'as'";
  case TokenKind::LParen: return "'('";
  case TokenKind::RParen: return "')'";
  case TokenKind::LBrace: return "'{'";
  case TokenKind::RBrace: return "'}'";
  case TokenKind::LBracket: return "'['";
  case TokenKind::RBracket: return "']'";
  case TokenKind::Semicolon: return "';'";
  case TokenKind::Colon: return "':'";
  case TokenKind::Comma: return "','";
  case TokenKind::Dot: return "'.'";
  case TokenKind::Arrow: return "'->'";
  case TokenKind::Plus: return "'+'";
  case TokenKind::Minus: return "'-'";
  case TokenKind::Star: return "'*'";
  case TokenKind::Slash: return "'/'";
  case TokenKind::Percent: return "'%'";
  case TokenKind::Bang: return "'!'";
  case TokenKind::AmpAmp: return "'&&'";
  case TokenKind::PipePipe: return "'||'";
  case TokenKind::EqEq: return "'=='";
  case TokenKind::BangEq: return "'!='";
  case TokenKind::Less: return "'<'";
  case TokenKind::LessEq: return "'<='";
  case TokenKind::Greater: return "'>'";
  case TokenKind::GreaterEq: return "'>='";
  case TokenKind::Assign: return "'='";
  }
  incline_unreachable("unknown token kind");
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  return C;
}

bool Lexer::match(char Expected) {
  if (peek() != Expected)
    return false;
  advance();
  return true;
}

void Lexer::skipWhitespaceAndComments() {
  while (Pos < Source.size()) {
    char C = peek();
    if (isSpace(C)) {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (Pos < Source.size() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      advance();
      advance();
      while (Pos < Source.size() && !(peek() == '*' && peek(1) == '/'))
        advance();
      if (Pos < Source.size()) {
        advance();
        advance();
      }
      continue;
    }
    return;
  }
}

Token Lexer::make(TokenKind Kind, size_t Begin, SourceLocation Loc) const {
  Token T;
  T.Kind = Kind;
  T.Text = Source.substr(Begin, Pos - Begin);
  T.Loc = Loc;
  return T;
}

Token Lexer::lexIdentifierOrKeyword(SourceLocation Loc) {
  // Most identifiers match no keyword of their length, so the lookup is
  // mostly length compares.
  static constexpr std::pair<std::string_view, TokenKind> Keywords[] = {
      {"class", TokenKind::KwClass},   {"extends", TokenKind::KwExtends},
      {"var", TokenKind::KwVar},       {"def", TokenKind::KwDef},
      {"if", TokenKind::KwIf},         {"else", TokenKind::KwElse},
      {"while", TokenKind::KwWhile},   {"return", TokenKind::KwReturn},
      {"print", TokenKind::KwPrint},   {"new", TokenKind::KwNew},
      {"true", TokenKind::KwTrue},     {"false", TokenKind::KwFalse},
      {"null", TokenKind::KwNull},     {"this", TokenKind::KwThis},
      {"int", TokenKind::KwInt},       {"bool", TokenKind::KwBool},
      {"is", TokenKind::KwIs},         {"as", TokenKind::KwAs},
  };
  size_t Begin = Pos;
  while (Pos < Source.size() &&
         isIdentifierChar(peek()))
    advance();
  Token T = make(TokenKind::Identifier, Begin, Loc);
  for (const auto &[Spelling, Kind] : Keywords)
    if (T.Text == Spelling) {
      T.Kind = Kind;
      break;
    }
  return T;
}

Token Lexer::lexNumber(SourceLocation Loc) {
  size_t Begin = Pos;
  while (Pos < Source.size() && isDigit(peek()))
    advance();
  Token T = make(TokenKind::IntLiteral, Begin, Loc);
  int64_t Value = 0;
  for (char C : T.Text) {
    // Saturate instead of overflowing UB; MiniOO literals are modest.
    if (Value > (INT64_MAX - (C - '0')) / 10) {
      Value = INT64_MAX;
      break;
    }
    Value = Value * 10 + (C - '0');
  }
  T.IntValue = Value;
  return T;
}

Token Lexer::next() {
  skipWhitespaceAndComments();
  SourceLocation Loc = here();
  if (Pos >= Source.size())
    return make(TokenKind::EndOfFile, Pos, Loc);

  char C = peek();
  if (isIdentifierStart(C))
    return lexIdentifierOrKeyword(Loc);
  if (isDigit(C))
    return lexNumber(Loc);

  size_t Begin = Pos;
  advance();
  switch (C) {
  case '(': return make(TokenKind::LParen, Begin, Loc);
  case ')': return make(TokenKind::RParen, Begin, Loc);
  case '{': return make(TokenKind::LBrace, Begin, Loc);
  case '}': return make(TokenKind::RBrace, Begin, Loc);
  case '[': return make(TokenKind::LBracket, Begin, Loc);
  case ']': return make(TokenKind::RBracket, Begin, Loc);
  case ';': return make(TokenKind::Semicolon, Begin, Loc);
  case ':': return make(TokenKind::Colon, Begin, Loc);
  case ',': return make(TokenKind::Comma, Begin, Loc);
  case '.': return make(TokenKind::Dot, Begin, Loc);
  case '+': return make(TokenKind::Plus, Begin, Loc);
  case '-':
    return make(match('>') ? TokenKind::Arrow : TokenKind::Minus, Begin, Loc);
  case '*': return make(TokenKind::Star, Begin, Loc);
  case '/': return make(TokenKind::Slash, Begin, Loc);
  case '%': return make(TokenKind::Percent, Begin, Loc);
  case '!':
    return make(match('=') ? TokenKind::BangEq : TokenKind::Bang, Begin, Loc);
  case '&':
    if (match('&'))
      return make(TokenKind::AmpAmp, Begin, Loc);
    return make(TokenKind::Error, Begin, Loc);
  case '|':
    if (match('|'))
      return make(TokenKind::PipePipe, Begin, Loc);
    return make(TokenKind::Error, Begin, Loc);
  case '=':
    return make(match('=') ? TokenKind::EqEq : TokenKind::Assign, Begin, Loc);
  case '<':
    return make(match('=') ? TokenKind::LessEq : TokenKind::Less, Begin, Loc);
  case '>':
    return make(match('=') ? TokenKind::GreaterEq : TokenKind::Greater, Begin,
                Loc);
  default:
    return make(TokenKind::Error, Begin, Loc);
  }
}

std::vector<Token> Lexer::lexAll() {
  // MiniOO programs run at 0.25-0.35 tokens per byte: one allocation, where
  // growing by doubling would copy and touch about twice the memory.
  std::vector<Token> Tokens;
  Tokens.reserve(Source.size() / 2 + 1);
  while (true) {
    Tokens.push_back(next());
    if (Tokens.back().is(TokenKind::EndOfFile))
      return Tokens;
  }
}
