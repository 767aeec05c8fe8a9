//===- frontend/Lexer.cpp ------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include "support/ErrorHandling.h"

#include <array>
#include <cstdint>

using namespace incline;
using namespace incline::frontend;

namespace {

// Byte classes. Any other byte starts an operator, a punctuation token or,
// if it is none of those, a one-byte error token.
enum : uint8_t {
  Space = 1,      ///< ' ', '\t', '\v', '\f', '\r' ('\n' is Newline).
  Newline = 2,
  IdentStart = 4, ///< Letters and '_'.
  Digit = 8,
};
constexpr uint8_t IdentChar = IdentStart | Digit;

constexpr std::array<uint8_t, 256> makeClassTable() {
  std::array<uint8_t, 256> Table{};
  for (unsigned char C : std::string_view(" \t\v\f\r"))
    Table[C] = Space;
  Table['\n'] = Newline;
  for (unsigned C = 'a'; C <= 'z'; ++C)
    Table[C] = IdentStart;
  for (unsigned C = 'A'; C <= 'Z'; ++C)
    Table[C] = IdentStart;
  Table['_'] = IdentStart;
  for (unsigned C = '0'; C <= '9'; ++C)
    Table[C] = Digit;
  return Table;
}
constexpr std::array<uint8_t, 256> ClassOf = makeClassTable();

uint8_t classOf(char C) { return ClassOf[static_cast<unsigned char>(C)]; }

/// The keyword spelled by \p Text, or Identifier.
TokenKind keywordOrIdentifier(std::string_view Text) {
  // Most identifiers match no keyword of their length.
  switch (Text.size()) {
  case 2:
    if (Text == "if") return TokenKind::KwIf;
    if (Text == "is") return TokenKind::KwIs;
    if (Text == "as") return TokenKind::KwAs;
    break;
  case 3:
    if (Text == "var") return TokenKind::KwVar;
    if (Text == "def") return TokenKind::KwDef;
    if (Text == "new") return TokenKind::KwNew;
    if (Text == "int") return TokenKind::KwInt;
    break;
  case 4:
    if (Text == "else") return TokenKind::KwElse;
    if (Text == "true") return TokenKind::KwTrue;
    if (Text == "null") return TokenKind::KwNull;
    if (Text == "this") return TokenKind::KwThis;
    if (Text == "bool") return TokenKind::KwBool;
    break;
  case 5:
    if (Text == "class") return TokenKind::KwClass;
    if (Text == "while") return TokenKind::KwWhile;
    if (Text == "print") return TokenKind::KwPrint;
    if (Text == "false") return TokenKind::KwFalse;
    break;
  case 6:
    if (Text == "return") return TokenKind::KwReturn;
    break;
  case 7:
    if (Text == "extends") return TokenKind::KwExtends;
    break;
  }
  return TokenKind::Identifier;
}

/// The value of a run of decimal digits, saturated at INT64_MAX.
int64_t literalValue(std::string_view Digits) {
  int64_t Value = 0;
  for (char C : Digits) {
    if (Value > (INT64_MAX - (C - '0')) / 10)
      return INT64_MAX;
    Value = Value * 10 + (C - '0');
  }
  return Value;
}

} // namespace

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

std::vector<Token> Lexer::lexAll() const {
  // MiniOO programs run at 0.25-0.35 tokens per byte: one allocation, where
  // growing by doubling would copy and touch about twice the memory.
  std::vector<Token> Tokens;
  Tokens.reserve(Source.size() / 2 + 1);

  const char *P = Source.data();
  const char *const End = P + Source.size();
  const char *LineStart = P;
  unsigned Line = 1;
  auto Emit = [&](TokenKind Kind, const char *Start, int64_t Value = 0) {
    Tokens.emplace_back(
        Kind, std::string_view(Start, static_cast<size_t>(P - Start)),
        SourceLocation{Line, static_cast<unsigned>(Start - LineStart) + 1},
        Value);
  };
  // \p Two if the next byte is \p Second (taking it), else \p One.
  auto Pair = [&](char Second, TokenKind Two, TokenKind One) {
    if (P == End || *P != Second)
      return One;
    ++P;
    return Two;
  };

  while (true) {
    // Whitespace and comments.
    while (P < End) {
      uint8_t Class = classOf(*P);
      if (Class == Space) {
        ++P;
      } else if (Class == Newline) {
        ++Line;
        LineStart = ++P;
      } else if (*P == '/' && P + 1 < End && P[1] == '/') {
        while (P < End && *P != '\n')
          ++P;
      } else if (*P == '/' && P + 1 < End && P[1] == '*') {
        const char *Open = P;
        unsigned OpenLine = Line;
        const char *OpenLineStart = LineStart;
        for (P += 2; P < End && !(*P == '*' && P + 1 < End && P[1] == '/');
             ++P)
          if (*P == '\n') {
            ++Line;
            LineStart = P + 1;
          }
        if (P == End) {
          // Never closed: the rest of the input is one error token,
          // reported where the comment opens.
          Tokens.emplace_back(
              TokenKind::Error,
              std::string_view(Open, static_cast<size_t>(End - Open)),
              SourceLocation{OpenLine,
                             static_cast<unsigned>(Open - OpenLineStart) + 1},
              0);
          break;
        }
        P += 2;
      } else {
        break;
      }
    }

    const char *Start = P;
    if (P == End) {
      Emit(TokenKind::EndOfFile, Start);
      return Tokens;
    }

    uint8_t Class = classOf(*P++);
    if (Class == IdentStart) {
      while (P < End && (classOf(*P) & IdentChar))
        ++P;
      Emit(keywordOrIdentifier({Start, static_cast<size_t>(P - Start)}),
           Start);
      continue;
    }
    if (Class == Digit) {
      while (P < End && classOf(*P) == Digit)
        ++P;
      Emit(TokenKind::IntLiteral, Start,
           literalValue({Start, static_cast<size_t>(P - Start)}));
      continue;
    }

    TokenKind Kind = TokenKind::Error;
    switch (*Start) {
    case '(': Kind = TokenKind::LParen; break;
    case ')': Kind = TokenKind::RParen; break;
    case '{': Kind = TokenKind::LBrace; break;
    case '}': Kind = TokenKind::RBrace; break;
    case '[': Kind = TokenKind::LBracket; break;
    case ']': Kind = TokenKind::RBracket; break;
    case ';': Kind = TokenKind::Semicolon; break;
    case ':': Kind = TokenKind::Colon; break;
    case ',': Kind = TokenKind::Comma; break;
    case '.': Kind = TokenKind::Dot; break;
    case '+': Kind = TokenKind::Plus; break;
    case '*': Kind = TokenKind::Star; break;
    case '/': Kind = TokenKind::Slash; break;
    case '%': Kind = TokenKind::Percent; break;
    case '-': Kind = Pair('>', TokenKind::Arrow, TokenKind::Minus); break;
    case '!': Kind = Pair('=', TokenKind::BangEq, TokenKind::Bang); break;
    case '=': Kind = Pair('=', TokenKind::EqEq, TokenKind::Assign); break;
    case '<': Kind = Pair('=', TokenKind::LessEq, TokenKind::Less); break;
    case '>': Kind = Pair('=', TokenKind::GreaterEq, TokenKind::Greater); break;
    // A lone '&' or '|' stays a one-byte error token.
    case '&': Kind = Pair('&', TokenKind::AmpAmp, TokenKind::Error); break;
    case '|': Kind = Pair('|', TokenKind::PipePipe, TokenKind::Error); break;
    default:
      break;
    }
    Emit(Kind, Start);
  }
}
