//===- tests/frontend_lexer_test.cpp - Lexer unit tests --------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "fuzz/RandomProgram.h"
#include "support/Hash.h"
#include "workloads/Traffic.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

using namespace incline;
using namespace incline::frontend;

namespace {

std::vector<TokenKind> kindsOf(std::string_view Source) {
  Lexer Lex(Source);
  std::vector<TokenKind> Kinds;
  for (const Token &T : Lex.lexAll())
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(LexerTest, EmptyInput) {
  EXPECT_EQ(kindsOf(""), std::vector<TokenKind>{TokenKind::EndOfFile});
  EXPECT_EQ(kindsOf("   \n\t "), std::vector<TokenKind>{TokenKind::EndOfFile});
}

TEST(LexerTest, Keywords) {
  auto Kinds = kindsOf("class extends var def if else while return print new "
                       "true false null this int bool is as");
  std::vector<TokenKind> Expected = {
      TokenKind::KwClass, TokenKind::KwExtends, TokenKind::KwVar,
      TokenKind::KwDef,   TokenKind::KwIf,      TokenKind::KwElse,
      TokenKind::KwWhile, TokenKind::KwReturn,  TokenKind::KwPrint,
      TokenKind::KwNew,   TokenKind::KwTrue,    TokenKind::KwFalse,
      TokenKind::KwNull,  TokenKind::KwThis,    TokenKind::KwInt,
      TokenKind::KwBool,  TokenKind::KwIs,      TokenKind::KwAs,
      TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, IdentifiersVsKeywords) {
  Lexer Lex("classy _x x1 whileTrue");
  std::vector<Token> Tokens = Lex.lexAll();
  ASSERT_EQ(Tokens.size(), 5u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Tokens[I].Kind, TokenKind::Identifier) << I;
  EXPECT_EQ(Tokens[0].Text, "classy");
  EXPECT_EQ(Tokens[3].Text, "whileTrue");
}

TEST(LexerTest, IntLiteralValue) {
  Lexer Lex("0 42 123456789");
  std::vector<Token> Tokens = Lex.lexAll();
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].IntValue, 0);
  EXPECT_EQ(Tokens[1].IntValue, 42);
  EXPECT_EQ(Tokens[2].IntValue, 123456789);
}

TEST(LexerTest, IntLiteralSaturatesInsteadOfOverflowing) {
  Token T = Lexer("99999999999999999999999999").lexAll()[0];
  EXPECT_EQ(T.Kind, TokenKind::IntLiteral);
  EXPECT_EQ(T.IntValue, INT64_MAX);
}

TEST(LexerTest, OperatorsMaximalMunch) {
  auto Kinds = kindsOf("== = != ! <= < >= > && || -> -");
  std::vector<TokenKind> Expected = {
      TokenKind::EqEq,   TokenKind::Assign,    TokenKind::BangEq,
      TokenKind::Bang,   TokenKind::LessEq,    TokenKind::Less,
      TokenKind::GreaterEq, TokenKind::Greater, TokenKind::AmpAmp,
      TokenKind::PipePipe,  TokenKind::Arrow,   TokenKind::Minus,
      TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, Comments) {
  auto Kinds = kindsOf("a // line comment\n b /* block \n comment */ c");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier,
                                     TokenKind::Identifier,
                                     TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, LineAndColumnTracking) {
  std::vector<Token> Tokens = Lexer("a\n  b").lexAll();
  ASSERT_EQ(Tokens.size(), 3u);
  const Token &A = Tokens[0];
  const Token &B = Tokens[1];
  EXPECT_EQ(A.Loc.Line, 1u);
  EXPECT_EQ(A.Loc.Column, 1u);
  EXPECT_EQ(B.Loc.Line, 2u);
  EXPECT_EQ(B.Loc.Column, 3u);
}

TEST(LexerTest, InvalidCharacterProducesErrorToken) {
  auto Kinds = kindsOf("a # b");
  ASSERT_EQ(Kinds.size(), 4u);
  EXPECT_EQ(Kinds[1], TokenKind::Error);
}

TEST(LexerTest, SingleAmpIsError) {
  auto Kinds = kindsOf("a & b");
  EXPECT_EQ(Kinds[1], TokenKind::Error);
}

//===----------------------------------------------------------------------===//
// Token positions
//===----------------------------------------------------------------------===//

/// Byte offset of \p T's text within \p Source.
size_t offsetOf(const Token &T, std::string_view Source) {
  return static_cast<size_t>(T.Text.data() - Source.data());
}

void expectToken(const Token &T, std::string_view Source, TokenKind Kind,
                 size_t Offset, size_t Length, unsigned Line,
                 unsigned Column) {
  EXPECT_EQ(T.Kind, Kind) << tokenKindName(T.Kind);
  EXPECT_EQ(offsetOf(T, Source), Offset);
  EXPECT_EQ(T.Text.size(), Length);
  EXPECT_EQ(T.Loc.Line, Line);
  EXPECT_EQ(T.Loc.Column, Column);
}

TEST(LexerPositionTest, AfterMultiLineBlockComment) {
  std::string_view Source = "a /* one\n two\n */ b\n  c";
  std::vector<Token> Tokens = Lexer(Source).lexAll();
  ASSERT_EQ(Tokens.size(), 4u);
  expectToken(Tokens[0], Source, TokenKind::Identifier, 0, 1, 1, 1);
  expectToken(Tokens[1], Source, TokenKind::Identifier, 18, 1, 3, 5);
  expectToken(Tokens[2], Source, TokenKind::Identifier, 22, 1, 4, 3);
  expectToken(Tokens[3], Source, TokenKind::EndOfFile, 23, 0, 4, 4);
}

TEST(LexerPositionTest, LineCommentAtEndOfFile) {
  std::string_view Source = "x\n  y // trailing";
  std::vector<Token> Tokens = Lexer(Source).lexAll();
  ASSERT_EQ(Tokens.size(), 3u);
  expectToken(Tokens[1], Source, TokenKind::Identifier, 4, 1, 2, 3);
  expectToken(Tokens[2], Source, TokenKind::EndOfFile, Source.size(), 0, 2,
              16);

  std::string_view Bare = "z//";
  Tokens = Lexer(Bare).lexAll();
  ASSERT_EQ(Tokens.size(), 2u);
  expectToken(Tokens[1], Bare, TokenKind::EndOfFile, 3, 0, 1, 4);
}

TEST(LexerPositionTest, UnterminatedBlockCommentIsOneErrorToken) {
  std::string_view Source = "a\n  /* x\n y";
  std::vector<Token> Tokens = Lexer(Source).lexAll();
  ASSERT_EQ(Tokens.size(), 3u);
  expectToken(Tokens[1], Source, TokenKind::Error, 4, 7, 2, 3);
  EXPECT_TRUE(isUnterminatedComment(Tokens[1]));
  expectToken(Tokens[2], Source, TokenKind::EndOfFile, 11, 0, 3, 3);
  EXPECT_FALSE(isUnterminatedComment(Lexer("#").lexAll()[0]));
}

TEST(LexerPositionTest, TabsCountAsOneColumn) {
  std::string_view Source = "\ta\t\tb\n\t c";
  std::vector<Token> Tokens = Lexer(Source).lexAll();
  ASSERT_EQ(Tokens.size(), 4u);
  expectToken(Tokens[0], Source, TokenKind::Identifier, 1, 1, 1, 2);
  expectToken(Tokens[1], Source, TokenKind::Identifier, 4, 1, 1, 5);
  expectToken(Tokens[2], Source, TokenKind::Identifier, 8, 1, 2, 3);
}

TEST(LexerPositionTest, CarriageReturnLineFeed) {
  // '\r' is whitespace that takes a column; only '\n' starts a line.
  std::string_view Source = "a;\r\n  b\r\n\r\nc";
  std::vector<Token> Tokens = Lexer(Source).lexAll();
  ASSERT_EQ(Tokens.size(), 5u);
  expectToken(Tokens[1], Source, TokenKind::Semicolon, 1, 1, 1, 2);
  expectToken(Tokens[2], Source, TokenKind::Identifier, 6, 1, 2, 3);
  expectToken(Tokens[3], Source, TokenKind::Identifier, 11, 1, 4, 1);
  expectToken(Tokens[4], Source, TokenKind::EndOfFile, 12, 0, 4, 2);
}

TEST(LexerPositionTest, LoneAmpAndPipeAreOneByteErrorTokens) {
  std::string_view Source = "a & b\n | c && d||e";
  std::vector<Token> Tokens = Lexer(Source).lexAll();
  ASSERT_EQ(Tokens.size(), 10u);
  expectToken(Tokens[1], Source, TokenKind::Error, 2, 1, 1, 3);
  expectToken(Tokens[3], Source, TokenKind::Error, 7, 1, 2, 2);
  expectToken(Tokens[5], Source, TokenKind::AmpAmp, 11, 2, 2, 6);
  expectToken(Tokens[7], Source, TokenKind::PipePipe, 15, 2, 2, 10);
}

TEST(LexerPositionTest, SaturatingLiteralKeepsItsSpelling) {
  std::string_view Source = "9223372036854775807 9223372036854775808\n"
                            "  000000000000000000000000000000012";
  std::vector<Token> Tokens = Lexer(Source).lexAll();
  ASSERT_EQ(Tokens.size(), 4u);
  expectToken(Tokens[0], Source, TokenKind::IntLiteral, 0, 19, 1, 1);
  EXPECT_EQ(Tokens[0].IntValue, INT64_MAX);
  expectToken(Tokens[1], Source, TokenKind::IntLiteral, 20, 19, 1, 21);
  EXPECT_EQ(Tokens[1].IntValue, INT64_MAX);
  expectToken(Tokens[2], Source, TokenKind::IntLiteral, 42, 33, 2, 3);
  EXPECT_EQ(Tokens[2].IntValue, 12);
}

//===----------------------------------------------------------------------===//
// Golden token streams
//===----------------------------------------------------------------------===//
//
// An FNV-1a digest of every token's kind, offset, length, line, column and
// integer value over every program the benches lex. A rewrite of the lexer
// must leave each digest as it is; the failure message prints the new one.

uint64_t foldTokens(std::string_view Source, uint64_t Hash) {
  for (const Token &T : Lexer(Source).lexAll()) {
    Hash = fnv1a(static_cast<uint64_t>(T.Kind), Hash);
    Hash = fnv1a(static_cast<uint64_t>(offsetOf(T, Source)), Hash);
    Hash = fnv1a(static_cast<uint64_t>(T.Text.size()), Hash);
    Hash = fnv1a(static_cast<uint64_t>(T.Loc.Line), Hash);
    Hash = fnv1a(static_cast<uint64_t>(T.Loc.Column), Hash);
    Hash = fnv1a(static_cast<uint64_t>(T.IntValue), Hash);
  }
  return Hash;
}

std::string hex(uint64_t Digest) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, Digest);
  return Buf;
}

TEST(LexerGoldenTest, SuiteWorkloadTokenStreams) {
  uint64_t Hash = FnvOffsetBasis;
  for (const workloads::Workload &W : workloads::allWorkloads())
    Hash = foldTokens(W.Source, Hash);
  EXPECT_EQ(workloads::allWorkloads().size(), 16u);
  EXPECT_EQ(hex(Hash), "50774337ad3ddd02");
}

TEST(LexerGoldenTest, TrafficProgramTokenStream) {
  std::string Source = workloads::buildTrafficProgram(706);
  EXPECT_EQ(Lexer(Source).lexAll().size(), 113112u);
  EXPECT_EQ(hex(foldTokens(Source, FnvOffsetBasis)), "873479dfbfba0d49");
}

TEST(LexerGoldenTest, GeneratedProgramTokenStreams) {
  uint64_t Hash = FnvOffsetBasis;
  for (uint64_t Seed = 0; Seed < 200; ++Seed)
    Hash = foldTokens(fuzz::generateRandomProgram(Seed), Hash);
  EXPECT_EQ(hex(Hash), "3420a55cbebeb42e");
}

} // namespace
