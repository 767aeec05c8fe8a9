//===- frontend/Lexer.h - MiniOO lexer ---------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A table-driven single-pass lexer for MiniOO. Supports `//` line comments
/// and `/* */` block comments. The source buffer must outlive the tokens
/// (token text is a view).
///
/// One pointer walks the buffer. A 256-entry table classifies each byte,
/// and the lexer keeps only the current line number and where that line
/// starts: a token's column is its distance from the line start, computed
/// once when the token is made, so no per-character line or column
/// bookkeeping happens.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_FRONTEND_LEXER_H
#define INCLINE_FRONTEND_LEXER_H

#include "frontend/Token.h"

#include <string_view>
#include <vector>

namespace incline::frontend {

/// Lexes MiniOO source into a token stream.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Source(Source) {}

  /// Lexes the whole input. The final token is EndOfFile. Error tokens are
  /// included in place so callers can report them with positions: a byte
  /// that starts no token becomes a one-byte error token, and a `/*` with
  /// no closing `*/` becomes an error token that runs to the end of the
  /// input (see isUnterminatedComment).
  std::vector<Token> lexAll() const;

private:
  std::string_view Source;
};

/// True for the error token of a block comment that is never closed.
inline bool isUnterminatedComment(const Token &T) {
  return T.is(TokenKind::Error) && T.Text.starts_with("/*");
}

} // namespace incline::frontend

#endif // INCLINE_FRONTEND_LEXER_H
