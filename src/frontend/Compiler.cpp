//===- frontend/Compiler.cpp -------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"

#include "frontend/Lexer.h"
#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/IRVerifier.h"
#include "support/ErrorHandling.h"
#include "support/Hash.h"

#include <cstdio>

using namespace incline;
using namespace incline::frontend;

namespace {

/// Lexes, parses, checks and lowers \p Source, or fills \p Diags. The
/// tokens and the parser go as soon as parsing returns, and the Program and
/// Sema as soon as lowering does: the module never points into them.
std::unique_ptr<ir::Module> lowerSource(std::string_view Source,
                                        std::vector<Diagnostic> &Diags) {
  std::unique_ptr<Program> Prog;
  {
    std::vector<Token> Tokens = Lexer(Source).lexAll();
    for (const Token &T : Tokens)
      if (T.is(TokenKind::Error))
        Diags.push_back({T.Loc, isUnterminatedComment(T)
                                    ? "unterminated block comment"
                                    : "invalid character in input"});
    if (!Diags.empty())
      return nullptr;

    Parser P(std::move(Tokens));
    Prog = P.parseProgram();
    if (!P.diagnostics().empty()) {
      Diags = P.diagnostics();
      return nullptr;
    }
  }

  types::ClassHierarchy Classes;
  Sema S(*Prog, Classes);
  if (!S.run()) {
    Diags = S.diagnostics();
    return nullptr;
  }
  return lowerProgram(*Prog, S, std::move(Classes));
}

} // namespace

void incline::frontend::seedSourceFingerprint(ir::Module &Mod,
                                              std::string_view Source) {
  uint64_t SourceFp = fnv1a(Source, FnvOffsetBasis);
  Mod.seedContentFingerprint(SourceFp ? SourceFp : 1);
}

CompileResult incline::frontend::compileProgram(std::string_view Source) {
  CompileResult Result;
  Result.Mod = lowerSource(Source, Result.Diags);
  if (!Result.Mod)
    return Result;

  seedSourceFingerprint(*Result.Mod, Source);
#ifndef NDEBUG
  std::vector<std::string> Problems = ir::verifyModule(*Result.Mod);
  if (!Problems.empty()) {
    for (const std::string &Problem : Problems)
      std::fprintf(stderr, "lowering verifier: %s\n", Problem.c_str());
    INCLINE_FATAL("frontend produced invalid IR");
  }
#endif
  return Result;
}

std::unique_ptr<ir::Module>
incline::frontend::compileOrDie(std::string_view Source) {
  CompileResult Result = compileProgram(Source);
  if (!Result.succeeded()) {
    std::fprintf(stderr, "%s", renderDiagnostics(Result.Diags).c_str());
    INCLINE_FATAL("MiniOO compilation failed");
  }
  return std::move(Result.Mod);
}
