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

CompileResult incline::frontend::compileProgram(std::string_view Source) {
  CompileResult Result;

  Lexer Lex(Source);
  std::vector<Token> Tokens = Lex.lexAll();
  for (const Token &T : Tokens)
    if (T.is(TokenKind::Error))
      Result.Diags.push_back({T.Loc, "invalid character in input"});
  if (!Result.Diags.empty())
    return Result;

  Parser P(std::move(Tokens));
  std::unique_ptr<Program> Prog = P.parseProgram();
  Result.Diags = P.diagnostics();
  if (!Result.Diags.empty())
    return Result;

  types::ClassHierarchy Classes;
  Sema S(*Prog, Classes);
  if (!S.run()) {
    Result.Diags = S.diagnostics();
    return Result;
  }

  Result.Mod = lowerProgram(*Prog, S, std::move(Classes));
  // Lowering is deterministic, so the source text determines the module
  // content; seeding its digest here spares content-keyed caches (the
  // inliner's trial cache) from ever printing the module to fingerprint it.
  uint64_t SourceFp = fnv1a(Source, FnvOffsetBasis);
  Result.Mod->seedContentFingerprint(SourceFp ? SourceFp : 1);
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
