//===- frontend/Compiler.h - Source-to-IR driver ---------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-call frontend driver: MiniOO source text in, verified SSA module
/// out (or diagnostics). This is the entry point examples, tests, and the
/// workload registry use.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_FRONTEND_COMPILER_H
#define INCLINE_FRONTEND_COMPILER_H

#include "frontend/SourceLocation.h"
#include "ir/Module.h"

#include <memory>
#include <string_view>
#include <vector>

namespace incline::frontend {

/// Result of compiling a MiniOO unit. `Mod` is null when `Diags` is
/// non-empty.
struct CompileResult {
  std::unique_ptr<ir::Module> Mod;
  std::vector<Diagnostic> Diags;

  bool succeeded() const { return Mod != nullptr; }
};

/// Lex + parse + sema + lower. On success the returned module passes the IR
/// verifier (asserted in debug builds).
CompileResult compileProgram(std::string_view Source);

/// Seeds \p Mod's content fingerprint with a digest of \p Source, as
/// compileProgram does for every module it returns. Lowering is
/// deterministic, so the source text determines the module content; the
/// seed spares content-keyed caches (the inliner's trial cache) from ever
/// printing the module to fingerprint it.
void seedSourceFingerprint(ir::Module &Mod, std::string_view Source);

/// Like compileProgram, but aborts with rendered diagnostics on failure.
/// For tests and benchmark workloads whose sources are known-good.
std::unique_ptr<ir::Module> compileOrDie(std::string_view Source);

} // namespace incline::frontend

#endif // INCLINE_FRONTEND_COMPILER_H
