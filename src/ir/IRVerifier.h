//===- ir/IRVerifier.h - Structural IR well-formedness checks --------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural verification run after every transformation in tests:
/// terminator placement, bidirectional use-def consistency, phi/predecessor
/// agreement, CFG edge symmetry, and SSA dominance of defs over uses. It
/// also holds functions to the dense-id contract its tables rely on (see
/// Function::instIdBound): unique instruction ids below the bound, and
/// edges only to the function's own blocks.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_IR_IRVERIFIER_H
#define INCLINE_IR_IRVERIFIER_H

#include <string>
#include <vector>

namespace incline::ir {

class Function;
class Module;

/// Verifies \p F; returns a list of human-readable problems (empty = OK).
std::vector<std::string> verifyFunction(const Function &F);

/// Verifies every function in \p M plus cross-function invariants (call
/// targets resolve, argument counts match signatures, deopt frame states
/// resolve against their baseline functions).
std::vector<std::string> verifyModule(const Module &M);

/// Checks \p F's deopt frame states against the module they resume into,
/// resolving each with ir::resolveDeopt: the baseline symbol exists, the
/// baseline block exists and its resume point is the virtual call to
/// re-dispatch (for a cold-branch trap, the block's first non-phi), and
/// every slot resolves to a baseline argument or instruction. Run by
/// verifyModule for module functions and by the JIT runtime on compiled
/// code before installation (compiled functions are not module members,
/// so verifyModule never sees them).
std::vector<std::string> verifyFrameStates(const Function &F, const Module &M);

/// Checks \p F's OSR entry descriptors against the module: when \p F
/// carries an OSR anchor, the anchored baseline function and loop-header
/// block must exist, and every OsrEntryInst slot must resolve to a baseline
/// argument or to a baseline instruction available at the header (defined
/// in a strictly dominating block, or one of the header's own phis), as
/// ir::BaselineSlots resolves it. Run by verifyModule and by the JIT
/// runtime before installing OSR code.
std::vector<std::string> verifyOsrEntries(const Function &F, const Module &M);

/// Convenience: asserts (fatally) that \p F verifies; returns true so it
/// can be used in boolean contexts.
bool verifyFunctionOrDie(const Function &F);

} // namespace incline::ir

#endif // INCLINE_IR_IRVERIFIER_H
