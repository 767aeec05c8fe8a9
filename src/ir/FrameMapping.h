//===- ir/FrameMapping.h - Deopt and OSR frame mappings --------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One description of a frame transfer between two code versions of a
/// method (DESIGN.md §9, §11), after D'Elia & Demetrescu's OSR mappings:
/// deoptimization (compiled code -> its baseline) and loop-entry OSR
/// (baseline -> an OSR variant) both resolve to the target's resume point
/// plus one move per live value. This is the only place a FrameStateSlot is
/// resolved against a baseline: the verifier resolves at install time, and
/// each interpreter core at transfer time before applying the moves to its
/// own frame type.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_IR_FRAMEMAPPING_H
#define INCLINE_IR_FRAMEMAPPING_H

#include "ir/Instruction.h"

#include <cstdint>
#include <vector>

namespace incline::ir {

class Function;
class Module;

/// The values of a baseline function that a FrameStateSlot can name: an
/// argument by index, a non-void instruction by profileId.
class BaselineSlots {
public:
  explicit BaselineSlots(const Function &Baseline);

  /// The Argument or Instruction \p Slot names, or null.
  const Value *resolve(const FrameStateSlot &Slot) const;

private:
  const Function &Baseline;
  std::vector<const Instruction *> ByProfileId;
};

struct FrameMapping {
  /// The target frame's \p To receives the current frame's \p From.
  struct Move {
    const Value *From;
    const Value *To;
  };

  const Function *Target = nullptr;
  const BasicBlock *ResumeBlock = nullptr;
  /// Index in ResumeBlock of the first instruction to run, phis counted.
  /// Never a phi: phi values arrive through the moves.
  size_t ResumeIndex = 0;
  std::vector<Move> Moves;
};

/// Why a transfer does not resolve, in the order the resolver checks.
enum class FrameMappingError : uint8_t {
  None,
  UnknownBaseline,   ///< The frame state names no module function.
  MissingBlock,      ///< The baseline has no block with the named id.
  ResumeNotFound,    ///< No non-phi there has the resume profileId.
  SlotCountMismatch, ///< Slots and captured operands differ in number.
  UnresolvedSlot,    ///< A slot names no value of the baseline.
};

struct FrameMappingResult {
  /// Complete only without an error; otherwise it holds what resolved
  /// before the error.
  FrameMapping Map;
  FrameMappingError Error = FrameMappingError::None;
  /// Position of every slot that names no baseline value: in the frame
  /// state's Slots, or in the variant's entry block.
  std::vector<size_t> UnresolvedSlots;

  bool ok() const { return Error == FrameMappingError::None; }
};

/// The deoptimization \p D (which carries a frame state) asks for: into the
/// module function the state names, at its resume point, moving
/// `D.operand(I)` to the value `Slots[I]` names.
FrameMappingResult resolveDeopt(const DeoptInst &D, const Module &M);

/// Loop-entry OSR from \p Baseline into its OSR variant \p Variant: the
/// arguments, then each OsrEntryInst leading the variant's entry block from
/// the baseline value its slot names; execution resumes past that run.
FrameMappingResult resolveOsrEntry(const Function &Variant,
                                   const Function &Baseline);

} // namespace incline::ir

#endif // INCLINE_IR_FRAMEMAPPING_H
