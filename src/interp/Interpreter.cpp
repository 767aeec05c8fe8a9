//===- interp/Interpreter.cpp ----------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
//
// Two execution cores share one FrameExecutor (DESIGN.md §13):
//
//  * execBodyFast (default) runs against DecodedBody tables: slot-indexed
//    vector frames, per-edge phi move lists, polymorphic inline caches at
//    virtual callsites, and interned profile handles.
//  * execBody (reference) is the original map-frame core, kept
//    runtime-selectable as the semantic baseline the differential oracle
//    compares against.
//
// Both must agree bit-for-bit on program output, traps, step and cycle
// totals, and recorded profile content — the interp-fast fuzz stage and the
// frame-transfer equivalence battery enforce exactly that.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/DecodedBody.h"
#include "ir/ArithSemantics.h"
#include "ir/FrameMapping.h"
#include "support/Cancellation.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/StringUtils.h"

#include <optional>
#include <unordered_map>

using namespace incline;
using namespace incline::interp;
using namespace incline::ir;

std::string_view incline::interp::trapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None: return "none";
  case TrapKind::NullPointer: return "null pointer";
  case TrapKind::IndexOutOfBounds: return "index out of bounds";
  case TrapKind::DivisionByZero: return "division by zero";
  case TrapKind::ClassCastFailure: return "class cast failure";
  case TrapKind::Deoptimization: return "deoptimization";
  case TrapKind::StepLimitExceeded: return "step limit exceeded";
  case TrapKind::StackOverflow: return "stack overflow";
  case TrapKind::HeapExhausted: return "heap exhausted";
  case TrapKind::UnknownFunction: return "unknown function";
  }
  incline_unreachable("unknown trap kind");
}

ResolvedBody ModuleEnv::resolve(std::string_view Symbol) {
  ResolvedBody Body;
  Body.F = M.function(Symbol);
  Body.Compiled = false;
  Body.ProfileName = std::string(Symbol);
  return Body;
}

namespace {

/// Executes call frames. One FrameExecutor per Interpreter::run; recursion
/// into callees happens through C++ recursion (bounded by MaxCallDepth).
class FrameExecutor {
public:
  FrameExecutor(const Module &M, ExecutionEnv &Env, const CostModel &Costs,
                const ExecLimits &Limits, Heap &TheHeap, ExecResult &Result,
                InterpOptions Opts, DecodedCache *Bodies)
      : M(M), Env(Env), Costs(Costs), Limits(Limits), TheHeap(TheHeap),
        Result(Result), Opts(Opts), Bodies(Bodies) {}

  RtValue callFunction(std::string_view Symbol,
                       const std::vector<RtValue> &Args, size_t Depth) {
    if (trapped())
      return RtValue::nullVal();
    if (Depth > Limits.MaxCallDepth) {
      trap(TrapKind::StackOverflow, std::string(Symbol));
      return RtValue::nullVal();
    }
    Env.onInvoke(Symbol);
    ResolvedBody Body = Env.resolve(Symbol);
    if (!Body.F) {
      trap(TrapKind::UnknownFunction, std::string(Symbol));
      return RtValue::nullVal();
    }
    if (Opts.Mode == InterpMode::Fast)
      return execBodyFast(std::move(Body), Args, Depth);
    if (!Body.Compiled) {
      if (profile::ProfileTable *Profiles = Env.profiles())
        ++Profiles->methodProfile(Body.ProfileName).InvocationCount;
    }
    return execBody(std::move(Body), Args, Depth);
  }

private:
  void trap(TrapKind Kind, std::string Context) {
    if (Result.Trap != TrapKind::None)
      return; // Keep the innermost trap.
    Result.Trap = Kind;
    Result.TrapMessage = formatString("%s (%s)",
                                      std::string(trapKindName(Kind)).c_str(),
                                      Context.c_str());
  }
  bool trapped() const { return Result.Trap != TrapKind::None; }

  void charge(uint64_t Cycles, bool Compiled) {
    if (Compiled)
      Result.CompiledCycles += Cycles;
    else
      Result.InterpretedCycles += Cycles;
  }

  /// True when the step/wall budget trapped; shared by both cores so the
  /// check placement (top of every block iteration) stays identical.
  bool checkBudgets(const std::string &FName) {
    if (Result.Steps > Limits.MaxSteps) {
      trap(TrapKind::StepLimitExceeded, FName);
      return true;
    }
    if (Limits.Deadline && Result.Steps >= NextWallCheckAt) {
      NextWallCheckAt = Result.Steps + 8192;
      if (Limits.Deadline->expired()) {
        trap(TrapKind::StepLimitExceeded, "wall clock, " + FName);
        return true;
      }
    }
    return false;
  }

  //===------------------------------------------------------------------===//
  // Frame transfers (DESIGN.md §9, §11). Both cores resolve an
  // ir::FrameMapping here, at transfer time, and apply it to their own
  // frame type in their one transfer().
  //===------------------------------------------------------------------===//

  /// The transfer \p D asks for, or nullopt after trapping when it has
  /// none. A deopt without a frame state marks a point the compiled code
  /// believed unreachable: nothing to recover to. A frame state that does
  /// not resolve was rejected by the verifier at install time, so its trap
  /// is defense in depth, not a supported path — and a Release build must
  /// not transfer a truncated frame either.
  std::optional<FrameMapping> deoptMapping(const DeoptInst &D) {
    if (!D.hasFrameState()) {
      trap(TrapKind::Deoptimization, D.reason());
      return std::nullopt;
    }
    FrameMappingResult R = resolveDeopt(D, M);
    std::string Why;
    switch (R.Error) {
    case FrameMappingError::None:
      return std::move(R.Map);
    case FrameMappingError::UnknownBaseline:
      Why = "no baseline ";
      break;
    case FrameMappingError::MissingBlock:
    case FrameMappingError::ResumeNotFound:
      Why = "unresolved resume point in ";
      break;
    case FrameMappingError::SlotCountMismatch:
      Why = "frame-state slot/operand mismatch in ";
      break;
    case FrameMappingError::UnresolvedSlot:
      Why = "unresolved frame-state slot in ";
      break;
    }
    trap(TrapKind::Deoptimization, Why + D.frameState().BaselineSymbol);
    return std::nullopt;
  }

  /// The OSR entry from \p Baseline, the body the frame runs, into
  /// \p Variant; nullopt after trapping when an entry slot does not resolve
  /// (defense in depth again: verifyOsrEntries rejects such code).
  std::optional<FrameMapping> osrMapping(const Function &Variant,
                                         const Function &Baseline) {
    FrameMappingResult R = resolveOsrEntry(Variant, Baseline);
    if (R.ok())
      return std::move(R.Map);
    trap(TrapKind::Deoptimization,
         "unresolved osr entry slot in " + Variant.name());
    return std::nullopt;
  }

  /// Points \p Body at \p Map's target: the interpreted baseline after a
  /// deoptimization \p Deopt, compiled OSR code when \p Deopt is null.
  void retarget(ResolvedBody &Body, const FrameMapping &Map,
                const DeoptInst *Deopt) {
    if (Deopt) {
      // Report before leaving: the JIT runtime invalidates the compiled
      // code here. The retired Function stays alive (the runtime parks it
      // in a graveyard), and with it its decoded body, because the
      // caller's C++ frame still references both.
      Env.onDeopt(Body.ProfileName, *Deopt);
      Body.ProfileName = Deopt->frameState().BaselineSymbol;
    }
    Body.F = Map.Target;
    Body.Compiled = !Deopt;
  }

  //===------------------------------------------------------------------===//
  // Fast core: pre-decoded bodies, slot frames, inline caches.
  //===------------------------------------------------------------------===//

  /// Where a fast-core activation stands: its body, decoded tables and
  /// frame, its block position, and the per-tier accounting a frame
  /// transfer retargets.
  struct FastCursor {
    ResolvedBody Body;
    DecodedBody *DB = nullptr;
    std::vector<RtValue> Frame;
    uint32_t BlockIdx = 0;
    const BasicBlock *PrevBB = nullptr;
    /// Set by a transfer: the next block iteration skips phi evaluation
    /// (the materialized frame already holds every live value) and begins
    /// at decoded (non-phi) instruction ResumeInstIdx.
    bool SkipPhis = false;
    size_t ResumeInstIdx = 0;
    profile::ProfileTable *Profiles = nullptr;
    uint64_t *CycleSink = nullptr;
    uint64_t DispatchExtra = 0;
  };

  /// Points \p C's profiling and cycle accounting at its body's tier. The
  /// compiled tier records no profiles.
  void enterTier(FastCursor &C) {
    bool Compiled = C.Body.Compiled;
    C.Profiles = Compiled ? nullptr : Env.profiles();
    C.CycleSink =
        Compiled ? &Result.CompiledCycles : &Result.InterpretedCycles;
    C.DispatchExtra = Compiled ? 0 : Costs.InterpDispatchCost;
  }

  /// Frame read with the reference core's use-before-def discipline: the
  /// Debug build asserts on the poison sentinel makeFrame planted; Release
  /// reads a defined null (RtValue zero-initializes) instead of the
  /// reference map's UB-prone end() dereference.
  RtValue &slot(std::vector<RtValue> &Frame, int32_t Ref) {
    assert(Frame[static_cast<size_t>(Ref)].K != DecodedBody::PoisonKind &&
           "use of an unevaluated value");
    return Frame[static_cast<size_t>(Ref)];
  }

  // Out of line: inlined into callFunction beside the reference core (GCC
  // 12), the hot loop ran about 3% slower on the 16-workload suite.
  [[gnu::noinline]] RtValue execBodyFast(ResolvedBody Callee,
                                         const std::vector<RtValue> &Args,
                                         size_t Depth) {
    assert(Args.size() == Callee.F->numParams() && "argument count mismatch");
    FastCursor C;
    C.Body = std::move(Callee);
    C.DB = &Bodies->bodyFor(*C.Body.F, Costs);
    enterTier(C);

    if (C.Profiles) {
      // Any profiled execution runs the baseline body, whose profile key is
      // its own name — the invariant that lets interned handles live on the
      // per-Function DecodedBody.
      assert(C.Body.ProfileName == C.Body.F->name() &&
             "profiled body keyed by a foreign profile name");
      C.DB->ensureFresh(C.Profiles);
      if (!C.DB->MP)
        C.DB->MP = &C.Profiles->methodProfile(C.Body.ProfileName);
      ++C.DB->MP->InvocationCount;
    }

    C.Frame = C.DB->makeFrame(Args.size());
    for (size_t I = 0; I < Args.size(); ++I)
      C.Frame[I] = Args[I];

    // Set by an OSR poll at a block transition: the frame transfers into
    // this OSR variant once the target block's phis have been evaluated.
    const Function *PendingOsr = nullptr;

    while (true) {
      if (trapped())
        return RtValue::nullVal();
      if (checkBudgets(C.Body.F->name()))
        return RtValue::nullVal();

      const DecodedBody::Block &Blk = C.DB->Blocks[C.BlockIdx];

      // Phis evaluate in parallel against the edge taken: stage every read,
      // then write (an edge's move list may permute sibling phis).
      if (!C.SkipPhis && Blk.NumPhis != 0) {
        assert(C.PrevBB && "phi in entry block");
        const DecodedBody::Edge *Ed = nullptr;
        for (uint32_t E = 0; E < Blk.NumEdges; ++E)
          if (C.DB->Edges[Blk.FirstEdge + E].Pred == C.PrevBB) {
            Ed = &C.DB->Edges[Blk.FirstEdge + E];
            break;
          }
        assert(Ed && "phi has no entry for the taken edge");
        if (Ed) {
          PhiScratch.resize(Ed->MovesCount);
          for (uint32_t I = 0; I < Ed->MovesCount; ++I)
            PhiScratch[I] = slot(C.Frame, C.DB->Moves[Ed->MovesBegin + I].Src);
          for (uint32_t I = 0; I < Ed->MovesCount; ++I)
            C.Frame[C.DB->Moves[Ed->MovesBegin + I].Dest] = PhiScratch[I];
        }
      }
      size_t InstIdx = C.SkipPhis ? C.ResumeInstIdx : 0;
      C.SkipPhis = false;

      if (PendingOsr) {
        // The loop header's phis now hold this iteration's values; hand
        // the frame to the compiled OSR body.
        std::optional<FrameMapping> Map = osrMapping(*PendingOsr, *C.Body.F);
        PendingOsr = nullptr;
        if (!Map)
          return RtValue::nullVal();
        transfer(C, *Map, nullptr);
        continue;
      }

      for (; InstIdx < Blk.NumInsts; ++InstIdx) {
        const DecodedBody::Inst &DI = C.DB->Insts[Blk.FirstInst + InstIdx];
        ++Result.Steps;
        *C.CycleSink += DI.Cost + C.DispatchExtra;

        switch (DI.Kind) {
        case ValueKind::Jump:
          C.BlockIdx = DI.S0;
          goto TakeEdge;
        case ValueKind::Branch: {
          bool Cond = slot(C.Frame, C.DB->Ops[DI.FirstOp]).asBool();
          if (C.Profiles) {
            C.DB->ensureFresh(C.Profiles);
            profile::BranchProfile *&BP = C.DB->BranchCache[DI.ProfileSlot];
            if (!BP) {
              if (!C.DB->MP)
                C.DB->MP = &C.Profiles->methodProfile(C.Body.ProfileName);
              BP = &C.DB->MP->Branches[DI.I->profileId()];
            }
            if (Cond)
              ++BP->TrueCount;
            else
              ++BP->FalseCount;
          }
          C.BlockIdx = Cond ? DI.S0 : DI.S1;
          goto TakeEdge;
        }
        case ValueKind::Guard: {
          RtValue Recv = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          // Null receivers fail the guard too: the baseline re-dispatch
          // then reproduces the virtual call's null-pointer trap exactly.
          bool Pass =
              Recv.isObject() && TheHeap.object(Recv.Ref).ClassId == DI.A;
          if (Pass && Env.shouldForceGuardFailure(C.Body.ProfileName,
                                                  DI.I->profileId()))
            Pass = false;
          C.BlockIdx = Pass ? DI.S0 : DI.S1;
          goto TakeEdge;
        }
        case ValueKind::Return:
          return DI.NumOps != 0 ? slot(C.Frame, C.DB->Ops[DI.FirstOp])
                                : RtValue::nullVal();
        case ValueKind::Deopt: {
          const auto *D = cast<DeoptInst>(DI.I);
          std::optional<FrameMapping> Map = deoptMapping(*D);
          if (!Map)
            return RtValue::nullVal();
          transfer(C, *Map, D);
          goto BlockDone;
        }
        case ValueKind::Call: {
          *C.CycleSink += Costs.CallOverhead;
          std::vector<RtValue> CArgs;
          CArgs.reserve(DI.NumOps);
          for (uint32_t I = 0; I < DI.NumOps; ++I)
            CArgs.push_back(slot(C.Frame, C.DB->Ops[DI.FirstOp + I]));
          RtValue V = callFunction(cast<CallInst>(DI.I)->callee(), CArgs,
                                   Depth + 1);
          if (trapped())
            return RtValue::nullVal();
          if (DI.Dest >= 0)
            C.Frame[DI.Dest] = V;
          break;
        }
        case ValueKind::VirtualCall: {
          *C.CycleSink += Costs.CallOverhead + Costs.VirtualDispatchOverhead;
          const auto *VC = cast<VirtualCallInst>(DI.I);
          RtValue Recv = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          if (!Recv.isObject()) {
            trap(TrapKind::NullPointer, "receiver of " + VC->methodName());
            return RtValue::nullVal();
          }
          int ClassId = TheHeap.object(Recv.Ref).ClassId;
          const types::MethodInfo *Target = nullptr;
          if (Opts.InlineCaches || C.Profiles)
            C.DB->ensureFresh(C.Profiles);
          if (Opts.InlineCaches) {
            DecodedBody::Pic &P = C.DB->Pics[DI.ProfileSlot];
            for (uint8_t E = 0; E < P.Size; ++E)
              if (P.E[E].ClassId == ClassId) {
                Target = P.E[E].Target;
                // A hit doubles as the receiver record: the interned count
                // is &ReceiverProfile::Counts[ClassId] (null when this body
                // executes unprofiled — then a hit records nothing, exactly
                // like the reference core's compiled tier).
                if (P.E[E].Count)
                  ++*P.E[E].Count;
                else
                  assert(!C.Profiles &&
                         "profiled PIC entry lost its interned count");
                break;
              }
          }
          if (!Target) {
            Target = M.classes().resolveMethod(ClassId, VC->methodName());
            if (!Target) {
              // Record nothing for a receiver whose dispatch traps — it
              // must not pollute the histogram speculative devirt feeds on.
              trap(TrapKind::UnknownFunction, "virtual " + VC->methodName());
              return RtValue::nullVal();
            }
            uint64_t *Count = nullptr;
            DecodedBody::Pic &P = C.DB->Pics[DI.ProfileSlot];
            if (C.Profiles) {
              if (!P.RP) {
                if (!C.DB->MP)
                  C.DB->MP = &C.Profiles->methodProfile(C.Body.ProfileName);
                P.RP = &C.DB->MP->Receivers[DI.I->profileId()];
              }
              P.RP->record(ClassId);
              Count = &P.RP->Counts[ClassId];
            }
            if (Opts.InlineCaches && P.Size < DecodedBody::PicWidth) {
              P.E[P.Size] = {ClassId, Target, Count};
              ++P.Size;
            }
          }
          std::vector<RtValue> CArgs;
          CArgs.reserve(DI.NumOps);
          CArgs.push_back(Recv);
          for (uint32_t I = 1; I < DI.NumOps; ++I)
            CArgs.push_back(slot(C.Frame, C.DB->Ops[DI.FirstOp + I]));
          RtValue V = callFunction(Target->QualifiedName, CArgs, Depth + 1);
          if (trapped())
            return RtValue::nullVal();
          if (DI.Dest >= 0)
            C.Frame[DI.Dest] = V;
          break;
        }
        case ValueKind::BinOp: {
          const RtValue &L = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          const RtValue &R = slot(C.Frame, C.DB->Ops[DI.FirstOp + 1]);
          using Op = BinOpInst::Opcode;
          Op Opcode = static_cast<Op>(DI.Sub);
          RtValue V;
          // Equality covers references, bools and ints uniformly.
          if (Opcode == Op::Eq)
            V = RtValue::boolVal(L.equals(R));
          else if (Opcode == Op::Ne)
            V = RtValue::boolVal(!L.equals(R));
          else if (L.isBool()) {
            std::optional<bool> Folded =
                foldBoolBinOp(Opcode, L.asBool(), R.asBool());
            assert(Folded && "invalid bool binop survived sema");
            V = RtValue::boolVal(*Folded);
          } else if (BinOpInst::isComparison(Opcode)) {
            V = RtValue::boolVal(
                foldIntComparison(Opcode, L.asInt(), R.asInt()));
          } else {
            std::optional<int64_t> Folded =
                foldIntBinOp(Opcode, L.asInt(), R.asInt());
            if (!Folded) {
              trap(TrapKind::DivisionByZero, "binop");
              return RtValue::nullVal();
            }
            V = RtValue::intVal(*Folded);
          }
          C.Frame[DI.Dest] = V;
          break;
        }
        case ValueKind::UnOp: {
          RtValue V = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          C.Frame[DI.Dest] =
              static_cast<UnOpInst::Opcode>(DI.Sub) == UnOpInst::Opcode::Neg
                  ? RtValue::intVal(-static_cast<int64_t>(
                        static_cast<uint64_t>(V.asInt())))
                  : RtValue::boolVal(!V.asBool());
          break;
        }
        case ValueKind::NewObject: {
          if (TheHeap.exhausted()) {
            trap(TrapKind::HeapExhausted, C.Body.F->name());
            return RtValue::nullVal();
          }
          C.Frame[DI.Dest] = RtValue::objectVal(TheHeap.allocObject(DI.A));
          break;
        }
        case ValueKind::NewArray: {
          if (TheHeap.exhausted()) {
            trap(TrapKind::HeapExhausted, C.Body.F->name());
            return RtValue::nullVal();
          }
          int64_t Len = slot(C.Frame, C.DB->Ops[DI.FirstOp]).asInt();
          if (Len < 0) {
            trap(TrapKind::IndexOutOfBounds, "negative array length");
            return RtValue::nullVal();
          }
          C.Frame[DI.Dest] = RtValue::arrayVal(TheHeap.allocArray(DI.A != 0,
                                                                Len));
          break;
        }
        case ValueKind::LoadField: {
          RtValue Obj = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          if (!Obj.isObject()) {
            trap(TrapKind::NullPointer, "field load");
            return RtValue::nullVal();
          }
          C.Frame[DI.Dest] = TheHeap.object(Obj.Ref).Fields[DI.A];
          break;
        }
        case ValueKind::StoreField: {
          RtValue Obj = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          if (!Obj.isObject()) {
            trap(TrapKind::NullPointer, "field store");
            return RtValue::nullVal();
          }
          TheHeap.object(Obj.Ref).Fields[DI.A] =
              slot(C.Frame, C.DB->Ops[DI.FirstOp + 1]);
          break;
        }
        case ValueKind::LoadIndex: {
          RtValue Arr = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          RtValue Idx = slot(C.Frame, C.DB->Ops[DI.FirstOp + 1]);
          if (!Arr.isArray()) {
            trap(TrapKind::NullPointer, "array load");
            return RtValue::nullVal();
          }
          RtArray &A = TheHeap.array(Arr.Ref);
          int64_t I = Idx.asInt();
          if (I < 0 || static_cast<size_t>(I) >= A.Elems.size()) {
            trap(TrapKind::IndexOutOfBounds, "array load");
            return RtValue::nullVal();
          }
          C.Frame[DI.Dest] = A.Elems[static_cast<size_t>(I)];
          break;
        }
        case ValueKind::StoreIndex: {
          RtValue Arr = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          RtValue Idx = slot(C.Frame, C.DB->Ops[DI.FirstOp + 1]);
          RtValue V = slot(C.Frame, C.DB->Ops[DI.FirstOp + 2]);
          if (!Arr.isArray()) {
            trap(TrapKind::NullPointer, "array store");
            return RtValue::nullVal();
          }
          RtArray &A = TheHeap.array(Arr.Ref);
          int64_t I = Idx.asInt();
          if (I < 0 || static_cast<size_t>(I) >= A.Elems.size()) {
            trap(TrapKind::IndexOutOfBounds, "array store");
            return RtValue::nullVal();
          }
          A.Elems[static_cast<size_t>(I)] = V;
          break;
        }
        case ValueKind::ArrayLength: {
          RtValue Arr = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          if (!Arr.isArray()) {
            trap(TrapKind::NullPointer, "array length");
            return RtValue::nullVal();
          }
          C.Frame[DI.Dest] = RtValue::intVal(
              static_cast<int64_t>(TheHeap.array(Arr.Ref).Elems.size()));
          break;
        }
        case ValueKind::InstanceOf: {
          RtValue Obj = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          C.Frame[DI.Dest] = RtValue::boolVal(
              Obj.isObject() &&
              M.classes().isSubclassOf(TheHeap.object(Obj.Ref).ClassId,
                                       DI.A));
          break;
        }
        case ValueKind::CheckCast: {
          RtValue Obj = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          if (!Obj.isNull()) { // null casts to anything, like Java.
            if (!Obj.isObject() ||
                !M.classes().isSubclassOf(TheHeap.object(Obj.Ref).ClassId,
                                          DI.A)) {
              trap(TrapKind::ClassCastFailure, C.Body.F->name());
              return RtValue::nullVal();
            }
          }
          C.Frame[DI.Dest] = Obj;
          break;
        }
        case ValueKind::GetClassId: {
          RtValue Obj = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          if (!Obj.isObject()) {
            trap(TrapKind::NullPointer, "getclassid");
            return RtValue::nullVal();
          }
          C.Frame[DI.Dest] =
              RtValue::intVal(TheHeap.object(Obj.Ref).ClassId);
          break;
        }
        case ValueKind::NullCheck: {
          RtValue Obj = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          if (Obj.isNull()) {
            trap(TrapKind::NullPointer, "nullcheck");
            return RtValue::nullVal();
          }
          C.Frame[DI.Dest] = Obj;
          break;
        }
        case ValueKind::Print: {
          RtValue V = slot(C.Frame, C.DB->Ops[DI.FirstOp]);
          if (V.isBool())
            Result.Output += V.asBool() ? "true\n" : "false\n";
          else
            Result.Output += formatString(
                "%lld\n", static_cast<long long>(V.asInt()));
          break;
        }
        case ValueKind::OsrEntry:
          // Only materialized by OSR transfers (which resume past the
          // leading run); never dispatched.
          incline_unreachable("OsrEntry executed outside an OSR transfer");
        default:
          incline_unreachable("unhandled instruction in interpreter");
        }
      }
      // The block fell off its end (unterminated — unverified IR): re-run
      // it until the step budget traps, matching the reference core.
      continue;
    TakeEdge:
      // Every taken CFG edge is a safepoint; OSR-eligible interpreted
      // bodies also report it (see the reference core).
      C.PrevBB = Blk.BB;
      Env.onSafepoint();
      if (C.Body.OsrEligible && !C.Body.Compiled)
        PendingOsr = Env.onOsrEdge(C.Body.ProfileName, *Blk.BB,
                                   *C.DB->Blocks[C.BlockIdx].BB);
    BlockDone:;
    }
  }

  /// The one fast-core frame transfer: moves the live values along \p Map
  /// into a fresh frame of its target and resumes there, past the resume
  /// block's phis. \p Deopt is the deoptimization that asked for it, or
  /// null for an OSR entry. Values are copied, not read: one the source
  /// frame never evaluated stays poisoned on the other side.
  void transfer(FastCursor &C, const FrameMapping &Map,
                const DeoptInst *Deopt) {
    DecodedBody &TDB = Bodies->bodyFor(*Map.Target, Costs);
    std::vector<RtValue> Frame = TDB.makeFrame(0);
    for (const FrameMapping::Move &Mv : Map.Moves) {
      int32_t To = TDB.refOf(*Mv.To), From = C.DB->refOf(*Mv.From);
      assert(To >= 0 && From >= 0 && "frame mapping names an unslotted value");
      Frame[size_t(To)] = C.Frame[size_t(From)];
    }
    retarget(C.Body, Map, Deopt);
    C.DB = &TDB;
    C.Frame = std::move(Frame);
    C.BlockIdx = TDB.blockIndexOf(*Map.ResumeBlock);
    C.ResumeInstIdx = Map.ResumeIndex - TDB.Blocks[C.BlockIdx].NumPhis;
    C.SkipPhis = true;
    C.PrevBB = nullptr;
    enterTier(C);
  }

  //===------------------------------------------------------------------===//
  // Reference core: the original map-frame execution, runtime-selectable
  // as the differential oracle's semantic baseline.
  //===------------------------------------------------------------------===//

  /// Where a reference-core activation stands (see FastCursor).
  struct RefCursor {
    ResolvedBody Body;
    std::unordered_map<const Value *, RtValue> Frame;
    const BasicBlock *BB = nullptr;
    const BasicBlock *PrevBB = nullptr;
    /// Set by a transfer: the next block iteration skips phi evaluation and
    /// begins at instruction ResumeIndex of BB.
    bool SkipPhis = false;
    size_t ResumeIndex = 0;
    profile::ProfileTable *Profiles = nullptr;
  };

  RtValue execBody(ResolvedBody Callee, const std::vector<RtValue> &Args,
                   size_t Depth) {
    assert(Args.size() == Callee.F->numParams() && "argument count mismatch");
    RefCursor C;
    C.Body = std::move(Callee);
    C.Profiles = C.Body.Compiled ? nullptr : Env.profiles();
    for (size_t I = 0; I < Args.size(); ++I)
      C.Frame[C.Body.F->arg(I)] = Args[I];
    C.BB = C.Body.F->entry();

    // Set by an OSR poll at a block transition: the frame transfers into
    // this OSR variant once the target block's phis have been evaluated
    // (the entry descriptors may read this iteration's phi values).
    const Function *PendingOsr = nullptr;
    while (true) {
      if (trapped())
        return RtValue::nullVal();
      if (checkBudgets(C.Body.F->name()))
        return RtValue::nullVal();

      // Phis evaluate in parallel against the edge taken.
      BasicBlock::PhiList Phis = C.BB->phis();
      if (!C.SkipPhis && !Phis.empty()) {
        assert(C.PrevBB && "phi in entry block");
        std::vector<RtValue> NewVals;
        NewVals.reserve(Phis.size());
        for (PhiInst *Phi : Phis) {
          Value *In = Phi->incomingValueFor(C.PrevBB);
          assert(In && "phi has no entry for the taken edge");
          NewVals.push_back(eval(In, C.Frame));
        }
        for (size_t I = 0; I < Phis.size(); ++I)
          C.Frame[Phis[I]] = NewVals[I];
      }
      size_t Begin = C.SkipPhis ? C.ResumeIndex : Phis.size();
      C.SkipPhis = false;

      if (PendingOsr) {
        // The loop header's phis now hold this iteration's values; hand
        // the frame to the compiled OSR body.
        std::optional<FrameMapping> Map = osrMapping(*PendingOsr, *C.Body.F);
        PendingOsr = nullptr;
        if (!Map)
          return RtValue::nullVal();
        transfer(C, *Map, nullptr);
        continue;
      }

      for (size_t Index = Begin; Index < C.BB->size(); ++Index) {
        const Instruction *Inst = C.BB->instructions()[Index].get();
        ++Result.Steps;
        charge(Costs.opCost(*Inst), C.Body.Compiled);
        if (!C.Body.Compiled)
          charge(Costs.InterpDispatchCost, false);

        if (Inst->isTerminator()) {
          switch (Inst->kind()) {
          case ValueKind::Jump:
            C.PrevBB = C.BB;
            C.BB = cast<JumpInst>(Inst)->target();
            Env.onSafepoint();
            break;
          case ValueKind::Branch: {
            const auto *Br = cast<BranchInst>(Inst);
            bool Cond = eval(Br->condition(), C.Frame).asBool();
            if (C.Profiles) {
              profile::BranchProfile &BP =
                  C.Profiles->methodProfile(C.Body.ProfileName)
                      .Branches[Br->profileId()];
              if (Cond)
                ++BP.TrueCount;
              else
                ++BP.FalseCount;
            }
            C.PrevBB = C.BB;
            C.BB = Cond ? Br->trueSuccessor() : Br->falseSuccessor();
            Env.onSafepoint();
            break;
          }
          case ValueKind::Return: {
            const auto *Ret = cast<ReturnInst>(Inst);
            return Ret->hasValue() ? eval(Ret->returnValue(), C.Frame)
                                   : RtValue::nullVal();
          }
          case ValueKind::Guard: {
            const auto *G = cast<GuardInst>(Inst);
            RtValue Recv = eval(G->receiver(), C.Frame);
            // Null receivers fail the guard too: the baseline re-dispatch
            // then reproduces the virtual call's null-pointer trap exactly.
            bool Pass = Recv.isObject() &&
                        TheHeap.object(Recv.Ref).ClassId ==
                            G->expectedClassId();
            if (Pass && Env.shouldForceGuardFailure(C.Body.ProfileName,
                                                    G->profileId()))
              Pass = false;
            C.PrevBB = C.BB;
            C.BB = Pass ? G->passSuccessor() : G->failSuccessor();
            Env.onSafepoint();
            break;
          }
          case ValueKind::Deopt: {
            const auto *D = cast<DeoptInst>(Inst);
            std::optional<FrameMapping> Map = deoptMapping(*D);
            if (!Map)
              return RtValue::nullVal();
            transfer(C, *Map, D);
            break;
          }
          default:
            incline_unreachable("unknown terminator");
          }
          // OSR-eligible interpreted bodies report every taken edge: the
          // env counts backedges there and may offer an OSR body anchored
          // at the new block. Transfers clear PrevBB (no CFG edge was
          // taken) and returns leave the frame, so neither polls.
          if (C.Body.OsrEligible && !C.Body.Compiled && C.PrevBB)
            PendingOsr = Env.onOsrEdge(C.Body.ProfileName, *C.PrevBB, *C.BB);
          break; // Proceed with the next block.
        }

        RtValue V = execInstruction(Inst, C.Frame, C.Body, Depth, C.Profiles);
        if (trapped())
          return RtValue::nullVal();
        if (!Inst->type().isVoid())
          C.Frame[Inst] = V;
      }
    }
  }

  /// The one reference-core frame transfer: evaluates every move's source
  /// in the current frame into a fresh frame of \p Map's target and resumes
  /// there. \p Deopt is the deoptimization that asked for it, or null for
  /// an OSR entry.
  void transfer(RefCursor &C, const FrameMapping &Map,
                const DeoptInst *Deopt) {
    std::unordered_map<const Value *, RtValue> Frame;
    for (const FrameMapping::Move &Mv : Map.Moves)
      Frame[Mv.To] = eval(Mv.From, C.Frame);
    retarget(C.Body, Map, Deopt);
    C.Frame = std::move(Frame);
    C.BB = Map.ResumeBlock;
    C.ResumeIndex = Map.ResumeIndex;
    C.SkipPhis = true;
    C.PrevBB = nullptr;
    C.Profiles = C.Body.Compiled ? nullptr : Env.profiles();
  }

  RtValue eval(const Value *V,
               const std::unordered_map<const Value *, RtValue> &Frame) {
    if (const auto *CI = dyn_cast<ConstInt>(V))
      return RtValue::intVal(CI->value());
    if (const auto *CB = dyn_cast<ConstBool>(V))
      return RtValue::boolVal(CB->value());
    if (isa<ConstNull>(V))
      return RtValue::nullVal();
    auto It = Frame.find(V);
    if (It == Frame.end()) {
      // Use-before-def that slipped past the verifier: historically an
      // assert-only check, so builds without assertions dereferenced
      // end(). Trap unconditionally instead — this repo keeps asserts on
      // in every build type (see the top-level CMakeLists), so an assert
      // here would make the recovery path untestable dead code.
      trap(TrapKind::Deoptimization, "use of unevaluated value");
      return RtValue::nullVal();
    }
    return It->second;
  }

  RtValue execInstruction(const Instruction *Inst,
                          std::unordered_map<const Value *, RtValue> &Frame,
                          const ResolvedBody &Body, size_t Depth,
                          profile::ProfileTable *Profiles) {
    switch (Inst->kind()) {
    case ValueKind::BinOp:
      return execBinOp(cast<BinOpInst>(Inst), Frame);
    case ValueKind::UnOp: {
      const auto *Un = cast<UnOpInst>(Inst);
      RtValue V = eval(Un->operand(0), Frame);
      if (Un->opcode() == UnOpInst::Opcode::Neg)
        return RtValue::intVal(
            -static_cast<int64_t>(static_cast<uint64_t>(V.asInt())));
      return RtValue::boolVal(!V.asBool());
    }
    case ValueKind::Call: {
      const auto *Call = cast<CallInst>(Inst);
      charge(Costs.CallOverhead, Body.Compiled);
      std::vector<RtValue> Args;
      Args.reserve(Call->numArgs());
      for (size_t I = 0; I < Call->numArgs(); ++I)
        Args.push_back(eval(Call->arg(I), Frame));
      return callFunction(Call->callee(), Args, Depth + 1);
    }
    case ValueKind::VirtualCall: {
      const auto *VCall = cast<VirtualCallInst>(Inst);
      charge(Costs.CallOverhead + Costs.VirtualDispatchOverhead,
             Body.Compiled);
      RtValue Recv = eval(VCall->receiver(), Frame);
      if (!Recv.isObject()) {
        trap(TrapKind::NullPointer, "receiver of " + VCall->methodName());
        return RtValue::nullVal();
      }
      int ClassId = TheHeap.object(Recv.Ref).ClassId;
      const types::MethodInfo *Target =
          M.classes().resolveMethod(ClassId, VCall->methodName());
      if (!Target) {
        trap(TrapKind::UnknownFunction,
             "virtual " + VCall->methodName());
        return RtValue::nullVal();
      }
      // Record only after successful resolution: a receiver whose dispatch
      // traps must not pollute the histogram speculative devirt feeds on.
      if (Profiles)
        Profiles->methodProfile(Body.ProfileName)
            .Receivers[VCall->profileId()]
            .record(ClassId);
      std::vector<RtValue> Args;
      Args.reserve(VCall->numArgs() + 1);
      Args.push_back(Recv);
      for (size_t I = 0; I < VCall->numArgs(); ++I)
        Args.push_back(eval(VCall->arg(I), Frame));
      return callFunction(Target->QualifiedName, Args, Depth + 1);
    }
    case ValueKind::NewObject: {
      if (TheHeap.exhausted()) {
        trap(TrapKind::HeapExhausted, Body.F->name());
        return RtValue::nullVal();
      }
      return RtValue::objectVal(
          TheHeap.allocObject(cast<NewObjectInst>(Inst)->classId()));
    }
    case ValueKind::NewArray: {
      const auto *New = cast<NewArrayInst>(Inst);
      if (TheHeap.exhausted()) {
        trap(TrapKind::HeapExhausted, Body.F->name());
        return RtValue::nullVal();
      }
      int64_t Len = eval(New->length(), Frame).asInt();
      if (Len < 0) {
        trap(TrapKind::IndexOutOfBounds, "negative array length");
        return RtValue::nullVal();
      }
      return RtValue::arrayVal(
          TheHeap.allocArray(New->type().isIntArray(), Len));
    }
    case ValueKind::LoadField: {
      const auto *Load = cast<LoadFieldInst>(Inst);
      RtValue Obj = eval(Load->object(), Frame);
      if (!Obj.isObject()) {
        trap(TrapKind::NullPointer, "field load");
        return RtValue::nullVal();
      }
      return TheHeap.object(Obj.Ref).Fields[Load->fieldSlot()];
    }
    case ValueKind::StoreField: {
      const auto *Store = cast<StoreFieldInst>(Inst);
      RtValue Obj = eval(Store->object(), Frame);
      if (!Obj.isObject()) {
        trap(TrapKind::NullPointer, "field store");
        return RtValue::nullVal();
      }
      TheHeap.object(Obj.Ref).Fields[Store->fieldSlot()] =
          eval(Store->storedValue(), Frame);
      return RtValue::nullVal();
    }
    case ValueKind::LoadIndex: {
      const auto *Load = cast<LoadIndexInst>(Inst);
      RtValue Arr = eval(Load->array(), Frame);
      RtValue Idx = eval(Load->index(), Frame);
      if (!Arr.isArray()) {
        trap(TrapKind::NullPointer, "array load");
        return RtValue::nullVal();
      }
      RtArray &A = TheHeap.array(Arr.Ref);
      int64_t I = Idx.asInt();
      if (I < 0 || static_cast<size_t>(I) >= A.Elems.size()) {
        trap(TrapKind::IndexOutOfBounds, "array load");
        return RtValue::nullVal();
      }
      return A.Elems[static_cast<size_t>(I)];
    }
    case ValueKind::StoreIndex: {
      const auto *Store = cast<StoreIndexInst>(Inst);
      RtValue Arr = eval(Store->array(), Frame);
      RtValue Idx = eval(Store->index(), Frame);
      RtValue V = eval(Store->storedValue(), Frame);
      if (!Arr.isArray()) {
        trap(TrapKind::NullPointer, "array store");
        return RtValue::nullVal();
      }
      RtArray &A = TheHeap.array(Arr.Ref);
      int64_t I = Idx.asInt();
      if (I < 0 || static_cast<size_t>(I) >= A.Elems.size()) {
        trap(TrapKind::IndexOutOfBounds, "array store");
        return RtValue::nullVal();
      }
      A.Elems[static_cast<size_t>(I)] = V;
      return RtValue::nullVal();
    }
    case ValueKind::ArrayLength: {
      RtValue Arr = eval(cast<ArrayLengthInst>(Inst)->array(), Frame);
      if (!Arr.isArray()) {
        trap(TrapKind::NullPointer, "array length");
        return RtValue::nullVal();
      }
      return RtValue::intVal(
          static_cast<int64_t>(TheHeap.array(Arr.Ref).Elems.size()));
    }
    case ValueKind::InstanceOf: {
      const auto *IsInst = cast<InstanceOfInst>(Inst);
      RtValue Obj = eval(IsInst->object(), Frame);
      if (!Obj.isObject())
        return RtValue::boolVal(false); // null is no instance of anything.
      return RtValue::boolVal(M.classes().isSubclassOf(
          TheHeap.object(Obj.Ref).ClassId, IsInst->testClassId()));
    }
    case ValueKind::CheckCast: {
      const auto *Cast = cast<CheckCastInst>(Inst);
      RtValue Obj = eval(Cast->object(), Frame);
      if (Obj.isNull())
        return Obj; // null casts to anything, like Java.
      if (!Obj.isObject() ||
          !M.classes().isSubclassOf(TheHeap.object(Obj.Ref).ClassId,
                                    Cast->targetClassId())) {
        trap(TrapKind::ClassCastFailure, Body.F->name());
        return RtValue::nullVal();
      }
      return Obj;
    }
    case ValueKind::GetClassId: {
      RtValue Obj = eval(cast<GetClassIdInst>(Inst)->object(), Frame);
      if (!Obj.isObject()) {
        trap(TrapKind::NullPointer, "getclassid");
        return RtValue::nullVal();
      }
      return RtValue::intVal(TheHeap.object(Obj.Ref).ClassId);
    }
    case ValueKind::NullCheck: {
      RtValue Obj = eval(cast<NullCheckInst>(Inst)->object(), Frame);
      if (Obj.isNull()) {
        trap(TrapKind::NullPointer, "nullcheck");
        return RtValue::nullVal();
      }
      return Obj;
    }
    case ValueKind::Print: {
      RtValue V = eval(cast<PrintInst>(Inst)->value(), Frame);
      if (V.isBool())
        Result.Output += V.asBool() ? "true\n" : "false\n";
      else
        Result.Output += formatString(
            "%lld\n", static_cast<long long>(V.asInt()));
      return RtValue::nullVal();
    }
    default:
      incline_unreachable("unhandled instruction in interpreter");
    }
  }

  RtValue execBinOp(const BinOpInst *Bin,
                    std::unordered_map<const Value *, RtValue> &Frame) {
    RtValue L = eval(Bin->lhs(), Frame);
    RtValue R = eval(Bin->rhs(), Frame);
    using Op = BinOpInst::Opcode;
    Op Opcode = Bin->opcode();

    // Equality covers references, bools and ints uniformly.
    if (Opcode == Op::Eq)
      return RtValue::boolVal(L.equals(R));
    if (Opcode == Op::Ne)
      return RtValue::boolVal(!L.equals(R));

    if (L.isBool()) {
      std::optional<bool> Folded = foldBoolBinOp(Opcode, L.asBool(),
                                                 R.asBool());
      assert(Folded && "invalid bool binop survived sema");
      return RtValue::boolVal(*Folded);
    }

    if (Bin->isComparison())
      return RtValue::boolVal(
          foldIntComparison(Opcode, L.asInt(), R.asInt()));

    std::optional<int64_t> Folded = foldIntBinOp(Opcode, L.asInt(), R.asInt());
    if (!Folded) {
      trap(TrapKind::DivisionByZero, "binop");
      return RtValue::nullVal();
    }
    return RtValue::intVal(*Folded);
  }

  const Module &M;
  ExecutionEnv &Env;
  const CostModel &Costs;
  const ExecLimits &Limits;
  Heap &TheHeap;
  ExecResult &Result;
  InterpOptions Opts;
  /// The pre-decoded body cache (null in Reference mode). Owned by the
  /// Interpreter (or shared by the JIT runtime); outlives every frame.
  DecodedCache *Bodies;
  /// Staging buffer for parallel phi moves. Safe as a member: phi moves
  /// never recurse into callees.
  std::vector<RtValue> PhiScratch;
  /// Deadline-poll pacing (only consulted when Limits.Deadline is set):
  /// the token reads its own clock, one poll every few thousand steps.
  uint64_t NextWallCheckAt = 0;
};

} // namespace

Interpreter::Interpreter(const ir::Module &M, ExecutionEnv &Env,
                         const CostModel &Costs, const ExecLimits &Limits,
                         InterpOptions Opts, DecodedCache *SharedBodies)
    : M(M), Env(Env), Costs(Costs), Limits(Limits), TheHeap(M.classes()),
      Opts(Opts), Bodies(SharedBodies) {
  if (!Bodies && Opts.Mode == InterpMode::Fast) {
    OwnedBodies = std::make_unique<DecodedCache>();
    Bodies = OwnedBodies.get();
  }
}

Interpreter::~Interpreter() = default;

ExecResult Interpreter::run(std::string_view Symbol,
                            const std::vector<RtValue> &Args) {
  ExecResult Result;
  FrameExecutor Exec(M, Env, Costs, Limits, TheHeap, Result, Opts, Bodies);
  Result.Return = Exec.callFunction(Symbol, Args, 0);
  return Result;
}

ExecResult incline::interp::runMain(const ir::Module &M,
                                    profile::ProfileTable *Profiles,
                                    InterpOptions Opts) {
  ModuleEnv Env(M, Profiles);
  Interpreter I(M, Env, CostModel(), ExecLimits(), Opts);
  return I.run("main");
}
