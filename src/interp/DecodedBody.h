//===- interp/DecodedBody.h - Pre-decoded execution tables -----------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tier-0 speed layer (DESIGN.md §13): a per-`ir::Function` pre-decoded
/// body computed once and cached, so the interpreter's hot loop touches no
/// hash map, allocates nothing, and resolves no string-keyed profile:
///
///  * **Dense slots** — every argument and non-void instruction gets a
///    frame slot; frames become `std::vector<RtValue>` indexed by slot.
///    Constants occupy a read-only tail of the frame (copied from the
///    decoded constant pool at frame creation), so *every* operand read is
///    one unconditional vector index.
///
///  * **Pre-resolved phi moves** — per (block, predecessor edge) move
///    lists replace the per-iteration `BasicBlock::phis()` allocation and
///    per-phi incoming-value scans. Duplicate predecessor edges are
///    deduplicated (a phi's incoming value is identical across them).
///
///  * **Polymorphic inline caches** — each VirtualCall site owns a small
///    fixed-width ClassId -> MethodInfo* cache that doubles as the
///    receiver-profile recording site: a hit bumps the interned receiver
///    count, a miss falls through to `ClassHierarchy::resolveMethod` and
///    (on success) records + fills the cache. Profile *content* stays
///    bit-equal to the reference interpreter's tables.
///
///  * **Interned profile handles** — the `MethodProfile&` plus per-site
///    branch/receiver entries are resolved once and cached here.
///    `ProfileTable::decay()` erases zeroed inner entries, so every cached
///    handle is guarded by the table's `decayEpoch()`: `ensureFresh()`
///    compares (table pointer, epoch) and flushes all caches on mismatch.
///
/// Lifetime: a `DecodedCache` keys bodies by `Function::uniqueId()`, which
/// is process-unique and never reused, so an erased key can never alias a
/// later function. The runtime's code-cache graveyard keeps every retired
/// `ir::Function` alive until the outermost `JitRuntime::run()` returns —
/// no interpreter frame outlives that call — and only then frees the
/// function and `erase()`s its decoded body together, so a cached body can
/// never dangle mid-run. Decoded tables
/// bake the cost model's per-op costs, so one cache must only ever serve
/// one `CostModel` (the runtime always uses the default).
///
/// Threading: decoded tables are immutable after construction; the mutable
/// profile caches (PICs, interned handles) are touched only by the mutator
/// thread, like every other runtime profile structure. Compile workers see
/// profile snapshots, never this cache.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_INTERP_DECODEDBODY_H
#define INCLINE_INTERP_DECODEDBODY_H

#include "interp/CostModel.h"
#include "interp/RtValue.h"
#include "ir/Instruction.h"
#include "profile/ProfileData.h"
#include "types/ClassHierarchy.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace incline::interp {

/// One function's pre-decoded execution tables plus its per-site profile
/// caches. Produced by DecodedCache::bodyFor; immutable except for the
/// profile-cache section at the bottom.
class DecodedBody {
public:
  /// Poison marker for Debug frames: a Kind value no real RtValue carries.
  /// Reading a poisoned slot means use-before-def slipped past the
  /// verifier; the slot-frame path asserts on it (mirroring the reference
  /// path's eval assert) while Release reads a defined value.
  static constexpr auto PoisonKind = static_cast<RtValue::Kind>(0xEE);

  /// Fixed PIC width before a site goes megamorphic (falls through to
  /// resolveMethod on every new class while still recording).
  static constexpr unsigned PicWidth = 4;

  /// One decoded non-phi instruction. Operand references index the frame
  /// directly (value slots first, then the constant tail).
  struct Inst {
    const ir::Instruction *I = nullptr; ///< For slow paths and profileIds.
    ir::ValueKind Kind;
    uint8_t Sub = 0;      ///< BinOp/UnOp opcode.
    int32_t Dest = -1;    ///< Result slot; -1 for void results.
    uint32_t FirstOp = 0; ///< Index into Ops.
    uint32_t NumOps = 0;
    uint32_t Cost = 0;    ///< CostModel::opCost, baked at decode.
    int32_t A = 0;        ///< fieldSlot/classId/isIntArray aux payload.
    uint32_t ProfileSlot = 0; ///< BranchCache (Branch) / Pics (VirtualCall).
    uint32_t S0 = 0, S1 = 0;  ///< Successor decoded-block indices.
  };

  /// One pre-resolved phi move: frame[Dest] = frame[Src] (parallel within
  /// an edge's move list — the executor stages reads before writes).
  struct PhiMove {
    int32_t Dest = 0;
    int32_t Src = 0;
  };

  /// The move list of one deduplicated predecessor edge.
  struct Edge {
    const ir::BasicBlock *Pred = nullptr;
    uint32_t MovesBegin = 0;
    uint32_t MovesCount = 0;
  };

  struct Block {
    const ir::BasicBlock *BB = nullptr;
    uint32_t FirstInst = 0; ///< Index into Insts (phis excluded).
    uint32_t NumInsts = 0;
    uint32_t FirstEdge = 0;
    uint32_t NumEdges = 0;
    uint32_t NumPhis = 0;
  };

  DecodedBody(const ir::Function &F, const CostModel &Costs);

  uint32_t frameSize() const { return NumSlots + uint32_t(ConstPool.size()); }

  /// A fresh frame: value slots null (poisoned past the arguments in
  /// Debug), constant tail pre-filled.
  std::vector<RtValue> makeFrame(size_t NumArgs) const {
    std::vector<RtValue> Frame(frameSize());
#ifndef NDEBUG
    for (uint32_t S = uint32_t(NumArgs); S < NumSlots; ++S)
      Frame[S].K = PoisonKind;
#else
    (void)NumArgs;
#endif
    for (size_t C = 0; C < ConstPool.size(); ++C)
      Frame[NumSlots + C] = ConstPool[C];
    return Frame;
  }

  /// Frame reference of \p V, a value of this body's function: an argument
  /// by index, an instruction by instId, a constant by pool index. -1 for a
  /// void instruction or a constant no operand reads.
  int32_t refOf(const ir::Value &V) const;

  /// Decoded index of \p BB, a block of this body's function.
  uint32_t blockIndexOf(const ir::BasicBlock &BB) const;

  //===--------------------------------------------------------------------===//
  // Immutable decode tables (filled by the constructor).
  //===--------------------------------------------------------------------===//

  std::vector<Inst> Insts;
  std::vector<int32_t> Ops; ///< Operand frame indices, NumOps per Inst.
  std::vector<PhiMove> Moves;
  std::vector<Edge> Edges;
  std::vector<Block> Blocks;
  std::vector<RtValue> ConstPool;
  std::vector<const ir::Value *> ConstValues; ///< Parallel to ConstPool.
  std::vector<int32_t> SlotByInstId;          ///< -1 for void results.

  //===--------------------------------------------------------------------===//
  // Mutator-owned profile caches (interned handles + PICs). Guarded by
  // (PTable, PEpoch): decay()/clear() bump the table's epoch and every
  // recording site calls ensureFresh() before touching a cached pointer.
  //===--------------------------------------------------------------------===//

  struct Pic {
    struct Entry {
      int ClassId = 0;
      const types::MethodInfo *Target = nullptr;
      /// Interned &ReceiverProfile::Counts[ClassId]; null when the body
      /// executes unprofiled (hits still dispatch, nothing is recorded).
      uint64_t *Count = nullptr;
    };
    Entry E[PicWidth];
    uint8_t Size = 0;
    /// Interned receiver histogram of this site (megamorphic fallthrough
    /// and the no-PIC ablation record through it).
    profile::ReceiverProfile *RP = nullptr;
  };

  profile::ProfileTable *PTable = nullptr;
  uint64_t PEpoch = 0;
  profile::MethodProfile *MP = nullptr;
  std::vector<profile::BranchProfile *> BranchCache; ///< One per Branch.
  std::vector<Pic> Pics;                             ///< One per VirtualCall.

  /// Revalidates every interned handle against \p Profiles and its decay
  /// epoch; flushes all caches when either moved. Cheap on the fast path:
  /// two compares.
  void ensureFresh(profile::ProfileTable *Profiles) {
    uint64_t Epoch = Profiles ? Profiles->decayEpoch() : 0;
    if (PTable == Profiles && PEpoch == Epoch)
      return;
    flushProfileCaches(Profiles, Epoch);
  }

private:
  void flushProfileCaches(profile::ProfileTable *Profiles, uint64_t Epoch);

  uint32_t NumSlots = 0;
};

/// Cache of decoded bodies keyed by `Function::uniqueId()` (process-unique,
/// never reused). The JIT runtime owns one per runtime; a standalone
/// Interpreter owns a private one. Values are heap-allocated so pointers
/// held by executing frames survive rehashing.
class DecodedCache {
public:
  /// The decoded body of \p F, decoding on first touch. \p Costs must be
  /// the same model for every call on one cache (costs are baked in).
  DecodedBody &bodyFor(const ir::Function &F, const CostModel &Costs);

  /// Drops the decoded body of the function with \p UniqueId, if any. The
  /// caller guarantees no frame still executes it.
  void erase(uint64_t UniqueId) { Bodies.erase(UniqueId); }

  size_t size() const { return Bodies.size(); }

private:
  std::unordered_map<uint64_t, std::unique_ptr<DecodedBody>> Bodies;
};

} // namespace incline::interp

#endif // INCLINE_INTERP_DECODEDBODY_H
