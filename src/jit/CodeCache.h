//===- jit/CodeCache.h - Bounded code cache with eviction -------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The installed-code half of the runtime's code lifecycle (DESIGN.md §12).
/// PR 4 introduced retire-on-deopt (graveyard + epoch bump) and PR 6 added
/// OSR variants; both kept the actual cache maps, the graveyard, and the
/// epoch counter inlined in JitRuntime. This class extracts them into one
/// owner and generalizes retirement into a full admit/retire/re-tier
/// lifecycle under an optional |ir| budget:
///
///  * **Ownership** — every installed method body and OSR variant lives
///    here, keyed by symbol (methods) or (symbol, baseline header block id)
///    (OSR variants). Publication stays write-once: entries are never
///    mutated in place, and removal of any kind — deopt invalidation,
///    budget eviction, forced eviction — *retires* the body to a graveyard,
///    because interpreter C++ frames up the stack may still be executing
///    it. The graveyard lives only until the runtime's outermost `run()`
///    returns: no interpreter frame outlives that call, so the runtime then
///    takes the retired bodies back (`takeRetired()`) and frees them with
///    their decoded tables. A body rejected at install never ran and is
///    destroyed at once.
///
///  * **Budget** — when `Budget > 0`, the summed instruction count of all
///    installed entries (methods *and* OSR variants) never exceeds it.
///    Installs that would overflow first evict cold entries; a body larger
///    than the whole budget is rejected outright (the runtime turns that
///    into a permanent bailout). Eviction is transactional: victims are
///    chosen before anything is retired, so a rejected install — e.g. when
///    pinned entries block — evicts nothing.
///
///  * **Eviction** — coldest-first by decayed heat: every mutator touch
///    (method resolve, OSR entry) heats an entry, `decayHeat()` halves all
///    heat, and the victim is the minimum (heat, install sequence) — i.e.
///    the coldest entry, oldest first on ties. Entries whose symbol is
///    pinned (a compilation of the symbol is in flight) are never victims.
///    Each eviction batch bumps the code epoch exactly like a deopt retire,
///    so stale resolve fast paths cannot survive; unlike a deopt retire it
///    does NOT flush the compiler's memoization cache — eviction changes no
///    assumption any cached compile work depends on, and flushing would
///    defeat re-tier memoization (the whole point of evict -> reheat ->
///    recompile being cheap).
///
/// Mutator-owned like the rest of the runtime state: publication, eviction
/// and lookups all happen on the mutator at safepoints, so no locking.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_JIT_CODECACHE_H
#define INCLINE_JIT_CODECACHE_H

#include "ir/Function.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace incline::jit {

/// Lifecycle counters of the code cache — the one authoritative place where
/// installs, retirements and occupancy are counted (minioo --stats prints
/// this as the `code-cache` line).
struct CodeCacheStats {
  uint64_t MethodInstalls = 0; ///< Method bodies ever installed.
  uint64_t OsrInstalls = 0;    ///< OSR variants ever installed.
  uint64_t Evictions = 0;      ///< Method bodies retired by budget/force.
  uint64_t OsrEvictions = 0;   ///< OSR variants retired by budget/force.
  uint64_t Invalidations = 0;  ///< Method bodies retired by a deopt.
  uint64_t OsrInvalidations = 0; ///< OSR variants retired by a deopt.
  /// Installs rejected by the budget: the body alone exceeds the whole
  /// budget, or every resident byte is pinned by in-flight compilations.
  uint64_t AdmissionRejections = 0;
  uint64_t DecayTicks = 0;     ///< decayHeat() calls (one per decay epoch).
  uint64_t LiveBytes = 0;      ///< |ir| currently installed (methods + OSR).
  uint64_t PeakLiveBytes = 0;  ///< High-water mark of LiveBytes.
  uint64_t Budget = 0;         ///< Configured bound; 0 = unbounded.
};

/// Owner of installed compiled code (method bodies and OSR variants), the
/// retired-code graveyard, and the code epoch. See file comment.
class CodeCache {
public:
  /// Header value marking a method-body key in eviction/retire summaries.
  static constexpr unsigned MethodEntry = ~0u;

  /// One retired-or-evicted entry, reported back to the runtime so it can
  /// reset the matching tier state (re-warm counters, clear Compiled bits).
  struct Key {
    std::string Symbol;
    unsigned Header = MethodEntry; ///< MethodEntry = the method body.

    bool isMethod() const { return Header == MethodEntry; }
  };

  enum class InstallStatus : uint8_t {
    Installed,
    /// The body alone exceeds the whole budget; it can never fit. The
    /// runtime records a permanent bailout (do-not-compile).
    RejectedTooBig,
    /// The body would fit but the unpinned victims cannot free enough
    /// room (the rest is pinned by in-flight compilations). Transient; the
    /// runtime backs off and retries. Eviction is transactional, so a
    /// rejected install retires nothing — Evicted is always empty here.
    RejectedPinned,
  };

  struct InstallOutcome {
    InstallStatus Status = InstallStatus::Installed;
    /// Entries evicted to make room, coldest first.
    std::vector<Key> Evicted;
  };

  explicit CodeCache(uint64_t Budget = 0) { Stats.Budget = Budget; }

  //===--------------------------------------------------------------------===//
  // Lookup.
  //===--------------------------------------------------------------------===//

  /// Installed body of \p Symbol or null. Heats the entry: this is the
  /// resolve fast path, so every compiled-tier dispatch is one touch.
  const ir::Function *lookupMethod(std::string_view Symbol);

  /// Installed OSR variant of (\p Symbol, \p Header) or null, heated on
  /// hit — an OSR entry is the loop-level analogue of a dispatch.
  const ir::Function *lookupOsr(std::string_view Symbol, unsigned Header);

  /// Read-only, heat-neutral inspection (tests, stats).
  const ir::Function *installedMethod(std::string_view Symbol) const;
  const ir::Function *installedOsr(std::string_view Symbol,
                                   unsigned Header) const;

  //===--------------------------------------------------------------------===//
  // Install / retire.
  //===--------------------------------------------------------------------===//

  /// Installs \p Code as \p Symbol's method body, evicting cold unpinned
  /// entries as needed. The symbol must not already have a body installed
  /// (the runtime's publish discipline guarantees it; asserted — a slip in
  /// Release retires the old body instead of destroying it).
  InstallOutcome installMethod(std::string_view Symbol,
                               std::unique_ptr<ir::Function> Code);

  /// Installs \p Code as the OSR variant of (\p Symbol, \p Header).
  InstallOutcome installOsr(std::string_view Symbol, unsigned Header,
                            std::unique_ptr<ir::Function> Code);

  /// Deopt-driven invalidation: retires \p Symbol's method body and every
  /// OSR variant of it to the graveyard and bumps the epoch once if
  /// anything was retired. Ignores pins — a deopt is ground truth; the
  /// in-flight compilation's outcome will install against fresh state.
  /// Returns the retired keys.
  std::vector<Key> invalidate(std::string_view Symbol);

  /// Forced eviction (chaos hook, tests): retires \p Symbol's method body
  /// and OSR variants exactly like budget eviction — counted as evictions,
  /// epoch bumped — but *respects pins* (an in-flight symbol is untouched).
  std::vector<Key> evict(std::string_view Symbol);

  //===--------------------------------------------------------------------===//
  // Pinning, heat, epoch.
  //===--------------------------------------------------------------------===//

  /// Pins \p Symbol while a compilation of it is in flight: none of its
  /// entries can be a budget-eviction victim until the matching unpin.
  /// Counted, so overlapping method + OSR tasks nest.
  void pin(std::string_view Symbol);
  void unpin(std::string_view Symbol);
  bool pinned(std::string_view Symbol) const;

  /// Halves every entry's heat (one decay epoch). Entries that were never
  /// touched since the last decay converge to 0 and become eviction
  /// victims in install-sequence order.
  void decayHeat();

  /// Hands every retired body to the caller and empties the graveyard.
  /// Only safe when no interpreter frame can be executing one of them —
  /// the runtime calls it when its outermost run() returns.
  std::vector<std::unique_ptr<ir::Function>> takeRetired() {
    return std::exchange(Graveyard, {});
  }
  /// Retired bodies waiting for takeRetired() (tests).
  size_t retiredCount() const { return Graveyard.size(); }

  /// Monotone counter bumped by every retirement batch (invalidation or
  /// eviction). See JitRuntime::codeEpoch().
  uint64_t epoch() const { return Epoch; }

  /// Total |ir| of installed *method* bodies — the i-cache pressure input
  /// (kept OSR-exclusive for continuity with the pre-lifecycle harness
  /// numbers; OSR variants share the method's working set).
  uint64_t methodBytes() const { return MethodBytes; }
  /// Total |ir| of everything installed — what the budget bounds.
  uint64_t liveBytes() const { return Stats.LiveBytes; }
  uint64_t budget() const { return Stats.Budget; }

  const CodeCacheStats &stats() const { return Stats; }

private:
  struct Entry {
    std::unique_ptr<ir::Function> Code;
    uint64_t Size = 0; ///< instructionCount() at install time.
    uint64_t Heat = 0;
    uint64_t InstallSeq = 0; ///< Tie-break: older entries evict first.
  };

  /// Moves the body to the graveyard and adjusts occupancy. Epoch is the
  /// caller's responsibility (one bump per batch).
  void retireEntry(Entry &E, bool IsMethod);
  /// Evicts cold unpinned entries until \p NeedBytes fit under the budget.
  /// Transactional: victims are selected before anything is retired, so on
  /// success the victims are appended to \p Out (coldest first) and on
  /// failure (pinned entries block) *nothing* was evicted.
  bool makeRoom(uint64_t NeedBytes, std::vector<Key> &Out);
  void bumpLive(uint64_t Bytes);

  std::map<std::string, Entry, std::less<>> Methods;
  std::map<std::pair<std::string, unsigned>, Entry> OsrVariants;
  std::map<std::string, unsigned, std::less<>> Pins;

  /// Retired code parked until takeRetired(): interpreter frames may still
  /// be executing these bodies (the write-once publish contract).
  std::vector<std::unique_ptr<ir::Function>> Graveyard;

  CodeCacheStats Stats;
  uint64_t MethodBytes = 0;
  uint64_t Epoch = 0;
  uint64_t NextInstallSeq = 0;
};

} // namespace incline::jit

#endif // INCLINE_JIT_CODECACHE_H
