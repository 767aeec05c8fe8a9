//===- inliner/IncrementalInliner.h - The algorithm driver (Listing 1) -----===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's top-level loop: expand -> analyze -> inline, repeated until
/// termination (no cutoffs left, no change during the round, or the
/// 50000-node root cap). Between rounds the root method is re-optimized —
/// canonicalization plus the §IV "other optimizations": read-write
/// elimination (restores receiver types lost through memory) and
/// first-iteration loop peeling — and the call tree is reconciled with the
/// optimized root (deleted callsites become D nodes; new direct callsites
/// from devirtualization become fresh C nodes).
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_INLINER_INCREMENTALINLINER_H
#define INCLINE_INLINER_INCREMENTALINLINER_H

#include "inliner/CallTree.h"
#include "opt/Pass.h"

#include <memory>
#include <string>

namespace incline::inliner {

/// Outcome of one full inliner run.
struct InlinerResult {
  std::unique_ptr<ir::Function> Body; ///< The transformed root method.
  size_t Rounds = 0;
  size_t CallsitesInlined = 0;
  size_t TypeSwitchesEmitted = 0;
  size_t GuardsEmitted = 0; ///< Speculative-devirtualization guards planted.
  size_t BranchesPruned = 0; ///< Cold edges replaced with uncommon traps.
  uint64_t NodesExplored = 0;
  uint64_t OptsTriggered = 0; ///< Canonicalizer rewrites in root + trials.
  uint64_t TrialCacheHits = 0;   ///< Deep trials served from the cache.
  uint64_t TrialCacheMisses = 0; ///< Deep trials computed from scratch
                                 ///< (cache on or off).
  uint64_t TrialNanos = 0;       ///< Wall time in the deep-trial section.
  uint64_t TrialNanosSaved = 0;  ///< Trial wall time skipped via the cache.
};

/// Runs the incremental inlining algorithm on one compilation request.
class IncrementalInliner {
public:
  IncrementalInliner(const InlinerConfig &Config, const ir::Module &M,
                     const profile::ProfileTable &Profiles)
      : Config(Config), M(M), Profiles(Profiles) {}

  /// Installs the pass-execution context the round-optimization block and
  /// the deep-inlining trials run their passes under (analysis cache,
  /// per-pass observer, metrics sink). When Ctx.AM is null the run creates
  /// a private per-compilation AnalysisManager.
  void setPassContext(const opt::PassContext &Ctx) { PassCtx = Ctx; }

  /// Installs the deep-trial memoization cache the run's CallTree consults
  /// (null = trials always run fresh). See TrialCache.h.
  void setTrialCache(TrialCache *C) { Cache = C; }

  /// Consumes the compilation copy \p RootBody of the method named
  /// \p ProfileName and returns the inlined, optimized body.
  InlinerResult run(std::unique_ptr<ir::Function> RootBody,
                    std::string ProfileName);

private:
  const InlinerConfig &Config;
  const ir::Module &M;
  const profile::ProfileTable &Profiles;
  opt::PassContext PassCtx;
  TrialCache *Cache = nullptr;
};

} // namespace incline::inliner

#endif // INCLINE_INLINER_INCREMENTALINLINER_H
