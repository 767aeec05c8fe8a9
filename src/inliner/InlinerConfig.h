//===- inliner/InlinerConfig.h - All inliner tunables -----------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every knob of the incremental inliner, with the paper's tuned defaults:
/// penalty constants p1/p2/b1/b2 (Eq. 7), expansion threshold r1/r2
/// (Eq. 8), inlining threshold t1/t2 (Eq. 12), polymorphic limits (≤3
/// targets, ≥10% probability), and the 50000-node root cap. The ablation
/// switches (fixed thresholds, 1-by-1 clustering, shallow trials) are the
/// policy variants evaluated in Figures 6-9.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_INLINER_INLINERCONFIG_H
#define INCLINE_INLINER_INLINERCONFIG_H

#include <cstddef>
#include <cstdint>

namespace incline::inliner {

/// Which expansion-stop rule drives call-tree growth.
enum class ExpansionPolicyKind {
  Adaptive,      ///< Eq. 8: relative benefit vs. exp((S_ir(root)-r1)/r2).
  FixedTreeSize, ///< Classic: expand while S_ir(root) < T_e.
};

/// Which inlining-stop rule admits clusters into the root.
enum class InliningPolicyKind {
  Adaptive,      ///< Eq. 12: ratio vs. t1 * 2^((|root|+|n|)/(16*t2)).
  FixedRootSize, ///< Classic: inline while |ir(root)| < T_i.
};

/// Lifetime/sharing of the deep-trial memoization cache (TrialCache.h).
enum class TrialCacheMode {
  Off,    ///< Every trial recomputed from scratch (seed behavior).
  Shared, ///< One compiler-lifetime cache shared across compilations and
          ///< compile worker threads.
};

/// Full configuration of the incremental inlining algorithm.
struct InlinerConfig {
  //===--------------------------------------------------------------------===//
  // Exploration penalty psi (Eq. 7). Paper-tuned values.
  //===--------------------------------------------------------------------===//
  double P1 = 1e-3;
  double P2 = 1e-4;
  double B1 = 0.5;
  double B2 = 10.0;

  //===--------------------------------------------------------------------===//
  // Expansion threshold (Eq. 8): expand a cutoff when
  //   B_L(n)/|ir(n)| >= exp((S_ir(root) - R1) / R2).
  //===--------------------------------------------------------------------===//
  double R1 = 3000.0;
  double R2 = 500.0;
  ExpansionPolicyKind ExpansionPolicy = ExpansionPolicyKind::Adaptive;
  /// T_e for the FixedTreeSize policy (Fig. 6 sweeps {500,1k,3k,5k,7k}).
  double FixedExpansionThreshold = 1000.0;

  //===--------------------------------------------------------------------===//
  // Inlining threshold (Eq. 12). The paper's Graal-tuned T1 is 0.005; our
  // benefit units run leaner (the canonicalizer counts fewer simple
  // optimizations per body than Graal's), so the substrate-tuned value is
  // lower. "We believe that these parameters depend on the compiler
  // implementation" (§IV).
  //===--------------------------------------------------------------------===//
  double T1 = 0.002;
  double T2 = 120.0;
  InliningPolicyKind InliningPolicy = InliningPolicyKind::Adaptive;
  /// T_i for the FixedRootSize policy (Fig. 7 sweeps {1k,3k,6k}).
  double FixedInliningThreshold = 3000.0;

  //===--------------------------------------------------------------------===//
  // Heuristic ablation switches (Figures 8 and 9).
  //===--------------------------------------------------------------------===//
  /// Listing 6 cluster merging; false = every method its own cluster.
  bool UseClustering = true;
  /// Deep inlining trials: propagate argument types into the specialized
  /// callee copy and canonicalize it (counting N_s). False = shallow
  /// trials: no specialization below the root's direct callees.
  bool DeepTrials = true;

  //===--------------------------------------------------------------------===//
  // Polymorphic inlining (§IV).
  //===--------------------------------------------------------------------===//
  bool EnablePolymorphicInlining = true;
  size_t MaxPolymorphicTargets = 3;
  double MinReceiverProbability = 0.1;

  //===--------------------------------------------------------------------===//
  // Speculative devirtualization (guard + deoptimization; see
  // opt/SpeculativeDevirt.h). Runs on the pristine compilation clone before
  // call-tree construction so guarded direct calls participate in inlining
  // as ordinary kind-C nodes. Much stricter thresholds than the typeswitch
  // above: a wrong guess costs a deopt plus a recompile, not a slow path.
  //===--------------------------------------------------------------------===//
  bool EnableSpeculativeDevirt = true;
  double SpeculationMinProbability = 0.9;
  uint64_t SpeculationMinSamples = 8;

  //===--------------------------------------------------------------------===//
  // Minimal-slice compilation (uncommon traps; see opt/ColdBranchPruning.h).
  // Runs first on the pristine compilation clone — before devirtualization
  // and call-tree construction — so trials, guards, and the backend only
  // ever see the hot slice. Off by default: the seed configuration and the
  // deterministic compile-stream fingerprint are unchanged unless asked.
  //===--------------------------------------------------------------------===//
  bool EnableColdBranchPruning = false;
  /// Prune an edge whose observed probability is <= this (0 = never-taken
  /// edges only).
  double ColdPruneMaxProbability = 0.0;
  /// Branch executions required before the profile is trusted.
  uint64_t ColdPruneMinSamples = 16;

  //===--------------------------------------------------------------------===//
  // Round optimizations (§IV "Other optimizations").
  //===--------------------------------------------------------------------===//
  bool EnableRoundReadWriteElimination = true;
  bool EnableRoundLoopPeeling = true;

  //===--------------------------------------------------------------------===//
  // Termination and safety rails.
  //===--------------------------------------------------------------------===//
  /// "We also stop if the IR size of the root method exceeds 50000."
  size_t RootSizeCap = 50'000;
  size_t MaxRounds = 64;
  /// Cutoff expansions allowed per expansion phase before the analysis and
  /// inlining phases take their turn (the alternation the paper found to
  /// "substantially improve performance" over one-shot exploration).
  size_t MaxExpansionsPerRound = 24;
  /// Canonicalizer visit budget per specialized body.
  uint64_t TrialVisitBudget = 50'000;
  /// Deep-trial memoization (performance-only: hits are bit-identical to
  /// misses). Off by default so the seed configuration is unchanged.
  TrialCacheMode TrialCache = TrialCacheMode::Off;
  /// Entry bound of the trial cache (LRU-evicted past this).
  size_t TrialCacheCapacity = 1024;
  /// Exploration penalty for recursion (Eq. 14) is always on; this caps
  /// the depth at which recursive cutoffs may still be expanded at all.
  int MaxRecursionDepth = 8;
};

} // namespace incline::inliner

#endif // INCLINE_INLINER_INLINERCONFIG_H
