//===- inliner/CallTree.h - The partial call tree (Listing 2) --------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The partial call tree of §III-A. Each node represents one callsite in
/// its parent's *specialized body* and carries:
///
///  * its kind — C (cutoff, not yet expanded), E (expanded, body attached),
///    D (deleted by an optimization), G (cannot be inlined), and P
///    (polymorphic callsite speculated from the receiver profile);
///  * a pointer to the callsite instruction in the parent's body;
///  * for E nodes, the *specialized* clone of the callee: argument types
///    propagated from the callsite and canonicalized (deep inlining
///    trials), which is why a call tree — not a call graph — is used:
///    every node can be specialized for its unique calling context;
///  * the metrics feeding the paper's formulas: the callsite frequency
///    f(n), the deep-trial optimization count N_s, the more-concrete
///    argument count for cutoffs, and the recursion depth d(n).
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_INLINER_CALLTREE_H
#define INCLINE_INLINER_CALLTREE_H

#include "inliner/CostBenefit.h"
#include "inliner/InlinerConfig.h"
#include "inliner/TrialCache.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "profile/ProfileData.h"

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace incline::inliner {

/// Node kinds of Listing 2, plus P for polymorphic callsites (§IV).
enum class CallNodeKind : uint8_t {
  Cutoff,      ///< C: callsite known, body not yet attached.
  Expanded,    ///< E: specialized body attached, children collected.
  Deleted,     ///< D: the callsite was removed by an optimization.
  Generic,     ///< G: cannot be inlined (unknown target).
  Polymorphic, ///< P: receiver-profile speculation; children = targets.
};

std::string_view callNodeKindName(CallNodeKind Kind);

/// One call-tree node.
class CallNode {
public:
  CallNodeKind Kind = CallNodeKind::Cutoff;
  CallNode *Parent = nullptr;
  std::vector<std::unique_ptr<CallNode>> Children;

  /// Resolved direct target symbol for C/E nodes ("Class.m" or "f");
  /// empty for G/P nodes and the root.
  std::string CalleeSymbol;
  /// The callee's unspecialized body in the module (C/E nodes).
  const ir::Function *SourceFn = nullptr;
  /// Virtual method name (P nodes and virtual G nodes).
  std::string MethodName;

  /// The callsite in the parent's body (CallInst for direct, VirtualCall
  /// for P/virtual-G). Null for the root. P-target children initially
  /// share their parent's callsite until typeswitch emission gives each
  /// arm its own direct call.
  ir::Instruction *Callsite = nullptr;
  /// Callsite's Instruction::instId(). Reconciliation matches children to
  /// live callsites by this id, never by address: an erased call's address
  /// can come back as a different instruction.
  unsigned CallsiteId = 0;

  /// Sets Callsite and CallsiteId together.
  void setCallsite(ir::Instruction *Inst) {
    Callsite = Inst;
    CallsiteId = Inst ? Inst->instId() : 0;
  }

  /// The specialized body (E nodes and the root). Kept outside the module.
  /// At most one of Body/CachedBody is set: Body is a private copy owned by
  /// this node (the root, and expansions made with the trial cache off);
  /// CachedBody aliases the immutable body inside a TrialCache entry.
  /// Post-trial bodies are read-only downstream — inlining clones *into*
  /// the caller (opt::inlineCall takes the callee const) — so cache-served
  /// expansions share the entry's body instead of cloning it, and misses
  /// donate their trial body to the entry they insert. The aliasing
  /// shared_ptr keeps the whole entry alive across LRU eviction and
  /// invalidation for as long as this node needs the body.
  std::unique_ptr<ir::Function> Body;
  std::shared_ptr<ir::Function> CachedBody;

  /// The node's body, whichever owner currently holds it.
  ir::Function *body() const { return Body ? Body.get() : CachedBody.get(); }
  /// Profile-table key for Body's profile ids (the original method name).
  std::string ProfileName;

  //===--------------------------------------------------------------------===//
  // Metrics (inputs of Eqs. 4-8 and 12-14).
  //===--------------------------------------------------------------------===//
  /// f(n): expected executions per execution of the root.
  double Frequency = 1.0;
  /// For cutoffs: arguments whose callsite type is more concrete than the
  /// declared parameter type.
  unsigned ArgsMoreConcrete = 0;
  /// For expanded nodes: simple optimizations triggered by the deep
  /// inlining trial (N_s).
  unsigned TrialOpts = 0;
  /// d(n): occurrences of this callee among the ancestors.
  int RecursionDepth = 0;
  /// Receiver probability under a P parent (p_m of Eq. 13).
  double Probability = 1.0;
  /// Speculated exact receiver class for P-target children.
  int SpeculatedClassId = types::NullClassId;

  //===--------------------------------------------------------------------===//
  // Analysis results (Listing 6).
  //===--------------------------------------------------------------------===//
  /// The cost-benefit tuple of the cluster rooted at this node.
  CostBenefit Tuple;
  /// True when the analysis merged this node into its parent's cluster
  /// ("inlined" relation): it is inlined together with the parent or not
  /// at all.
  bool InCluster = false;

  bool isRoot() const { return Parent == nullptr; }

  /// |ir(n)|: specialized body size for E, unspecialized callee size for
  /// C, 0 for G/D, and the typeswitch overhead estimate for P.
  size_t irSize() const;

  /// S_ir(n) (Eq. 1): total |ir| over the subtree (this node included).
  size_t subtreeIrSize() const;
  /// S_c(n) (Eq. 2): total |ir| over the subtree's cutoff nodes.
  size_t cutoffSize() const;
  /// N_c(n) (Eq. 3): number of cutoff nodes in the subtree.
  size_t cutoffCount() const;

  /// Pre-order visit of the subtree.
  void forEach(const std::function<void(CallNode &)> &Fn);

  /// Renders the subtree as an indented text dump (for the examples and
  /// debugging): kind tag, callee, frequency, sizes.
  std::string dump(unsigned Indent = 0) const;
};

/// Builds and maintains the call tree: child collection from a body's
/// callsites, cutoff expansion with specialization and deep trials, and
/// post-inline reconciliation.
class CallTree {
public:
  /// \p PassCtx is the context trial-body passes run under (analysis
  /// cache, per-pass observer, metrics sink); default = none of the three.
  CallTree(const InlinerConfig &Config, const ir::Module &M,
           const profile::ProfileTable &Profiles,
           opt::PassContext PassCtx = opt::PassContext())
      : Config(Config), M(M), Profiles(Profiles),
        PassCtx(std::move(PassCtx)) {}

  /// Creates the root node around the compilation copy \p RootBody, whose
  /// profiles live under \p ProfileName, and collects its children.
  CallNode &buildRoot(std::unique_ptr<ir::Function> RootBody,
                      std::string ProfileName);

  CallNode *root() { return Root.get(); }
  const CallNode *root() const { return Root.get(); }

  /// B_L(n) — the local benefit (Eq. 4 / Eq. 13).
  double localBenefit(const CallNode &N) const;

  /// Expands a cutoff: clones the callee, propagates the callsite's
  /// argument types (deep trials), canonicalizes the copy, and collects
  /// grandchildren. Returns false when the node cannot be expanded (e.g.
  /// recursion depth exceeded); such nodes become G.
  bool expandCutoff(CallNode &N);

  /// Scans \p N's body and appends child nodes for every callsite that has
  /// no node yet. Used at expansion and for post-inline reconciliation of
  /// the root. New direct callsites become C/G children; virtual callsites
  /// become P (with profiled targets) or G.
  void collectChildren(CallNode &N);

  /// Post-optimization reconciliation for the root: children whose
  /// callsite instruction no longer exists in the root body are marked
  /// Deleted (D), and brand-new callsites get fresh children. Returns the
  /// number of changes made.
  size_t reconcileRoot();

  /// Number of nodes ever created (for compile stats).
  uint64_t nodesCreated() const { return NodesCreated; }

  /// Installs the deep-trial memoization cache (null = every trial runs
  /// fresh). A hit clones the memoized post-trial body and replays the
  /// trial's recorded pass metrics, so tree shape, priorities, and the
  /// deterministic-mode compile fingerprint are bit-identical to a miss.
  void setTrialCache(TrialCache *C) { Cache = C; }

  uint64_t trialCacheHits() const { return TrialHits; }
  uint64_t trialCacheMisses() const { return TrialMisses; }
  /// Wall time spent inside expandCutoff's trial section (both paths).
  uint64_t trialNanos() const { return TrialNanosTotal; }
  /// Original trial wall time skipped thanks to cache hits.
  uint64_t trialNanosSaved() const { return TrialNanosSavedTotal; }

private:
  /// Creates a child node for callsite \p Inst inside \p Parent.
  void addChildForCallsite(CallNode &Parent, ir::Instruction *Inst,
                           double BlockFrequency);
  int recursionDepthOf(const CallNode &Parent,
                       const std::string &CalleeSymbol) const;
  /// Specializes \p N's Body arguments from its callsite; returns how many
  /// parameters became more concrete.
  unsigned specializeArguments(CallNode &N);

  /// Builds the memoization key for \p N's trial: module content, callee
  /// symbol, callsite argument signature, callee profile, trial config.
  TrialKey makeTrialKey(const CallNode &N);
  /// Re-records the cached trial's per-pass metric deltas (Nanos zeroed)
  /// and fires the pass observer on \p Body, mirroring what the skipped
  /// passes would have reported.
  void replayTrialMetrics(const TrialResult &Cached, ir::Function &Body);
  /// --verify-trial-cache: recomputes the trial from scratch under a
  /// private context and aborts on any divergence from \p Cached.
  void verifyCachedTrial(const CallNode &N, const TrialResult &Cached);

  const InlinerConfig &Config;
  const ir::Module &M;
  const profile::ProfileTable &Profiles;
  opt::PassContext PassCtx;
  std::unique_ptr<CallNode> Root;
  uint64_t NodesCreated = 0;
  uint64_t NextCloneId = 0;

  TrialCache *Cache = nullptr;
  uint64_t TrialHits = 0;
  uint64_t TrialMisses = 0;
  uint64_t TrialNanosTotal = 0;
  uint64_t TrialNanosSavedTotal = 0;
  /// Profiles are frozen for the duration of one compilation, so each
  /// method's profile digest is computed at most once per tree.
  std::unordered_map<std::string, uint64_t> ProfileFpMemo;
};

} // namespace incline::inliner

#endif // INCLINE_INLINER_CALLTREE_H
