//===- inliner/InliningPhase.cpp ----------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "inliner/InliningPhase.h"

#include "opt/InlineIR.h"
#include "support/Casting.h"
#include "types/ClassHierarchy.h"

#include <algorithm>
#include <cmath>
#include <deque>

using namespace incline;
using namespace incline::inliner;
using namespace incline::ir;

bool incline::inliner::canInlineCluster(const InlinerConfig &Config,
                                        const CallNode &Root,
                                        const CallNode &Cluster) {
  double RootSize = static_cast<double>(Root.Body->instructionCount());
  double ClusterSize = Cluster.Tuple.Cost;
  if (RootSize + ClusterSize > static_cast<double>(Config.RootSizeCap))
    return false; // Hard cap: compilations become too slow past this.

  if (Config.InliningPolicy == InliningPolicyKind::FixedRootSize)
    return RootSize < Config.FixedInliningThreshold;

  // Eq. 12: ratio(tuple) >= t1 * 2^((|ir(root)| + |ir(n)|) / (16 * t2)).
  // The |ir(n)| term keeps the test forgiving towards small clusters close
  // to the budget edge (the paper's println/printf example).
  double Threshold =
      Config.T1 *
      std::pow(2.0, (RootSize + ClusterSize) / (16.0 * Config.T2));
  return Cluster.Tuple.ratio() >= Threshold;
}

namespace {

class Inliner {
public:
  Inliner(const InlinerConfig &Config, CallTree &Tree, const ir::Module &M)
      : Config(Config), Tree(Tree), M(M), Root(*Tree.root()) {}

  InlinePhaseStats run() {
    // Listing 5: the queue starts with the root's children.
    for (const auto &Child : Root.Children)
      Queue.push_back(Child.get());

    while (!Queue.empty()) {
      // bestCluster: highest benefit-to-cost ratio.
      auto BestIt =
          std::max_element(Queue.begin(), Queue.end(),
                           [](const CallNode *A, const CallNode *B) {
                             return A->Tuple.ratio() < B->Tuple.ratio();
                           });
      CallNode *Best = *BestIt;
      Queue.erase(BestIt);
      if (Best->Kind != CallNodeKind::Expanded &&
          Best->Kind != CallNodeKind::Polymorphic)
        continue; // Cutoff/Generic/Deleted: nothing to inline.
      if (!canInlineCluster(Config, Root, *Best))
        continue; // Leave the callsite; maybe a later round admits it.
      inlineClusterAt(*Best, Best->Callsite);
      ++Stats.ClustersInlined;
    }
    return Stats;
  }

private:
  /// Grafts the cluster rooted at \p N into the root method at
  /// \p CallsiteInRoot (which must already live in the root's body).
  /// Reparents non-cluster descendants under the root and queues them.
  void inlineClusterAt(CallNode &N, Instruction *CallsiteInRoot) {
    if (N.Kind == CallNodeKind::Expanded) {
      auto *Call = cast<CallInst>(CallsiteInRoot);
      opt::InlineResult Result =
          opt::inlineCall(*Root.Body, Call, *N.body());
      ++Stats.CallsitesInlined;

      // Children's callsites lived in N's body; remap them into the root.
      std::vector<std::unique_ptr<CallNode>> Children;
      Children.swap(N.Children);
      for (auto &Child : Children) {
        Instruction *Mapped = nullptr;
        if (Child->Callsite) {
          auto It = Result.ValueMap.find(Child->Callsite);
          if (It != Result.ValueMap.end())
            Mapped = cast<Instruction>(It->second);
        }
        dispatchChild(std::move(Child), Mapped);
      }
      N.Kind = CallNodeKind::Deleted;
      N.Body.reset();
      N.CachedBody.reset();
      N.setCallsite(nullptr);
      return;
    }

    assert(N.Kind == CallNodeKind::Polymorphic && "unexpected cluster kind");
    auto *VCall = cast<VirtualCallInst>(CallsiteInRoot);
    std::vector<opt::SpeculatedTarget> Targets;
    for (const auto &Child : N.Children) {
      assert(Child->SpeculatedClassId != types::NullClassId);
      const types::MethodInfo *Method = M.classes().resolveMethod(
          Child->SpeculatedClassId, VCall->methodName());
      assert(Method && "speculated target must resolve");
      Targets.push_back({Child->SpeculatedClassId, Method});
    }
    opt::TypeSwitchResult Switch =
        opt::emitTypeSwitch(*Root.Body, VCall, Targets);
    ++Stats.TypeSwitchesEmitted;

    std::vector<std::unique_ptr<CallNode>> Children;
    Children.swap(N.Children);
    for (size_t I = 0; I < Children.size(); ++I)
      dispatchChild(std::move(Children[I]), Switch.DirectCalls[I]);
    N.Kind = CallNodeKind::Deleted;
    N.setCallsite(nullptr);
    // The fallback virtual call becomes a fresh Generic child of the root
    // at reconciliation (it has no receiver profile of its own).
  }

  /// After a graft, each child of the inlined node either continues the
  /// cluster (recursive inline), joins the root's children, or dies.
  void dispatchChild(std::unique_ptr<CallNode> Child, Instruction *Mapped) {
    if (!Mapped) {
      // The callsite disappeared during the callee's trials or belongs to
      // a Generic node whose instruction was not cloned: drop the node.
      return;
    }
    Child->setCallsite(Mapped);
    // P-target grandchildren share the virtual callsite pointer; fix them.
    if (Child->Kind == CallNodeKind::Polymorphic)
      for (const auto &Target : Child->Children)
        Target->setCallsite(Mapped);

    if (Child->InCluster && (Child->Kind == CallNodeKind::Expanded ||
                             Child->Kind == CallNodeKind::Polymorphic)) {
      inlineClusterAt(*Child, Mapped);
      // The child's own descendants were dispatched recursively; the node
      // itself is consumed.
      return;
    }

    // Not part of the cluster: re-parent under the root and queue it as an
    // independent candidate ("the descendants of the cluster are put on
    // the queue").
    Child->Parent = &Root;
    Child->InCluster = false;
    CallNode *Raw = Child.get();
    Root.Children.push_back(std::move(Child));
    if (Raw->Kind == CallNodeKind::Expanded ||
        Raw->Kind == CallNodeKind::Polymorphic)
      Queue.push_back(Raw);
  }

  const InlinerConfig &Config;
  CallTree &Tree;
  const ir::Module &M;
  CallNode &Root;
  std::deque<CallNode *> Queue;
  InlinePhaseStats Stats;
};

} // namespace

InlinePhaseStats incline::inliner::runInliningPhase(
    const InlinerConfig &Config, CallTree &Tree, const ir::Module &M) {
  Inliner TheInliner(Config, Tree, M);
  InlinePhaseStats Stats = TheInliner.run();

  // Consumed cluster roots remain as Deleted children of the root; sweep
  // them so the tree stays small.
  CallNode *Root = Tree.root();
  auto &Children = Root->Children;
  Children.erase(std::remove_if(Children.begin(), Children.end(),
                                [](const std::unique_ptr<CallNode> &C) {
                                  return C->Kind == CallNodeKind::Deleted &&
                                         !C->Callsite;
                                }),
                 Children.end());
  return Stats;
}
