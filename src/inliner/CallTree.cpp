//===- inliner/CallTree.cpp ---------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "inliner/CallTree.h"

#include "ir/IRCloner.h"
#include "ir/IRPrinter.h"
#include "opt/Passes.h"
#include "profile/BlockFrequency.h"
#include "support/Cancellation.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/StringUtils.h"

#include <chrono>
#include <unordered_set>

using namespace incline;
using namespace incline::inliner;
using namespace incline::ir;

std::string_view incline::inliner::callNodeKindName(CallNodeKind Kind) {
  switch (Kind) {
  case CallNodeKind::Cutoff: return "C";
  case CallNodeKind::Expanded: return "E";
  case CallNodeKind::Deleted: return "D";
  case CallNodeKind::Generic: return "G";
  case CallNodeKind::Polymorphic: return "P";
  }
  incline_unreachable("unknown call node kind");
}

//===----------------------------------------------------------------------===//
// CallNode
//===----------------------------------------------------------------------===//

size_t CallNode::irSize() const {
  switch (Kind) {
  case CallNodeKind::Expanded:
    return body() ? body()->instructionCount() : 0;
  case CallNodeKind::Cutoff:
    return SourceFn ? SourceFn->instructionCount() : 0;
  case CallNodeKind::Polymorphic:
    // The typeswitch skeleton itself: one class-id load plus a couple of
    // compare/branch pairs per target.
    return 2 + 3 * Children.size();
  case CallNodeKind::Deleted:
  case CallNodeKind::Generic:
    return 0;
  }
  incline_unreachable("unknown call node kind");
}

size_t CallNode::subtreeIrSize() const {
  size_t Total = irSize();
  for (const auto &Child : Children)
    Total += Child->subtreeIrSize();
  return Total;
}

size_t CallNode::cutoffSize() const {
  size_t Total = Kind == CallNodeKind::Cutoff ? irSize() : 0;
  for (const auto &Child : Children)
    Total += Child->cutoffSize();
  return Total;
}

size_t CallNode::cutoffCount() const {
  size_t Total = Kind == CallNodeKind::Cutoff ? 1 : 0;
  for (const auto &Child : Children)
    Total += Child->cutoffCount();
  return Total;
}

void CallNode::forEach(const std::function<void(CallNode &)> &Fn) {
  Fn(*this);
  for (const auto &Child : Children)
    Child->forEach(Fn);
}

std::string CallNode::dump(unsigned Indent) const {
  std::string Pad(Indent * 2, ' ');
  std::string Label = isRoot() ? "<root>"
                      : !CalleeSymbol.empty()
                          ? CalleeSymbol
                          : (MethodName.empty() ? "<?>" : "*." + MethodName);
  std::string Result = formatString(
      "%s[%s] %s f=%.2f |ir|=%zu", Pad.c_str(),
      std::string(callNodeKindName(Kind)).c_str(), Label.c_str(), Frequency,
      irSize());
  if (Kind == CallNodeKind::Expanded)
    Result += formatString(" Ns=%u", TrialOpts);
  if (Kind == CallNodeKind::Cutoff)
    Result += formatString(" Na=%u", ArgsMoreConcrete);
  if (Parent && Parent->Kind == CallNodeKind::Polymorphic)
    Result += formatString(" p=%.2f", Probability);
  if (InCluster)
    Result += " (clustered)";
  Result += "\n";
  for (const auto &Child : Children)
    Result += Child->dump(Indent + 1);
  return Result;
}

//===----------------------------------------------------------------------===//
// CallTree
//===----------------------------------------------------------------------===//

CallNode &CallTree::buildRoot(std::unique_ptr<Function> RootBody,
                              std::string ProfileName) {
  Root = std::make_unique<CallNode>();
  Root->Kind = CallNodeKind::Expanded;
  Root->Body = std::move(RootBody);
  Root->ProfileName = std::move(ProfileName);
  Root->CalleeSymbol = Root->ProfileName;
  Root->SourceFn = M.function(Root->ProfileName);
  Root->Frequency = 1.0;
  ++NodesCreated;
  collectChildren(*Root);
  return *Root;
}

double CallTree::localBenefit(const CallNode &N) const {
  switch (N.Kind) {
  case CallNodeKind::Cutoff:
    // Recursive re-entries carry no realizable benefit: Eq. 14's pressure
    // (2^d - 2, positive from depth 2) means they will never be explored
    // to completion, so their potential must not be forfeited against
    // their ancestors' clusters either.
    if (N.RecursionDepth >= 2)
      return 0.0;
    // Eq. 4, kind C: frequency times (1 + more-concrete argument count).
    return N.Frequency * (1.0 + N.ArgsMoreConcrete);
  case CallNodeKind::Expanded:
    // Eq. 4, kind E: frequency times (1 + optimizations triggered).
    return N.Frequency * (1.0 + N.TrialOpts);
  case CallNodeKind::Polymorphic: {
    // Eq. 13: probability-weighted sum over the speculated targets.
    double Sum = 0.0;
    for (const auto &Child : N.Children)
      Sum += Child->Probability * localBenefit(*Child);
    return Sum;
  }
  case CallNodeKind::Deleted:
  case CallNodeKind::Generic:
    return 0.0;
  }
  incline_unreachable("unknown call node kind");
}

int CallTree::recursionDepthOf(const CallNode &Parent,
                               const std::string &CalleeSymbol) const {
  int Depth = 0;
  for (const CallNode *Cur = &Parent; Cur; Cur = Cur->Parent)
    if (Cur->CalleeSymbol == CalleeSymbol)
      ++Depth;
  return Depth;
}

void CallTree::addChildForCallsite(CallNode &Parent, Instruction *Inst,
                                   double BlockFrequency) {
  auto Child = std::make_unique<CallNode>();
  Child->Parent = &Parent;
  Child->setCallsite(Inst);
  Child->Frequency = Parent.Frequency * BlockFrequency;
  ++NodesCreated;

  if (auto *Call = dyn_cast<CallInst>(Inst)) {
    const Function *Target = M.function(Call->callee());
    if (!Target) {
      Child->Kind = CallNodeKind::Generic;
      Parent.Children.push_back(std::move(Child));
      return;
    }
    Child->Kind = CallNodeKind::Cutoff;
    Child->CalleeSymbol = Call->callee();
    Child->SourceFn = Target;
    Child->ProfileName = Call->callee();
    Child->RecursionDepth = recursionDepthOf(Parent, Child->CalleeSymbol);
    // Count arguments whose callsite type is more concrete than the
    // declared parameter (type narrowed, or exactness gained).
    for (size_t I = 0; I < Call->numArgs(); ++I) {
      const Value *Arg = Call->arg(I);
      const Argument *Param = Target->arg(I);
      bool Narrower = Arg->type() != Param->type() &&
                      M.classes().isAssignable(Arg->type(), Param->type());
      bool GainedExactness =
          Arg->hasExactType() && !Param->hasExactType() &&
          Arg->type().isObject();
      if (Narrower || GainedExactness)
        ++Child->ArgsMoreConcrete;
    }
    Parent.Children.push_back(std::move(Child));
    return;
  }

  auto *VCall = cast<VirtualCallInst>(Inst);
  Child->MethodName = VCall->methodName();

  // Receiver-profile speculation (§IV): up to MaxPolymorphicTargets
  // classes, each at least MinReceiverProbability likely.
  std::vector<std::pair<int, double>> TopReceivers;
  if (Config.EnablePolymorphicInlining) {
    if (const profile::ReceiverProfile *RP = Profiles.receiverProfile(
            Parent.ProfileName, VCall->profileId()))
      TopReceivers = RP->topReceivers(Config.MaxPolymorphicTargets,
                                      Config.MinReceiverProbability);
  }
  if (TopReceivers.empty()) {
    Child->Kind = CallNodeKind::Generic;
    Parent.Children.push_back(std::move(Child));
    return;
  }

  Child->Kind = CallNodeKind::Polymorphic;
  for (const auto &[ClassId, Prob] : TopReceivers) {
    const types::MethodInfo *Target =
        M.classes().resolveMethod(ClassId, VCall->methodName());
    if (!Target)
      continue; // Profile-polluted entry; skip the class.
    const Function *TargetFn = M.function(Target->QualifiedName);
    if (!TargetFn)
      continue;
    auto TargetChild = std::make_unique<CallNode>();
    TargetChild->Parent = Child.get();
    TargetChild->Kind = CallNodeKind::Cutoff;
    TargetChild->CalleeSymbol = Target->QualifiedName;
    TargetChild->SourceFn = TargetFn;
    TargetChild->ProfileName = Target->QualifiedName;
    TargetChild->setCallsite(Inst); // Until typeswitch emission.
    TargetChild->Probability = Prob;
    TargetChild->SpeculatedClassId = ClassId;
    TargetChild->Frequency = Child->Frequency * Prob;
    TargetChild->RecursionDepth =
        recursionDepthOf(Parent, TargetChild->CalleeSymbol);
    // The speculated receiver is exact: that alone makes the receiver
    // argument more concrete than the declared parameter.
    TargetChild->ArgsMoreConcrete = 1;
    ++NodesCreated;
    Child->Children.push_back(std::move(TargetChild));
  }
  if (Child->Children.empty())
    Child->Kind = CallNodeKind::Generic; // Nothing usable in the profile.
  Parent.Children.push_back(std::move(Child));
}

void CallTree::collectChildren(CallNode &N) {
  assert(N.body() && "collectChildren requires a body");
  // Callsites already covered by a child (reconciliation reuse).
  std::unordered_set<unsigned> Known;
  for (const auto &Child : N.Children)
    if (Child->Callsite)
      Known.insert(Child->CallsiteId);

  // Reconciliation re-scans the root every round; the analysis cache keeps
  // the frequencies across rounds whose passes left the CFG alone. Only a
  // manager wired to this tree's profile table can serve them.
  std::unordered_map<const BasicBlock *, double> OwnFreq;
  const std::unordered_map<const BasicBlock *, double> *Freq = &OwnFreq;
  if (PassCtx.AM && PassCtx.AM->profiles() == &Profiles) {
    Freq =
        &PassCtx.AM->blockFrequencies(*N.body(), N.ProfileName).Frequencies;
  } else {
    OwnFreq = profile::computeBlockFrequencies(*N.body(), &Profiles,
                                               N.ProfileName);
  }

  for (const auto &BB : N.body()->blocks()) {
    for (const auto &Inst : BB->instructions()) {
      if (!isa<CallInst, VirtualCallInst>(Inst.get()))
        continue;
      if (Known.count(Inst->instId()))
        continue;
      auto FreqIt = Freq->find(BB.get());
      double BlockFreq = FreqIt != Freq->end() ? FreqIt->second : 0.0;
      addChildForCallsite(N, Inst.get(), BlockFreq);
    }
  }
}

namespace {

/// Argument specialization on an explicit body — shared between the normal
/// trial path and the --verify-trial-cache scratch recomputation.
unsigned specializeBodyForCallsite(Function &Body, Instruction *Callsite,
                                   int SpeculatedClassId,
                                   const ir::Module &M) {
  unsigned Improved = 0;

  auto Improve = [&](Argument *Param, types::Type ArgTy, bool ArgExact) {
    bool Narrower = ArgTy != Param->type() && ArgTy.isObject() &&
                    !ArgTy.isNull() &&
                    M.classes().isAssignable(ArgTy, Param->type());
    bool GainedExactness = ArgExact && !Param->hasExactType();
    if (!Narrower && !GainedExactness)
      return;
    if (Narrower)
      Param->setType(ArgTy);
    if (ArgExact)
      Param->setExactType(true);
    ++Improved;
  };

  if (const auto *Call = dyn_cast<CallInst>(Callsite)) {
    for (size_t I = 0; I < Call->numArgs(); ++I)
      Improve(Body.arg(I), Call->arg(I)->type(),
              Call->arg(I)->hasExactType());
    return Improved;
  }

  // P-target child: receiver is exactly the speculated class; remaining
  // arguments come from the virtual callsite.
  const auto *VCall = cast<VirtualCallInst>(Callsite);
  assert(SpeculatedClassId != types::NullClassId &&
         "virtual callsite child without speculation");
  Improve(Body.arg(0), types::Type::object(SpeculatedClassId),
          /*ArgExact=*/true);
  for (size_t I = 0; I < VCall->numArgs(); ++I)
    Improve(Body.arg(I + 1), VCall->arg(I)->type(),
            VCall->arg(I)->hasExactType());
  return Improved;
}

/// The trial pass bundle: canonicalize (trial budget) + DCE under \p Ctx.
/// Returns the canonicalizer's rewrite count.
unsigned runTrialPasses(Function &Body, const ir::Module &M,
                        uint64_t VisitBudget, const opt::PassContext &Ctx) {
  opt::CanonOptions Options;
  Options.VisitBudget = VisitBudget;
  Options.Cancel = Ctx.Cancel; // Mid-worklist wall-clock/cancel polling.
  opt::CanonStats Stats;
  opt::CanonicalizePass Canon(Options, "canonicalize-trial");
  Canon.setStatsSink(&Stats);
  opt::runPass(Canon, Body, M, Ctx);
  opt::DCEPass DCE;
  opt::runPass(DCE, Body, M, Ctx);
  return Stats.total();
}

} // namespace

unsigned CallTree::specializeArguments(CallNode &N) {
  assert(N.Body && N.Callsite && "specialization needs body and callsite");
  return specializeBodyForCallsite(*N.Body, N.Callsite, N.SpeculatedClassId,
                                   M);
}

TrialKey CallTree::makeTrialKey(const CallNode &N) {
  TrialKey Key;
  Key.ModuleFp = M.contentFingerprint();
  Key.ConfigFp = TrialCache::configFingerprint(Config.TrialVisitBudget);
  Key.CalleeSymbol = N.CalleeSymbol;

  auto [It, Inserted] = ProfileFpMemo.try_emplace(N.ProfileName, 0);
  if (Inserted)
    It->second = TrialCache::profileFingerprint(Profiles, N.ProfileName);
  Key.ProfileFp = It->second;

  // The argument signature mirrors specializeBodyForCallsite exactly: two
  // callsites with equal signatures specialize the callee identically.
  auto AddArg = [&Key](types::Type Ty, bool Exact) {
    Key.ArgSig.emplace_back(typeToString(Ty), Exact);
  };
  if (const auto *Call = dyn_cast<CallInst>(N.Callsite)) {
    for (size_t I = 0; I < Call->numArgs(); ++I)
      AddArg(Call->arg(I)->type(), Call->arg(I)->hasExactType());
  } else {
    const auto *VCall = cast<VirtualCallInst>(N.Callsite);
    AddArg(types::Type::object(N.SpeculatedClassId), /*Exact=*/true);
    for (size_t I = 0; I < VCall->numArgs(); ++I)
      AddArg(VCall->arg(I)->type(), VCall->arg(I)->hasExactType());
  }
  return Key;
}

void CallTree::replayTrialMetrics(const TrialResult &Cached,
                                  ir::Function &Body) {
  for (const auto &[Name, Delta] : Cached.PassDeltas) {
    // A hit must charge the compile budget exactly like the miss it
    // memoizes: work units are a pure function of the per-pass IR deltas,
    // which the replay re-records verbatim. Without this, turning the
    // trial cache on would move the deadline-expiry point — a behavioral
    // difference in a performance-only feature. (The node-quota peak is
    // noted from the final cached body below; intermediate sizes are not
    // recorded, which can only under-report the peak — never a spurious
    // ResourceExhausted.)
    if (PassCtx.Cancel) {
      PassCtx.Cancel->checkpoint(Name);
      // Sum of passRunUnits over the delta's runs: Runs * 1 + the
      // aggregated IR churn.
      PassCtx.Cancel->charge(Delta.Runs + Delta.IRAdded + Delta.IRRemoved);
    }
    opt::PassMetrics Replayed = Delta;
    // The replay did no pass work — its saved wall time must not be
    // re-reported. Everything else (runs, IR deltas, analysis-cache
    // traffic) is re-recorded verbatim so per-compile pass totals, and with
    // them the deterministic-mode stream fingerprint, match a cache miss.
    Replayed.Nanos = 0;
    opt::PassInstrumentation::global().record(Name, Replayed);
    if (PassCtx.Instr)
      PassCtx.Instr->record(Name, Replayed);
    if (PassCtx.Observer)
      PassCtx.Observer(Name, Body);
  }
  if (PassCtx.Cancel && Cached.Body)
    PassCtx.Cancel->noteNodes(Cached.Body->instructionCount());
}

void CallTree::verifyCachedTrial(const CallNode &N,
                                 const TrialResult &Cached) {
  // Recompute the whole trial on a scratch clone under a private,
  // uninstrumented context: the check must not disturb the session's
  // metrics sink (and through it the stream fingerprint). The scratch copy
  // takes the cached body's name so the printed IR is directly comparable.
  ClonedFunction Scratch = cloneFunction(*N.SourceFn, Cached.Body->name());
  unsigned FreshSpecialized = specializeBodyForCallsite(
      *Scratch.F, N.Callsite, N.SpeculatedClassId, M);
  opt::AnalysisManager ScratchAM(&Profiles);
  opt::PassContext ScratchCtx;
  ScratchCtx.AM = &ScratchAM;
  unsigned FreshCanonOpts =
      runTrialPasses(*Scratch.F, M, Config.TrialVisitBudget, ScratchCtx);

  if (FreshCanonOpts != Cached.CanonOpts ||
      FreshSpecialized != Cached.SpecializedParams ||
      printFunction(*Scratch.F) != printFunction(*Cached.Body))
    INCLINE_FATAL("cached trial result for '" + N.CalleeSymbol +
                  "' disagrees with a fresh recomputation "
                  "(--verify-trial-cache)");
}

bool CallTree::expandCutoff(CallNode &N) {
  assert(N.Kind == CallNodeKind::Cutoff && "can only expand cutoffs");
  assert(N.SourceFn && "cutoff without a source function");

  // Poll the compile budget before every trial expansion: the expansion
  // loop is where a pathologically deep call tree spends its time, and an
  // over-deadline compile must unwind from here before cloning yet another
  // callee. Throwing is safe: the trial cache is only written after a
  // trial completes, so a mid-trial unwind cannot poison it, and the whole
  // compilation operates on private clones.
  if (PassCtx.Cancel)
    PassCtx.Cancel->checkpoint("expand-cutoff");

  if (N.RecursionDepth > Config.MaxRecursionDepth) {
    N.Kind = CallNodeKind::Generic; // Give up on this branch of recursion.
    return false;
  }
  // A callee with no return never completes; inlining it is unsupported.
  bool HasReturn = false;
  for (const auto &BB : N.SourceFn->blocks())
    for (const auto &Inst : BB->instructions())
      HasReturn |= isa<ReturnInst>(Inst.get());
  if (!HasReturn) {
    N.Kind = CallNodeKind::Generic;
    return false;
  }

  // Deep inlining trials: propagate the callsite's argument types into the
  // copy and run the canonicalizer, counting triggered optimizations
  // (N_s). The shallow ablation only specializes the root's direct
  // callees.
  bool Specialize =
      Config.DeepTrials || (N.Parent && N.Parent->isRoot()) ||
      (N.Parent && N.Parent->Kind == CallNodeKind::Polymorphic &&
       N.Parent->Parent && N.Parent->Parent->isRoot());

  // The clone id is consumed whether or not the cache hits, so the names
  // of the private clones a compilation does make stay identical across
  // cache modes (clone names never reach installed code, but identical
  // naming keeps IR dumps diffable across modes).
  const std::string CloneName =
      formatString("%s$spec%llu", N.SourceFn->name().c_str(),
                   static_cast<unsigned long long>(NextCloneId++));

  auto TrialStart = std::chrono::steady_clock::now();
  auto ElapsedNanos = [&TrialStart] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - TrialStart)
            .count());
  };

  unsigned SpecializedParams = 0;
  unsigned CanonOpts = 0;

  // Unspecialized expansions run no passes, so there is nothing to save by
  // caching them.
  const bool UseCache = Cache && Specialize;
  TrialKey Key;
  std::shared_ptr<const TrialResult> Cached;
  if (UseCache) {
    Key = makeTrialKey(N);
    Cached = Cache->lookup(Key);
  }

  if (Cached) {
    // Hit: share the memoized post-trial body instead of re-deriving (or
    // even re-cloning) it. Post-trial bodies are immutable — inlining
    // clones *into* the root — so sharing is safe, and the body is
    // structurally identical to what the trial bundle would have produced
    // here, meaning everything computed from it below (children,
    // frequencies, speculation sites) comes out the same as on a miss.
    N.CachedBody = std::shared_ptr<ir::Function>(Cached, Cached->Body.get());
    CanonOpts = Cached->CanonOpts;
    SpecializedParams = Cached->SpecializedParams;
    replayTrialMetrics(*Cached, *N.body());
    ++TrialHits;
    TrialNanosSavedTotal += Cached->TrialNanos;
    Cache->noteSavedNanos(Cached->TrialNanos);
    if (verifyTrialCacheEnabled())
      verifyCachedTrial(N, *Cached);
  } else {
    ClonedFunction Clone = cloneFunction(*N.SourceFn, CloneName);
    N.Body = std::move(Clone.F);
    if (Specialize) {
      // Trial passes run through the shared context: the fuzz oracle's
      // observer verifies every specialized copy, and the per-pass
      // registry attributes trial time separately from root-pipeline
      // time. When caching, a local sink is stacked on top to capture the
      // trial's metric deltas for replay on later hits.
      opt::PassInstrumentation TrialInstr;
      opt::PassContext TrialCtx = PassCtx;
      if (UseCache)
        TrialCtx.Instr = &TrialInstr;
      SpecializedParams = specializeArguments(N);
      CanonOpts =
          runTrialPasses(*N.Body, M, Config.TrialVisitBudget, TrialCtx);
      if (UseCache) {
        // Forward the captured deltas to the session sink — with the
        // detour removed this is exactly what the passes would have
        // reported there directly.
        if (PassCtx.Instr)
          TrialInstr.mergeInto(*PassCtx.Instr);
        auto Result = std::make_shared<TrialResult>();
        Result->CanonOpts = CanonOpts;
        Result->SpecializedParams = SpecializedParams;
        for (const auto &[PassName, Delta] : TrialInstr.passes())
          Result->PassDeltas.emplace_back(PassName, Delta);
        Result->TrialNanos = ElapsedNanos();
        // Donate the trial body to the cache — it is immutable from here
        // on, so this node keeps using it through the entry instead of
        // paying for a private copy.
        Result->Body = std::move(N.Body);
        N.CachedBody =
            std::shared_ptr<ir::Function>(Result, Result->Body.get());
        Cache->insert(Key, std::move(Result));
        ++TrialMisses;
      }
    }
  }
  TrialNanosTotal += ElapsedNanos();

  N.Kind = CallNodeKind::Expanded;
  collectChildren(N);

  // N_s — the trial's measured optimization potential: rewrites that
  // actually fired, parameters that became more concrete (each simplifies
  // guards and type checks downstream, like Graal's pi/guard removal),
  // and callsites whose receiver profile admits speculation (optimization
  // the inlining would unlock). All with equal weight, per §IV.
  unsigned SpeculationSites = 0;
  if (Specialize)
    for (const auto &Child : N.Children)
      if (Child->Kind == CallNodeKind::Polymorphic)
        ++SpeculationSites;
  N.TrialOpts = CanonOpts + SpecializedParams + SpeculationSites;
  return true;
}

size_t CallTree::reconcileRoot() {
  assert(Root && Root->Body && "no root to reconcile");
  size_t Changes = 0;

  // Live callsites in the root body.
  std::unordered_set<unsigned> Live;
  for (const auto &BB : Root->Body->blocks())
    for (const auto &Inst : BB->instructions())
      if (isa<CallInst, VirtualCallInst>(Inst.get()))
        Live.insert(Inst->instId());

  // Children whose callsite vanished were optimized away (kind D). Their
  // whole subtree is dropped: it described code that no longer exists.
  for (const auto &Child : Root->Children) {
    if (Child->Kind == CallNodeKind::Deleted || !Child->Callsite)
      continue;
    if (!Live.count(Child->CallsiteId)) {
      Child->Kind = CallNodeKind::Deleted;
      Child->Children.clear();
      Child->Body.reset();
      Child->CachedBody.reset();
      Child->setCallsite(nullptr);
      ++Changes;
    }
  }

  // Brand-new callsites (devirtualization products etc.) get children.
  size_t Before = Root->Children.size();
  collectChildren(*Root);
  Changes += Root->Children.size() - Before;
  return Changes;
}
