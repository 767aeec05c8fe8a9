//===- inliner/Compilers.h - jit::Compiler implementations -----------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four second-tier compilers evaluated in §V, identical except for
/// the inlining algorithm (the paper replaced only the inliner inside
/// Enterprise Graal):
///
///  * IncrementalCompiler — the paper's algorithm (all config variants).
///  * GreedyCompiler      — open-source-Graal-style greedy inlining.
///  * C2StyleCompiler     — HotSpot C2-style inlining.
///  * TrivialCompiler     — C1-like first tier (trivial inlining, light
///                          optimization).
///
/// Every compiler clones the profiled source method (keeping the name so
/// profile keys stay valid), runs its inliner, then the shared optimizer
/// pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_INLINER_COMPILERS_H
#define INCLINE_INLINER_COMPILERS_H

#include "inliner/Baselines.h"
#include "inliner/InlinerConfig.h"
#include "inliner/TrialCache.h"
#include "jit/Compiler.h"

#include <memory>

namespace incline::inliner {

/// The paper's incremental optimization-driven inliner as a JIT compiler.
class IncrementalCompiler : public jit::Compiler {
public:
  explicit IncrementalCompiler(InlinerConfig Config = InlinerConfig(),
                               std::string Label = "incremental")
      : Config(Config), Label(std::move(Label)) {
    if (this->Config.TrialCache != TrialCacheMode::Off)
      Cache = std::make_unique<TrialCache>(this->Config.TrialCacheCapacity);
  }

  std::unique_ptr<ir::Function>
  compile(const ir::Function &Source, const ir::Module &M,
          const profile::ProfileTable &Profiles, jit::CompileStats &Stats,
          const opt::PassContext &Ctx) override;
  using jit::Compiler::compile;
  std::string name() const override { return Label; }

  const InlinerConfig &config() const { return Config; }

  /// Shared mode: the deep-trial cache itself (the runtime routes
  /// invalidation events here). Off: null.
  jit::CompileCache *compileCache() override { return Cache.get(); }

private:
  InlinerConfig Config;
  std::string Label;
  /// Internally synchronized; safe to touch from concurrent compile
  /// workers despite compile()'s no-mutation contract.
  std::unique_ptr<TrialCache> Cache;
};

/// Greedy (open-source Graal / Steiner et al.) baseline compiler.
class GreedyCompiler : public jit::Compiler {
public:
  explicit GreedyCompiler(GreedyConfig Config = GreedyConfig())
      : Config(Config) {}

  std::unique_ptr<ir::Function>
  compile(const ir::Function &Source, const ir::Module &M,
          const profile::ProfileTable &Profiles, jit::CompileStats &Stats,
          const opt::PassContext &Ctx) override;
  using jit::Compiler::compile;
  std::string name() const override { return "greedy"; }

private:
  GreedyConfig Config;
};

/// HotSpot-C2-style baseline compiler.
class C2StyleCompiler : public jit::Compiler {
public:
  explicit C2StyleCompiler(C2StyleConfig Config = C2StyleConfig())
      : Config(Config) {}

  std::unique_ptr<ir::Function>
  compile(const ir::Function &Source, const ir::Module &M,
          const profile::ProfileTable &Profiles, jit::CompileStats &Stats,
          const opt::PassContext &Ctx) override;
  using jit::Compiler::compile;
  std::string name() const override { return "c2"; }

private:
  C2StyleConfig Config;
};

/// C1-like first-tier compiler: trivial inlining, light optimization.
class TrivialCompiler : public jit::Compiler {
public:
  explicit TrivialCompiler(TrivialConfig Config = TrivialConfig())
      : Config(Config) {}

  std::unique_ptr<ir::Function>
  compile(const ir::Function &Source, const ir::Module &M,
          const profile::ProfileTable &Profiles, jit::CompileStats &Stats,
          const opt::PassContext &Ctx) override;
  using jit::Compiler::compile;
  std::string name() const override { return "c1"; }

private:
  TrivialConfig Config;
};

} // namespace incline::inliner

#endif // INCLINE_INLINER_COMPILERS_H
