//===- tests/fuzz_oracle_test.cpp - Differential oracle tests ---------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the fuzzing subsystem's oracle layer: clean sweeps on fresh
/// seeds (extending the coverage of `property_differential_test` to a
/// disjoint seed range), generator feature toggles and size budget, and
/// divergence detection + attribution with the injected canonicalizer bug.
///
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "fuzz/Oracle.h"
#include "fuzz/RandomProgram.h"
#include "inliner/Compilers.h"
#include "interp/Interpreter.h"
#include "ir/IRCloner.h"
#include "jit/JitRuntime.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace incline;
using namespace incline::fuzz;

namespace {

TEST(FuzzOracleTest, CleanCompilerHasNoDivergenceOnFreshSeeds) {
  DifferentialOracle Oracle;
  // Seeds disjoint from property_differential_test's 0..50 sweep, so the
  // two suites together cover more of the generator's space.
  for (uint64_t Seed = 50; Seed < 70; ++Seed) {
    std::optional<Divergence> D =
        Oracle.check(generateRandomProgram(Seed));
    EXPECT_FALSE(D) << "seed " << Seed << ": " << D->render();
  }
}

TEST(FuzzOracleTest, GeneratorIsDeterministic) {
  EXPECT_EQ(generateRandomProgram(1234), generateRandomProgram(1234));
  EXPECT_NE(generateRandomProgram(1), generateRandomProgram(2));
}

TEST(FuzzOracleTest, FeatureTogglesShapeThePrograms) {
  GenOptions NoVirtual;
  NoVirtual.EnableVirtualDispatch = false;
  GenOptions NoArrays;
  NoArrays.EnableArrays = false;
  GenOptions NoLoops;
  NoLoops.EnableLoops = false;
  GenOptions NoRecursion;
  NoRecursion.EnableRecursion = false;
  DifferentialOracle Oracle;
  for (uint64_t Seed = 0; Seed < 5; ++Seed) {
    std::string PlainVirtual = generateRandomProgram(Seed, NoVirtual);
    EXPECT_EQ(PlainVirtual.find("class"), std::string::npos) << PlainVirtual;
    std::string PlainArrays = generateRandomProgram(Seed, NoArrays);
    EXPECT_EQ(PlainArrays.find("arr"), std::string::npos) << PlainArrays;
    std::string PlainLoops = generateRandomProgram(Seed, NoLoops);
    EXPECT_EQ(PlainLoops.find("while"), std::string::npos) << PlainLoops;
    std::string PlainRec = generateRandomProgram(Seed, NoRecursion);
    EXPECT_EQ(PlainRec.find("rec("), std::string::npos) << PlainRec;
    // Restricted programs must still be valid, trap-free, and agree with
    // the reference across every stage.
    for (const std::string &Source :
         {PlainVirtual, PlainArrays, PlainLoops, PlainRec}) {
      std::optional<Divergence> D = Oracle.check(Source);
      EXPECT_FALSE(D) << "seed " << Seed << ":\n"
                      << Source << D->render();
    }
  }
}

TEST(FuzzOracleTest, SizeBudgetScalesProgramLength) {
  GenOptions Small;
  Small.SizePercent = 10;
  GenOptions Large;
  Large.SizePercent = 400;
  size_t SmallTotal = 0, LargeTotal = 0;
  for (uint64_t Seed = 0; Seed < 10; ++Seed) {
    SmallTotal += generateRandomProgram(Seed, Small).size();
    LargeTotal += generateRandomProgram(Seed, Large).size();
  }
  EXPECT_LT(SmallTotal, LargeTotal);
}

TEST(FuzzOracleTest, DefaultOptionsMatchLegacyGenerator) {
  // The zero-argument overload and default GenOptions are the same
  // generator; property tests and the fuzzer share seeds meaningfully.
  for (uint64_t Seed = 0; Seed < 5; ++Seed)
    EXPECT_EQ(generateRandomProgram(Seed),
              generateRandomProgram(Seed, GenOptions()));
}

TEST(FuzzOracleTest, InjectedSubFoldBugIsDetectedAndAttributed) {
  OracleOptions Options;
  Options.Canon.TestOnlyMiscompileSubFold = true;
  DifferentialOracle Oracle(Options);

  bool Detected = false;
  for (uint64_t Seed = 0; Seed < 50 && !Detected; ++Seed) {
    std::optional<Divergence> D =
        Oracle.check(generateRandomProgram(Seed));
    if (!D)
      continue;
    Detected = true;
    // The bug lives in a canonicalize-based stage and bisection must
    // pin it on the canonicalizer.
    EXPECT_EQ(D->Stage.rfind("pipeline:", 0), 0u) << D->summary();
    EXPECT_EQ(D->Kind, DivergenceKind::OutputMismatch) << D->summary();
    EXPECT_EQ(D->Pass.rfind("canonicalize", 0), 0u) << D->summary();
  }
  EXPECT_TRUE(Detected)
      << "no seed in 0..50 tripped the injected canonicalizer bug";
}

TEST(FuzzOracleTest, ExplicitMiscompileIsBisectedToCanonicalizeAndMain) {
  // A handwritten program where the injected bug has exactly one place to
  // fire: the constant subtraction in main.
  const std::string Source = R"(
def main() {
  print((10 - 3) * 2);
}
)";
  OracleOptions Options;
  Options.Canon.TestOnlyMiscompileSubFold = true;
  DifferentialOracle Oracle(Options);
  std::optional<Divergence> D = Oracle.check(Source);
  ASSERT_TRUE(D);
  EXPECT_EQ(D->Kind, DivergenceKind::OutputMismatch);
  EXPECT_EQ(D->Pass, "canonicalize");
  EXPECT_EQ(D->Function, "main");
  EXPECT_EQ(D->Expected, "14\n");
  EXPECT_EQ(D->Actual, "-14\n");

  std::optional<PassBisection> B = bisectPipeline(Source, Options);
  ASSERT_TRUE(B);
  EXPECT_EQ(B->Pass, "canonicalize");
  EXPECT_EQ(B->Function, "main");
}

TEST(FuzzOracleTest, CleanProgramPassesAllStages) {
  const std::string Source = R"(
class A { def v(): int { return 1; } }
class B extends A { def v(): int { return 2; } }
def main() {
  var a: A = new A();
  var b: A = new B();
  print(a.v() + b.v());
}
)";
  DifferentialOracle Oracle;
  std::optional<Divergence> D = Oracle.check(Source);
  EXPECT_FALSE(D) << D->render();
}

TEST(FuzzOracleTest, FrontendErrorsAreReportedAsDivergences) {
  DifferentialOracle Oracle;
  std::optional<Divergence> D = Oracle.check("def main() { print(x); }");
  ASSERT_TRUE(D);
  EXPECT_EQ(D->Kind, DivergenceKind::FrontendError);
  EXPECT_EQ(D->Stage, "frontend");
}

/// Returns a clone with an extra empty block: code the runtime's
/// install-time verifier rejects, so every method stays interpreted and the
/// program still prints the right output.
class InvalidCodeCompiler : public jit::Compiler {
public:
  std::unique_ptr<ir::Function>
  compile(const ir::Function &Source, const ir::Module &,
          const profile::ProfileTable &, jit::CompileStats &Stats,
          const opt::PassContext &) override {
    auto Clone = ir::cloneFunction(Source, std::string(Source.name()));
    Clone.F->addBlock("unterminated");
    Stats.CodeSize = Clone.F->instructionCount();
    return std::move(Clone.F);
  }
  std::string name() const override { return "invalid-code"; }
};

TEST(FuzzOracleTest, InstallTimeVerifierRejectionIsReportedNotHidden) {
  const std::string Source = R"(
def sq(x: int): int { return x * x; }
def main() {
  var i = 0;
  var s = 0;
  while (i < 10) { s = s + sq(i); i = i + 1; }
  print(s);
}
)";
  OracleOptions Options;
  interp::ExecLimits Budget;
  Budget.MaxSteps = Options.MinStepBudget;
  const std::string Expected = "285\n";

  {
    std::unique_ptr<ir::Module> M = frontend::compileOrDie(Source);
    InvalidCodeCompiler Broken;
    jit::JitConfig Config;
    Config.CompileThreshold = 1;
    jit::JitRuntime Runtime(*M, Broken, Config);
    std::optional<Divergence> D =
        checkJitStage(Runtime, "jit:invalid-code", Expected, Budget, Options);
    ASSERT_TRUE(D) << "a stage whose every compile was rejected passed";
    EXPECT_EQ(D->Kind, DivergenceKind::VerifierError);
    EXPECT_EQ(D->Stage, "jit:invalid-code");
    EXPECT_NE(D->Detail.find("install-time verification"), std::string::npos)
        << D->Detail;
    EXPECT_GT(Runtime.stats().VerifyFailures, 0u);
    EXPECT_EQ(Runtime.stats().VerifyFailures, Runtime.stats().Bailouts);
  }
  {
    // The same stage with a working compiler installs code and agrees.
    std::unique_ptr<ir::Module> M = frontend::compileOrDie(Source);
    inliner::IncrementalCompiler Working;
    jit::JitConfig Config;
    Config.CompileThreshold = 1;
    jit::JitRuntime Runtime(*M, Working, Config);
    std::optional<Divergence> D =
        checkJitStage(Runtime, "jit:incremental", Expected, Budget, Options);
    EXPECT_FALSE(D) << D->render();
    EXPECT_GT(Runtime.compilations().size(), 0u);
  }
}

} // namespace
