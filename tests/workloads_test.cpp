//===- tests/workloads_test.cpp - Benchmark suite validation ---------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Validates the whole benchmark suite: every workload compiles, runs
/// trap-free under pure interpretation, and — the key differential
/// property — produces bit-identical output under every JIT compiler
/// (inliner policy). Parameterized over the suite so each workload shows
/// up as its own test case.
///
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"

#include "TestHelpers.h"
#include "inliner/Compilers.h"

#include <gtest/gtest.h>

using namespace incline;
using namespace incline::workloads;

namespace {

class WorkloadTest : public ::testing::TestWithParam<Workload> {};

std::string interpretedOutput(const Workload &W) {
  auto M = incline::testing::compile(W.Source);
  interp::ExecResult R = interp::runMain(*M);
  EXPECT_TRUE(R.ok()) << W.Name << ": " << R.TrapMessage;
  EXPECT_FALSE(R.Output.empty()) << W.Name << " printed nothing";
  return R.Output;
}

TEST_P(WorkloadTest, CompilesAndRunsInterpreted) {
  interpretedOutput(GetParam());
}

TEST_P(WorkloadTest, AllCompilersProduceIdenticalOutput) {
  const Workload &W = GetParam();
  std::string Expected = interpretedOutput(W);

  inliner::IncrementalCompiler Incremental;
  inliner::GreedyCompiler Greedy;
  inliner::C2StyleCompiler C2;
  inliner::TrivialCompiler C1;
  jit::Compiler *Compilers[] = {&Incremental, &Greedy, &C2, &C1};

  for (jit::Compiler *Compiler : Compilers) {
    RunConfig Config;
    Config.Iterations = 4;
    Config.Jit.CompileThreshold = 2;
    RunResult Result = runWorkload(W, *Compiler, Config);
    ASSERT_TRUE(Result.Ok) << W.Name << " under " << Compiler->name() << ": "
                           << Result.Error;
    EXPECT_EQ(Result.Output, Expected)
        << W.Name << " under " << Compiler->name();
  }
}

TEST_P(WorkloadTest, IncrementalCompilerActuallyCompilesAndInlines) {
  const Workload &W = GetParam();
  inliner::IncrementalCompiler Compiler;
  RunConfig Config;
  Config.Iterations = 6;
  Config.Jit.CompileThreshold = 2;
  RunResult Result = runWorkload(W, Compiler, Config);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_FALSE(Result.Compilations.empty()) << W.Name;
  uint64_t Inlined = 0;
  for (const auto &Record : Result.Compilations)
    Inlined += Record.Stats.InlinedCallsites;
  EXPECT_GT(Inlined, 0u) << W.Name;
  EXPECT_GT(Result.InstalledCodeSize, 0u);
}

TEST_P(WorkloadTest, WarmupConverges) {
  const Workload &W = GetParam();
  inliner::IncrementalCompiler Compiler;
  RunConfig Config;
  Config.Iterations = 8;
  Config.Jit.CompileThreshold = 2;
  RunResult Result = runWorkload(W, Compiler, Config);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  // Steady state is no slower than the first, interpreted iteration
  // (small slack: i-cache pressure can make it a near-tie on allocation-
  // heavy recursion like xalan).
  EXPECT_LE(Result.SteadyStateCycles,
            Result.IterationCycles.front() * 1.05)
      << W.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadTest, ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<Workload> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

// pmd under shallow trials (fig9's shallow-trials variant) once aborted:
// the call tree matched a root child to its callsite by address, and a
// call that replaced an erased virtual call at the same address kept the
// stale polymorphic child alive.
TEST(WorkloadRegressionTest, PmdShallowTrialsMatchesJitOff) {
  const Workload *W = findWorkload("pmd");
  ASSERT_NE(W, nullptr);
  inliner::InlinerConfig Config;
  Config.DeepTrials = false;
  inliner::IncrementalCompiler Compiler(Config);
  RunResult Result = runWorkload(*W, Compiler);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Result.Output, interpretedOutput(*W));
}

TEST(WorkloadRegistryTest, SuiteIsComplete) {
  // The DESIGN.md inventory: 6 dacapo + 4 scala-dacapo + 3 spark +
  // 3 other = 16 workloads.
  EXPECT_EQ(allWorkloads().size(), 16u);
  EXPECT_NE(findWorkload("foreach"), nullptr);
  EXPECT_NE(findWorkload("gauss-mix"), nullptr);
  EXPECT_EQ(findWorkload("nope"), nullptr);
}

// The parameterized tests' IDs end in `# GetParam() = <printed workload>`,
// so the printed form must be the name alone: stable across builds.
TEST(WorkloadRegistryTest, PrintsAsItsName) {
  for (const Workload &W : allWorkloads())
    EXPECT_EQ(::testing::PrintToString(W), W.Name);
}

TEST(WorkloadRegistryTest, NamesAreUnique) {
  std::set<std::string> Names;
  for (const Workload &W : allWorkloads())
    EXPECT_TRUE(Names.insert(W.Name).second) << "duplicate " << W.Name;
}

} // namespace
