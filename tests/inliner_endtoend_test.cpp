//===- tests/inliner_endtoend_test.cpp - Whole-inliner + JIT tests ---------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "inliner/Compilers.h"

#include "TestHelpers.h"
#include "inliner/IncrementalInliner.h"
#include "ir/IRCloner.h"
#include "jit/JitRuntime.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace incline;
using namespace incline::inliner;
using incline::testing::compile;
using incline::testing::expectVerified;

namespace {

/// The paper's Fig. 1 shape in MiniOO: a megamorphic-looking foreach whose
/// inner calls devirtualize once the call tree is explored deeply enough.
const char *ForeachProgram = R"(
  class Fn { def apply(x: int): int { return x; } }
  class Doubler extends Fn { def apply(x: int): int { return x * 2; } }
  class Seq {
    var data: int[];
    def length(): int { return this.data.length; }
    def get(i: int): int { return this.data[i]; }
    def foreach(f: Fn): int {
      var i = 0;
      var acc = 0;
      while (i < this.length()) {
        acc = acc + f.apply(this.get(i));
        i = i + 1;
      }
      return acc;
    }
  }
  def log(xs: Seq): int {
    return xs.foreach(new Doubler());
  }
  def main() {
    var s = new Seq();
    s.data = new int[50];
    var i = 0;
    while (i < 50) { s.data[i] = i; i = i + 1; }
    var total = 0;
    var rep = 0;
    while (rep < 20) { total = total + log(s); rep = rep + 1; }
    print(total);
  }
)";

struct CompiledProgram {
  std::unique_ptr<ir::Module> M;
  profile::ProfileTable Profiles;
  std::unique_ptr<ir::Function> Compiled;
  jit::CompileStats Stats;
};

/// Profiles `main` with one interpreted run, then compiles \p Symbol.
CompiledProgram compileWith(jit::Compiler &Compiler, std::string_view Source,
                            const std::string &Symbol) {
  CompiledProgram P;
  P.M = compile(Source);
  interp::ExecResult R = interp::runMain(*P.M, &P.Profiles);
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  P.Compiled =
      Compiler.compile(*P.M->function(Symbol), *P.M, P.Profiles, P.Stats);
  return P;
}

/// Runs `main` with \p Symbol's body replaced by \p Compiled (single-
/// method code cache) and checks the output matches the reference.
std::string runWithCompiled(const ir::Module &M, const std::string &Symbol,
                            const ir::Function &Compiled) {
  class OneMethodEnv : public interp::ExecutionEnv {
  public:
    OneMethodEnv(const ir::Module &M, const std::string &Symbol,
                 const ir::Function &Compiled)
        : M(M), Symbol(Symbol), Compiled(Compiled) {}
    interp::ResolvedBody resolve(std::string_view Name) override {
      interp::ResolvedBody Body;
      Body.ProfileName = std::string(Name);
      if (Name == Symbol) {
        Body.F = &Compiled;
        Body.Compiled = true;
      } else {
        Body.F = M.function(Name);
      }
      return Body;
    }

  private:
    const ir::Module &M;
    std::string Symbol;
    const ir::Function &Compiled;
  } Env(M, Symbol, Compiled);
  interp::Interpreter I(M, Env);
  interp::ExecResult R = I.run("main");
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  return R.Output;
}

//===----------------------------------------------------------------------===//
// Incremental inliner end-to-end
//===----------------------------------------------------------------------===//

TEST(IncrementalInlinerTest, ForeachFullyInlinesAndDevirtualizes) {
  IncrementalCompiler Compiler;
  CompiledProgram P = compileWith(Compiler, ForeachProgram, "log");
  expectVerified(*P.Compiled);
  EXPECT_GT(P.Stats.InlinedCallsites, 0u);

  // The whole foreach cluster (foreach, length, get, apply) collapses into
  // log: no virtual calls remain on the hot path.
  size_t VCalls = 0;
  for (const auto &BB : P.Compiled->blocks())
    for (const auto &Inst : BB->instructions())
      if (isa<ir::VirtualCallInst>(Inst.get()))
        ++VCalls;
  EXPECT_EQ(VCalls, 0u) << ir::printFunction(*P.Compiled);

  // Semantics: main's output is unchanged with the compiled log.
  std::string Expected = incline::testing::runOutput(*P.M);
  EXPECT_EQ(runWithCompiled(*P.M, "log", *P.Compiled), Expected);
}

TEST(IncrementalInlinerTest, CompiledCodeIsCheaper) {
  IncrementalCompiler Compiler;
  CompiledProgram P = compileWith(Compiler, ForeachProgram, "log");
  // Run `log`'s workload via main twice: once all-interpreted, once with
  // the compiled body; compiled-tier cycles must beat interpreted ones.
  interp::ExecResult Interpreted = interp::runMain(*P.M);

  class OneMethodEnv : public interp::ExecutionEnv {
  public:
    OneMethodEnv(const ir::Module &M, const ir::Function &Compiled)
        : M(M), Compiled(Compiled) {}
    interp::ResolvedBody resolve(std::string_view Name) override {
      interp::ResolvedBody Body;
      Body.ProfileName = std::string(Name);
      if (Name == "log") {
        Body.F = &Compiled;
        Body.Compiled = true;
      } else {
        Body.F = M.function(Name);
      }
      return Body;
    }

  private:
    const ir::Module &M;
    const ir::Function &Compiled;
  } Env(*P.M, *P.Compiled);
  interp::Interpreter I(*P.M, Env);
  interp::ExecResult Mixed = I.run("main");
  ASSERT_TRUE(Mixed.ok());
  EXPECT_LT(Mixed.totalCycles(), Interpreted.totalCycles());
}

TEST(IncrementalInlinerTest, SemanticsPreservedAcrossConfigurations) {
  const char *Programs[] = {
      ForeachProgram,
      R"(
        def fib(n: int): int {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        def main() { print(fib(12)); }
      )",
      R"(
        class Shape { def area(): int { return 0; } }
        class Sq extends Shape { var s: int;
          def area(): int { return this.s * this.s; } }
        class Rc extends Shape { var w: int; var h: int;
          def area(): int { return this.w * this.h; } }
        def total(xs: Shape[]): int {
          var i = 0;
          var acc = 0;
          while (i < xs.length) { acc = acc + xs[i].area(); i = i + 1; }
          return acc;
        }
        def main() {
          var xs = new Shape[30];
          var i = 0;
          while (i < 30) {
            if (i % 2 == 0) { var q = new Sq(); q.s = i; xs[i] = q; }
            else { var r = new Rc(); r.w = i; r.h = 2; xs[i] = r; }
            i = i + 1;
          }
          var rep = 0;
          var acc = 0;
          while (rep < 10) { acc = acc + total(xs); rep = rep + 1; }
          print(acc);
        }
      )",
  };

  std::vector<InlinerConfig> Configs;
  Configs.push_back(InlinerConfig{}); // Tuned defaults.
  {
    InlinerConfig C;
    C.UseClustering = false;
    Configs.push_back(C);
  }
  {
    InlinerConfig C;
    C.DeepTrials = false;
    Configs.push_back(C);
  }
  {
    InlinerConfig C;
    C.ExpansionPolicy = ExpansionPolicyKind::FixedTreeSize;
    C.FixedExpansionThreshold = 500;
    C.InliningPolicy = InliningPolicyKind::FixedRootSize;
    C.FixedInliningThreshold = 1000;
    Configs.push_back(C);
  }
  {
    InlinerConfig C;
    C.EnablePolymorphicInlining = false;
    Configs.push_back(C);
  }

  for (const char *Source : Programs) {
    auto Reference = compile(Source);
    std::string Expected = incline::testing::runOutput(*Reference);
    for (size_t CI = 0; CI < Configs.size(); ++CI) {
      auto M = compile(Source);
      profile::ProfileTable Profiles;
      interp::ExecResult ProfRun = interp::runMain(*M, &Profiles);
      ASSERT_TRUE(ProfRun.ok());
      IncrementalCompiler Compiler(Configs[CI]);
      jit::CompileStats Stats;
      std::unique_ptr<ir::Function> Compiled =
          Compiler.compile(*M->function("main"), *M, Profiles, Stats);
      expectVerified(*Compiled);
      EXPECT_EQ(runWithCompiled(*M, "main", *Compiled), Expected)
          << "config " << CI;
    }
  }
}

TEST(IncrementalInlinerTest, RootSizeCapRespected) {
  // A wide fan-out of medium functions called with loop-carried (non-
  // constant) arguments, so inlined bodies cannot fold away: a tiny cap
  // must stop the root from growing past it.
  std::string Source =
      "def main() { var acc = 1;\n  var i = 0;\n  while (i < 10) {\n";
  std::string Defs;
  for (int I = 0; I < 10; ++I) {
    Defs += "def f" + std::to_string(I) + "(x: int): int { var a = x;\n";
    for (int J = 0; J < 10; ++J)
      Defs += "  a = a + a % " + std::to_string(J + 2) + ";\n";
    Defs += "  return a; }\n";
    Source += "    acc = acc + f" + std::to_string(I) + "(acc + i);\n";
  }
  Source += "    i = i + 1;\n  }\n  print(acc); }\n" + Defs;

  auto M = compile(Source);
  profile::ProfileTable Profiles;
  interp::runMain(*M, &Profiles);

  InlinerConfig Config;
  Config.RootSizeCap = 80;
  IncrementalCompiler Compiler(Config);
  jit::CompileStats Stats;
  std::unique_ptr<ir::Function> Compiled =
      Compiler.compile(*M->function("main"), *M, Profiles, Stats);
  // The cap is checked before each cluster graft: the body may exceed it
  // by at most one callee, never by the whole fan-out.
  EXPECT_LT(Stats.InlinedCallsites, 10u);
  EXPECT_LT(Compiled->instructionCount(), 80u + 60u);
}

TEST(IncrementalInlinerTest, PolymorphicInliningEmitsTypeSwitch) {
  const char *Source = R"(
    class A { def m(): int { return 1; } }
    class B extends A { def m(): int { return 2; } }
    def f(a: A): int { return a.m(); }
    def main() {
      var acc = 0;
      var i = 0;
      while (i < 60) {
        if (i % 2 == 0) { acc = acc + f(new A()); }
        else { acc = acc + f(new B()); }
        i = i + 1;
      }
      print(acc);
    }
  )";
  auto M = compile(Source);
  std::string Expected = incline::testing::runOutput(*M);
  profile::ProfileTable Profiles;
  interp::runMain(*M, &Profiles);

  IncrementalCompiler Compiler;
  jit::CompileStats Stats;
  std::unique_ptr<ir::Function> Compiled =
      Compiler.compile(*M->function("f"), *M, Profiles, Stats);
  expectVerified(*Compiled);
  // Both A.m and B.m are ~50%: the callsite becomes a typeswitch with
  // inlined arms (getclassid present, no virtual call needed on the
  // speculated paths — a fallback may remain).
  bool HasGetClassId = false;
  for (const auto &BB : Compiled->blocks())
    for (const auto &Inst : BB->instructions())
      HasGetClassId |= isa<ir::GetClassIdInst>(Inst.get());
  EXPECT_TRUE(HasGetClassId) << ir::printFunction(*Compiled);
  EXPECT_EQ(runWithCompiled(*M, "f", *Compiled), Expected);
}

//===----------------------------------------------------------------------===//
// Baselines
//===----------------------------------------------------------------------===//

TEST(BaselineTest, GreedyInlinesHotCalls) {
  GreedyCompiler Compiler;
  CompiledProgram P = compileWith(Compiler, ForeachProgram, "log");
  expectVerified(*P.Compiled);
  EXPECT_GT(P.Stats.InlinedCallsites, 0u);
  std::string Expected = incline::testing::runOutput(*P.M);
  EXPECT_EQ(runWithCompiled(*P.M, "log", *P.Compiled), Expected);
}

TEST(BaselineTest, C2StyleSemanticsPreserved) {
  C2StyleCompiler Compiler;
  CompiledProgram P = compileWith(Compiler, ForeachProgram, "log");
  expectVerified(*P.Compiled);
  std::string Expected = incline::testing::runOutput(*P.M);
  EXPECT_EQ(runWithCompiled(*P.M, "log", *P.Compiled), Expected);
}

TEST(BaselineTest, TrivialOnlyInlinesTinyCallees) {
  const char *Source = R"(
    def tiny(x: int): int { return x + 1; }
    def big(x: int): int {
      var a = x;
      a = a + 1; a = a + 2; a = a + 3; a = a + 4; a = a + 5;
      a = a + 6; a = a + 7; a = a + 8; a = a + 9; a = a + 10;
      a = a * 2; a = a - 7; a = a * 3; a = a - 11; a = a * 5;
      return a;
    }
    def main() { print(tiny(1) + big(2)); }
  )";
  TrivialCompiler Compiler;
  CompiledProgram P = compileWith(Compiler, Source, "main");
  expectVerified(*P.Compiled);
  // tiny() disappeared, big() remains a call.
  size_t BigCalls = 0, TinyCalls = 0;
  for (const auto &BB : P.Compiled->blocks())
    for (const auto &Inst : BB->instructions())
      if (const auto *Call = dyn_cast<ir::CallInst>(Inst.get())) {
        if (Call->callee() == "big")
          ++BigCalls;
        if (Call->callee() == "tiny")
          ++TinyCalls;
      }
  EXPECT_EQ(TinyCalls, 0u);
  EXPECT_EQ(BigCalls, 1u);
}

TEST(BaselineTest, GreedyRespectsBudget) {
  GreedyConfig Config;
  Config.RootBudget = 10; // Nothing fits.
  GreedyCompiler Compiler(Config);
  CompiledProgram P = compileWith(Compiler, ForeachProgram, "main");
  EXPECT_EQ(P.Stats.InlinedCallsites, 0u);
}

//===----------------------------------------------------------------------===//
// Tiered JIT runtime
//===----------------------------------------------------------------------===//

TEST(JitRuntimeTest, CompilesHotMethodsAndKeepsSemantics) {
  auto M = compile(ForeachProgram);
  std::string Expected = incline::testing::runOutput(*M);

  IncrementalCompiler Compiler;
  jit::JitConfig Config;
  Config.CompileThreshold = 5;
  jit::JitRuntime Runtime(*M, Compiler, Config);
  // Iterate like a benchmark harness: later iterations run compiled code.
  for (int Iter = 0; Iter < 4; ++Iter) {
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok()) << R.TrapMessage;
    EXPECT_EQ(R.Output, Expected) << "iteration " << Iter;
  }
  EXPECT_FALSE(Runtime.compilations().empty());
  EXPECT_GT(Runtime.installedCodeSize(), 0u);
}

TEST(JitRuntimeTest, WarmupCurveDescends) {
  auto M = compile(ForeachProgram);
  IncrementalCompiler Compiler;
  jit::JitConfig Config;
  Config.CompileThreshold = 3;
  jit::JitRuntime Runtime(*M, Compiler, Config);

  std::vector<double> Cycles;
  for (int Iter = 0; Iter < 6; ++Iter) {
    interp::ExecResult R = Runtime.runMain();
    ASSERT_TRUE(R.ok());
    Cycles.push_back(Runtime.effectiveCycles(R));
  }
  // Steady state beats the first (interpreted) iteration clearly.
  EXPECT_LT(Cycles.back() * 2, Cycles.front());
}

TEST(JitRuntimeTest, DisabledJitNeverCompiles) {
  auto M = compile(ForeachProgram);
  IncrementalCompiler Compiler;
  jit::JitConfig Config;
  Config.Enabled = false;
  jit::JitRuntime Runtime(*M, Compiler, Config);
  for (int Iter = 0; Iter < 3; ++Iter)
    Runtime.runMain();
  EXPECT_TRUE(Runtime.compilations().empty());
  EXPECT_EQ(Runtime.installedCodeSize(), 0u);
}

TEST(JitRuntimeTest, AllCompilersAgreeOnOutput) {
  IncrementalCompiler Incremental;
  GreedyCompiler Greedy;
  C2StyleCompiler C2;
  TrivialCompiler C1;
  jit::Compiler *Compilers[] = {&Incremental, &Greedy, &C2, &C1};

  auto Reference = compile(ForeachProgram);
  std::string Expected = incline::testing::runOutput(*Reference);

  for (jit::Compiler *Compiler : Compilers) {
    auto M = compile(ForeachProgram);
    jit::JitConfig Config;
    Config.CompileThreshold = 2;
    jit::JitRuntime Runtime(*M, *Compiler, Config);
    for (int Iter = 0; Iter < 5; ++Iter) {
      interp::ExecResult R = Runtime.runMain();
      ASSERT_TRUE(R.ok()) << Compiler->name() << ": " << R.TrapMessage;
      EXPECT_EQ(R.Output, Expected) << Compiler->name();
    }
  }
}

TEST(JitRuntimeTest, IncrementalBeatsGreedyOnForeach) {
  // The headline effect, in miniature: on the Fig.1-shaped workload the
  // optimization-driven inliner produces faster steady-state code than
  // the greedy baseline (it inlines the whole cluster and devirtualizes).
  auto RunWith = [&](jit::Compiler &Compiler) {
    auto M = compile(ForeachProgram);
    jit::JitConfig Config;
    Config.CompileThreshold = 2;
    jit::JitRuntime Runtime(*M, Compiler, Config);
    double Last = 0;
    for (int Iter = 0; Iter < 8; ++Iter) {
      interp::ExecResult R = Runtime.runMain();
      EXPECT_TRUE(R.ok());
      Last = Runtime.effectiveCycles(R);
    }
    return Last;
  };
  IncrementalCompiler Incremental;
  GreedyCompiler Greedy;
  double IncrementalCycles = RunWith(Incremental);
  double GreedyCycles = RunWith(Greedy);
  EXPECT_LT(IncrementalCycles, GreedyCycles);
}

} // namespace
