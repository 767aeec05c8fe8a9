//===- tests/opt_canonicalizer_test.cpp - Canonicalizer unit tests ---------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "opt/Canonicalizer.h"

#include "TestHelpers.h"
#include "opt/DCE.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace incline;
using namespace incline::ir;
using namespace incline::opt;
using incline::testing::compile;
using incline::testing::expectVerified;
using incline::testing::runOutput;

namespace {

/// Counts instructions of a given kind in a function.
size_t countKind(const Function &F, ValueKind Kind) {
  size_t Count = 0;
  for (const auto &BB : F.blocks())
    for (const auto &Inst : BB->instructions())
      if (Inst->kind() == Kind)
        ++Count;
  return Count;
}

TEST(CanonicalizerTest, ConstantFoldsArithmetic) {
  auto M = compile("def f(): int { return 2 + 3 * 4; } def main() { }");
  Function *F = M->function("f");
  CanonStats Stats = canonicalize(*F, *M);
  EXPECT_GE(Stats.ConstantsFolded, 2u);
  expectVerified(*F);
  EXPECT_EQ(countKind(*F, ValueKind::BinOp), 0u);
}

TEST(CanonicalizerTest, FoldingMatchesInterpreterSemantics) {
  // Wraparound cases that would be UB if folded naively: the fully folded
  // function must print the same value the interpreter computes.
  const char *Source = R"(
    def f(): int {
      var big = 4611686018427387904;
      return big * 4 + (0 - big) * 8 + big / (0 - 1) % 7;
    }
    def main() { print(f()); }
  )";
  auto Reference = compile(Source);
  std::string Before = runOutput(*Reference);
  auto M = compile(Source);
  canonicalize(*M->function("f"), *M);
  expectVerified(*M);
  EXPECT_EQ(runOutput(*M), Before);
}

TEST(CanonicalizerTest, DoesNotFoldDivisionByZero) {
  auto M = compile("def f(): int { var z = 0; return 1 / z; } def main() { }");
  Function *F = M->function("f");
  canonicalize(*F, *M);
  // The division must survive to trap at run time.
  EXPECT_EQ(countKind(*F, ValueKind::BinOp), 1u);
}

TEST(CanonicalizerTest, StrengthReducesMulByPowerOfTwo) {
  auto M = compile("def f(x: int): int { return x * 8; } def main() { }");
  Function *F = M->function("f");
  CanonStats Stats = canonicalize(*F, *M);
  EXPECT_EQ(Stats.StrengthReductions, 1u);
  bool FoundShl = false;
  for (const auto &BB : F->blocks())
    for (const auto &Inst : BB->instructions())
      if (const auto *Bin = dyn_cast<BinOpInst>(Inst.get()))
        FoundShl |= Bin->opcode() == BinOpInst::Opcode::Shl;
  EXPECT_TRUE(FoundShl);
  // Semantics: f(-3) == -24 via shift too.
  expectVerified(*F);
}

TEST(CanonicalizerTest, IdentitySimplifications) {
  auto M = compile(R"(
    def f(x: int, b: bool): int {
      var a = x + 0;
      var c = a * 1;
      var d = c - c;
      var e = b && true;
      if (e || false) { return d; }
      return c;
    }
    def main() { }
  )");
  Function *F = M->function("f");
  canonicalize(*F, *M);
  eliminateDeadCode(*F);
  expectVerified(*F);
  // x+0, *1, c-c, &&true, ||false all gone.
  EXPECT_EQ(countKind(*F, ValueKind::BinOp), 0u);
}

TEST(CanonicalizerTest, PrunesConstantBranches) {
  auto M = compile(R"(
    def f(): int {
      if (1 < 2) { return 10; }
      return 20;
    }
    def main() { }
  )");
  Function *F = M->function("f");
  CanonStats Stats = canonicalize(*F, *M);
  EXPECT_EQ(Stats.BranchesPruned, 1u);
  expectVerified(*F);
  EXPECT_EQ(countKind(*F, ValueKind::Branch), 0u);
  // Dead 'return 20' block removed, straight-line merged.
  EXPECT_EQ(F->blocks().size(), 1u);
}

TEST(CanonicalizerTest, FoldsInstanceOfWithExactType) {
  auto M = compile(R"(
    class A { }
    class B extends A { }
    def f(): bool {
      var a: A = new B();
      return a is B;
    }
    def main() { }
  )");
  Function *F = M->function("f");
  CanonStats Stats = canonicalize(*F, *M);
  EXPECT_GE(Stats.TypeChecksFolded, 1u);
  EXPECT_EQ(countKind(*F, ValueKind::InstanceOf), 0u);
  expectVerified(*F);
}

TEST(CanonicalizerTest, FoldsInstanceOfOnNull) {
  auto M = compile(R"(
    class A { }
    def f(): bool {
      var a: A = null;
      return a is A;
    }
    def main() { }
  )");
  Function *F = M->function("f");
  canonicalize(*F, *M);
  EXPECT_EQ(countKind(*F, ValueKind::InstanceOf), 0u);
}

TEST(CanonicalizerTest, FoldsUpcasts) {
  auto M = compile(R"(
    class A { }
    class B extends A { }
    def f(b: B): A { return b as A; }
    def main() { }
  )");
  Function *F = M->function("f");
  CanonStats Stats = canonicalize(*F, *M);
  EXPECT_EQ(Stats.CastsFolded, 1u);
  EXPECT_EQ(countKind(*F, ValueKind::CheckCast), 0u);
}

TEST(CanonicalizerTest, KeepsDowncasts) {
  auto M = compile(R"(
    class A { }
    class B extends A { }
    def f(a: A): B { return a as B; }
    def main() { }
  )");
  Function *F = M->function("f");
  canonicalize(*F, *M);
  EXPECT_EQ(countKind(*F, ValueKind::CheckCast), 1u);
}

TEST(CanonicalizerTest, DevirtualizesExactReceiver) {
  auto M = compile(R"(
    class A { def m(): int { return 1; } }
    class B extends A { def m(): int { return 2; } }
    def f(): int {
      var b = new B();
      return b.m();
    }
    def main() { print(f()); }
  )");
  Function *F = M->function("f");
  CanonStats Stats = canonicalize(*F, *M);
  EXPECT_EQ(Stats.Devirtualized, 1u);
  EXPECT_EQ(countKind(*F, ValueKind::VirtualCall), 0u);
  ASSERT_EQ(countKind(*F, ValueKind::Call), 1u);
  // No null check needed: `new B()` is provably non-null.
  EXPECT_EQ(countKind(*F, ValueKind::NullCheck), 0u);
  for (const auto &BB : F->blocks())
    for (const auto &Inst : BB->instructions())
      if (const auto *Call = dyn_cast<CallInst>(Inst.get())) {
        EXPECT_EQ(Call->callee(), "B.m");
      }
  expectVerified(*M);
  EXPECT_EQ(runOutput(*M), "2\n");
}

TEST(CanonicalizerTest, DevirtualizesViaCHAWithNullCheck) {
  // A has subclasses, but none overrides m: unique dispatch target.
  auto M = compile(R"(
    class A { def m(): int { return 7; } }
    class B extends A { }
    class C extends B { }
    def f(a: A): int { return a.m(); }
    def main() { print(f(new C())); }
  )");
  Function *F = M->function("f");
  CanonStats Stats = canonicalize(*F, *M);
  EXPECT_EQ(Stats.Devirtualized, 1u);
  EXPECT_EQ(countKind(*F, ValueKind::VirtualCall), 0u);
  // Receiver is an argument (maybe null): a null check guards the call.
  EXPECT_EQ(countKind(*F, ValueKind::NullCheck), 1u);
  expectVerified(*M);
  EXPECT_EQ(runOutput(*M), "7\n");
}

TEST(CanonicalizerTest, CHADevirtPreservesNullTrap) {
  const char *Source = R"(
    class A { def m(): int { return 7; } }
    def f(a: A): int { return a.m(); }
    def main() { var a: A = null; print(f(a)); }
  )";
  auto Reference = compile(Source);
  interp::ExecResult Before = interp::runMain(*Reference);
  EXPECT_EQ(Before.Trap, interp::TrapKind::NullPointer);

  auto M = compile(Source);
  canonicalize(*M->function("f"), *M);
  interp::ExecResult After = interp::runMain(*M);
  EXPECT_EQ(After.Trap, interp::TrapKind::NullPointer);
}

TEST(CanonicalizerTest, NoDevirtualizationForPolymorphicCallsite) {
  auto M = compile(R"(
    class A { def m(): int { return 1; } }
    class B extends A { def m(): int { return 2; } }
    def f(a: A): int { return a.m(); }
    def main() { }
  )");
  Function *F = M->function("f");
  CanonStats Stats = canonicalize(*F, *M);
  EXPECT_EQ(Stats.Devirtualized, 0u);
  EXPECT_EQ(countKind(*F, ValueKind::VirtualCall), 1u);
}

TEST(CanonicalizerTest, DevirtualizationCanBeDisabled) {
  auto M = compile(R"(
    class A { def m(): int { return 1; } }
    def f(): int { return (new A()).m(); }
    def main() { }
  )");
  CanonOptions Options;
  Options.EnableDevirtualization = false;
  CanonStats Stats = canonicalize(*M->function("f"), *M, Options);
  EXPECT_EQ(Stats.Devirtualized, 0u);
  EXPECT_EQ(countKind(*M->function("f"), ValueKind::VirtualCall), 1u);
}

TEST(CanonicalizerTest, ExactnessFlowsThroughPhis) {
  // Both arms produce `new B()`: the phi is exactly B, so the call
  // devirtualizes even though the variable's static type is A.
  auto M = compile(R"(
    class A { def m(): int { return 1; } }
    class B extends A { def m(): int { return 2; } }
    class Unrelated extends A { def m(): int { return 3; } }
    def f(c: bool): int {
      var a: A = new B();
      if (c) { a = new B(); }
      return a.m();
    }
    def main() { }
  )");
  Function *F = M->function("f");
  CanonStats Stats = canonicalize(*F, *M);
  EXPECT_EQ(Stats.Devirtualized, 1u) << printFunction(*F);
}

TEST(CanonicalizerTest, VisitBudgetStopsEarly) {
  auto M = compile(R"(
    def f(): int { return 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10; }
    def main() { }
  )");
  CanonOptions Options;
  Options.VisitBudget = 3;
  CanonStats Stats = canonicalize(*M->function("f"), *M, Options);
  EXPECT_TRUE(Stats.BudgetExhausted);
  // Not all adds were folded.
  EXPECT_GT(countKind(*M->function("f"), ValueKind::BinOp), 0u);
}

TEST(CanonicalizerTest, StatsTotalMatchesComponents) {
  CanonStats Stats;
  Stats.ConstantsFolded = 2;
  Stats.Devirtualized = 3;
  Stats.BranchesPruned = 1;
  EXPECT_EQ(Stats.total(), 6u);
  CanonStats More;
  More.CastsFolded = 4;
  Stats += More;
  EXPECT_EQ(Stats.total(), 10u);
}

TEST(CanonicalizerTest, WholeProgramSemanticsPreserved) {
  const char *Source = R"(
    class Shape { def area(): int { return 0; } }
    class Square extends Shape {
      var s: int;
      def area(): int { return this.s * this.s; }
    }
    class Rect extends Shape {
      var w: int; var h: int;
      def area(): int { return this.w * this.h; }
    }
    def total(shapes: Shape[]): int {
      var i = 0;
      var sum = 0;
      while (i < shapes.length) {
        sum = sum + shapes[i].area();
        i = i + 1;
      }
      return sum;
    }
    def main() {
      var xs = new Shape[3];
      var sq = new Square(); sq.s = 3;
      var r = new Rect(); r.w = 2; r.h = 5;
      xs[0] = sq; xs[1] = r; xs[2] = new Shape();
      print(total(xs));
    }
  )";
  auto Reference = compile(Source);
  std::string Expected = runOutput(*Reference);
  auto M = compile(Source);
  for (const auto &[Name, F] : M->functions())
    canonicalize(*F, *M);
  expectVerified(*M);
  EXPECT_EQ(runOutput(*M), Expected);
}

} // namespace
