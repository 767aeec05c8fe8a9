//===- tests/frontend_parser_edge_test.cpp - Parser edge cases --------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ir/ArithSemantics.h"

#include <gtest/gtest.h>

using namespace incline;
using incline::testing::compile;
using incline::testing::runOutput;

namespace {

std::string evalMain(const std::string &Expr) {
  auto M = compile("def main() { print(" + Expr + "); }");
  return incline::testing::runOutput(*M);
}

TEST(ParserEdgeTest, PrecedenceMulOverAdd) {
  EXPECT_EQ(evalMain("2 + 3 * 4"), "14\n");
  EXPECT_EQ(evalMain("(2 + 3) * 4"), "20\n");
  EXPECT_EQ(evalMain("2 * 3 + 4 * 5"), "26\n");
}

TEST(ParserEdgeTest, PrecedenceComparisonsOverBool) {
  EXPECT_EQ(evalMain("1 < 2 && 3 < 4"), "true\n");
  EXPECT_EQ(evalMain("1 < 2 || 3 > 4"), "true\n");
  // == binds tighter than &&.
  EXPECT_EQ(evalMain("true == false && false"), "false\n");
}

TEST(ParserEdgeTest, AssociativityLeftToRight) {
  EXPECT_EQ(evalMain("10 - 3 - 2"), "5\n");
  EXPECT_EQ(evalMain("100 / 5 / 2"), "10\n");
  EXPECT_EQ(evalMain("20 % 7 % 4"), "2\n");
}

TEST(ParserEdgeTest, UnaryChains) {
  EXPECT_EQ(evalMain("- - 5"), "5\n");
  EXPECT_EQ(evalMain("!!true"), "true\n");
  EXPECT_EQ(evalMain("-5 + 3"), "-2\n");
}

TEST(ParserEdgeTest, ElseIfChains) {
  auto M = compile(R"(
    def classify(x: int): int {
      if (x < 0) { return 0; }
      else if (x == 0) { return 1; }
      else if (x < 10) { return 2; }
      else { return 3; }
    }
    def main() {
      print(classify(0 - 5)); print(classify(0));
      print(classify(5)); print(classify(50));
    }
  )");
  EXPECT_EQ(runOutput(*M), "0\n1\n2\n3\n");
}

TEST(ParserEdgeTest, PostfixChains) {
  auto M = compile(R"(
    class Box { var inner: Box; var v: int; }
    def main() {
      var a = new Box();
      a.inner = new Box();
      a.inner.inner = new Box();
      a.inner.inner.v = 42;
      print(a.inner.inner.v);
    }
  )");
  EXPECT_EQ(runOutput(*M), "42\n");
}

TEST(ParserEdgeTest, MethodCallOnCallResult) {
  auto M = compile(R"(
    class Builder {
      var total: int;
      def add(x: int): Builder { this.total = this.total + x; return this; }
    }
    def main() {
      var b = new Builder();
      print(b.add(1).add(2).add(3).total);
    }
  )");
  EXPECT_EQ(runOutput(*M), "6\n");
}

TEST(ParserEdgeTest, IsAsChains) {
  auto M = compile(R"(
    class A { }
    class B extends A { var v: int; }
    def main() {
      var a: A = new B();
      print((a as B) is B);
      (a as B).v = 9;
      print((a as B).v);
    }
  )");
  EXPECT_EQ(runOutput(*M), "true\n9\n");
}

TEST(ParserEdgeTest, IsAsTakeNoTighterOperatorAfterTheClassName) {
  // `is` and `as` sit at the comparisons' level and have no right operand:
  // a tighter operator after the class name does not continue the
  // expression, and a comparison does.
  EXPECT_EQ(evalMain("1 < 2 == 3 < 4"), "true\n");
  auto M = compile(R"(
    class A { }
    def main() { var a = new A(); print(a is A == a is A); }
  )");
  EXPECT_EQ(runOutput(*M), "true\n");
  for (const char *Body : {"print(a is A + 1);", "print((a as A * 2));",
                           "print(a is A.f);"}) {
    frontend::CompileResult R = frontend::compileProgram(
        std::string("class A { var f: int; } def main() { var a = new A(); ") +
        Body + " }");
    ASSERT_FALSE(R.succeeded()) << Body;
    EXPECT_NE(R.Diags[0].Message.find("expected ')'"), std::string::npos)
        << Body << ": " << R.Diags[0].toString();
  }
}

TEST(ParserEdgeTest, IndexOfCallResult) {
  auto M = compile(R"(
    def make(): int[] {
      var xs = new int[3];
      xs[1] = 7;
      return xs;
    }
    def main() { print(make()[1]); }
  )");
  EXPECT_EQ(runOutput(*M), "7\n");
}

TEST(ParserEdgeTest, CommentsEverywhere) {
  auto M = compile(R"(
    // leading comment
    def main() { /* inline */ print(/* before arg */ 1 /* after */); }
    /* trailing
       multi-line */
  )");
  EXPECT_EQ(runOutput(*M), "1\n");
}

TEST(ParserEdgeTest, MultipleErrorsReportedInOneRun) {
  frontend::CompileResult R = frontend::compileProgram(R"(
    def main() {
      var x = ;
      var y = 1;
      print(z);
    }
  )");
  ASSERT_FALSE(R.succeeded());
  // The parser synchronizes and keeps going: at least one error, and the
  // file position of the first error points at line 3.
  EXPECT_GE(R.Diags.size(), 1u);
  EXPECT_EQ(R.Diags[0].Loc.Line, 3u);
}

//===----------------------------------------------------------------------===//
// Arithmetic semantics (the shared fold/interp definitions)
//===----------------------------------------------------------------------===//

TEST(ArithSemanticsTest, WrapAround) {
  using Op = ir::BinOpInst::Opcode;
  EXPECT_EQ(*ir::foldIntBinOp(Op::Add, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(*ir::foldIntBinOp(Op::Sub, INT64_MIN, 1), INT64_MAX);
  EXPECT_EQ(*ir::foldIntBinOp(Op::Mul, INT64_MAX, 2), -2);
  EXPECT_EQ(ir::foldNeg(INT64_MIN), INT64_MIN);
}

TEST(ArithSemanticsTest, DivisionEdgeCases) {
  using Op = ir::BinOpInst::Opcode;
  EXPECT_FALSE(ir::foldIntBinOp(Op::Div, 5, 0).has_value());
  EXPECT_FALSE(ir::foldIntBinOp(Op::Mod, 5, 0).has_value());
  EXPECT_EQ(*ir::foldIntBinOp(Op::Div, INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(*ir::foldIntBinOp(Op::Mod, INT64_MIN, -1), 0);
  EXPECT_EQ(*ir::foldIntBinOp(Op::Div, -7, 2), -3);  // Truncated.
  EXPECT_EQ(*ir::foldIntBinOp(Op::Mod, -7, 2), -1);
}

TEST(ArithSemanticsTest, ShiftsMaskTo6Bits) {
  using Op = ir::BinOpInst::Opcode;
  EXPECT_EQ(*ir::foldIntBinOp(Op::Shl, 1, 64), 1);   // 64 & 63 == 0.
  EXPECT_EQ(*ir::foldIntBinOp(Op::Shl, 1, 65), 2);
  EXPECT_EQ(*ir::foldIntBinOp(Op::Shr, -8, 1), -4);  // Arithmetic shift.
}

TEST(ArithSemanticsTest, Comparisons) {
  using Op = ir::BinOpInst::Opcode;
  EXPECT_TRUE(ir::foldIntComparison(Op::Le, 3, 3));
  EXPECT_FALSE(ir::foldIntComparison(Op::Lt, 3, 3));
  EXPECT_TRUE(ir::foldIntComparison(Op::Ne, INT64_MIN, INT64_MAX));
}

TEST(ArithSemanticsTest, BoolOps) {
  using Op = ir::BinOpInst::Opcode;
  EXPECT_EQ(*ir::foldBoolBinOp(Op::And, true, false), false);
  EXPECT_EQ(*ir::foldBoolBinOp(Op::Or, true, false), true);
  EXPECT_EQ(*ir::foldBoolBinOp(Op::Xor, true, true), false);
  EXPECT_EQ(*ir::foldBoolBinOp(Op::Eq, false, false), true);
  EXPECT_FALSE(ir::foldBoolBinOp(Op::Add, true, false).has_value());
}

} // namespace
