//===- tests/frontend_compiler_test.cpp - Parser/Sema/Lowering tests -------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace incline;
using namespace incline::frontend;

namespace {

TEST(CompilerTest, MinimalMain) {
  CompileResult R = compileProgram("def main() { print(42); }");
  ASSERT_TRUE(R.succeeded()) << renderDiagnostics(R.Diags);
  ir::Function *Main = R.Mod->function("main");
  ASSERT_NE(Main, nullptr);
  EXPECT_EQ(Main->numParams(), 0u);
  EXPECT_TRUE(ir::verifyFunction(*Main).empty());
}

TEST(CompilerTest, ArithmeticAndLocals) {
  CompileResult R = compileProgram(R"(
    def main() {
      var x = 1 + 2 * 3;
      var y: int = x - 4 / 2;
      print(x % y);
    }
  )");
  ASSERT_TRUE(R.succeeded()) << renderDiagnostics(R.Diags);
}

TEST(CompilerTest, IfElseProducesPhi) {
  CompileResult R = compileProgram(R"(
    def f(c: bool): int {
      var x = 0;
      if (c) { x = 1; } else { x = 2; }
      return x;
    }
    def main() { print(f(true)); }
  )");
  ASSERT_TRUE(R.succeeded()) << renderDiagnostics(R.Diags);
  std::string Text = ir::printFunction(*R.Mod->function("f"));
  EXPECT_NE(Text.find("phi"), std::string::npos) << Text;
}

TEST(CompilerTest, WhileLoopProducesLoopPhi) {
  CompileResult R = compileProgram(R"(
    def sum(n: int): int {
      var i = 0;
      var acc = 0;
      while (i < n) { acc = acc + i; i = i + 1; }
      return acc;
    }
    def main() { print(sum(10)); }
  )");
  ASSERT_TRUE(R.succeeded()) << renderDiagnostics(R.Diags);
  std::string Text = ir::printFunction(*R.Mod->function("sum"));
  EXPECT_NE(Text.find("phi"), std::string::npos) << Text;
  EXPECT_TRUE(ir::verifyModule(*R.Mod).empty());
}

TEST(CompilerTest, ClassesMethodsFields) {
  CompileResult R = compileProgram(R"(
    class Point {
      var x: int;
      var y: int;
      def sum(): int { return this.x + this.y; }
    }
    def main() {
      var p = new Point();
      p.x = 3;
      p.y = 4;
      print(p.sum());
    }
  )");
  ASSERT_TRUE(R.succeeded()) << renderDiagnostics(R.Diags);
  ASSERT_NE(R.Mod->function("Point.sum"), nullptr);
  // Method takes `this` as parameter 0.
  EXPECT_EQ(R.Mod->function("Point.sum")->numParams(), 1u);
  auto Id = R.Mod->classes().classIdOf("Point");
  ASSERT_TRUE(Id.has_value());
  EXPECT_EQ(R.Mod->classes().fieldLayout(*Id).size(), 2u);
}

TEST(CompilerTest, InheritanceAndOverride) {
  CompileResult R = compileProgram(R"(
    class Shape { def area(): int { return 0; } }
    class Square extends Shape {
      var side: int;
      def area(): int { return this.side * this.side; }
    }
    def main() {
      var s: Shape = new Square();
      print(s.area());
    }
  )");
  ASSERT_TRUE(R.succeeded()) << renderDiagnostics(R.Diags);
  auto &Classes = R.Mod->classes();
  int Shape = *Classes.classIdOf("Shape");
  int Square = *Classes.classIdOf("Square");
  EXPECT_TRUE(Classes.isSubclassOf(Square, Shape));
  EXPECT_FALSE(Classes.isSubclassOf(Shape, Square));
  const types::MethodInfo *M = Classes.resolveMethod(Square, "area");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->QualifiedName, "Square.area");
}

TEST(CompilerTest, ForwardClassReference) {
  // `Derived extends Base` with Base declared later must still resolve.
  CompileResult R = compileProgram(R"(
    class Derived extends Base { }
    class Base { }
    def main() { }
  )");
  ASSERT_TRUE(R.succeeded()) << renderDiagnostics(R.Diags);
}

TEST(CompilerTest, ArraysAndLength) {
  CompileResult R = compileProgram(R"(
    def main() {
      var xs = new int[10];
      var i = 0;
      while (i < xs.length) { xs[i] = i * i; i = i + 1; }
      print(xs[5]);
    }
  )");
  ASSERT_TRUE(R.succeeded()) << renderDiagnostics(R.Diags);
}

TEST(CompilerTest, IsAndAsOperators) {
  CompileResult R = compileProgram(R"(
    class A { }
    class B extends A { var v: int; }
    def main() {
      var a: A = new B();
      if (a is B) { print((a as B).v); }
    }
  )");
  ASSERT_TRUE(R.succeeded()) << renderDiagnostics(R.Diags);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

void expectError(std::string_view Source, std::string_view Needle) {
  CompileResult R = compileProgram(Source);
  ASSERT_FALSE(R.succeeded()) << "expected a diagnostic containing '"
                              << Needle << "'";
  std::string All = renderDiagnostics(R.Diags);
  EXPECT_NE(All.find(Needle), std::string::npos) << All;
}

TEST(CompilerDiagnosticsTest, UndeclaredVariable) {
  expectError("def main() { print(x); }", "undeclared variable");
}

TEST(CompilerDiagnosticsTest, TypeMismatchInArithmetic) {
  expectError("def main() { var x = 1 + true; }", "arithmetic requires int");
}

TEST(CompilerDiagnosticsTest, UnknownFunction) {
  expectError("def main() { nope(); }", "unknown function");
}

TEST(CompilerDiagnosticsTest, UnknownMethod) {
  expectError("class A { } def main() { var a = new A(); a.m(); }",
              "no method");
}

TEST(CompilerDiagnosticsTest, WrongArgumentCount) {
  expectError("def f(x: int) { } def main() { f(); }", "expects 1 arguments");
}

TEST(CompilerDiagnosticsTest, DuplicateClass) {
  expectError("class A { } class A { } def main() { }", "duplicate class");
}

TEST(CompilerDiagnosticsTest, UnknownSuperclass) {
  expectError("class A extends Nope { } def main() { }",
              "unknown or cyclic superclass");
}

TEST(CompilerDiagnosticsTest, InheritanceCycle) {
  expectError("class A extends B { } class B extends A { } def main() { }",
              "unknown or cyclic superclass");
}

TEST(CompilerDiagnosticsTest, OverrideSignatureMismatch) {
  expectError(R"(
    class A { def m(): int { return 1; } }
    class B extends A { def m(): bool { return true; } }
    def main() { }
  )",
              "changes the method signature");
}

TEST(CompilerDiagnosticsTest, RedeclaredLocal) {
  expectError("def main() { var x = 1; var x = 2; }", "redeclaration");
}

TEST(CompilerDiagnosticsTest, ThisOutsideMethod) {
  expectError("def main() { print(this.x); }", "'this' outside a method");
}

TEST(CompilerDiagnosticsTest, NullInference) {
  expectError("def main() { var x = null; }", "cannot infer");
}

TEST(CompilerDiagnosticsTest, ReturnTypeMismatch) {
  expectError("def f(): int { return true; } def main() { }",
              "type mismatch in return");
}

TEST(CompilerDiagnosticsTest, MissingSemicolonIsSyntaxError) {
  expectError("def main() { print(1) }", "expected ';'");
}

TEST(CompilerDiagnosticsTest, BlockScopingHidesInnerDecls) {
  expectError(R"(
    def main() {
      if (true) { var x = 1; }
      print(x);
    }
  )",
              "undeclared variable");
}

TEST(CompilerDiagnosticsTest, UnterminatedBlockCommentIsReportedWhereItOpens) {
  // The comment used to swallow the rest of the input, `f` with it, and
  // the program compiled without a word.
  CompileResult R = compileProgram("def main() { print(1); }\n"
                                   "  /* never closed\n"
                                   " def f(): int { return 1; }");
  ASSERT_FALSE(R.succeeded());
  ASSERT_EQ(R.Diags.size(), 1u) << renderDiagnostics(R.Diags);
  EXPECT_EQ(R.Diags[0].toString(), "2:3: unterminated block comment");

  expectError("def main() { } /*/", "1:16: unterminated block comment");
  EXPECT_TRUE(compileProgram("def main() { } /**/").succeeded());
}

//===----------------------------------------------------------------------===//
// AST arena
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> parse(std::string_view Source) {
  Parser P(Lexer(Source).lexAll());
  std::unique_ptr<Program> Prog = P.parseProgram();
  EXPECT_TRUE(P.diagnostics().empty());
  return Prog;
}

TEST(AstArenaTest, IdentifiersAreInternedOncePerName) {
  std::string Source = "def f(x: int): int { var y = x; y = y + x; "
                       "return y; }";
  std::unique_ptr<Program> Prog = parse(Source);
  ASSERT_EQ(Prog->Functions.size(), 1u);
  StmtList Body = Prog->Functions[0]->Body->statements();
  ASSERT_EQ(Body.size(), 3u);
  const auto *Decl = cast<VarDeclStmt>(Body[0]);
  const auto *Assign = cast<AssignLocalStmt>(Body[1]);
  const auto *Sum = cast<BinaryExpr>(Assign->value());
  // Both `x` uses and all three `y` names are one copy each, and none of
  // them views the source text.
  EXPECT_EQ(cast<VarRefExpr>(Decl->init())->name().data(),
            cast<VarRefExpr>(Sum->rhs())->name().data());
  EXPECT_EQ(Decl->name().data(), Assign->name().data());
  EXPECT_EQ(Decl->name().data(), cast<VarRefExpr>(Sum->lhs())->name().data());
  EXPECT_EQ(Prog->Arena.intern("y").data(), Decl->name().data());
  auto InSource = [&](std::string_view V) {
    return V.data() >= Source.data() &&
           V.data() < Source.data() + Source.size();
  };
  EXPECT_FALSE(InSource(Decl->name()));
  EXPECT_EQ(Prog->Arena.numInterned(), 2u); // x and y.
}

TEST(AstArenaTest, NodesOutliveTheTokensAndSource) {
  std::unique_ptr<Program> Prog;
  {
    std::string Source =
        "class Box { var v: int; def get(): int { return this.v; } }\n"
        "def main() { var b = new Box(); b.v = 4; print(b.get()); }";
    Prog = parse(Source);
    Source.assign(Source.size(), '#'); // Scribble over the text.
  }
  ASSERT_EQ(Prog->Functions.size(), 1u);
  StmtList Main = Prog->Functions[0]->Body->statements();
  ASSERT_EQ(Main.size(), 3u);
  const auto *Store = cast<AssignFieldStmt>(Main[1]);
  EXPECT_EQ(Store->field(), "v");
  const auto *Print = cast<PrintStmt>(Main[2]);
  const auto *Call = cast<MethodCallExpr>(Print->value());
  EXPECT_EQ(Call->method(), "get");
  EXPECT_TRUE(Call->args().empty());
  EXPECT_EQ(cast<VarDeclStmt>(Main[0])->name(), "b");
  EXPECT_EQ(cast<NewObjectExpr>(cast<VarDeclStmt>(Main[0])->init())
                ->className(),
            "Box");
}

TEST(AstArenaTest, AllocationsAreAlignedAndChunked) {
  AstArena A;
  EXPECT_EQ(A.numChunks(), 0u);
  auto *Lit = A.make<IntLitExpr>(7, SourceLocation{});
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Lit) % alignof(IntLitExpr), 0u);
  EXPECT_EQ(Lit->value(), 7);
  EXPECT_EQ(A.numChunks(), 1u);
  // Many small nodes take a few growing chunks, not one block each.
  for (int I = 0; I < 20000; ++I) {
    auto *N = A.make<IntLitExpr>(I, SourceLocation{});
    ASSERT_EQ(reinterpret_cast<uintptr_t>(N) % alignof(IntLitExpr), 0u);
  }
  EXPECT_LT(A.numChunks(), 20u);
  // A list bigger than a chunk gets a chunk of its own.
  std::vector<Expr *> Many(20000, Lit);
  size_t Before = A.numChunks();
  ExprList Copy = A.copyList<Expr>(Many);
  EXPECT_EQ(A.numChunks(), Before + 1);
  ASSERT_EQ(Copy.size(), Many.size());
  EXPECT_EQ(Copy.back(), Lit);
  EXPECT_TRUE(A.copyList<Expr>(ExprList{}).empty());
}

TEST(AstArenaTest, InternTableGrowsWithoutLosingNames) {
  AstArena A;
  std::vector<std::string_view> First;
  for (int I = 0; I < 3000; ++I)
    First.push_back(A.intern("name" + std::to_string(I)));
  EXPECT_EQ(A.numInterned(), 3000u);
  for (int I = 0; I < 3000; ++I) {
    std::string_view Again = A.intern("name" + std::to_string(I));
    EXPECT_EQ(Again.data(), First[static_cast<size_t>(I)].data());
    EXPECT_EQ(Again, "name" + std::to_string(I));
  }
  EXPECT_EQ(A.numInterned(), 3000u);
}

} // namespace
