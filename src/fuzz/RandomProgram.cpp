//===- fuzz/RandomProgram.cpp ------------------------------------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/RandomProgram.h"

#include "support/Random.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <vector>

using namespace incline;
using namespace incline::fuzz;

namespace {

/// Grammar-directed generator with a per-scope typed variable pool.
class Generator {
public:
  Generator(uint64_t Seed, const GenOptions &Options)
      : Rng(Seed ^ 0x1234567887654321ULL), Opts(Options) {
    Opts.SizePercent = std::clamp(Opts.SizePercent, 10, 1000);
  }

  std::string run() {
    NumClasses = Opts.EnableVirtualDispatch
                     ? static_cast<int>(Rng.nextInRange(2, 4))
                     : 0;
    emitHelpers();
    emitClasses();
    emitFreeFunctions();
    emitMain();
    return Out;
  }

private:
  //===--------------------------------------------------------------------===//
  // Expressions. `intExpr` yields an int of bounded magnitude;
  // `boolExpr` a bool. Depth-limited.
  //===--------------------------------------------------------------------===//

  /// Variables visible in the current function scope.
  struct Var {
    std::string Name;
    enum class Kind { Int, Bool, IntArray, Object } K;
    int ClassId = -1;      // For Object.
    bool ReadOnly = false; // Loop counters: assigning one would break the
                           // bounded-loop termination guarantee.
  };

  std::string intExpr(int Depth) {
    // Pick among literals, int vars, arithmetic, array reads, field
    // reads, and calls.
    bool CallsAllowed =
        InFunctionBody ? !IntFuncs.empty() && IntFuncs[0] == "idx"
                       : !IntFuncs.empty();
    std::vector<double> Weights = {2, Depth > 0 ? 3.0 : 0.0,
                                   intVarsAvailable() ? 4.0 : 0.0,
                                   Depth > 0 && arrayAvailable() ? 2.0 : 0.0,
                                   Depth > 0 && objectAvailable() ? 2.0 : 0.0,
                                   Depth > 0 && CallsAllowed ? 2.0 : 0.0};
    switch (Rng.nextWeighted(Weights)) {
    case 0:
      return std::to_string(Rng.nextInRange(-20, 20));
    case 1: {
      const char *Ops[] = {"+", "-", "*"};
      std::string Op = Ops[Rng.nextBelow(3)];
      std::string Lhs = intExpr(Depth - 1);
      std::string Rhs = intExpr(Depth - 1);
      if (Rng.nextBool(0.25)) {
        // Trap-free division: the divisor d*d + 1 is always positive.
        std::string D = intExpr(Depth - 1);
        return "(" + Lhs + " / ((" + D + ") * (" + D + ") + 1))";
      }
      return "(" + Lhs + " " + Op + " " + Rhs + ")";
    }
    case 2:
      return pickVar(Var::Kind::Int);
    case 3:
      return "arr[idx(" + intExpr(Depth - 1) + ")]";
    case 4: {
      std::string Obj = pickVar(Var::Kind::Object);
      if (Rng.nextBool(0.5))
        return Obj + ".f0";
      return Obj + ".m(" + intExpr(Depth - 1) + ")";
    }
    default: {
      // Inside generated function bodies only the O(1) helper may be
      // called: transitive fn->fn calls under nested loops would make a
      // program's cost explode combinatorially.
      const std::string &F =
          InFunctionBody ? IntFuncs[0]
                         : IntFuncs[Rng.nextBelow(IntFuncs.size())];
      return F + "(" + intExpr(Depth - 1) + ")";
    }
    }
  }

  std::string boolExpr(int Depth) {
    if (Depth <= 0 || Rng.nextBool(0.3))
      return Rng.nextBool() ? "true" : "false";
    const char *Cmp[] = {"<", "<=", ">", ">=", "==", "!="};
    // `"(" + std::string&&` trips a GCC 12 -Wrestrict false positive in
    // optimized builds; appending to a named string does not.
    std::string E = "(";
    E += intExpr(Depth - 1) + " " + Cmp[Rng.nextBelow(6)] + " " +
         intExpr(Depth - 1) + ")";
    return E;
  }

  bool intVarsAvailable() const {
    for (const Var &V : Scope)
      if (V.K == Var::Kind::Int)
        return true;
    return false;
  }
  bool arrayAvailable() const {
    for (const Var &V : Scope)
      if (V.K == Var::Kind::IntArray)
        return true;
    return false;
  }
  bool objectAvailable() const {
    for (const Var &V : Scope)
      if (V.K == Var::Kind::Object)
        return true;
    return false;
  }

  std::string pickVar(Var::Kind K, bool ForWrite = false) {
    std::vector<const Var *> Candidates;
    for (const Var &V : Scope)
      if (V.K == K && !(ForWrite && V.ReadOnly))
        Candidates.push_back(&V);
    return Candidates[Rng.nextBelow(Candidates.size())]->Name;
  }

  bool writableIntAvailable() const {
    for (const Var &V : Scope)
      if (V.K == Var::Kind::Int && !V.ReadOnly)
        return true;
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Statements.
  //===--------------------------------------------------------------------===//

  void statement(int Depth, int Indent) {
    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    std::vector<double> Weights = {
        3,                                        // var decl
        writableIntAvailable() ? 3.0 : 0.0,       // int assign
        arrayAvailable() ? 2.0 : 0.0,             // array store
        objectAvailable() ? 2.0 : 0.0,            // field store
        Depth > 0 ? 2.0 : 0.0,                    // if
        Depth > 0 && Opts.EnableLoops ? 1.5 : 0., // bounded while
        1.0,                                      // print
    };
    switch (Rng.nextWeighted(Weights)) {
    case 0: {
      std::string Name = freshVar();
      if (!Opts.EnableVirtualDispatch || Rng.nextBool(0.7)) {
        Out += Pad + "var " + Name + " = " + intExpr(2) + ";\n";
        Scope.push_back({Name, Var::Kind::Int, -1});
      } else {
        int ClassId = static_cast<int>(Rng.nextBelow(NumClasses));
        Out += Pad + "var " + Name + ": C0 = new C" +
               std::to_string(ClassId) + "();\n";
        Scope.push_back({Name, Var::Kind::Object, 0});
      }
      return;
    }
    case 1:
      Out += Pad + pickVar(Var::Kind::Int, /*ForWrite=*/true) + " = " +
             intExpr(2) + ";\n";
      return;
    case 2:
      Out += Pad + "arr[idx(" + intExpr(1) + ")] = " + intExpr(2) + ";\n";
      return;
    case 3:
      Out += Pad + pickVar(Var::Kind::Object) + ".f0 = " + intExpr(2) +
             ";\n";
      return;
    case 4: {
      Out += Pad + "if (" + boolExpr(2) + ") {\n";
      size_t Mark = Scope.size();
      block(Depth - 1, Indent + 1, scaled(Rng.nextInRange(1, 2)));
      Scope.resize(Mark);
      if (Rng.nextBool(0.5)) {
        Out += Pad + "} else {\n";
        block(Depth - 1, Indent + 1, scaled(Rng.nextInRange(1, 2)));
        Scope.resize(Mark);
      }
      Out += Pad + "}\n";
      return;
    }
    case 5: {
      // Only the bounded counting shape, so every loop terminates. Small
      // bounds keep differential runs fast even when loops nest.
      std::string I = freshVar();
      int64_t Bound = Rng.nextInRange(2, 5);
      Out += Pad + "var " + I + " = 0;\n";
      Out += Pad + "while (" + I + " < " + std::to_string(Bound) + ") {\n";
      size_t Mark = Scope.size();
      Scope.push_back({I, Var::Kind::Int, -1, /*ReadOnly=*/true});
      block(Depth - 1, Indent + 1, scaled(Rng.nextInRange(1, 2)));
      Out += Pad + "  " + I + " = " + I + " + 1;\n";
      Scope.resize(Mark);
      Out += Pad + "}\n";
      return;
    }
    default:
      Out += Pad + "print(" + intExpr(2) + ");\n";
      return;
    }
  }

  void block(int Depth, int Indent, int Statements) {
    for (int I = 0; I < Statements; ++I)
      statement(Depth, Indent);
  }

  std::string freshVar() {
    std::string Name = "v"; // Appended, as in boolExpr (-Wrestrict).
    Name += std::to_string(NextVar++);
    return Name;
  }

  /// Applies the size budget to a drawn statement count. At the default
  /// 100% this is the identity, keeping default-shape programs bit-for-bit
  /// identical to the historical generator for any fixed seed.
  int scaled(int64_t Count) const {
    return std::max<int64_t>(
        1, (Count * Opts.SizePercent + 50) / 100);
  }

  //===--------------------------------------------------------------------===//
  // Top-level structure.
  //===--------------------------------------------------------------------===//

  void emitHelpers() {
    if (Opts.EnableArrays) {
      // Trap-free array indexing into a fixed length of 8.
      Out += "def idx(x: int): int {\n"
             "  if (x < 0) { return (0 - x) % 8; }\n"
             "  return x % 8;\n"
             "}\n";
    }
    if (Opts.EnableRecursion) {
      // A structurally decreasing recursive function.
      Out += "def rec(n: int, salt: int): int {\n"
             "  if (n <= 0) { return salt; }\n"
             "  return (rec(n - 1, salt) * 3 + n) % 9973;\n"
             "}\n";
    }
    if (Opts.EnableArrays)
      IntFuncs.push_back("idx");
  }

  void emitClasses() {
    // C0 is the root; the others extend it, each overriding m.
    for (int C = 0; C < NumClasses; ++C) {
      Out += "class C" + std::to_string(C) +
             (C == 0 ? std::string("") : " extends C0") + " {\n";
      if (C == 0)
        Out += "  var f0: int;\n";
      Out += "  def m(x: int): int {\n";
      // Method bodies: a small int expression over x, this.f0 and
      // constants; recursion is avoided (no method calls inside m except
      // through the safe helpers).
      Scope.clear();
      Scope.push_back({"x", Var::Kind::Int, -1});
      int64_t A = Rng.nextInRange(-5, 7);
      int64_t B = Rng.nextInRange(1, 9);
      if (Opts.EnableRecursion) {
        Out += formatString("    return (x * %lld + this.f0 * %lld + "
                            "rec(%lld, x)) %% 9973;\n",
                            static_cast<long long>(A),
                            static_cast<long long>(B),
                            static_cast<long long>(Rng.nextInRange(1, 4)));
      } else {
        Out += formatString("    return (x * %lld + this.f0 * %lld) %% "
                            "9973;\n",
                            static_cast<long long>(A),
                            static_cast<long long>(B));
      }
      Out += "  }\n}\n";
    }
  }

  void emitFreeFunctions() {
    int NumFuncs = static_cast<int>(Rng.nextInRange(2, 4));
    InFunctionBody = true;
    for (int F = 0; F < NumFuncs; ++F) {
      std::string Name = "fn" + std::to_string(F);
      Out += "def " + Name + "(a: int): int {\n";
      Scope.clear();
      NextVar = 0;
      Scope.push_back({"a", Var::Kind::Int, -1});
      block(2, 1, scaled(Rng.nextInRange(1, 3)));
      Out += "  return " + intExpr(2) + ";\n}\n";
      IntFuncs.push_back(Name);
    }
    InFunctionBody = false;
  }

  void emitMain() {
    Out += "def main() {\n";
    Scope.clear();
    NextVar = 100; // Distinct from function-local names.
    // The fixed environment every generated program can rely on: an int
    // array `arr` and one object of each class (feature-gated).
    if (Opts.EnableArrays) {
      Out += "  var arr = new int[8];\n";
      Scope.push_back({"arr", Var::Kind::IntArray, -1});
    }
    for (int C = 0; C < NumClasses; ++C) {
      std::string Name = "obj" + std::to_string(C);
      Out += "  var " + Name + ": C0 = new C" + std::to_string(C) + "();\n";
      Out += "  " + Name + ".f0 = " + std::to_string(Rng.nextInRange(0, 9)) +
             ";\n";
      Scope.push_back({Name, Var::Kind::Object, 0});
    }
    block(2, 1, scaled(Rng.nextInRange(3, 6)));
    // Final checksums make silent state divergence visible.
    Out += "  var check = 0;\n";
    if (Opts.EnableArrays) {
      if (Opts.EnableLoops) {
        Out += "  var ci = 0;\n";
        Out += "  while (ci < 8) { check = (check * 31 + arr[ci]) % 1000003;"
               " ci = ci + 1; }\n";
      } else {
        for (int I = 0; I < 8; ++I)
          Out += "  check = (check * 31 + arr[" + std::to_string(I) +
                 "]) % 1000003;\n";
      }
    }
    for (int C = 0; C < NumClasses; ++C)
      Out += "  check = (check * 31 + obj" + std::to_string(C) +
             ".m(check)) % 1000003;\n";
    Out += "  print(check);\n";
    Out += "}\n";
  }

  SplitMix64 Rng;
  GenOptions Opts;
  std::string Out;
  int NumClasses = 0;
  int NextVar = 0;
  bool InFunctionBody = false;
  std::vector<Var> Scope;
  std::vector<std::string> IntFuncs;
};

} // namespace

std::string incline::fuzz::generateRandomProgram(uint64_t Seed) {
  return generateRandomProgram(Seed, GenOptions());
}

std::string incline::fuzz::generateRandomProgram(uint64_t Seed,
                                                 const GenOptions &Options) {
  return Generator(Seed, Options).run();
}
