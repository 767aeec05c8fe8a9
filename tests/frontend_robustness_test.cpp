//===- tests/frontend_robustness_test.cpp - Damaged sources ----------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
//
// Feeds damaged copies of the suite's sources through compileProgram:
// every prefix that ends at a multiple of 97 bytes, and, for every 11th
// byte, a copy with that byte changed (a flipped bit, or a substituted
// delimiter, operator or stray byte). Each input must either compile to a
// module the verifier accepts or produce at least one diagnostic. A crash,
// a verifier failure, or a failed compile with no diagnostic fails the
// test.
//
// The inputs end at arbitrary bytes (mid-identifier, mid-comment, after a
// lone '/'), which is where a lexer reads past its buffer, so the
// sanitizer build of this test is its main use.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "ir/IRVerifier.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

using namespace incline;

namespace {

constexpr size_t TruncationStride = 97;
constexpr size_t ChangeStride = 11;

/// Compiles \p Source from its own heap buffer of exactly its size, so a
/// read past the end is a heap overflow the sanitizers see, and checks the
/// outcome. Returns whether it compiled.
bool checkOutcome(std::string_view Source, const std::string &What) {
  auto Buffer = std::make_unique<char[]>(Source.size());
  std::copy(Source.begin(), Source.end(), Buffer.get());
  frontend::CompileResult R =
      frontend::compileProgram({Buffer.get(), Source.size()});
  if (!R.succeeded()) {
    EXPECT_FALSE(R.Diags.empty()) << What << ": no module and no diagnostic";
    return false;
  }
  EXPECT_TRUE(R.Diags.empty()) << What << ": a module and diagnostics";
  std::vector<std::string> Problems = ir::verifyModule(*R.Mod);
  EXPECT_TRUE(Problems.empty())
      << What << ": invalid module: " << Problems.front();
  return true;
}

TEST(FrontendRobustnessTest, TruncatedSourcesCompileOrAreDiagnosed) {
  size_t Inputs = 0, Compiled = 0;
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    std::string_view Source = W.Source;
    for (size_t Length = 0; Length < Source.size();
         Length += TruncationStride) {
      Compiled += checkOutcome(Source.substr(0, Length),
                               W.Name + " cut at " + std::to_string(Length));
      ++Inputs;
    }
  }
  // Only prefixes that end between whole declarations compile.
  EXPECT_GT(Inputs, 250u);
  EXPECT_LT(Compiled, Inputs / 4);
}

TEST(FrontendRobustnessTest, SourcesWithOneByteChangedCompileOrAreDiagnosed) {
  // Delimiters, operators, comment openers, a quote, a NUL and a non-ASCII
  // byte, each of which the lexer or parser treats specially.
  static constexpr std::string_view Substitutes{
      "(){}[];:,.=<>!&|/*-+%\"#\n0aZ\0\xff", 29};
  size_t Inputs = 0, Diagnosed = 0;
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    std::string Source = W.Source;
    for (size_t At = ChangeStride / 2, N = 0; At < Source.size();
         At += ChangeStride, ++N) {
      char Original = Source[At];
      Source[At] = N % 2 ? Substitutes[(N / 2) % Substitutes.size()]
                         : static_cast<char>(Original ^ (1 << (N / 2 % 8)));
      Diagnosed += !checkOutcome(Source, W.Name + " with byte " +
                                             std::to_string(At) + " changed");
      Source[At] = Original;
      ++Inputs;
    }
  }
  EXPECT_GT(Inputs, 2000u);
  EXPECT_GT(Diagnosed, Inputs / 2);
}

} // namespace
