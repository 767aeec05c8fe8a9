//===- tests/support_test.cpp - Support-library unit tests ------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Cancellation.h"
#include "support/Casting.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace incline;

namespace {

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

struct Base {
  enum class Kind { A, B } K;
  explicit Base(Kind K) : K(K) {}
};
struct DerivedA : Base {
  DerivedA() : Base(Kind::A) {}
  static bool classof(const Base *B) { return B->K == Base::Kind::A; }
};
struct DerivedB : Base {
  int Payload = 42;
  DerivedB() : Base(Kind::B) {}
  static bool classof(const Base *B) { return B->K == Base::Kind::B; }
};

TEST(CastingTest, IsaAndCast) {
  DerivedA A;
  DerivedB B;
  Base *PA = &A, *PB = &B;
  EXPECT_TRUE(isa<DerivedA>(PA));
  EXPECT_FALSE(isa<DerivedB>(PA));
  EXPECT_TRUE((isa<DerivedA, DerivedB>(PB))); // Variadic form.
  EXPECT_EQ(cast<DerivedB>(PB)->Payload, 42);
  EXPECT_EQ(dyn_cast<DerivedB>(PA), nullptr);
  EXPECT_NE(dyn_cast<DerivedB>(PB), nullptr);
}

TEST(CastingTest, PresentVariants) {
  Base *Null = nullptr;
  EXPECT_FALSE(isa_and_present<DerivedA>(Null));
  EXPECT_EQ(dyn_cast_if_present<DerivedA>(Null), nullptr);
  DerivedA A;
  Base *PA = &A;
  EXPECT_TRUE(isa_and_present<DerivedA>(PA));
  EXPECT_NE(dyn_cast_if_present<DerivedA>(PA), nullptr);
}

TEST(CastingTest, ConstOverloads) {
  const DerivedB B;
  const Base *PB = &B;
  EXPECT_EQ(cast<DerivedB>(PB)->Payload, 42);
  EXPECT_NE(dyn_cast<DerivedB>(PB), nullptr);
}

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(RandomTest, Deterministic) {
  SplitMix64 A(7), B(7), C(8);
  EXPECT_EQ(A.next(), B.next());
  SplitMix64 A2(7);
  EXPECT_NE(A2.next(), C.next());
}

TEST(RandomTest, RangesRespected) {
  SplitMix64 Rng(1);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(10), 10u);
    int64_t V = Rng.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, WeightedSelectionRespectsZeros) {
  SplitMix64 Rng(3);
  std::vector<double> Weights = {0.0, 1.0, 0.0};
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Rng.nextWeighted(Weights), 1u);
}

TEST(RandomTest, WeightedSelectionIsRoughlyProportional) {
  SplitMix64 Rng(5);
  std::vector<double> Weights = {1.0, 3.0};
  int Counts[2] = {0, 0};
  for (int I = 0; I < 4000; ++I)
    ++Counts[Rng.nextWeighted(Weights)];
  EXPECT_NEAR(static_cast<double>(Counts[1]) / Counts[0], 3.0, 0.5);
}

//===----------------------------------------------------------------------===//
// Hash
//===----------------------------------------------------------------------===//

// Both seeds feed recorded output (trial-cache keys and module fingerprints
// use the standard basis; stream fingerprints, traffic digests and chaos
// schedules the short one), so their values are pinned.
TEST(HashTest, FnvSeedsArePinned) {
  EXPECT_EQ(fnv1a("a", FnvOffsetBasis), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("incline", FnvOffsetBasis), 0x7460171cdef9a695ull);
  EXPECT_EQ(fnv1a("incline", FnvShortBasis), 0xb260c0fedd0ab573ull);
  EXPECT_EQ(fnv1a(uint64_t{42}, FnvOffsetBasis), 0xff3add6b3789daefull);
  EXPECT_EQ(fnv1a(uint64_t{42}, FnvShortBasis), 0xe13798d64f1352c9ull);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(stddev({2, 4, 6}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(stddev({5}), 0.0);
}

TEST(StatisticsTest, Geomean) {
  EXPECT_NEAR(geomean({1, 4}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2, 2, 2}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(StatisticsTest, SteadyStateMeanMatchesPaperRule) {
  // Mean of the last 40% (max 20) repetitions.
  std::vector<double> Xs;
  for (int I = 1; I <= 10; ++I)
    Xs.push_back(I);
  // Last 4 of 10: (7+8+9+10)/4 = 8.5.
  EXPECT_DOUBLE_EQ(steadyStateMean(Xs), 8.5);
  // With 100 samples, 40% = 40 but the cap is 20.
  std::vector<double> Big(100, 1.0);
  for (int I = 80; I < 100; ++I)
    Big[static_cast<size_t>(I)] = 2.0;
  EXPECT_DOUBLE_EQ(steadyStateMean(Big), 2.0);
  EXPECT_DOUBLE_EQ(steadyStateMean({}), 0.0);
  EXPECT_DOUBLE_EQ(steadyStateMean({3.0}), 3.0);
}

TEST(StatisticsTest, MinMax) {
  EXPECT_DOUBLE_EQ(minOf({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(maxOf({3, 1, 2}), 3.0);
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, Split) {
  EXPECT_EQ(splitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(splitString("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(joinStrings({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(joinStrings({}, ","), "");
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(StringUtilsTest, Format) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatString("%s", ""), "");
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(startsWith("x", ""));
}

//===----------------------------------------------------------------------===//
// CancellationToken
//===----------------------------------------------------------------------===//

TEST(CancellationTest, UnboundedTokenNeverExpires) {
  support::CancellationToken Tok;
  Tok.charge(1'000'000);
  Tok.noteNodes(1'000'000);
  EXPECT_FALSE(Tok.expired());
  EXPECT_NO_THROW(Tok.checkpoint("here"));
}

TEST(CancellationTest, WorkBudgetThrowsDeadlineExceeded) {
  support::CancellationToken::Budgets B;
  B.WorkUnits = 10;
  support::CancellationToken Tok(B);
  Tok.charge(10);
  // The budget is inclusive: exactly-at-budget is still within it.
  EXPECT_NO_THROW(Tok.checkpoint("at-budget"));
  Tok.charge(1);
  EXPECT_TRUE(Tok.workExpired());
  EXPECT_THROW(Tok.checkpoint("over-budget"), support::DeadlineExceeded);
}

TEST(CancellationTest, NodeQuotaThrowsResourceExhausted) {
  support::CancellationToken::Budgets B;
  B.NodeQuota = 100;
  support::CancellationToken Tok(B);
  Tok.noteNodes(40);
  Tok.noteNodes(100);
  EXPECT_NO_THROW(Tok.checkpoint("at-quota"));
  Tok.noteNodes(101);
  // noteNodes is a CAS-max: a later smaller observation must not lower the
  // recorded peak.
  Tok.noteNodes(3);
  EXPECT_EQ(Tok.peakNodes(), 101u);
  EXPECT_THROW(Tok.checkpoint("over-quota"), support::ResourceExhausted);
}

TEST(CancellationTest, CancelWinsOverQuotaClassification) {
  // A cancelled token reports DeadlineExceeded even if a quota also
  // tripped: the supervisor keys the Cancelled outcome off
  // cancelRequested(), not the exception type, but the checkpoint order is
  // part of the contract.
  support::CancellationToken::Budgets B;
  B.NodeQuota = 1;
  support::CancellationToken Tok(B);
  Tok.noteNodes(2);
  Tok.requestCancel();
  EXPECT_TRUE(Tok.cancelRequested());
  EXPECT_THROW(Tok.checkpoint("cancelled"), support::DeadlineExceeded);
}

TEST(CancellationTest, WallClockBudgetExpires) {
  support::CancellationToken Tok(
      support::CancellationToken::wallClockBudget(0.001));
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Tok.expired() && std::chrono::steady_clock::now() < Deadline) {
  }
  EXPECT_TRUE(Tok.wallExpired());
  EXPECT_THROW(Tok.checkpoint("wall"), support::DeadlineExceeded);
  // Non-positive seconds means no wall clock at all.
  EXPECT_EQ(support::CancellationToken::wallClockBudget(0.0).WallMillis, 0u);
  EXPECT_EQ(support::CancellationToken::wallClockBudget(-1.0).WallMillis, 0u);
}

TEST(CancellationTest, PassRunUnitsArePureDeltaFunction) {
  // 1 base unit plus the IR delta — the charge is identical whether the
  // pass ran live or its metrics were replayed from the trial cache.
  EXPECT_EQ(support::CancellationToken::passRunUnits(0, 0), 1u);
  EXPECT_EQ(support::CancellationToken::passRunUnits(5, 2), 8u);
}

TEST(CancellationTest, CrossThreadCancelObserved) {
  support::CancellationToken Tok;
  std::thread Canceller([&Tok] { Tok.requestCancel(); });
  Canceller.join();
  EXPECT_TRUE(Tok.expired());
  EXPECT_THROW(Tok.checkpoint("after-join"), support::DeadlineExceeded);
}

} // namespace
