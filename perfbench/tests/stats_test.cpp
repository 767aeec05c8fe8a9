//===- perfbench/tests/stats_test.cpp - Percentile rank and guard tests ---===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
//
// Self-contained checks of perfbench's order statistics. Exit code 0 when
// every check holds; run through `python3 perfbench/run.py --self-test`.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <cstdio>
#include <vector>

using namespace perfbench;

static int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__,   \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

static std::vector<double> oneTo(size_t N) {
  std::vector<double> Xs;
  for (size_t I = N; I >= 1; --I) // Descending: percentile must sort.
    Xs.push_back(static_cast<double>(I));
  return Xs;
}

int main() {
  // Nearest rank: the smallest rank covering P percent.
  CHECK(nearestRank(0, 50) == 0);
  CHECK(nearestRank(1, 50) == 1);
  CHECK(nearestRank(10, 50) == 5);
  CHECK(nearestRank(11, 50) == 6);
  CHECK(nearestRank(100, 99) == 99);
  CHECK(nearestRank(1000, 99) == 990); // 0.99 * 1000 rounds above 990.
  CHECK(nearestRank(1000, 99.9) == 999);
  CHECK(nearestRank(10000, 99.9) == 9990);
  CHECK(nearestRank(7, 100) == 7);
  CHECK(nearestRank(7, 0.001) == 1);

  CHECK(percentile({}, 50) == 0);
  CHECK(percentile(oneTo(100), 50) == 50);
  CHECK(percentile(oneTo(100), 99) == 99);
  CHECK(percentile(oneTo(1000), 99.9) == 999);
  CHECK(percentile(oneTo(5), 100) == 5);

  // Guard: a percentile needs at least ten samples beyond its rank.
  CHECK(!guardedPercentile({}, 50));
  CHECK(!guardedPercentile(oneTo(999), 99));   // rank 990: 9 beyond.
  CHECK(guardedPercentile(oneTo(1000), 99) == 990.0); // 10 beyond.
  CHECK(!guardedPercentile(oneTo(9999), 99.9)); // rank 9990: 9 beyond.
  CHECK(guardedPercentile(oneTo(10000), 99.9) == 9990.0);
  CHECK(!guardedPercentile(oneTo(100), 100));  // The maximum never qualifies.
  CHECK(guardedPercentile(oneTo(20), 50) == 10.0);

  CHECK(median({}) == 0);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);

  if (Failures == 0)
    std::printf("stats_test: all checks passed\n");
  return Failures == 0 ? 0 : 1;
}
