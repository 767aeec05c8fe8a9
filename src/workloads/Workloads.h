//===- workloads/Workloads.h - The benchmark program suite ------------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniOO benchmark suite substituting for the paper's DaCapo,
/// Scala DaCapo, Spark-Perf, Neo4J, Dotty and STMBench7 workloads. Each
/// program mirrors the *inlining-relevant shape* of its namesake: the
/// dominant dispatch pattern (mono/poly/megamorphic), the granularity of
/// hot methods, and the depth of the hot call chains. All workloads are
/// deterministic and print a checksum, which differential tests compare
/// across inliner policies.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_WORKLOADS_WORKLOADS_H
#define INCLINE_WORKLOADS_WORKLOADS_H

#include <iosfwd>
#include <string>
#include <vector>

namespace incline::workloads {

/// One benchmark program.
struct Workload {
  std::string Name;        ///< e.g. "factorie"
  std::string Suite;       ///< "dacapo", "scala-dacapo", "spark", "other".
  std::string Description; ///< What shape it stresses.
  std::string Source;      ///< MiniOO program with a `main`.
  int Iterations = 15;     ///< Harness repetitions for steady state.
};

/// The full suite, in a stable order.
const std::vector<Workload> &allWorkloads();

/// Lookup by name; null when unknown.
const Workload *findWorkload(const std::string &Name);

/// Prints a workload as its name. GoogleTest calls this for parameterized
/// test names; without it gtest prints the struct's raw bytes, heap
/// pointers included, and the test IDs change on every build.
void PrintTo(const Workload &W, std::ostream *OS);

} // namespace incline::workloads

#endif // INCLINE_WORKLOADS_WORKLOADS_H
