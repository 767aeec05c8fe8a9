//===- tests/ir_golden_test.cpp - Golden digests of lowered IR -------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
//
// Pins an FNV-1a digest of `printModule` for every program the benches
// lower: the 16 suite workloads, the 706-handler traffic program and a few
// generated fuzz programs. A change to the IR's storage, the frontend's
// allocation or the order of edge lists must leave every digest as it is;
// one that moves a digest changed what the frontend emits.
//
// The suite programs are pinned twice: as lowered, and after the standard
// optimization bundle has run on every function, which exercises the
// use-list and predecessor-list edits (RAUW, erase, swap-pop) that decide
// the order of operands, users and phi inputs in later output.
//
// When a digest moves on purpose, the failure message prints the new value.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "fuzz/RandomProgram.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "opt/PassPipeline.h"
#include "support/Hash.h"
#include "workloads/Traffic.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

using namespace incline;

namespace {

std::string hex(uint64_t Digest) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, Digest);
  return Buf;
}

std::string digestOf(const ir::Module &M) {
  return hex(fnv1a(ir::printModule(M), FnvOffsetBasis));
}

std::unique_ptr<ir::Module> lower(const std::string &Source) {
  frontend::CompileResult R = frontend::compileProgram(Source);
  EXPECT_TRUE(R.succeeded());
  return std::move(R.Mod);
}

// Workload name -> {lowered digest, optimized digest}.
const std::map<std::string, std::pair<std::string, std::string>> &
suiteDigests() {
  static const std::map<std::string, std::pair<std::string, std::string>> D =
      {
          {"avrora", {"af978b49bf2bdf0e", "4cee6a173f5c8316"}},
          {"jython", {"b340e6b7968e5845", "878008a423d65bdc"}},
          {"luindex", {"09a7cfd6eb71b02a", "bf6210eed4de6946"}},
          {"pmd", {"ef5453cbfd0915ea", "f3da523098d6b5bb"}},
          {"sunflow", {"ae1dfd09be013c4a", "121be0a8a46dee36"}},
          {"xalan", {"7a5952c6be19295f", "e43d788d5ca28e6b"}},
          {"foreach", {"85189e207388b9f8", "c1fc0d92077ae77c"}},
          {"factorie", {"9c3dfef986611e85", "1497c1d6139c61cc"}},
          {"kiama", {"9280dd3ab14b1255", "3aad7e1f8ce938c2"}},
          {"scalac", {"f595d83d6d7f2f68", "6f3a8b0ab1622108"}},
          {"gauss-mix", {"776817503561f75e", "8add34b84b710483"}},
          {"dec-tree", {"defc05d14041951c", "1f4d09c8b58a3ffe"}},
          {"naive-bayes", {"261a467ec36c0c5a", "78b539fe7996ffe2"}},
          {"neo4j", {"02943aa1a6c57a3a", "61ca9da0c7109262"}},
          {"dotty", {"02b7e52255aeddf3", "b6c54e1b55bcd307"}},
          {"stmbench", {"2a57aabe53813d77", "e53786fe4828887d"}},
      };
  return D;
}

TEST(IRGoldenTest, SuiteWorkloadsLowerToPinnedModules) {
  ASSERT_EQ(workloads::allWorkloads().size(), suiteDigests().size());
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    auto It = suiteDigests().find(W.Name);
    ASSERT_NE(It, suiteDigests().end()) << "no digest for " << W.Name;
    std::unique_ptr<ir::Module> M = lower(W.Source);
    ASSERT_TRUE(M);
    EXPECT_EQ(digestOf(*M), It->second.first) << W.Name << " (lowered)";
    for (const auto &[Name, F] : M->functions())
      opt::runOptimizationPipeline(*F, *M);
    EXPECT_EQ(digestOf(*M), It->second.second) << W.Name << " (optimized)";
  }
}

TEST(IRGoldenTest, TrafficProgramLowersToPinnedModule) {
  std::unique_ptr<ir::Module> M = lower(workloads::buildTrafficProgram(706));
  ASSERT_TRUE(M);
  EXPECT_EQ(digestOf(*M), "006c9e74496071d4");
}

TEST(IRGoldenTest, FuzzProgramsLowerToPinnedModules) {
  const std::map<uint64_t, std::string> Digests = {
      {1, "b01651d103f8cd74"},
      {7, "f501220fd4549075"},
      {42, "d1fa55087be7bd94"},
      {1234, "4c3bd3c06fbd222b"},
      {99991, "7642124d208eaf22"},
  };
  for (const auto &[Seed, Digest] : Digests) {
    std::unique_ptr<ir::Module> M = lower(fuzz::generateRandomProgram(Seed));
    ASSERT_TRUE(M);
    EXPECT_EQ(digestOf(*M), Digest) << "seed " << Seed;
  }
}

} // namespace
