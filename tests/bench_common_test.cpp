//===- tests/bench_common_test.cpp - Bench JSON writer tests ---------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

using namespace incline::bench;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// The `--json` document of one benchMain run as a binary named
/// writer_probe whose table printer records a few awkward rows. The sink
/// is process-wide, so every test reads this one run.
const std::string &probeJson() {
  static const std::string Text = [] {
    std::string Path = ::testing::TempDir() + "bench_common_test.json";
    std::string Args[] = {"/no/such/dir/writer_probe", "--json", Path};
    std::vector<char *> Argv;
    for (std::string &Arg : Args)
      Argv.push_back(Arg.data());
    int Code = benchMain(static_cast<int>(Argv.size()), Argv.data(), [] {
      recordJsonResult("pmd/incremental", {{"cycles", 1198655},
                                           {"tenth", 0.1},
                                           {"third", 1.0 / 3.0},
                                           {"max", 1.7976931348623157e308}});
      recordJsonResult("nonfinite", {{"nan", std::nan("")},
                                     {"inf", Inf},
                                     {"neg_inf", -Inf}});
      recordJsonResult("say \"hi\" \\ bye", {{"back\\slash", 1}});
    });
    EXPECT_EQ(Code, 0);
    std::ifstream In(Path);
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    return Buffer.str();
  }();
  return Text;
}

/// The number written after `"Key": ` in the probe document, read back.
double metric(const std::string &Key) {
  const std::string &Json = probeJson();
  size_t At = Json.find("\"" + Key + "\": ");
  EXPECT_NE(At, std::string::npos) << Key;
  return At == std::string::npos
             ? 0
             : std::strtod(Json.c_str() + At + Key.size() + 4, nullptr);
}

TEST(BenchJsonTest, NumbersRoundTripExactly) {
  EXPECT_EQ(metric("cycles"), 1198655.0);
  EXPECT_EQ(metric("tenth"), 0.1);
  EXPECT_EQ(metric("third"), 1.0 / 3.0);
  EXPECT_EQ(metric("max"), 1.7976931348623157e308);
  EXPECT_NE(probeJson().find("\"cycles\": 1198655,"), std::string::npos)
      << probeJson();
}

TEST(BenchJsonTest, NonFiniteValuesBecomeNull) {
  const std::string &Json = probeJson();
  EXPECT_NE(Json.find("\"nan\": null"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"inf\": null"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"neg_inf\": null"), std::string::npos) << Json;
}

TEST(BenchJsonTest, QuotesAndBackslashesAreEscaped) {
  const std::string &Json = probeJson();
  EXPECT_NE(Json.find(R"("name": "say \"hi\" \\ bye")"), std::string::npos)
      << Json;
  EXPECT_NE(Json.find(R"("back\\slash": 1)"), std::string::npos) << Json;
}

TEST(BenchJsonTest, BenchIsTheBinaryBasename) {
  EXPECT_NE(probeJson().find("\"bench\": \"writer_probe\""),
            std::string::npos)
      << probeJson();
}

} // namespace
