// The declarative CLI parser: strict value parsing, unknown-argument
// rejection, and the declared conflict/prerequisite pairs front ends use
// instead of hand-rolled post-parse checks.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/cli.hpp"

namespace aimes::common::cli {
namespace {

/// Runs the parser over a brace-list of arguments (argv[0] included).
Expected<Parser::Result> parse(Parser& cli, std::vector<const char*> argv) {
  return cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
}

TEST(CliParse, StrictIntAndDoubleRejectGarbageAndRange) {
  EXPECT_TRUE(parse_int("42", 0, 100).ok());
  EXPECT_FALSE(parse_int("42x", 0, 100).ok());
  EXPECT_FALSE(parse_int("", 0, 100).ok());
  EXPECT_FALSE(parse_int("101", 0, 100).ok());
  EXPECT_TRUE(parse_double("0.5", 0.0, 1.0).ok());
  EXPECT_FALSE(parse_double("0.5pt", 0.0, 1.0).ok());
  EXPECT_FALSE(parse_double("1.5", 0.0, 1.0).ok());
  // NaN passes both range comparisons, and an unbounded range admits inf.
  const double inf = std::numeric_limits<double>::infinity();
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e999"}) {
    EXPECT_FALSE(parse_double(text, -inf, inf).ok()) << text;
    EXPECT_FALSE(parse_double(text, 0.0, 1e9).ok()) << text;
  }
}

TEST(CliParser, ParsesFlagsAndValuesAndTracksSeen) {
  bool quick = false;
  int trials = 1;
  Parser cli("t");
  cli.flag("--quick", quick, "q").int_option("--trials", trials, 1, 100, "t");
  auto r = parse(cli, {"t", "--quick", "--trials", "7"});
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(quick);
  EXPECT_EQ(trials, 7);
  EXPECT_TRUE(cli.seen("--quick"));
  EXPECT_FALSE(cli.seen("--unknown"));
}

TEST(CliParser, RejectsUnknownArgumentAndMissingValue) {
  int trials = 1;
  Parser cli("t");
  cli.int_option("--trials", trials, 1, 100, "t");
  auto unknown = parse(cli, {"t", "--tirals", "7"});
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().find("--tirals"), std::string::npos);
  auto missing = parse(cli, {"t", "--trials"});
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("missing value"), std::string::npos);
}

TEST(CliParser, ConflictingPairIsRejectedWithBothNames) {
  bool a = false;
  bool b = false;
  Parser cli("t");
  cli.flag("--emit", a, "e").flag("--adaptive", b, "a").conflicts("--emit", "--adaptive");
  // Either flag alone parses.
  ASSERT_TRUE(parse(cli, {"t", "--emit"}).ok());
  ASSERT_TRUE(parse(cli, {"t", "--adaptive"}).ok());
  // The pair is a typed error naming both flags, whatever the order.
  for (auto argv : {std::vector<const char*>{"t", "--emit", "--adaptive"},
                    std::vector<const char*>{"t", "--adaptive", "--emit"}}) {
    auto r = parse(cli, argv);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("--emit"), std::string::npos) << r.error();
    EXPECT_NE(r.error().find("--adaptive"), std::string::npos) << r.error();
    EXPECT_NE(r.error().find("conflicting"), std::string::npos) << r.error();
  }
}

TEST(CliParser, DependentOptionRequiresItsPrerequisite) {
  int campaign = 0;
  int quota = 0;
  Parser cli("t");
  cli.int_option("--campaign", campaign, 2, 100, "c")
      .int_option("--quota", quota, 0, 100, "q")
      .requires_option("--quota", "--campaign");
  auto alone = parse(cli, {"t", "--quota", "8"});
  ASSERT_FALSE(alone.ok());
  EXPECT_NE(alone.error().find("--quota"), std::string::npos);
  EXPECT_NE(alone.error().find("requires --campaign"), std::string::npos);
  ASSERT_TRUE(parse(cli, {"t", "--campaign", "4", "--quota", "8"}).ok());
  // The prerequisite alone is fine.
  ASSERT_TRUE(parse(cli, {"t", "--campaign", "4"}).ok());
}

TEST(CliParser, SeenStateResetsBetweenParses) {
  bool a = false;
  bool b = false;
  Parser cli("t");
  cli.flag("--a", a, "a").flag("--b", b, "b").conflicts("--a", "--b");
  ASSERT_TRUE(parse(cli, {"t", "--a"}).ok());
  // A fresh parse with only --b must not see the stale --a.
  ASSERT_TRUE(parse(cli, {"t", "--b"}).ok());
}

}  // namespace
}  // namespace aimes::common::cli
