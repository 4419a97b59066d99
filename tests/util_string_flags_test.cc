// Copyright (c) 2026 madnet authors. All rights reserved.

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>

#include "util/flags.h"
#include "util/string_util.h"

namespace madnet {
namespace {

TEST(SplitTest, BasicAndEdgeCases) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, RoundTripsSplit) {
  const std::vector<std::string> parts = {"x", "", "yz"};
  EXPECT_EQ(Join(parts, ","), "x,,yz");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, "--"), "solo");
}

TEST(TrimTest, StripsWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
  EXPECT_EQ(Trim("\r\nx"), "x");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("12abc").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(ParseIntTest, ValidAndInvalid) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("3.5").ok());
  EXPECT_FALSE(ParseInt("99999999999999999999999").ok());
}

TEST(ParseBoolTest, Forms) {
  EXPECT_TRUE(*ParseBool("true"));
  EXPECT_TRUE(*ParseBool("1"));
  EXPECT_TRUE(*ParseBool("yes"));
  EXPECT_TRUE(*ParseBool("on"));
  EXPECT_FALSE(*ParseBool("false"));
  EXPECT_FALSE(*ParseBool("0"));
  EXPECT_FALSE(*ParseBool("no"));
  EXPECT_FALSE(*ParseBool("off"));
  EXPECT_FALSE(ParseBool("TRUE").ok());
  EXPECT_FALSE(ParseBool("2").ok());
}

// The environment FlagSet::Parse sees in these tests.
std::map<std::string, std::string>& TestEnv() {
  static std::map<std::string, std::string> env;
  return env;
}

const char* LookupTestEnv(const char* name) {
  auto found = TestEnv().find(name);
  return found == TestEnv().end() ? nullptr : found->second.c_str();
}

template <size_t N>
StatusOr<FlagSet> ParseArgs(std::span<const Flag> rows,
                            const char* const (&argv)[N]) {
  return FlagSet::Parse(rows, static_cast<int>(N), argv, &LookupTestEnv);
}

TEST(FlagSetTest, ParsesTypedFlags) {
  TestEnv().clear();
  const Flag rows[] = {
      {"peers", "", FlagKind::kInt, "300", "number of peers"},
      {"radius", "", FlagKind::kDouble, "1000.0", "advertising radius"},
      {"verbose", "", FlagKind::kBool, "false", "chatty output"},
      {"method", "", FlagKind::kString, "optimized", "protocol"},
  };
  const char* argv[] = {"prog", "--peers=500", "--verbose",
                        "--method=gossip", "input.txt"};
  StatusOr<FlagSet> flags = ParseArgs(rows, argv);
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();

  EXPECT_EQ(flags->Int("peers"), 500);
  EXPECT_DOUBLE_EQ(flags->Double("radius"), 1000.0);  // Default.
  EXPECT_TRUE(flags->Bool("verbose"));                // Shorthand.
  EXPECT_EQ(flags->String("method"), "gossip");
  EXPECT_EQ(flags->String("peers"), "500");  // Text of any kind.
  EXPECT_TRUE(flags->IsSet("peers"));
  EXPECT_FALSE(flags->IsSet("radius"));
  EXPECT_FALSE(flags->help());
  EXPECT_EQ(flags->positional(), (std::vector<std::string>{"input.txt"}));
}

TEST(FlagSetTest, UnknownFlagRejected) {
  TestEnv().clear();
  const Flag rows[] = {{"peers", "", FlagKind::kInt, "300", ""}};
  const char* argv[] = {"prog", "--perrs=500"};
  const StatusOr<FlagSet> flags = ParseArgs(rows, argv);
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().message(), "unknown flag --perrs");
}

TEST(FlagSetTest, MalformedValueRejectedAtParse) {
  TestEnv().clear();
  const Flag rows[] = {
      {"peers", "", FlagKind::kInt, "300", ""},
      {"fast", "", FlagKind::kBool, "false", ""},
      {"at", "", FlagKind::kDouble, "1", ""},
  };
  for (const char* arg :
       {"--peers=many", "--peers=", "--fast=maybe", "--at=1x", "--at=nan",
        "--at=inf", "--peers=99999999999999999999"}) {
    const char* argv[] = {"prog", arg};
    const StatusOr<FlagSet> flags = ParseArgs(rows, argv);
    ASSERT_FALSE(flags.ok()) << arg;
    const std::string name(arg, std::string_view(arg).find('='));
    EXPECT_TRUE(StartsWith(flags.status().message(), name + ": "))
        << flags.status().message();
  }
}

TEST(FlagSetTest, UsageListsFlags) {
  const Flag rows[] = {
      {"peers", "MADNET_PEERS", FlagKind::kInt, "300", "number of peers", 1,
       1000},
      {"", "MADNET_DIR", FlagKind::kString, ".", "output directory"},
  };
  const std::string usage = FlagUsage(rows, "prog [--flag=value ...]");
  EXPECT_NE(usage.find("usage: prog [--flag=value ...]"), std::string::npos);
  EXPECT_NE(usage.find("--peers, MADNET_PEERS (default: 300; range: [1, "
                       "1000])"),
            std::string::npos);
  EXPECT_NE(usage.find("number of peers"), std::string::npos);
  EXPECT_NE(usage.find("  MADNET_DIR (default: .)"), std::string::npos);
  EXPECT_NE(usage.find("--help, -h"), std::string::npos);
}

TEST(FlagSetTest, LastValueWins) {
  TestEnv().clear();
  const Flag rows[] = {{"n", "", FlagKind::kInt, "1", ""}};
  const char* argv[] = {"prog", "--n=2", "--n=3"};
  const StatusOr<FlagSet> flags = ParseArgs(rows, argv);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->Int("n"), 3);
}

TEST(FlagSetTest, FlagBeatsVariableBeatsDefault) {
  const Flag rows[] = {
      {"reps", "MADNET_REPS", FlagKind::kInt, "3", ""},
      {"fast", "MADNET_FAST", FlagKind::kBool, "false", ""},
  };
  const char* bare[] = {"prog"};
  const char* given[] = {"prog", "--reps=7", "--fast=false"};
  TestEnv() = {{"MADNET_REPS", "5"}, {"MADNET_FAST", "1"}};
  const StatusOr<FlagSet> from_env = ParseArgs(rows, bare);
  ASSERT_TRUE(from_env.ok());
  EXPECT_EQ(from_env->Int("reps"), 5);
  EXPECT_TRUE(from_env->Bool("fast"));
  EXPECT_TRUE(from_env->IsSet("reps"));
  const StatusOr<FlagSet> from_argv = ParseArgs(rows, given);
  ASSERT_TRUE(from_argv.ok());
  EXPECT_EQ(from_argv->Int("reps"), 7);
  EXPECT_FALSE(from_argv->Bool("fast"));
  TestEnv() = {{"MADNET_FAST", "0"}};  // A boolean, not "set means on".
  const StatusOr<FlagSet> off = ParseArgs(rows, bare);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->Int("reps"), 3);
  EXPECT_FALSE(off->IsSet("reps"));
  EXPECT_FALSE(off->Bool("fast"));
}

TEST(FlagSetTest, MalformedVariableNamesTheVariable) {
  const Flag rows[] = {{"reps", "MADNET_REPS", FlagKind::kInt, "3", "", 1,
                        100}};
  const char* bare[] = {"prog"};
  TestEnv() = {{"MADNET_REPS", "abc"}};
  StatusOr<FlagSet> flags = ParseArgs(rows, bare);
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().message(), "MADNET_REPS: not an integer: 'abc'");
  TestEnv() = {{"MADNET_REPS", "0"}};
  flags = ParseArgs(rows, bare);
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().message(), "MADNET_REPS: must be >= 1, got 0");
  // A malformed variable is an error even when the flag overrides it.
  TestEnv() = {{"MADNET_REPS", "abc"}};
  const char* given[] = {"prog", "--reps=2"};
  EXPECT_FALSE(ParseArgs(rows, given).ok());
}

TEST(FlagSetTest, EmptyVariableIsUnsetExceptForStrings) {
  const Flag rows[] = {
      {"fast", "MADNET_FAST", FlagKind::kBool, "false", ""},
      {"", "MADNET_CSV", FlagKind::kString, ".", ""},
  };
  const char* bare[] = {"prog"};
  TestEnv() = {{"MADNET_FAST", ""}, {"MADNET_CSV", ""}};
  const StatusOr<FlagSet> flags = ParseArgs(rows, bare);
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->Bool("fast"));
  EXPECT_FALSE(flags->IsSet("fast"));
  EXPECT_EQ(flags->String("MADNET_CSV"), "");  // Empty disables CSV.
  EXPECT_TRUE(flags->IsSet("MADNET_CSV"));
}

TEST(FlagSetTest, RangeIsInclusiveAndNamesTheBound) {
  TestEnv().clear();
  const Flag rows[] = {
      {"jobs", "", FlagKind::kInt, "1", "", 0, 16, "auto"},
      {"loss", "", FlagKind::kDouble, "0", "", 0, 1},
  };
  const char* edges[] = {"prog", "--jobs=16", "--loss=1"};
  const StatusOr<FlagSet> ok = ParseArgs(rows, edges);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->Int("jobs"), 16);
  EXPECT_DOUBLE_EQ(ok->Double("loss"), 1.0);
  const char* automatic[] = {"prog", "--jobs=auto"};
  const StatusOr<FlagSet> zero = ParseArgs(rows, automatic);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->Int("jobs"), 0);

  const char* high[] = {"prog", "--jobs=17"};
  EXPECT_EQ(ParseArgs(rows, high).status().message(),
            "--jobs: must be <= 16, got 17");
  const char* low[] = {"prog", "--loss=-0.5"};
  EXPECT_EQ(ParseArgs(rows, low).status().message(),
            "--loss: must be >= 0, got -0.5");
}

TEST(FlagSetTest, NextArgumentFormForNonBoolFlags) {
  TestEnv().clear();
  const Flag rows[] = {
      {"root", "", FlagKind::kString, ".", ""},
      {"jobs", "", FlagKind::kInt, "1", ""},
      {"tree", "", FlagKind::kBool, "false", ""},
  };
  const char* argv[] = {"prog", "--root", "src", "--tree", "file",
                        "--jobs", "4"};
  const StatusOr<FlagSet> flags = ParseArgs(rows, argv);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->String("root"), "src");
  EXPECT_EQ(flags->Int("jobs"), 4);
  EXPECT_TRUE(flags->Bool("tree"));
  EXPECT_EQ(flags->positional(), (std::vector<std::string>{"file"}));
  const char* dangling[] = {"prog", "--jobs"};
  EXPECT_EQ(ParseArgs(rows, dangling).status().message(),
            "--jobs: missing value");
}

TEST(FlagSetTest, HelpIsImplicitAndChecked) {
  TestEnv().clear();
  const Flag rows[] = {{"n", "", FlagKind::kInt, "1", ""}};
  for (const char* arg : {"--help", "-h", "--help=true"}) {
    const char* argv[] = {"prog", arg};
    const StatusOr<FlagSet> flags = ParseArgs(rows, argv);
    ASSERT_TRUE(flags.ok()) << arg;
    EXPECT_TRUE(flags->help()) << arg;
  }
  const char* off[] = {"prog", "--help=false"};
  EXPECT_FALSE(ParseArgs(rows, off)->help());
  const char* bad[] = {"prog", "--help=abc"};
  EXPECT_EQ(ParseArgs(rows, bad).status().message(),
            "--help: not a boolean: 'abc'");
}

TEST(FlagSetTest, PositionalRowIsTypedAndRanged) {
  TestEnv().clear();
  const Flag rows[] = {{.name = "num_peers",
                        .kind = FlagKind::kInt,
                        .default_value = "300",
                        .min = 1,
                        .positional = true}};
  const char* none[] = {"prog"};
  EXPECT_EQ(ParseArgs(rows, none)->Int("num_peers"), 300);
  const char* given[] = {"prog", "50", "extra"};
  const StatusOr<FlagSet> flags = ParseArgs(rows, given);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->Int("num_peers"), 50);
  EXPECT_EQ(flags->positional(), (std::vector<std::string>{"extra"}));
  const char* bad[] = {"prog", "abc"};
  EXPECT_EQ(ParseArgs(rows, bad).status().message(),
            "num_peers: not an integer: 'abc'");
  const char* as_flag[] = {"prog", "--num_peers=5"};
  EXPECT_FALSE(ParseArgs(rows, as_flag).ok());
}

TEST(FlagSetTest, CheckHookSeesEveryValueAndIsNamed) {
  const Flag rows[] = {
      {.name = "mode",
       .env = "MADNET_MODE",
       .default_value = "a",
       .check = [](const std::string& name, const std::string& value) {
         return value == "a" || value == "b"
                    ? Status::Ok()
                    : Status::InvalidArgument(name + " wants a or b");
       }},
  };
  const char* bare[] = {"prog"};
  TestEnv() = {{"MADNET_MODE", "c"}};
  EXPECT_EQ(ParseArgs(rows, bare).status().message(),
            "MADNET_MODE: mode wants a or b");
  TestEnv().clear();
  const char* given[] = {"prog", "--mode=b"};
  EXPECT_EQ(ParseArgs(rows, given)->String("mode"), "b");
}

}  // namespace
}  // namespace madnet
