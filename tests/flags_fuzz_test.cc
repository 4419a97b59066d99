// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Seeded mutation driver for the flag parser over the two real tables:
// madnet_run's rows and the rows every bench binary shares. Mutated argv
// and environments must never crash FlagSet::Parse, every rejection must
// name a flag or variable, and every accepted parse must read back typed
// values inside their rows' ranges. Only the parser runs: no scenario, no
// thread.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/parallel_for.h"
#include "tools/madnet_run_flags.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/string_util.h"

namespace madnet {
namespace {

std::map<std::string, std::string>& FuzzEnv() {
  static std::map<std::string, std::string> env;
  return env;
}

const char* LookupFuzzEnv(const char* name) {
  auto found = FuzzEnv().find(name);
  return found == FuzzEnv().end() ? nullptr : found->second.c_str();
}

// Values that sit on the parser's edges: kinds, ranges, words, overflow.
const char* const kValues[] = {
    "",     "0",     "1",      "-1",    "3",     "16",    "17",
    "auto", "abc",   "true",   "false", "yes",   "off",   "2",
    "1.5",  "-0.5",  "1e308",  "1e309", "nan",   "inf",   "-inf",
    " 1",   "1 ",    "0x10",   "+4",    "all",   "none",  "tx,rx",
    "bogus", "gossip", "waypoint", "2147483647", "2147483648",
    "4294967295", "4294967296", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809", "=", "--",
};

std::string RandomValue(Rng& rng) {
  if (rng.Bernoulli(0.8)) {
    return kValues[rng.NextUint64(std::size(kValues))];
  }
  std::string junk;
  const size_t size = rng.NextUint64(12);
  for (size_t i = 0; i < size; ++i) {
    junk.push_back(static_cast<char>(1 + rng.NextUint64(255)));
  }
  return junk;
}

// One argument: mostly a declared flag in one of its forms, sometimes an
// unknown flag, a help form or a positional word.
void AppendArgument(const std::vector<Flag>& rows, Rng& rng,
                    std::vector<std::string>* args) {
  const Flag& row = rows[rng.NextUint64(rows.size())];
  const std::string name = row.name.empty() ? "csv" : row.name;
  switch (rng.NextUint64(8)) {
    case 0:
      args->push_back("--" + name);
      break;
    case 1:
      args->push_back("--" + name);
      args->push_back(RandomValue(rng));
      break;
    case 2:
      args->push_back("--" + name + "x=" + RandomValue(rng));
      break;
    case 3:
      args->push_back(rng.Bernoulli(0.5) ? "-h"
                                         : "--help=" + RandomValue(rng));
      break;
    case 4:
      args->push_back(RandomValue(rng));
      break;
    default:
      args->push_back("--" + name + "=" + RandomValue(rng));
      break;
  }
}

// Checks an accepted parse: every typed read is in its row's range and
// agrees with the value's text; every checked string passes its check.
void ExpectInRange(const std::vector<Flag>& rows, const FlagSet& flags,
                   const std::string& context) {
  for (const Flag& row : rows) {
    const std::string key = row.name.empty() ? row.env : row.name;
    const std::string& text = flags.String(key);
    switch (row.kind) {
      case FlagKind::kString:
        if (row.check != nullptr) {
          EXPECT_TRUE(row.check(row.name, text).ok()) << key << context;
        }
        break;
      case FlagKind::kBool:
        EXPECT_EQ(flags.Bool(key), ParseBool(text).value())
            << key << context;
        break;
      case FlagKind::kInt: {
        const int64_t value = flags.Int(key);
        EXPECT_GE(static_cast<double>(value), row.min) << key << context;
        EXPECT_LE(static_cast<double>(value), row.max) << key << context;
        if (row.zero_word.empty() || text != row.zero_word) {
          EXPECT_EQ(value, ParseInt(text).value()) << key << context;
        }
        break;
      }
      case FlagKind::kDouble: {
        const double value = flags.Double(key);
        EXPECT_TRUE(std::isfinite(value)) << key << context;
        EXPECT_GE(value, row.min) << key << context;
        EXPECT_LE(value, row.max) << key << context;
        break;
      }
    }
  }
}

void Fuzz(const std::vector<Flag>& rows, uint64_t seed, int trials) {
  Rng rng(seed);
  int accepted = 0;
  for (int trial = 0; trial < trials; ++trial) {
    FuzzEnv().clear();
    for (const Flag& row : rows) {
      if (!row.env.empty() && rng.Bernoulli(0.15)) {
        FuzzEnv()[row.env] = RandomValue(rng);
      }
    }
    std::vector<std::string> args = {"prog"};
    const size_t count = rng.NextUint64(5);
    for (size_t i = 0; i < count; ++i) AppendArgument(rows, rng, &args);
    std::vector<const char*> argv;
    std::string context = " in trial " + std::to_string(trial) + ":";
    for (const std::string& arg : args) {
      argv.push_back(arg.c_str());
      context += " '" + arg + "'";
    }

    const StatusOr<FlagSet> flags = FlagSet::Parse(
        rows, static_cast<int>(argv.size()), argv.data(), &LookupFuzzEnv);
    if (!flags.ok()) {
      const std::string& message = flags.status().message();
      EXPECT_TRUE(StartsWith(message, "--") ||
                  StartsWith(message, "MADNET_") ||
                  StartsWith(message, "unknown flag "))
          << message << context;
      continue;
    }
    ++accepted;
    ExpectInRange(rows, *flags, context);
  }
  // The driver must reach both outcomes to be testing anything.
  EXPECT_GT(accepted, trials / 20);
  EXPECT_LT(accepted, trials - trials / 20);
}

TEST(FlagTableFuzzTest, RunRowsSurviveMutatedArgvAndEnv) {
  Fuzz(RunFlags(), 20261019, 10000);
}

TEST(FlagTableFuzzTest, BenchRowsSurviveMutatedArgvAndEnv) {
  Fuzz(bench::BenchFlags(), 20261020, 10000);
}

TEST(FlagTableTest, JobsAboveTheBoundIsRejected) {
  const std::string max = std::to_string(exec::MaxJobs());
  const std::string above = std::to_string(exec::MaxJobs() + 1);
  const std::vector<Flag> bench_rows = bench::BenchFlags();
  const std::vector<Flag> run_rows = RunFlags();
  auto parse = [](const std::vector<Flag>& rows, const std::string& arg) {
    const char* argv[] = {"prog", arg.c_str()};
    return FlagSet::Parse(rows, arg.empty() ? 1 : 2, argv, &LookupFuzzEnv);
  };

  FuzzEnv().clear();
  for (const std::vector<Flag>* rows : {&bench_rows, &run_rows}) {
    EXPECT_EQ(parse(*rows, "--jobs=" + max)->Int("jobs"), exec::MaxJobs());
    EXPECT_EQ(parse(*rows, "--jobs=auto")->Int("jobs"), 0);
    EXPECT_EQ(parse(*rows, "--jobs=" + above).status().message(),
              "--jobs: must be <= " + max + ", got " + above);
    EXPECT_FALSE(parse(*rows, "--jobs=-1").ok());
    EXPECT_FALSE(parse(*rows, "--jobs=100000000000000000000").ok());
  }
  FuzzEnv()["MADNET_JOBS"] = above;
  EXPECT_EQ(parse(bench_rows, "").status().message(),
            "MADNET_JOBS: must be <= " + max + ", got " + above);
  // A bad variable is rejected even under a good flag.
  EXPECT_FALSE(parse(bench_rows, "--jobs=1").ok());
  FuzzEnv().clear();
}

}  // namespace
}  // namespace madnet
