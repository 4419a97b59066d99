// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Drives the madnet_lint rule engine against embedded good/bad fixtures.
// Every rule has at least one positive (violation detected) and one
// negative (clean code passes) case, plus coverage of the NOLINT
// suppression syntax and the comment/string preprocessor.

#include "lint_rules.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "project_model.h"

namespace madnet::lint {
namespace {

bool HasRule(const std::vector<Diagnostic>& diagnostics,
             const std::string& rule) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

int LineOf(const std::vector<Diagnostic>& diagnostics,
           const std::string& rule) {
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == rule) return d.line;
  }
  return -1;
}

// --------------------------------------------------------------------------
// madnet-rand

TEST(MadnetLintTest, FlagsStdRand) {
  const auto diags = LintFile("src/core/foo.cc",
                              "int Roll() {\n"
                              "  return std::rand() % 6;\n"
                              "}\n");
  ASSERT_TRUE(HasRule(diags, "madnet-rand"));
  EXPECT_EQ(LineOf(diags, "madnet-rand"), 2);
}

TEST(MadnetLintTest, FlagsSrand) {
  const auto diags =
      LintFile("bench/foo.cc", "void Seed() { srand(42); }\n");
  EXPECT_TRUE(HasRule(diags, "madnet-rand"));
}

TEST(MadnetLintTest, AcceptsSeededMadnetRng) {
  const auto diags = LintFile("src/core/foo.cc",
                              "double Draw(Rng* rng) {\n"
                              "  return rng->NextDouble();\n"
                              "}\n");
  EXPECT_TRUE(diags.empty());
}

// --------------------------------------------------------------------------
// madnet-wallclock

TEST(MadnetLintTest, FlagsTimeNullptr) {
  const auto diags =
      LintFile("src/sim/foo.cc", "uint64_t seed = time(nullptr);\n");
  EXPECT_TRUE(HasRule(diags, "madnet-wallclock"));
}

TEST(MadnetLintTest, FlagsSystemClockInSrc) {
  const auto diags = LintFile(
      "src/scenario/foo.cc",
      "auto t = std::chrono::system_clock::now();\n");
  EXPECT_TRUE(HasRule(diags, "madnet-wallclock"));
}

TEST(MadnetLintTest, FlagsOnlyTimeCallsOutsideSrc) {
  // Outside src/ the rule bans only the libc wall-clock reads; localtime
  // and system_clock may format timestamps for reports there.
  const auto diags = LintFile("bench/foo.cc",
                              "auto stamp = std::chrono::system_clock::now();\n"
                              "uint64_t seed = time(nullptr);\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "madnet-wallclock");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(MadnetLintTest, AcceptsSteadyClockInBench) {
  const auto diags = LintFile(
      "bench/foo.cc", "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(diags.empty());
}

TEST(MadnetLintTest, AcceptsIdentifiersContainingTime) {
  // `_time(` and `Time(` are not the libc time() call.
  const auto diags = LintFile("src/sim/foo.cc",
                              "double sim_time(int step);\n"
                              "Time NextTime();\n");
  EXPECT_TRUE(diags.empty());
}

// --------------------------------------------------------------------------
// madnet-rand: std::random_device and unseeded engines

TEST(MadnetLintTest, FlagsRandomDevice) {
  const auto diags =
      LintFile("src/core/foo.cc", "std::random_device rd;\n");
  EXPECT_TRUE(HasRule(diags, "madnet-rand"));
}

TEST(MadnetLintTest, AllowsRandomDeviceInUtilRandom) {
  const auto diags =
      LintFile("src/util/random.cc", "std::random_device rd;\n");
  EXPECT_FALSE(HasRule(diags, "madnet-rand"));
}

TEST(MadnetLintTest, FlagsDefaultConstructedMt19937) {
  const auto diags = LintFile("examples/foo.cc",
                              "std::mt19937 gen;\n"
                              "std::mt19937_64 gen64{};\n");
  ASSERT_TRUE(HasRule(diags, "madnet-rand"));
  EXPECT_EQ(LineOf(diags, "madnet-rand"), 1);
}

TEST(MadnetLintTest, AcceptsSeededMt19937) {
  const auto diags =
      LintFile("examples/foo.cc", "std::mt19937 gen(config.seed);\n");
  EXPECT_TRUE(diags.empty());
}

// --------------------------------------------------------------------------
// madnet-unordered-iteration

TEST(MadnetLintTest, FlagsUnorderedIterationInAggregationPath) {
  const auto diags = LintFile(
      "src/stats/agg.cc",
      "std::unordered_map<int, double> samples_;\n"
      "double Sum() {\n"
      "  double total = 0.0;\n"
      "  for (const auto& [id, v] : samples_) total += v;\n"
      "  return total;\n"
      "}\n");
  ASSERT_TRUE(HasRule(diags, "madnet-unordered-iteration"));
  EXPECT_EQ(LineOf(diags, "madnet-unordered-iteration"), 4);
}

TEST(MadnetLintTest, ResolvesUnorderedAccessorAcrossFiles) {
  // The container is declared in a header (via an accessor) and iterated
  // in a different file — the cross-file pass must connect them.
  Linter linter;
  linter.AddFile("src/stats/tracker.h",
                 "class Tracker {\n"
                 " public:\n"
                 "  const std::unordered_map<int, T>& transits() const;\n"
                 "};\n");
  linter.AddFile("src/stats/report.cc",
                 "void Fold(const Tracker& tracker) {\n"
                 "  for (const auto& [id, t] : tracker.transits()) Use(t);\n"
                 "}\n");
  const auto diags = linter.Run();
  ASSERT_TRUE(HasRule(diags, "madnet-unordered-iteration"));
  EXPECT_EQ(diags[0].file, "src/stats/report.cc");
}

TEST(MadnetLintTest, FlagsUnorderedIterationAnywhereInSrc) {
  // The rule covers all of src/ — hash order is a cross-platform hazard
  // wherever the visit order can feed RNG draws or aggregation.
  const auto diags = LintFile(
      "src/net/table.cc",
      "std::unordered_map<int, double> samples_;\n"
      "void Visit() {\n"
      "  for (const auto& [id, v] : samples_) Use(v);\n"
      "}\n");
  EXPECT_TRUE(HasRule(diags, "madnet-unordered-iteration"));
}

TEST(MadnetLintTest, AcceptsUnorderedIterationOutsideSrc) {
  // bench/ and tools/ do not feed simulation state; hash-order is fine.
  const auto diags = LintFile(
      "bench/table.cc",
      "std::unordered_map<int, double> samples_;\n"
      "void Visit() {\n"
      "  for (const auto& [id, v] : samples_) Use(v);\n"
      "}\n");
  EXPECT_FALSE(HasRule(diags, "madnet-unordered-iteration"));
}

TEST(MadnetLintTest, AcceptsUnorderedPointQueries) {
  // find()/count() on an unordered container is deterministic; only
  // iteration is banned.
  const auto diags = LintFile(
      "src/stats/log.cc",
      "std::unordered_map<int, double> first_receipt_;\n"
      "double At(int id) { return first_receipt_.find(id)->second; }\n");
  EXPECT_FALSE(HasRule(diags, "madnet-unordered-iteration"));
}

// --------------------------------------------------------------------------
// madnet-raw-new

TEST(MadnetLintTest, FlagsRawNewAndDelete) {
  const auto diags = LintFile("src/core/foo.cc",
                              "int* Make() { return new int[4]; }\n"
                              "void Free(int* p) { delete[] p; }\n");
  ASSERT_TRUE(HasRule(diags, "madnet-raw-new"));
  int count = 0;
  for (const auto& d : diags) {
    if (d.rule == "madnet-raw-new") ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(MadnetLintTest, AcceptsDeletedFunctionsAndSmartPointers) {
  const auto diags = LintFile(
      "src/core/foo.cc",
      "struct Foo {\n"
      "  Foo(const Foo&) = delete;\n"
      "  Foo& operator=(const Foo&) = delete;\n"
      "};\n"
      "auto p = std::make_unique<int>(7);\n");
  EXPECT_TRUE(diags.empty());
}

TEST(MadnetLintTest, AcceptsNewInCommentsAndStrings) {
  const auto diags = LintFile(
      "src/core/foo.cc",
      "// Inserts a new entry when the cache warms up.\n"
      "const char* kMsg = \"allocate a new buffer\";\n");
  EXPECT_TRUE(diags.empty());
}

// --------------------------------------------------------------------------
// madnet-stderr

TEST(MadnetLintTest, FlagsDirectStderrWrites) {
  const auto diags = LintFile("src/scenario/foo.cc",
                              "void Warn() {\n"
                              "  fprintf(stderr, \"boom\\n\");\n"
                              "  std::fputs(\"boom\\n\", stderr);\n"
                              "}\n");
  int count = 0;
  for (const auto& d : diags) {
    if (d.rule == "madnet-stderr") ++count;
  }
  EXPECT_EQ(count, 2);
  EXPECT_EQ(LineOf(diags, "madnet-stderr"), 2);
}

TEST(MadnetLintTest, AllowsStderrInLoggingAndTools) {
  // util/logging owns the locked writer; tools/ are standalone CLIs with
  // their own usage/error conventions.
  EXPECT_FALSE(HasRule(
      LintFile("src/util/logging.cc", "fprintf(stderr, \"x\");\n"),
      "madnet-stderr"));
  EXPECT_FALSE(HasRule(
      LintFile("tools/madnet_run.cc", "fprintf(stderr, \"usage\\n\");\n"),
      "madnet-stderr"));
}

TEST(MadnetLintTest, AcceptsStderrToLoggerMacrosAndStdoutPrintf) {
  const auto diags = LintFile("src/scenario/foo.cc",
                              "MADNET_LOG_ERROR(\"boom %d\", 1);\n"
                              "fprintf(out, \"data\\n\");\n"
                              "printf(\"progress\\n\");\n");
  EXPECT_FALSE(HasRule(diags, "madnet-stderr"));
}

// --------------------------------------------------------------------------
// NOLINT suppressions (madnet-nolint)

TEST(MadnetLintTest, NolintWithJustificationSuppresses) {
  const auto diags = LintFile(
      "src/core/foo.cc",
      "int* p = new int;  // NOLINT(madnet-raw-new): arena owns this block\n");
  EXPECT_TRUE(diags.empty());
}

TEST(MadnetLintTest, NolintNextLineSuppresses) {
  const auto diags = LintFile(
      "src/core/foo.cc",
      "// NOLINTNEXTLINE(madnet-raw-new): freed by the C callback contract\n"
      "int* p = new int;\n");
  EXPECT_TRUE(diags.empty());
}

TEST(MadnetLintTest, NolintWithoutJustificationIsItselfAViolation) {
  const auto diags = LintFile(
      "src/core/foo.cc", "int* p = new int;  // NOLINT(madnet-raw-new)\n");
  EXPECT_TRUE(HasRule(diags, "madnet-nolint"));
  // And the suppression does not take effect.
  EXPECT_TRUE(HasRule(diags, "madnet-raw-new"));
}

TEST(MadnetLintTest, NolintUnknownMadnetRuleIsFlagged) {
  const auto diags = LintFile(
      "src/core/foo.cc",
      "int x = 1;  // NOLINT(madnet-no-such-rule): because reasons\n");
  EXPECT_TRUE(HasRule(diags, "madnet-nolint"));
}

TEST(MadnetLintTest, NolintOnlySilencesTheNamedRule) {
  const auto diags = LintFile(
      "src/sim/foo.cc",
      "uint64_t s = time(nullptr);  "
      "// NOLINT(madnet-rand): wrong rule named\n");
  EXPECT_TRUE(HasRule(diags, "madnet-wallclock"));
}

TEST(MadnetLintTest, NolintInStringLiteralIsNotADirective) {
  const auto diags = LintFile(
      "src/core/foo.cc",
      "const char* kHint = \"use NOLINT(madnet-raw-new) here\";\n");
  EXPECT_FALSE(HasRule(diags, "madnet-nolint"));
}

// --------------------------------------------------------------------------
// Preprocessor (comment/string stripping)

TEST(MadnetLintTest, StripPreservesLineStructure) {
  const std::string code =
      "int a; // new delete rand\n"
      "const char* s = \"time(nullptr)\";\n"
      "/* std::random_device\n"
      "   spans lines */ int b;\n";
  const std::string stripped = StripCommentsAndStrings(code);
  EXPECT_EQ(std::count(code.begin(), code.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("time"), std::string::npos);
  EXPECT_EQ(stripped.find("random_device"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(MadnetLintTest, StripHandlesRawStringsAndDigitSeparators) {
  const std::string code =
      "const char* re = R\"(std::rand srand time(nullptr))\";\n"
      "uint64_t big = 100'000'000ULL;\n";
  const std::string stripped = StripCommentsAndStrings(code);
  EXPECT_EQ(stripped.find("srand"), std::string::npos);
  EXPECT_NE(stripped.find("100'000'000ULL"), std::string::npos);
  // And the raw-string contents do not trip any rule.
  EXPECT_TRUE(LintFile("src/core/foo.cc", code).empty());
}

// --------------------------------------------------------------------------
// Engine plumbing

TEST(MadnetLintTest, DiagnosticsAreSortedAndFormatted) {
  const auto diags = LintFile("src/core/foo.cc",
                              "void F() { delete g_p; }\n"
                              "int* g_q = new int;\n");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_LT(diags[0].line, diags[1].line);
  EXPECT_EQ(ToString(diags[0]),
            "src/core/foo.cc:1: error: [madnet-raw-new] raw 'delete': "
            "ownership belongs in a smart pointer or container");
}

TEST(MadnetLintTest, RuleNamesListsEveryRule) {
  const std::vector<std::string> expected{
      "madnet-rand",
      "madnet-wallclock",
      "madnet-stderr",
      "madnet-unordered-iteration",
      "madnet-raw-new",
      "madnet-layering",
      "madnet-rng-fork-label",
      "madnet-nolint",
  };
  EXPECT_EQ(RuleNames(), expected);
  for (const std::string& name : RuleNames()) {
    EXPECT_FALSE(RuleSummary(name).empty()) << name;
  }
  EXPECT_EQ(RuleSummary("madnet-no-such-rule"), "");
}

// --------------------------------------------------------------------------
// Project model (pass 1)

TEST(ProjectModelTest, ModuleOfResolvesSrcAndTopLevelPaths) {
  EXPECT_EQ(ProjectModel::ModuleOf("src/net/medium.h"), "net");
  EXPECT_EQ(ProjectModel::ModuleOf("src/util/random.cc"), "util");
  EXPECT_EQ(ProjectModel::ModuleOf("bench/throughput.cc"), "bench");
  EXPECT_EQ(ProjectModel::ModuleOf("lonely.cc"), "");
}

TEST(ProjectModelTest, BuildsIncludeGraphAndModuleEdges) {
  const ProjectModel model = BuildProjectModel({
      {"src/core/protocol.h",
       "#include \"net/medium.h\"\n"
       "#include \"util/random.h\"\n"
       "#include <vector>\n"
       "#include \"core/advertisement.h\"\n"},
      {"src/net/medium.h", "#include \"util/geometry.h\"\n"},
  });
  ASSERT_EQ(model.files().size(), 2u);
  const ModelFile& protocol = model.files()[0];
  EXPECT_TRUE(protocol.in_src);
  EXPECT_EQ(protocol.module, "core");
  // System includes are ignored; quoted ones carry line + target module.
  ASSERT_EQ(protocol.includes.size(), 3u);
  EXPECT_EQ(protocol.includes[0].line, 1);
  EXPECT_EQ(protocol.includes[0].target, "net/medium.h");
  EXPECT_EQ(protocol.includes[0].module, "net");
  EXPECT_EQ(protocol.includes[2].module, "core");
  // Module projection: self-edges omitted, first site kept per edge.
  const auto& edges = model.module_edges();
  EXPECT_EQ(edges.count({"core", "core"}), 0u);
  ASSERT_EQ(edges.count({"core", "net"}), 1u);
  EXPECT_EQ(edges.at({"core", "net"}).file, "src/core/protocol.h");
  EXPECT_EQ(edges.at({"core", "net"}).line, 1);
  EXPECT_EQ(edges.count({"net", "util"}), 1u);
}

TEST(ProjectModelTest, IndexesForkLabelSites) {
  const ProjectModel model = BuildProjectModel({
      {"src/scenario/scenario.cc",
       "#define FORK_SEVEN(rng) (rng).Fork(7)\n"
       "void Build(Rng& root) {\n"
       "  Rng a = root.Fork(0x9001);\n"
       "  Rng b = root.Fork(42);\n"
       "  Rng c = root.Fork(0x10000 + i);\n"
       "}\n"},
  });
  const ModelFile& file = model.files()[0];
  ASSERT_EQ(file.forks.size(), 3u);
  EXPECT_TRUE(file.forks[0].literal);
  EXPECT_EQ(file.forks[0].value, 0x9001u);
  EXPECT_TRUE(file.forks[1].literal);
  EXPECT_EQ(file.forks[1].value, 42u);
  EXPECT_FALSE(file.forks[2].literal);
  EXPECT_EQ(file.forks[2].argument, "0x10000 + i");
}

// --------------------------------------------------------------------------
// madnet-layering

std::vector<Diagnostic> RunLinter(
    const std::vector<std::pair<std::string, std::string>>& files) {
  Linter linter;
  for (const auto& [path, content] : files) linter.AddFile(path, content);
  return linter.Run();
}

TEST(MadnetLintTest, FlagsUpwardLayerInclude) {
  // src/core (layer 2) reaching up into src/stats (layer 3).
  const auto diags = RunLinter({
      {"src/core/protocol.h", "#include \"stats/delivery.h\"\n"},
      {"src/stats/delivery.h", "\n"},
  });
  ASSERT_TRUE(HasRule(diags, "madnet-layering"));
  EXPECT_EQ(diags[0].file, "src/core/protocol.h");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(MadnetLintTest, FlagsForbiddenCoreToNetCycle) {
  // core -> net is a tolerated same-layer edge on its own, but the moment
  // net includes core back the module graph has a cycle: neither module
  // can then be built, tested or replaced without the other.
  const auto diags = RunLinter({
      {"src/core/protocol.h", "#include \"net/medium.h\"\n"},
      {"src/net/medium.h", "#include \"core/advertisement.h\"\n"},
      {"src/core/advertisement.h", "\n"},
  });
  ASSERT_TRUE(HasRule(diags, "madnet-layering"));
  bool saw_cycle = false;
  for (const auto& d : diags) {
    if (d.message.find("cycle") != std::string::npos) {
      saw_cycle = true;
      EXPECT_NE(d.message.find("core"), std::string::npos);
      EXPECT_NE(d.message.find("net"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_cycle);
}

TEST(MadnetLintTest, AcceptsDownwardAndSameLayerIncludes) {
  const auto diags = RunLinter({
      {"src/exec/replication.h", "#include \"scenario/scenario.h\"\n"},
      {"src/scenario/scenario.h",
       "#include \"core/protocol.h\"\n"
       "#include \"stats/delivery.h\"\n"},
      {"src/stats/delivery.h", "#include \"core/receipt_sink.h\"\n"},
      {"src/core/protocol.h", "#include \"net/medium.h\"\n"},
      {"src/core/receipt_sink.h", "#include \"net/packet.h\"\n"},
      {"src/net/medium.h", "#include \"util/geometry.h\"\n"},
      {"src/net/packet.h", "\n"},
      {"src/util/geometry.h", "\n"},
  });
  EXPECT_FALSE(HasRule(diags, "madnet-layering"));
}

TEST(MadnetLintTest, FlagsModuleMissingFromLayerTable) {
  const auto diags = RunLinter({
      {"src/newmod/thing.h", "#include \"util/geometry.h\"\n"},
      {"src/util/geometry.h", "\n"},
  });
  ASSERT_TRUE(HasRule(diags, "madnet-layering"));
  EXPECT_NE(diags[0].message.find("not in the layer table"),
            std::string::npos);
}

TEST(MadnetLintTest, DocsLayerDiagramMatchesTheLayerTable) {
#ifndef MADNET_REPO_ROOT
  GTEST_SKIP() << "MADNET_REPO_ROOT not defined";
#else
  // The fenced diagram under "### Layering": each "layer N" line opens a
  // layer whose modules are the lowercase words up to the next one.
  std::ifstream in(std::string(MADNET_REPO_ROOT) +
                   "/docs/STATIC_ANALYSIS.md");
  ASSERT_TRUE(in) << "cannot read docs/STATIC_ANALYSIS.md";
  std::vector<std::vector<std::string>> drawn;
  std::string line;
  bool in_section = false;
  int fences = 0;
  while (std::getline(in, line) && fences < 2) {
    if (line == "### Layering") in_section = true;
    if (!in_section) continue;
    if (line.rfind("```", 0) == 0) {
      ++fences;
      continue;
    }
    if (fences != 1) continue;
    std::istringstream words(line);
    std::string word;
    while (words >> word) {
      if (word == "layer") {
        drawn.emplace_back();
        words >> word;  // The layer number.
        ASSERT_EQ(word, std::to_string(drawn.size() - 1)) << line;
      } else if (!drawn.empty() &&
                 std::all_of(word.begin(), word.end(),
                             [](char c) { return c >= 'a' && c <= 'z'; })) {
        drawn.back().push_back(word);
      }
    }
  }
  auto sorted = [](std::vector<std::vector<std::string>> layers) {
    for (std::vector<std::string>& modules : layers) {
      std::sort(modules.begin(), modules.end());
    }
    return layers;
  };
  EXPECT_EQ(sorted(drawn), sorted(LayerModules()));
#endif
}

TEST(MadnetLintTest, NolintSuppressesLayeringOnTheIncludeLine) {
  const auto diags = RunLinter({
      {"src/core/protocol.h",
       "// NOLINTNEXTLINE(madnet-layering): transitional, tracked in #7\n"
       "#include \"stats/delivery.h\"\n"},
      {"src/stats/delivery.h", "\n"},
  });
  EXPECT_FALSE(HasRule(diags, "madnet-layering"));
}

// --------------------------------------------------------------------------
// madnet-rng-fork-label

TEST(MadnetLintTest, FlagsDuplicateForkLabelsAcrossFiles) {
  const auto diags = RunLinter({
      {"src/net/medium.cc", "Rng a = root.Fork(0x9001);\n"},
      {"src/fault/injector.cc", "Rng b = root.Fork(0x9001);\n"},
  });
  int count = 0;
  for (const auto& d : diags) {
    if (d.rule == "madnet-rng-fork-label") {
      ++count;
      // Each site points at the other duplicate.
      EXPECT_NE(d.message.find("0x9001"), std::string::npos);
    }
  }
  EXPECT_EQ(count, 2);
}

TEST(MadnetLintTest, DuplicateDetectionIsBaseBlind) {
  // 0x2A and 42 are the same stream label even though they are spelled
  // differently.
  const auto diags = RunLinter({
      {"src/net/medium.cc", "Rng a = root.Fork(0x2A);\n"},
      {"src/fault/injector.cc", "Rng b = root.Fork(42);\n"},
  });
  EXPECT_TRUE(HasRule(diags, "madnet-rng-fork-label"));
}

TEST(MadnetLintTest, FlagsNonLiteralForkLabel) {
  const auto diags = LintFile("src/scenario/build.cc",
                              "Rng r = root.Fork(0x10000 + i);\n");
  ASSERT_TRUE(HasRule(diags, "madnet-rng-fork-label"));
  EXPECT_NE(LineOf(diags, "madnet-rng-fork-label"), -1);
}

TEST(MadnetLintTest, AcceptsDistinctLiteralForkLabels) {
  const auto diags = RunLinter({
      {"src/net/medium.cc", "Rng a = root.Fork(0x9001);\n"},
      {"src/fault/injector.cc", "Rng b = root.Fork(0x9002);\n"},
  });
  EXPECT_FALSE(HasRule(diags, "madnet-rng-fork-label"));
}

TEST(MadnetLintTest, ForkLabelRuleExemptsUtilRandomAndNonSrc) {
  // util/random implements Fork (its own tests exercise arbitrary labels),
  // and bench/ fixtures are free to fork however they like.
  const auto diags = RunLinter({
      {"src/util/random.cc", "Rng a = Fork(label);\n"},
      {"bench/sweep.cc", "Rng b = root.Fork(kBase + i);\n"},
  });
  EXPECT_FALSE(HasRule(diags, "madnet-rng-fork-label"));
}

TEST(MadnetLintTest, NolintSuppressesForkLabelRule) {
  const auto diags = LintFile(
      "src/scenario/build.cc",
      "// NOLINTNEXTLINE(madnet-rng-fork-label): reserved range 0x10000+i\n"
      "Rng r = root.Fork(0x10000 + i);\n");
  EXPECT_FALSE(HasRule(diags, "madnet-rng-fork-label"));
}

// --------------------------------------------------------------------------
// SARIF emission

TEST(MadnetLintTest, SarifReportCarriesResultsAndRules) {
  const auto diags = LintFile("src/core/foo.cc", "int* p = new int;\n");
  ASSERT_FALSE(diags.empty());
  const std::string sarif = SarifReport(diags);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"madnet-raw-new\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/core/foo.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  // Every rule id is declared in the tool section.
  for (const std::string& name : RuleNames()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + name + "\"}"), std::string::npos)
        << name;
  }
}

TEST(MadnetLintTest, SarifReportEscapesAndHandlesEmpty) {
  const std::string sarif = SarifReport({});
  EXPECT_NE(sarif.find("\"results\": [\n      ]"), std::string::npos);
  const std::string quoted = SarifReport(
      {Diagnostic{"src/a.cc", 3, "madnet-rand", "say \"no\" to\nrand"}});
  EXPECT_NE(quoted.find("say \\\"no\\\" to\\nrand"), std::string::npos);
}

// --------------------------------------------------------------------------
// Whole-repo lint: stays clean and stays fast

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST(MadnetLintTest, FullRepoLintsCleanInUnderFiveSeconds) {
#ifndef MADNET_REPO_ROOT
  GTEST_SKIP() << "MADNET_REPO_ROOT not defined";
#else
  namespace fs = std::filesystem;
  const fs::path root(MADNET_REPO_ROOT);
  if (!fs::exists(root / "src")) {
    GTEST_SKIP() << "repo sources not present at " << root;
  }
  Linter linter;
  size_t scanned = 0;
  for (const char* dir : {"src", "bench", "examples", "tools"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      const std::string ext = entry.path().extension().string();
      if (entry.is_regular_file() && (ext == ".h" || ext == ".cc")) {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      std::ifstream in(file, std::ios::binary);
      ASSERT_TRUE(in) << file;
      std::ostringstream buffer;
      buffer << in.rdbuf();
      linter.AddFile(fs::relative(file, root).generic_string(),
                     buffer.str());
      ++scanned;
    }
  }
  ASSERT_GT(scanned, 50u) << "repo walk found suspiciously few files";
  const auto start = std::chrono::steady_clock::now();
  const auto diags = linter.Run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const auto& d : diags) ADD_FAILURE() << ToString(d);
  // The 5 s budget guards the interactive check.sh path; sanitizer builds
  // run <regex> an order of magnitude slower, so only the clean part of
  // this test applies there.
  if (!kSanitized) {
    EXPECT_LT(seconds, 5.0) << "full-repo lint over " << scanned
                            << " files is too slow for tools/check.sh";
  }
#endif
}

}  // namespace
}  // namespace madnet::lint
