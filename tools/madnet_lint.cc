// Copyright (c) 2026 madnet authors. All rights reserved.
//
// madnet_lint — the repo's determinism/correctness linter. Scans src/,
// bench/, examples/, and tools/ for violations of the madnet lint rules
// (`madnet_lint --list-rules` prints each rule id with a one-line summary;
// docs/STATIC_ANALYSIS.md has the policy) and exits nonzero if any are
// found.
//
// Usage:
//   madnet_lint [--root <repo-root>] [--sarif <out.sarif>] [file...]
//   madnet_lint --list-rules
//
// With no explicit files, lints every *.h / *.cc under the four standard
// directories. Diagnostics are gcc-style "file:line: error: [rule] msg".

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint_rules.h"
#include "util/flags.h"

namespace fs = std::filesystem;

namespace {

constexpr const char* kScanDirs[] = {"src", "bench", "examples", "tools"};

bool HasLintableExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc";
}

// Repo-relative forward-slash rendering of `path` under `root`.
std::string RelativePath(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(path, root, ec);
  return (ec ? path : rel).generic_string();
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const madnet::Flag rows[] = {
      {"root", "", madnet::FlagKind::kString, ".",
       "repo root; the four standard directories are read under it"},
      {"sarif", "", madnet::FlagKind::kString, "",
       "also write the diagnostics to this SARIF file"},
      {"list-rules", "", madnet::FlagKind::kBool, "false",
       "print each rule id with its summary and exit"},
  };
  const madnet::FlagSet flags = madnet::ParseFlagsOrExit(
      rows, argc, argv,
      "madnet_lint [--root <repo-root>] [--sarif <out.sarif>] [file...]");
  if (flags.Bool("list-rules")) {
    for (const std::string& name : madnet::lint::RuleNames()) {
      std::printf("%-28s %s\n", name.c_str(),
                  madnet::lint::RuleSummary(name).c_str());
    }
    return 0;
  }
  const fs::path root = flags.String("root");
  const std::string& sarif_path = flags.String("sarif");
  std::vector<fs::path> explicit_files(flags.positional().begin(),
                                       flags.positional().end());

  std::vector<fs::path> files;
  if (!explicit_files.empty()) {
    files = std::move(explicit_files);
  } else {
    for (const char* dir : kScanDirs) {
      const fs::path base_dir = root / dir;
      if (!fs::exists(base_dir)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base_dir)) {
        if (entry.is_regular_file() && HasLintableExtension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    }
  }
  // Directory iteration order is filesystem-dependent; sort so output (and
  // the cross-file name-collection pass) is deterministic.
  std::sort(files.begin(), files.end());

  madnet::lint::Linter linter;
  for (const fs::path& file : files) {
    std::string content;
    if (!ReadFile(file, &content)) {
      std::fprintf(stderr, "madnet_lint: cannot read %s\n",
                   file.string().c_str());
      return 2;
    }
    linter.AddFile(RelativePath(file, root), std::move(content));
  }

  const std::vector<madnet::lint::Diagnostic> diagnostics = linter.Run();
  for (const auto& diagnostic : diagnostics) {
    std::printf("%s\n", madnet::lint::ToString(diagnostic).c_str());
  }
  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "madnet_lint: cannot write %s\n",
                   sarif_path.c_str());
      return 2;
    }
    out << madnet::lint::SarifReport(diagnostics);
  }
  if (!diagnostics.empty()) {
    std::printf("madnet_lint: %zu issue(s) in %zu file(s) scanned\n",
                diagnostics.size(), files.size());
    return 1;
  }
  std::printf("madnet_lint: clean (%zu files scanned)\n", files.size());
  return 0;
}
