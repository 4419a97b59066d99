// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The rule engine behind the madnet_lint binary: token/regex-based checks
// for madnet-specific correctness rules, chiefly the determinism policy
// (no wall clocks, no unseeded/global RNGs, ordered iteration in
// aggregation paths) that keeps every simulation bit-reproducible from its
// seed. No libclang dependency — files are scanned line-by-line after
// comments and string literals are blanked out.
//
// The engine runs in two passes. Pass 1 indexes every file into a
// ProjectModel (tools/project_model.h): include graph and Rng::Fork label
// sites. Pass 2 runs the rules; the per-line rules see one file at a time,
// the project-model rules (layering, Fork-label discipline) see the whole
// project.
//
// The rules live in one table in lint_rules.cc; `madnet_lint --list-rules`
// prints each id with its summary, and docs/STATIC_ANALYSIS.md explains the
// policy behind each.
//
// Suppressions: `// NOLINT(madnet-<rule>): <justification>` silences the
// named rule on that line; `// NOLINTNEXTLINE(madnet-<rule>): <...>` on the
// next. The justification text is mandatory.

#ifndef MADNET_TOOLS_LINT_RULES_H_
#define MADNET_TOOLS_LINT_RULES_H_

#include <string>
#include <utility>
#include <vector>

namespace madnet::lint {

class ProjectModel;

/// One rule violation at a source location.
struct Diagnostic {
  std::string file;     ///< Repo-relative forward-slash path.
  int line = 0;         ///< 1-based line number.
  std::string rule;     ///< Rule id, e.g. "madnet-wallclock".
  std::string message;  ///< Human-readable explanation.
};

/// Renders "file:line: error: [rule] message" (the gcc-style format most
/// editors and CI annotators parse).
std::string ToString(const Diagnostic& diagnostic);

/// Ids of every implemented rule, in rule-table order.
const std::vector<std::string>& RuleNames();

/// The one-line summary of the rule named `rule`; empty for an unknown id.
std::string RuleSummary(const std::string& rule);

/// madnet-layering's module table: the src/ modules of each layer, lowest
/// layer first.
const std::vector<std::vector<std::string>>& LayerModules();

/// The cross-file rule engine. Add every file first, then Run(): the
/// unordered-iteration rule needs the full file set to resolve container
/// names declared in headers but iterated in sources, and the project-model
/// rules need the whole include graph and every Fork site.
class Linter {
 public:
  /// Registers a file. `path` must be repo-relative with forward slashes;
  /// path-dependent rules (allowlists, directory scoping) key off it.
  void AddFile(std::string path, std::string content);

  /// Runs every rule over all added files. Diagnostics are sorted by
  /// (file, line, rule) so output is deterministic.
  std::vector<Diagnostic> Run() const;

 private:
  struct File {
    std::string path;
    std::string content;
  };
  std::vector<File> files_;
};

/// Convenience wrapper: lints one file in isolation (cross-file name
/// resolution then sees only this file).
std::vector<Diagnostic> LintFile(const std::string& path,
                                 const std::string& content);

/// Blanks comments and string/character literals (including raw strings),
/// preserving line structure. Exposed for tests.
std::string StripCommentsAndStrings(const std::string& content);

/// Builds the project model of (path, content) pairs from the same scans
/// Linter::Run makes. Exposed for tests.
ProjectModel BuildProjectModel(
    const std::vector<std::pair<std::string, std::string>>& path_content);

/// Renders diagnostics as a SARIF 2.1.0 log (one run, one result per
/// diagnostic) so CI can annotate PR diffs. Deterministic: preserves the
/// sorted diagnostic order and lists every rule id.
std::string SarifReport(const std::vector<Diagnostic>& diagnostics);

}  // namespace madnet::lint

#endif  // MADNET_TOOLS_LINT_RULES_H_
