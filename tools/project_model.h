// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Pass-1 project model for madnet_lint: indexes every translation unit into
// a whole-project structure that cross-file rules (see lint_rules.cc) can
// query. Token-based, no libclang. It extracts:
//
//   * the include graph: every `#include "..."` site, resolved to the
//     src/<module> it targets, plus the module-level projection;
//   * Rng::Fork label sites: every `.Fork(...)` / `->Fork(...)` call with
//     its argument text, classified literal / non-literal.

#ifndef MADNET_TOOLS_PROJECT_MODEL_H_
#define MADNET_TOOLS_PROJECT_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace madnet::lint {

/// One `#include "..."` directive.
struct IncludeSite {
  int line = 0;        ///< 1-based line of the directive.
  std::string target;  ///< Path as written, e.g. "net/medium.h".
  std::string module;  ///< Resolved src module ("net"), or "" if external.
};

/// One `.Fork(label)` / `->Fork(label)` call.
struct ForkSite {
  int line = 0;
  std::string argument;    ///< Trimmed argument text as written.
  bool literal = false;    ///< True iff the argument is one integer literal.
  uint64_t value = 0;      ///< Parsed value when `literal`.
};

/// Everything the model knows about one file.
struct ModelFile {
  std::string path;    ///< Repo-relative forward-slash path.
  std::string module;  ///< "util".."scenario" for src/<m>/...; else the top
                       ///< directory ("bench", "tools", ...), "" unknown.
  bool in_src = false;
  std::vector<IncludeSite> includes;
  std::vector<ForkSite> forks;
};

/// The whole-project index. Build once (pass 1), query from rules (pass 2).
class ProjectModel {
 public:
  /// Builds the model. `raw` and `code` are the per-line raw and
  /// comment/string-stripped views of the same file (same line count);
  /// `path` must be repo-relative with forward slashes.
  void AddFile(const std::string& path, const std::vector<std::string>& raw,
               const std::vector<std::string>& code);

  const std::vector<ModelFile>& files() const { return files_; }

  /// Module-level include-graph projection over src/ files: for every
  /// distinct (from-module, to-module) edge, the first include site that
  /// establishes it, keyed in sorted order. Self-edges are omitted.
  struct ModuleEdge {
    std::string file;  ///< File containing the representative include.
    int line = 0;
  };
  const std::map<std::pair<std::string, std::string>, ModuleEdge>&
  module_edges() const {
    return module_edges_;
  }

  /// Module of a repo-relative path: "net" for "src/net/medium.h", the top
  /// directory for anything else ("bench", "tools"), "" for a bare name.
  static std::string ModuleOf(const std::string& path);

 private:
  std::vector<ModelFile> files_;
  std::map<std::pair<std::string, std::string>, ModuleEdge> module_edges_;
};

}  // namespace madnet::lint

#endif  // MADNET_TOOLS_PROJECT_MODEL_H_
