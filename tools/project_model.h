// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Pass-1 project model for madnet_lint: indexes every translation unit into
// a whole-project structure that cross-file rules (see lint_rules.cc) can
// query. Still token-based — no libclang — but instead of scanning lines in
// isolation it extracts:
//
//   * the include graph: every `#include "..."` site, resolved to the
//     src/<module> it targets, plus the module-level projection;
//   * function spans: every function definition's name and body line
//     range, found by brace tracking over the comment/string-stripped
//     view, with `// MADNET_HOT` markers attached;
//   * a heuristic call graph: identifier-followed-by-'(' sites inside
//     function bodies, matched against project function names by rules;
//   * Rng::Fork label sites: every `.Fork(...)` / `->Fork(...)` call with
//     its argument text, classified literal / non-literal.
//
// The model is deliberately conservative-and-cheap: it may over-approximate
// (every project function sharing a callee's name counts as a call target)
// but it never parses templates or resolves overloads. Rules built on it
// must tolerate that (see madnet-hot-transitive-alloc's escape hatches).

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

/// One function definition (a header followed by a brace-balanced body).
struct FunctionSpan {
  std::string name;       ///< Unqualified name, e.g. "Broadcast".
  std::string qualified;  ///< As written, e.g. "Medium::Broadcast".
  int body_begin = 0;     ///< Line of the opening '{'.
  int body_end = 0;       ///< Line of the matching '}'.
  bool hot = false;       ///< Preceded by a `// MADNET_HOT` marker.
};

/// One `identifier(` site inside a function body.
struct CallSite {
  int line = 0;
  int caller = -1;     ///< Index into ModelFile::functions; -1 = file scope.
  std::string callee;  ///< Unqualified identifier before the '('.
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
  std::vector<FunctionSpan> functions;
  std::vector<CallSite> calls;
  std::vector<ForkSite> forks;
};

/// Reference to one function: (file index, function index).
using FunctionRef = std::pair<int, int>;

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

  /// All src/ function definitions with `name`, in (file, index) order.
  std::vector<FunctionRef> FunctionsNamed(const std::string& name) const;

  /// Every function reachable from a MADNET_HOT root through the heuristic
  /// call graph (src/ functions only), excluding the roots themselves.
  /// For each, `chain` renders the discovery path from its root, e.g.
  /// "Medium::Broadcast -> DeliverFrame -> AppendLog".
  struct ReachableFunction {
    FunctionRef function;
    std::string chain;
  };
  std::vector<ReachableFunction> HotReachableFunctions() const;

  /// Module of a repo-relative path: "net" for "src/net/medium.h", the top
  /// directory for anything else ("bench", "tools"), "" for a bare name.
  static std::string ModuleOf(const std::string& path);

 private:
  std::vector<ModelFile> files_;
  std::map<std::pair<std::string, std::string>, ModuleEdge> module_edges_;
  // name -> definitions in src/ files, in insertion (file, fn) order.
  std::map<std::string, std::vector<FunctionRef>> functions_by_name_;
};

}  // namespace madnet::lint

#endif  // MADNET_TOOLS_PROJECT_MODEL_H_
