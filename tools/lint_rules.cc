// Copyright (c) 2026 madnet authors. All rights reserved.

#include "lint_rules.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "project_model.h"

namespace madnet::lint {
namespace {

// ---------------------------------------------------------------------------
// The rule table: one row per rule, X(enumerator, id, one-line summary). The
// Rule enum and kRuleTable both expand from it, so checks name a rule by
// enumerator (a misspelt one does not compile) and no id is listed twice.
#define MADNET_LINT_RULES(X)                                                   \
  X(kRand, "madnet-rand",                                                      \
    "rand/srand, std::random_device, unseeded mt19937")                        \
  X(kWallclock, "madnet-wallclock",                                            \
    "time()/gettimeofday; in src/ also system_clock etc.")                     \
  X(kStderr, "madnet-stderr",                                                  \
    "direct stderr writes outside util/logging, tools/")                       \
  X(kUnorderedIteration, "madnet-unordered-iteration",                         \
    "range-for over an unordered container in src/")                           \
  X(kRawNew, "madnet-raw-new", "raw new or delete")                            \
  X(kHotAlloc, "madnet-hot-alloc", "heap allocation in a MADNET_HOT function") \
  X(kHotTransitiveAlloc, "madnet-hot-transitive-alloc",                        \
    "allocation in code a MADNET_HOT function calls")                          \
  X(kLayering, "madnet-layering",                                              \
    "src/ include that breaks the module layer DAG")                           \
  X(kRngForkLabel, "madnet-rng-fork-label",                                    \
    "Rng::Fork label that is non-literal or reused")                           \
  X(kNolint, "madnet-nolint", "NOLINT without a justification or a known rule")

enum class Rule : unsigned char {
#define MADNET_LINT_ENUMERATOR(enumerator, id, summary) enumerator,
  MADNET_LINT_RULES(MADNET_LINT_ENUMERATOR)
#undef MADNET_LINT_ENUMERATOR
};

struct RuleRow {
  const char* name;
  const char* summary;
};

constexpr RuleRow kRuleTable[] = {
#define MADNET_LINT_ROW(enumerator, id, summary) {id, summary},
    MADNET_LINT_RULES(MADNET_LINT_ROW)
#undef MADNET_LINT_ROW
};

bool IsKnownRule(const std::string& name) {
  for (const RuleRow& row : kRuleTable) {
    if (name == row.name) return true;
  }
  return false;
}

Diagnostic MakeDiagnostic(const std::string& file, int line, Rule rule,
                          std::string message) {
  return {file, line, kRuleTable[static_cast<size_t>(rule)].name,
          std::move(message)};
}

// ---------------------------------------------------------------------------
// Source preprocessing.

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool Contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

// Per-character lexical classification used to derive both the
// code-only view (rules) and the comment-only view (NOLINT suppressions).
enum class CharClass : unsigned char { kCode, kComment, kLiteral };

std::vector<CharClass> ClassifyChars(const std::string& content) {
  std::vector<CharClass> classes(content.size(), CharClass::kCode);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // ")delim" terminator of the active raw string.
  size_t i = 0;
  const size_t n = content.size();
  while (i < n) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          classes[i] = classes[i + 1] = CharClass::kComment;
          i += 2;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          classes[i] = classes[i + 1] = CharClass::kComment;
          i += 2;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!isalnum(static_cast<unsigned char>(
                                   content[i - 1])) &&
                               content[i - 1] != '_'))) {
          // Raw string literal: R"delim( ... )delim".
          size_t paren = content.find('(', i + 2);
          if (paren == std::string::npos) {
            ++i;  // Malformed; treat as code.
            break;
          }
          raw_delim = ")" + content.substr(i + 2, paren - i - 2) + "\"";
          for (size_t j = i; j <= paren; ++j) classes[j] = CharClass::kLiteral;
          i = paren + 1;
          state = State::kRawString;
        } else if (c == '"') {
          state = State::kString;
          classes[i] = CharClass::kLiteral;
          ++i;
        } else if (c == '\'') {
          // A quote right after a digit is a C++14 digit separator
          // (100'000), not a character literal.
          if (i > 0 && isdigit(static_cast<unsigned char>(content[i - 1]))) {
            ++i;
          } else {
            state = State::kChar;
            classes[i] = CharClass::kLiteral;
            ++i;
          }
        } else {
          ++i;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          classes[i] = CharClass::kComment;
        }
        ++i;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          classes[i] = classes[i + 1] = CharClass::kComment;
          i += 2;
          state = State::kCode;
        } else {
          classes[i] = CharClass::kComment;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          classes[i] = classes[i + 1] = CharClass::kLiteral;
          i += 2;
        } else {
          if (c == '"') state = State::kCode;
          classes[i] = CharClass::kLiteral;
          ++i;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          classes[i] = classes[i + 1] = CharClass::kLiteral;
          i += 2;
        } else {
          if (c == '\'') state = State::kCode;
          classes[i] = CharClass::kLiteral;
          ++i;
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t j = i; j < i + raw_delim.size(); ++j) {
            classes[j] = CharClass::kLiteral;
          }
          i += raw_delim.size();
          state = State::kCode;
        } else {
          classes[i] = CharClass::kLiteral;
          ++i;
        }
        break;
    }
  }
  return classes;
}

// Blanks every character whose class is not `keep` (newlines survive, so
// line numbers are preserved).
std::string KeepOnly(const std::string& content,
                     const std::vector<CharClass>& classes, CharClass keep) {
  std::string out = content;
  for (size_t i = 0; i < content.size(); ++i) {
    if (content[i] != '\n' && classes[i] != keep) out[i] = ' ';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions.

struct Suppressions {
  // line (1-based) -> madnet rule ids silenced on that line.
  std::map<int, std::set<std::string>> by_line;
  std::vector<Diagnostic> diagnostics;  // Malformed NOLINTs.
};

// Recognizes NOLINT(rule[,rule...]): justification  and the NEXTLINE form.
// `comment_lines` is the comment-only view of the file.
Suppressions CollectSuppressions(const std::string& path,
                                 const std::vector<std::string>& comment_lines) {
  static const std::regex kNolintRe(
      "NOLINT(NEXTLINE)?\\(([A-Za-z0-9_,\\- ]*)\\)(:?)\\s*(.*)");
  Suppressions result;
  for (size_t idx = 0; idx < comment_lines.size(); ++idx) {
    const int line = static_cast<int>(idx) + 1;
    std::smatch match;
    if (!std::regex_search(comment_lines[idx], match, kNolintRe)) continue;
    const bool next_line = match[1].matched && match[1].length() > 0;
    const std::string rule_list = match[2].str();
    const bool has_colon = match[3].length() > 0;
    const std::string justification = match[4].str();

    if (!has_colon || justification.find_first_not_of(" \t") ==
                          std::string::npos) {
      result.diagnostics.push_back(
          MakeDiagnostic(path, line, Rule::kNolint,
                         "NOLINT requires a justification: "
                         "// NOLINT(madnet-<rule>): <why this is safe>"));
      continue;
    }
    const int target = next_line ? line + 1 : line;
    std::stringstream rules(rule_list);
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      const size_t begin = rule.find_first_not_of(" \t");
      if (begin == std::string::npos) continue;
      const size_t end = rule.find_last_not_of(" \t");
      rule = rule.substr(begin, end - begin + 1);
      if (StartsWith(rule, "madnet-") && !IsKnownRule(rule)) {
        result.diagnostics.push_back(
            MakeDiagnostic(path, line, Rule::kNolint,
                           "unknown lint rule '" + rule + "' in NOLINT"));
        continue;
      }
      result.by_line[target].insert(rule);
    }
  }
  return result;
}

bool Suppressed(const Suppressions& suppressions, int line,
                const std::string& rule) {
  auto it = suppressions.by_line.find(line);
  if (it == suppressions.by_line.end()) return false;
  return it->second.count(rule) > 0;
}

// ---------------------------------------------------------------------------
// Per-file scan context.

struct FileScan {
  std::string path;
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;  // Comments/strings blanked.
  Suppressions suppressions;
};

// Lexes `content` once and derives both views from that classification.
// NOLINT directives are only honoured (and only policed) in the
// comment-only view, so a string literal mentioning NOLINT (e.g. in this
// linter's own sources) is not a directive.
FileScan ScanFile(const std::string& path, const std::string& content) {
  const std::vector<CharClass> classes = ClassifyChars(content);
  FileScan scan;
  scan.path = path;
  scan.raw_lines = SplitLines(content);
  scan.code_lines = SplitLines(KeepOnly(content, classes, CharClass::kCode));
  scan.code_lines.resize(scan.raw_lines.size());
  scan.suppressions = CollectSuppressions(
      path, SplitLines(KeepOnly(content, classes, CharClass::kComment)));
  return scan;
}

bool InDirectory(const std::string& path, const std::string& dir) {
  return StartsWith(path, dir) || Contains(path, "/" + dir);
}

// ---------------------------------------------------------------------------
// Simple line-regex rules.

// One regex row of a rule. A rule may own several rows (madnet-wallclock
// bans some calls everywhere and others only in src/).
struct LineRule {
  Rule rule;
  std::regex pattern;
  const char* message;
  bool src_only;  // Applies only under src/.
  // Paths containing any of these substrings are exempt.
  std::vector<std::string> allowlist;
};

constexpr const char* kWallclockMessage =
    "wall-clock time makes runs irreproducible; simulation code must use "
    "sim::Simulator::Now() (std::chrono::steady_clock is allowed outside "
    "src/ for benchmark timing only)";

const std::vector<LineRule>& LineRules() {
  static const std::vector<LineRule> rules{
      // util/random owns madnet::Rng, the one source of randomness.
      {Rule::kRand,
       std::regex("\\bstd\\s*::\\s*rand\\b|\\bsrand\\s*\\(|"
                  "\\bstd\\s*::\\s*random_device\\b|"
                  "\\bstd\\s*::\\s*mt19937(_64)?\\s+\\w+\\s*(;|\\{\\s*\\}|"
                  "\\(\\s*\\))|\\bstd\\s*::\\s*mt19937(_64)?\\s*(\\{\\s*\\}|"
                  "\\(\\s*\\))"),
       "randomness must come from a seeded madnet::Rng (util/random.h): "
       "std::rand/srand are hidden global state, std::random_device is "
       "nondeterministic entropy, and a default-constructed std::mt19937 "
       "hides its seed",
       /*src_only=*/false,
       {"src/util/random"}},
      {Rule::kWallclock,
       std::regex("\\btime\\s*\\(\\s*(nullptr|NULL|0)\\s*\\)|"
                  "\\bgettimeofday\\s*\\("),
       kWallclockMessage,
       /*src_only=*/false,
       {}},
      {Rule::kWallclock,
       std::regex("\\blocaltime\\s*\\(|\\bgmtime\\s*\\(|\\bsystem_clock\\b"),
       kWallclockMessage,
       /*src_only=*/true,
       {}},
      {Rule::kStderr,
       std::regex("\\bfprintf\\s*\\(\\s*stderr\\b|"
                  "\\bfputs\\s*\\([^)]*,\\s*stderr\\s*\\)"),
       "direct stderr writes bypass the locked Logger (records can shear "
       "under parallel sweeps and lose the sim-time prefix); use "
       "MADNET_LOG_ERROR/WARN from util/logging.h",
       /*src_only=*/false,
       {"util/logging", "tools/"}},
  };
  return rules;
}

// ---------------------------------------------------------------------------
// madnet-raw-new.

void CheckRawNew(const FileScan& scan, std::vector<Diagnostic>* out) {
  static const std::regex kNewAnyRe("\\bnew\\b");
  static const std::regex kDeleteRe("\\bdelete\\b(\\s*\\[\\s*\\])?");
  static const std::regex kDeletedFnRe("=\\s*delete\\b");
  static const std::regex kOperatorRe("\\boperator\\b");
  for (size_t idx = 0; idx < scan.code_lines.size(); ++idx) {
    const std::string& line = scan.code_lines[idx];
    const int lineno = static_cast<int>(idx) + 1;
    if (std::regex_search(line, kNewAnyRe) &&
        !std::regex_search(line, kOperatorRe)) {
      out->push_back(MakeDiagnostic(
          scan.path, lineno, Rule::kRawNew,
          "raw 'new': use std::make_unique/std::make_shared or a "
          "container"));
    }
    if (std::regex_search(line, kDeleteRe) &&
        !std::regex_search(line, kDeletedFnRe) &&
        !std::regex_search(line, kOperatorRe)) {
      out->push_back(MakeDiagnostic(
          scan.path, lineno, Rule::kRawNew,
          "raw 'delete': ownership belongs in a smart pointer or "
          "container"));
    }
  }
}

// ---------------------------------------------------------------------------
// madnet-unordered-iteration.

// The rule covers all of src/: hash-order iteration is a portability trap
// wherever it feeds FP sums, RNG draws, broadcast order, or user-visible
// output, not just in the stats/scenario aggregation paths it originally
// guarded. Order-independent folds carry a justified NOLINT instead.
bool InUnorderedIterationScope(const std::string& path) {
  return InDirectory(path, "src/");
}

// Collects identifiers bound to unordered containers on `line`: variables
// and members (`std::unordered_map<...> name_;` / `... name = ...`) and
// accessors returning them (`const std::unordered_map<...>& name() ...`).
void CollectUnorderedNames(const std::string& line,
                           std::set<std::string>* names) {
  static const std::regex kUnorderedRe("\\bunordered_(map|set)\\b");
  if (!std::regex_search(line, kUnorderedRe)) return;
  static const std::regex kBindingRe("([A-Za-z_][A-Za-z0-9_]*)\\s*[;=(]");
  auto begin = std::sregex_iterator(line.begin(), line.end(), kBindingRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    if (name == "unordered_map" || name == "unordered_set" || name == "std" ||
        name == "const" || name == "if" || name == "for" || name == "while" ||
        name == "return" || name == "operator") {
      continue;
    }
    names->insert(name);
  }
}

void CheckUnorderedIteration(const FileScan& scan,
                             const std::set<std::string>& unordered_names,
                             std::vector<Diagnostic>* out) {
  if (!InUnorderedIterationScope(scan.path)) return;
  static const std::regex kRangeForRe("\\bfor\\s*\\([^)]*:([^)]*)\\)");
  for (size_t idx = 0; idx < scan.code_lines.size(); ++idx) {
    const std::string& line = scan.code_lines[idx];
    std::smatch match;
    if (!std::regex_search(line, match, kRangeForRe)) continue;
    const std::string range_expr = match[1].str();
    std::string offender;
    if (Contains(range_expr, "unordered_")) {
      offender = "an unordered container";
    } else {
      static const std::regex kIdentRe("[A-Za-z_][A-Za-z0-9_]*");
      auto begin = std::sregex_iterator(range_expr.begin(), range_expr.end(),
                                        kIdentRe);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        if (unordered_names.count(it->str()) > 0) {
          offender = "'" + it->str() + "'";
          break;
        }
      }
    }
    if (offender.empty()) continue;
    out->push_back(MakeDiagnostic(
        scan.path, static_cast<int>(idx) + 1, Rule::kUnorderedIteration,
        "iteration over " + offender +
            ": hash order is not deterministic across platforms or "
            "library versions; use std::map/std::set, sort first, or "
            "NOLINT with a justification that the fold is "
            "order-independent"));
  }
}

// ---------------------------------------------------------------------------
// madnet-hot-alloc.

// Functions annotated with a `// MADNET_HOT` comment line are the per-event
// broadcast/queue paths: steady-state execution must not allocate. The rule
// flags obvious per-call allocations — `new`, make_shared/make_unique, and
// growth calls on containers — inside the function body following the
// marker. Receivers whose name chain identifies a deliberately reused
// buffer (scratch/arena/slot/pool/free vectors, out-parameters) are
// allowed; anything else needs a justified suppression (typically
// "amortized O(1) growth").

// True if `name` identifies a reused buffer or an out-parameter.
bool IsReusedBufferName(const std::string& name) {
  for (const char* marker : {"scratch", "arena", "slot", "pool", "free"}) {
    if (Contains(name, marker)) return true;
  }
  if (name == "out" || StartsWith(name, "out_")) return true;
  if (name.size() >= 4 && name.compare(name.size() - 4, 4, "_out") == 0) {
    return true;
  }
  // Trailing-underscore members: strip and re-test the out-param forms.
  if (!name.empty() && name.back() == '_') {
    return IsReusedBufferName(name.substr(0, name.size() - 1));
  }
  return false;
}

// Marks the lines of `file`'s MADNET_HOT function bodies, as the project
// model found them: from the opening '{' through its matching '}'.
std::vector<bool> HotLines(const ModelFile& file, size_t line_count) {
  std::vector<bool> hot(line_count, false);
  for (const FunctionSpan& fn : file.functions) {
    if (!fn.hot) continue;
    for (int line = fn.body_begin; line <= fn.body_end; ++line) {
      hot[static_cast<size_t>(line) - 1] = true;
    }
  }
  return hot;
}

// True if the (code-view) line performs a heap allocation that the hot-path
// policy bans: `new`, make_shared/make_unique, or growth on a container
// whose receiver chain does not name a reused scratch/arena/pool buffer or
// an out-parameter. Shared by madnet-hot-alloc (direct) and
// madnet-hot-transitive-alloc (call-graph reachable).
bool LineHasHotAllocViolation(const std::string& line) {
  static const std::regex kAllocRe(
      "\\bnew\\b|\\bmake_(shared|unique)\\b");
  static const std::regex kGrowRe(
      "((?:[A-Za-z_][A-Za-z0-9_]*\\s*(?:\\.|->)\\s*)+)"
      "(push_back|emplace_back|emplace|insert)\\s*\\(");
  static const std::regex kIdentRe("[A-Za-z_][A-Za-z0-9_]*");
  if (std::regex_search(line, kAllocRe)) return true;
  std::smatch match;
  std::string rest = line;
  while (std::regex_search(rest, match, kGrowRe)) {
    // Allow if any identifier in the receiver chain names a reused
    // buffer (covers `scratch_.push_back` and `out->ids.push_back`).
    const std::string chain = match[1].str();
    bool allowed = false;
    auto begin = std::sregex_iterator(chain.begin(), chain.end(), kIdentRe);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      if (IsReusedBufferName(it->str())) {
        allowed = true;
        break;
      }
    }
    if (!allowed) return true;
    rest = match.suffix().str();
  }
  return false;
}

void CheckHotAlloc(const ModelFile& file, const FileScan& scan,
                   std::vector<Diagnostic>* out) {
  const std::vector<bool> hot = HotLines(file, scan.code_lines.size());
  for (size_t idx = 0; idx < scan.code_lines.size(); ++idx) {
    if (!hot[idx] || !LineHasHotAllocViolation(scan.code_lines[idx])) {
      continue;
    }
    out->push_back(MakeDiagnostic(
        scan.path, static_cast<int>(idx) + 1, Rule::kHotAlloc,
        "allocation in a MADNET_HOT function: reuse a scratch/arena "
        "buffer, or NOLINT with a justification if growth is amortized"));
  }
}

// ---------------------------------------------------------------------------
// madnet-layering.

// The declared architecture, lowest layer first. A src/<module> file may
// include its own module and any module of a *strictly lower* layer.
// Same-layer includes are tolerated (the sets below are peers by design)
// but the module include graph must stay acyclic — the cycle check fails
// the build the moment e.g. core -> net gains a net -> core back edge.
// Keep this table in sync with docs/STATIC_ANALYSIS.md ("Layering") and
// docs/architecture.md.
struct Layer {
  const char* module;
  int rank;
};

const std::vector<Layer>& LayerTable() {
  static const std::vector<Layer> table{
      {"util", 0},
      {"sketch", 1}, {"obs", 1},
      {"core", 2},   {"mobility", 2}, {"net", 2}, {"sim", 2},
      {"fault", 3},  {"stats", 3},    {"scenario", 3},
      {"exec", 4},
  };
  return table;
}

int LayerRankOf(const std::string& module) {
  for (const Layer& layer : LayerTable()) {
    if (module == layer.module) return layer.rank;
  }
  return -1;
}

const char* kLayerDagText =
    "util -> {sketch,obs} -> {core,mobility,net,sim} -> "
    "{fault,stats,scenario} -> exec";

void CheckLayering(const ProjectModel& model, std::vector<Diagnostic>* out) {
  // Edge direction checks, file by file.
  for (const ModelFile& file : model.files()) {
    if (!file.in_src) continue;
    const int source_rank = LayerRankOf(file.module);
    if (source_rank < 0) {
      out->push_back(MakeDiagnostic(
          file.path, 1, Rule::kLayering,
          "module 'src/" + file.module +
              "' is not in the layer table; add it to LayerTable() in "
              "tools/lint_rules.cc and to docs/STATIC_ANALYSIS.md"));
      continue;
    }
    for (const IncludeSite& site : file.includes) {
      if (site.module.empty() || site.module == file.module) continue;
      const int target_rank = LayerRankOf(site.module);
      if (target_rank < 0) {
        out->push_back(MakeDiagnostic(
            file.path, site.line, Rule::kLayering,
            "include of '" + site.target + "': module '" + site.module +
                "' is not in the layer table; add it to LayerTable() in "
                "tools/lint_rules.cc"));
        continue;
      }
      if (target_rank > source_rank) {
        out->push_back(MakeDiagnostic(
            file.path, site.line, Rule::kLayering,
            "layer violation: src/" + file.module + " (layer " +
                std::to_string(source_rank) + ") may not include src/" +
                site.module + " (layer " + std::to_string(target_rank) +
                "); the dependency DAG is " + kLayerDagText +
                " (docs/STATIC_ANALYSIS.md)"));
      }
    }
  }

  // Cycle check over the module projection (catches same-layer cycles the
  // rank test cannot, e.g. core -> net -> core). Deterministic: modules
  // and edges iterate in sorted order.
  std::map<std::string, std::vector<std::string>> adjacency;
  for (const auto& [edge, site] : model.module_edges()) {
    adjacency[edge.first].push_back(edge.second);
  }
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black.
  std::vector<std::string> path;
  // Iterative DFS with an explicit stack of (node, next-child) frames.
  for (const auto& [start, unused] : adjacency) {
    if (color[start] != 0) continue;
    std::vector<std::pair<std::string, size_t>> stack{{start, 0}};
    color[start] = 1;
    path.push_back(start);
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto it = adjacency.find(node);
      if (it == adjacency.end() || next >= it->second.size()) {
        color[node] = 2;
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const std::string& target = it->second[next++];
      if (color[target] == 1) {
        // Back edge: render the cycle path from `target` around to `node`.
        std::string cycle;
        bool in_cycle = false;
        for (const std::string& module : path) {
          if (module == target) in_cycle = true;
          if (in_cycle) cycle += module + " -> ";
        }
        cycle += target;
        const auto site =
            model.module_edges().find(std::make_pair(node, target));
        const std::string at_file =
            site != model.module_edges().end() ? site->second.file : "";
        const int at_line =
            site != model.module_edges().end() ? site->second.line : 1;
        out->push_back(MakeDiagnostic(
            at_file, at_line, Rule::kLayering,
            "include cycle between src modules: " + cycle +
                "; break the cycle (dependency-invert or move the "
                "shared type down a layer)"));
        continue;
      }
      if (color[target] == 0) {
        color[target] = 1;
        path.push_back(target);
        stack.push_back({target, 0});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// madnet-hot-transitive-alloc.

void CheckHotTransitiveAlloc(const ProjectModel& model,
                             const std::vector<FileScan>& scans,
                             std::vector<Diagnostic>* out) {
  for (const auto& reachable : model.HotReachableFunctions()) {
    const ModelFile& file =
        model.files()[static_cast<size_t>(reachable.function.first)];
    const FunctionSpan& span =
        file.functions[static_cast<size_t>(reachable.function.second)];
    // The model holds the files in scan order.
    const FileScan& scan = scans[static_cast<size_t>(reachable.function.first)];
    // Lines already inside a directly-marked MADNET_HOT body belong to
    // madnet-hot-alloc; this rule covers the unmarked remainder.
    const std::vector<bool> directly_hot =
        HotLines(file, scan.code_lines.size());
    for (int lineno = span.body_begin; lineno <= span.body_end; ++lineno) {
      const size_t idx = static_cast<size_t>(lineno) - 1;
      if (directly_hot[idx]) continue;
      if (!LineHasHotAllocViolation(scan.code_lines[idx])) continue;
      const std::string name =
          span.qualified.empty() ? span.name : span.qualified;
      out->push_back(MakeDiagnostic(
          file.path, lineno, Rule::kHotTransitiveAlloc,
          "allocation in '" + name +
              "', which is reachable from a MADNET_HOT function (" +
              reachable.chain +
              "): reuse a scratch/arena buffer, or NOLINT with a "
              "justification (cold branch, amortized growth, or a "
              "heuristic call-graph false positive)"));
    }
  }
}

// ---------------------------------------------------------------------------
// madnet-rng-fork-label.

// util/random owns Fork() itself (implementation + tests of the mixer).
bool ExemptFromForkLabelRule(const std::string& path) {
  return Contains(path, "src/util/random");
}

std::string HexLabel(uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << std::uppercase << value;
  return out.str();
}

void CheckRngForkLabel(const ProjectModel& model,
                       std::vector<Diagnostic>* out) {
  struct Site {
    const ModelFile* file;
    const ForkSite* fork;
  };
  std::vector<Site> sites;
  for (const ModelFile& file : model.files()) {
    if (!file.in_src || ExemptFromForkLabelRule(file.path)) continue;
    for (const ForkSite& fork : file.forks) {
      sites.push_back(Site{&file, &fork});
    }
  }
  // Pass 1: literal labels, grouped by value for duplicate detection.
  std::map<uint64_t, std::vector<const Site*>> by_value;
  for (const Site& site : sites) {
    if (site.fork->literal) by_value[site.fork->value].push_back(&site);
  }
  for (const Site& site : sites) {
    if (!site.fork->literal) {
      out->push_back(MakeDiagnostic(
          site.file->path, site.fork->line, Rule::kRngForkLabel,
          "Rng::Fork label '" + site.fork->argument +
              "' is not a compile-time integer literal, so stream "
              "identity cannot be audited project-wide; use a distinct "
              "literal, or NOLINT with a justification naming the "
              "disjoint label range a derived label draws from"));
      continue;
    }
    const std::vector<const Site*>& peers = by_value[site.fork->value];
    if (peers.size() > 1) {
      // Name one *other* site so the message is actionable.
      const Site* other = nullptr;
      for (const Site* peer : peers) {
        if (peer->file != site.file || peer->fork != site.fork) {
          other = peer;
          break;
        }
      }
      out->push_back(MakeDiagnostic(
          site.file->path, site.fork->line, Rule::kRngForkLabel,
          "duplicate Rng::Fork label " + HexLabel(site.fork->value) +
              " (also used at " +
              (other != nullptr ? other->file->path + ":" +
                                      std::to_string(other->fork->line)
                                : "another site") +
              "): identical labels fork *correlated* streams; every Fork "
              "site needs a project-unique label"));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

std::string ToString(const Diagnostic& diagnostic) {
  return diagnostic.file + ":" + std::to_string(diagnostic.line) +
         ": error: [" + diagnostic.rule + "] " + diagnostic.message;
}

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const RuleRow& row : kRuleTable) out.emplace_back(row.name);
    return out;
  }();
  return names;
}

std::string RuleSummary(const std::string& rule) {
  for (const RuleRow& row : kRuleTable) {
    if (rule == row.name) return row.summary;
  }
  return "";
}

void Linter::AddFile(std::string path, std::string content) {
  // Normalize Windows separators so directory scoping works uniformly.
  std::replace(path.begin(), path.end(), '\\', '/');
  files_.push_back(File{std::move(path), std::move(content)});
}

std::vector<Diagnostic> Linter::Run() const {
  std::vector<FileScan> scans;
  scans.reserve(files_.size());
  for (const File& file : files_) {
    scans.push_back(ScanFile(file.path, file.content));
  }

  // Pass 1a: container names for the unordered-iteration rule. Names are
  // collected from in-scope files only, so e.g. a container member in
  // bench/ cannot shadow-flag a src/ loop.
  std::set<std::string> unordered_names;
  for (const FileScan& scan : scans) {
    if (!InUnorderedIterationScope(scan.path)) continue;
    for (const std::string& line : scan.code_lines) {
      CollectUnorderedNames(line, &unordered_names);
    }
  }

  // Pass 1b: the whole-project model (include graph, function spans, call
  // graph, Fork sites).
  ProjectModel model;
  for (const FileScan& scan : scans) {
    model.AddFile(scan.path, scan.raw_lines, scan.code_lines);
  }

  // Pass 2: all rules.
  std::vector<Diagnostic> diagnostics;
  for (size_t i = 0; i < scans.size(); ++i) {
    const FileScan& scan = scans[i];
    for (const LineRule& rule : LineRules()) {
      bool in_scope = !rule.src_only || InDirectory(scan.path, "src/");
      for (const std::string& exempt : rule.allowlist) {
        if (Contains(scan.path, exempt)) in_scope = false;
      }
      if (!in_scope) continue;
      for (size_t idx = 0; idx < scan.code_lines.size(); ++idx) {
        if (!std::regex_search(scan.code_lines[idx], rule.pattern)) continue;
        diagnostics.push_back(MakeDiagnostic(
            scan.path, static_cast<int>(idx) + 1, rule.rule, rule.message));
      }
    }
    CheckRawNew(scan, &diagnostics);
    CheckHotAlloc(model.files()[i], scan, &diagnostics);
    CheckUnorderedIteration(scan, unordered_names, &diagnostics);
  }
  CheckLayering(model, &diagnostics);
  CheckHotTransitiveAlloc(model, scans, &diagnostics);
  CheckRngForkLabel(model, &diagnostics);

  // Every rule's findings pass through the NOLINTs of the file they land
  // in; malformed NOLINTs are reported as they are.
  std::erase_if(diagnostics, [&scans](const Diagnostic& diagnostic) {
    for (const FileScan& scan : scans) {
      if (scan.path == diagnostic.file) {
        return Suppressed(scan.suppressions, diagnostic.line, diagnostic.rule);
      }
    }
    return false;
  });
  for (const FileScan& scan : scans) {
    diagnostics.insert(diagnostics.end(), scan.suppressions.diagnostics.begin(),
                       scan.suppressions.diagnostics.end());
  }

  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return diagnostics;
}

std::string StripCommentsAndStrings(const std::string& content) {
  return KeepOnly(content, ClassifyChars(content), CharClass::kCode);
}

ProjectModel BuildProjectModel(
    const std::vector<std::pair<std::string, std::string>>& path_content) {
  ProjectModel model;
  for (const auto& [path, content] : path_content) {
    const FileScan scan = ScanFile(path, content);
    model.AddFile(scan.path, scan.raw_lines, scan.code_lines);
  }
  return model;
}

std::vector<Diagnostic> LintFile(const std::string& path,
                                 const std::string& content) {
  Linter linter;
  linter.AddFile(path, content);
  return linter.Run();
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string SarifReport(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  out << "{\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"madnet_lint\",\n"
      << "          \"informationUri\": "
         "\"docs/STATIC_ANALYSIS.md\",\n"
      << "          \"rules\": [\n";
  const auto& names = RuleNames();
  for (size_t i = 0; i < names.size(); ++i) {
    out << "            {\"id\": \"" << JsonEscape(names[i]) << "\"}"
        << (i + 1 < names.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out << "        {\n"
        << "          \"ruleId\": \"" << JsonEscape(d.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(d.message)
        << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << JsonEscape(d.file) << "\"},\n"
        << "                \"region\": {\"startLine\": " << d.line << "}\n"
        << "              }\n"
        << "            }\n"
        << "          ]\n"
        << "        }" << (i + 1 < diagnostics.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace madnet::lint
