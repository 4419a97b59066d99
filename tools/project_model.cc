// Copyright (c) 2026 madnet authors. All rights reserved.

#include "project_model.h"

#include <cctype>
#include <cstdlib>
#include <regex>
#include <set>

namespace madnet::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Identifiers that precede a '(' without naming a function definition or a
// meaningful call target.
bool IsControlKeyword(const std::string& word) {
  static const std::set<std::string> kKeywords{
      "if",     "for",    "while",  "switch",    "catch",  "return",
      "sizeof", "alignof", "constexpr", "defined", "do",   "else",
      "case",   "new",    "delete", "throw",     "assert", "co_return",
  };
  return kKeywords.count(word) > 0;
}

std::string Trim(const std::string& s) {
  const size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const size_t end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

// If `header` (the statement text preceding a '{') is a function-definition
// header, fills name/qualified and returns true. The heuristic: take the
// first top-level '(' and read the identifier chain immediately before it
// (allowing `::` qualification and '~'); control keywords, lambdas, and
// brace-init expressions fail the test.
bool HeaderIsFunction(const std::string& header, FunctionSpan* span) {
  const size_t paren = header.find('(');
  if (paren == std::string::npos) return false;
  size_t end = paren;
  while (end > 0 && (header[end - 1] == ' ' || header[end - 1] == '\t')) {
    --end;
  }
  size_t begin = end;
  while (begin > 0) {
    const char c = header[begin - 1];
    if (IsIdentChar(c) || c == '~') {
      --begin;
    } else if (c == ':' && begin >= 2 && header[begin - 2] == ':') {
      begin -= 2;
    } else {
      break;
    }
  }
  if (begin == end) return false;
  const std::string qualified = header.substr(begin, end - begin);
  const size_t last_sep = qualified.rfind("::");
  const std::string name =
      last_sep == std::string::npos ? qualified : qualified.substr(last_sep + 2);
  if (name.empty() || !(std::isalpha(static_cast<unsigned char>(name[0])) ||
                        name[0] == '_' || name[0] == '~')) {
    return false;
  }
  if (IsControlKeyword(name)) return false;
  span->name = name;
  span->qualified = qualified;
  return true;
}

// First non-whitespace character of `line`, or '\0'.
char FirstNonSpace(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t') return c;
  }
  return '\0';
}

// Collects `identifier(` call sites on one code line into `out`.
void CollectCallSites(const std::string& line, int lineno, int caller,
                      std::vector<CallSite>* out) {
  size_t i = 0;
  const size_t n = line.size();
  while (i < n) {
    if (!IsIdentChar(line[i])) {
      ++i;
      continue;
    }
    const size_t begin = i;
    while (i < n && IsIdentChar(line[i])) ++i;
    if (std::isdigit(static_cast<unsigned char>(line[begin]))) continue;
    size_t j = i;
    while (j < n && (line[j] == ' ' || line[j] == '\t')) ++j;
    if (j < n && line[j] == '(') {
      std::string callee = line.substr(begin, i - begin);
      if (!IsControlKeyword(callee)) {
        out->push_back(CallSite{lineno, caller, std::move(callee)});
      }
    }
  }
}

// True iff `text` is a single integer literal (decimal or hex, C++14 digit
// separators and unsigned/long suffixes allowed). Parses into `value`.
bool ParseIntegerLiteral(const std::string& text, uint64_t* value) {
  std::string digits;
  size_t i = 0;
  const size_t n = text.size();
  int base = 10;
  if (n >= 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    i = 2;
  }
  size_t digit_count = 0;
  for (; i < n; ++i) {
    const char c = text[i];
    if (c == '\'') continue;
    const bool is_digit =
        base == 16 ? std::isxdigit(static_cast<unsigned char>(c)) != 0
                   : std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!is_digit) break;
    digits += c;
    ++digit_count;
  }
  if (digit_count == 0) return false;
  for (; i < n; ++i) {  // Optional suffix.
    const char c = text[i];
    if (c != 'u' && c != 'U' && c != 'l' && c != 'L') return false;
  }
  *value = std::strtoull(digits.c_str(), nullptr, base);
  return true;
}

// Scans one code line for `.Fork(...)` / `->Fork(...)` call sites.
void CollectForkSites(const std::string& line, int lineno,
                      std::vector<ForkSite>* out) {
  size_t pos = 0;
  while ((pos = line.find("Fork", pos)) != std::string::npos) {
    const size_t start = pos;
    pos += 4;
    // Must be the whole identifier.
    if (pos < line.size() && IsIdentChar(line[pos])) continue;
    if (start > 0 && IsIdentChar(line[start - 1])) continue;
    // Preceded by '.' or '->' (possibly with spaces).
    size_t before = start;
    while (before > 0 &&
           (line[before - 1] == ' ' || line[before - 1] == '\t')) {
      --before;
    }
    const bool member =
        (before >= 1 && line[before - 1] == '.') ||
        (before >= 2 && line[before - 2] == '-' && line[before - 1] == '>');
    if (!member) continue;
    // Followed by '(': capture the balanced argument text.
    size_t open = pos;
    while (open < line.size() &&
           (line[open] == ' ' || line[open] == '\t')) {
      ++open;
    }
    if (open >= line.size() || line[open] != '(') continue;
    int depth = 0;
    size_t close = open;
    for (; close < line.size(); ++close) {
      if (line[close] == '(') ++depth;
      if (line[close] == ')' && --depth == 0) break;
    }
    ForkSite site;
    site.line = lineno;
    site.argument = close < line.size()
                        ? Trim(line.substr(open + 1, close - open - 1))
                        : Trim(line.substr(open + 1));
    site.literal = ParseIntegerLiteral(site.argument, &site.value);
    out->push_back(std::move(site));
  }
}

}  // namespace

std::string ProjectModel::ModuleOf(const std::string& path) {
  const size_t slash = path.find('/');
  if (slash == std::string::npos) return "";
  const std::string top = path.substr(0, slash);
  if (top != "src") return top;
  const size_t second = path.find('/', slash + 1);
  if (second == std::string::npos) return "";
  return path.substr(slash + 1, second - slash - 1);
}

void ProjectModel::AddFile(const std::string& path,
                           const std::vector<std::string>& raw,
                           const std::vector<std::string>& code) {
  ModelFile file;
  file.path = path;
  file.module = ModuleOf(path);
  file.in_src = path.compare(0, 4, "src/") == 0;

  // Include sites come from the raw view: the linter's code view blanks the
  // quoted path as a string literal.
  static const std::regex kIncludeRe(
      "^\\s*#\\s*include\\s*\"([^\"]+)\"");
  static const std::regex kHotRe("//\\s*MADNET_HOT\\b");
  std::vector<bool> hot_marker(raw.size(), false);
  for (size_t i = 0; i < raw.size(); ++i) {
    std::smatch match;
    if (std::regex_search(raw[i], match, kIncludeRe)) {
      IncludeSite site;
      site.line = static_cast<int>(i) + 1;
      site.target = match[1].str();
      const size_t slash = site.target.find('/');
      site.module =
          slash == std::string::npos ? "" : site.target.substr(0, slash);
      file.includes.push_back(std::move(site));
    }
    if (std::regex_search(raw[i], kHotRe)) hot_marker[i] = true;
  }

  // Brace-tracking pass over the code view: function spans and Fork sites.
  struct Frame {
    bool is_function = false;
    int fn_index = -1;
  };
  std::vector<Frame> stack;
  std::string header;
  int paren_depth = 0;
  int pending_hot = -1;  // Marker line awaiting its function body.
  bool in_preproc = false;
  for (size_t li = 0; li < code.size() && li < raw.size(); ++li) {
    if (hot_marker[li]) pending_hot = static_cast<int>(li) + 1;
    // Preprocessor directives (and their backslash continuations) never
    // open C++ blocks; a brace inside a macro body must not desync the
    // depth tracking.
    if (in_preproc || FirstNonSpace(raw[li]) == '#') {
      in_preproc = !raw[li].empty() && raw[li].back() == '\\';
      continue;
    }
    const std::string& line = code[li];
    CollectForkSites(line, static_cast<int>(li) + 1, &file.forks);
    for (char c : line) {
      switch (c) {
        case '(':
          ++paren_depth;
          header += c;
          break;
        case ')':
          if (paren_depth > 0) --paren_depth;
          header += c;
          break;
        case '{': {
          Frame frame;
          FunctionSpan span;
          if (paren_depth == 0 && HeaderIsFunction(header, &span)) {
            span.body_begin = static_cast<int>(li) + 1;
            span.hot = pending_hot >= 0;
            pending_hot = -1;
            frame.is_function = true;
            frame.fn_index = static_cast<int>(file.functions.size());
            file.functions.push_back(std::move(span));
          } else if (paren_depth == 0) {
            // A non-function block (namespace/class/init-list) between the
            // marker and any function body cancels the marker, mirroring
            // the prototype rule below.
            pending_hot = -1;
          }
          stack.push_back(frame);
          header.clear();
          break;
        }
        case '}':
          if (!stack.empty()) {
            if (stack.back().is_function) {
              file.functions[static_cast<size_t>(stack.back().fn_index)]
                  .body_end = static_cast<int>(li) + 1;
            }
            stack.pop_back();
          }
          header.clear();
          break;
        case ';':
          if (paren_depth == 0) {
            header.clear();
            // `// MADNET_HOT` above a prototype has no body to mark.
            if (stack.empty() ||
                !stack.back().is_function) {
              pending_hot = -1;
            }
          } else {
            header += c;
          }
          break;
        default:
          header += c;
          break;
      }
    }
    header += ' ';
  }
  // Unterminated spans (truncated file): close at EOF.
  for (FunctionSpan& span : file.functions) {
    if (span.body_end == 0) span.body_end = static_cast<int>(code.size());
  }

  // Call sites: attribute each line to its innermost enclosing function.
  // Spans are created outer-first, so later (inner) spans overwrite.
  std::vector<int> caller_of_line(code.size() + 2, -1);
  for (size_t j = 0; j < file.functions.size(); ++j) {
    const FunctionSpan& span = file.functions[j];
    for (int l = span.body_begin; l <= span.body_end &&
                                  l <= static_cast<int>(code.size());
         ++l) {
      caller_of_line[static_cast<size_t>(l)] = static_cast<int>(j);
    }
  }
  for (size_t li = 0; li < code.size(); ++li) {
    const int caller = caller_of_line[li + 1];
    if (caller < 0) continue;  // File/class scope: declarations, not calls.
    CollectCallSites(code[li], static_cast<int>(li) + 1, caller, &file.calls);
  }

  // Register into the project-wide indexes.
  const int file_index = static_cast<int>(files_.size());
  if (file.in_src) {
    for (size_t j = 0; j < file.functions.size(); ++j) {
      functions_by_name_[file.functions[j].name].push_back(
          {file_index, static_cast<int>(j)});
    }
    for (const IncludeSite& site : file.includes) {
      if (site.module.empty() || site.module == file.module) continue;
      const auto key = std::make_pair(file.module, site.module);
      if (module_edges_.find(key) == module_edges_.end()) {
        module_edges_[key] = ModuleEdge{file.path, site.line};
      }
    }
  }
  files_.push_back(std::move(file));
}

std::vector<FunctionRef> ProjectModel::FunctionsNamed(
    const std::string& name) const {
  const auto it = functions_by_name_.find(name);
  if (it == functions_by_name_.end()) return {};
  return it->second;
}

std::vector<ProjectModel::ReachableFunction>
ProjectModel::HotReachableFunctions() const {
  std::map<FunctionRef, std::string> chain;
  std::set<FunctionRef> roots;
  std::vector<FunctionRef> queue;
  for (size_t i = 0; i < files_.size(); ++i) {
    if (!files_[i].in_src) continue;
    for (size_t j = 0; j < files_[i].functions.size(); ++j) {
      const FunctionSpan& span = files_[i].functions[j];
      if (!span.hot) continue;
      const FunctionRef ref{static_cast<int>(i), static_cast<int>(j)};
      roots.insert(ref);
      chain[ref] = span.qualified.empty() ? span.name : span.qualified;
      queue.push_back(ref);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const FunctionRef from = queue[head];
    const ModelFile& file = files_[static_cast<size_t>(from.first)];
    for (const CallSite& call : file.calls) {
      if (call.caller != from.second) continue;
      for (const FunctionRef& target : FunctionsNamed(call.callee)) {
        if (chain.find(target) != chain.end()) continue;
        const FunctionSpan& span =
            files_[static_cast<size_t>(target.first)]
                .functions[static_cast<size_t>(target.second)];
        chain[target] = chain[from] + " -> " +
                        (span.qualified.empty() ? span.name : span.qualified);
        queue.push_back(target);
      }
    }
  }
  std::vector<ReachableFunction> result;
  for (const auto& [ref, path] : chain) {
    if (roots.count(ref) > 0) continue;
    result.push_back(ReachableFunction{ref, path});
  }
  return result;
}

}  // namespace madnet::lint
