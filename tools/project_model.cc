// Copyright (c) 2026 madnet authors. All rights reserved.

#include "project_model.h"

#include <cctype>
#include <cstdlib>
#include <regex>

namespace madnet::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string Trim(const std::string& s) {
  const size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const size_t end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

// First non-whitespace character of `line`, or '\0'.
char FirstNonSpace(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t') return c;
  }
  return '\0';
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
  // quoted path as a string literal. Fork sites come from the code view,
  // outside preprocessor directives and their backslash continuations.
  static const std::regex kIncludeRe(
      "^\\s*#\\s*include\\s*\"([^\"]+)\"");
  bool in_preproc = false;
  for (size_t i = 0; i < raw.size() && i < code.size(); ++i) {
    const int lineno = static_cast<int>(i) + 1;
    std::smatch match;
    if (std::regex_search(raw[i], match, kIncludeRe)) {
      IncludeSite site;
      site.line = lineno;
      site.target = match[1].str();
      const size_t slash = site.target.find('/');
      site.module =
          slash == std::string::npos ? "" : site.target.substr(0, slash);
      file.includes.push_back(std::move(site));
    }
    if (in_preproc || FirstNonSpace(raw[i]) == '#') {
      in_preproc = !raw[i].empty() && raw[i].back() == '\\';
      continue;
    }
    CollectForkSites(code[i], lineno, &file.forks);
  }

  // Register into the module-level include graph.
  if (file.in_src) {
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

}  // namespace madnet::lint
