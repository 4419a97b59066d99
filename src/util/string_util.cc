// Copyright (c) 2026 madnet authors. All rights reserved.

#include "util/string_util.h"

#include <cerrno>
#include <cstdlib>

namespace madnet {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view delimiter) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delimiter;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
           c == '\f';
  };
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

StatusOr<double> ParseDouble(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("number out of range: '" + owned + "'");
  }
  if (end != owned.c_str() + owned.size()) {
    return Status::InvalidArgument("not a number: '" + owned + "'");
  }
  return value;
}

StatusOr<int64_t> ParseInt(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty integer");
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(owned.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + owned + "'");
  }
  if (end != owned.c_str() + owned.size()) {
    return Status::InvalidArgument("not an integer: '" + owned + "'");
  }
  return static_cast<int64_t>(value);
}

StatusOr<bool> ParseBool(std::string_view text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  return Status::InvalidArgument("not a boolean: '" + std::string(text) +
                                 "'");
}

}  // namespace madnet
