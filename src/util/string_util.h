// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Small string helpers used by the trace format, the flag parser, and the
// experiment tools. No locale dependence; ASCII only.

#ifndef MADNET_UTIL_STRING_UTIL_H_
#define MADNET_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace madnet {

/// Splits on a delimiter character. Adjacent delimiters produce empty
/// fields; an empty input yields one empty field.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Joins with a delimiter string.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delimiter);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// True iff `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Strict full-string numeric parses (no trailing garbage allowed).
StatusOr<double> ParseDouble(std::string_view text);
StatusOr<int64_t> ParseInt(std::string_view text);

/// Parses "true/false/1/0/yes/no/on/off" (case-sensitive, lowercase).
StatusOr<bool> ParseBool(std::string_view text);

}  // namespace madnet

#endif  // MADNET_UTIL_STRING_UTIL_H_
