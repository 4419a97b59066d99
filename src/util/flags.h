// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Minimal --key=value command-line flag parser for the tools and benches.
// No global registry: callers declare expected flags against a FlagSet,
// parse argv, and read typed values. Unknown flags are an error, so typos
// fail fast.

#ifndef MADNET_UTIL_FLAGS_H_
#define MADNET_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace madnet {

/// Declared flags plus parsed values.
class FlagSet {
 public:
  /// Declares a flag with a default value (rendered in --help) and a
  /// one-line description.
  void Define(const std::string& name, const std::string& default_value,
              const std::string& description);

  /// Parses argv (skipping argv[0]). Accepts "--name=value" and the
  /// boolean shorthand "--name" (meaning "true"). Returns InvalidArgument
  /// on unknown flags or malformed arguments. Positional (non --) arguments
  /// are collected into positional().
  Status Parse(int argc, const char* const* argv);

  /// True iff the flag was set on the command line (not just defaulted).
  bool IsSet(const std::string& name) const;

  /// Typed accessors; fall back to the declared default. GetDouble/GetInt/
  /// GetBool return the parse error if the value is malformed.
  std::string GetString(const std::string& name) const;
  StatusOr<double> GetDouble(const std::string& name) const;
  StatusOr<int64_t> GetInt(const std::string& name) const;
  StatusOr<bool> GetBool(const std::string& name) const;

  /// Arguments that did not start with "--", in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Usage text listing every declared flag, default, and description.
  std::string Usage(const std::string& program) const;

 private:
  struct Declaration {
    std::string default_value;
    std::string description;
  };
  std::map<std::string, Declaration> declared_;  // Sorted for Usage().
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace madnet

#endif  // MADNET_UTIL_FLAGS_H_
