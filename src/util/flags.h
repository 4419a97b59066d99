// Copyright (c) 2026 madnet authors. All rights reserved.
//
// One flag table per binary: each row declares a flag's name, environment
// variable, kind, range, default and help. FlagSet::Parse reads argv and
// the environment against the rows and checks every value before the
// binary does any work, so the typed reads afterwards cannot fail, and
// --help is generated from the rows.
//
// Forms: "--name=value", "--name value" (non-bool rows) and a bare
// "--name" (bool rows: true). A flag beats its variable, which beats the
// default; the last repeat wins. Every table accepts "--help" and "-h".

#ifndef MADNET_UTIL_FLAGS_H_
#define MADNET_UTIL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace madnet {

enum class FlagKind { kString, kBool, kInt, kDouble };

/// One row of a flag table.
struct Flag {
  std::string name = {};  ///< "--name"; empty for a variable-only row.
  std::string env = {};   ///< Variable read when the flag is absent.
  FlagKind kind = FlagKind::kString;
  std::string default_value = {};  ///< Checked like a given value.
  std::string help = {};
  /// Inclusive range of a kInt or kDouble value; doubles must be finite.
  double min = std::numeric_limits<double>::lowest();
  double max = std::numeric_limits<double>::max();
  std::string zero_word = {};  ///< kInt: a word read as 0 ("auto").
  /// Extra check of the value text; its message gets the flag's name.
  Status (*check)(const std::string& name, const std::string& value) =
      nullptr;
  bool positional = false;  ///< Filled by the next non-"--" argument.
};

/// A flag table parsed from argv and the environment.
class FlagSet {
 public:
  /// Parses argv (skipping argv[0]) and each row's variable, read through
  /// `env` (std::getenv when null). A variable set to "" counts as unset,
  /// except for a kString row. Arguments not starting with "--" fill the
  /// positional rows in order; the rest are kept in positional().
  static StatusOr<FlagSet> Parse(std::span<const Flag> rows, int argc,
                                 const char* const* argv,
                                 const char* (*env)(const char*) = nullptr);

  /// Reads of the row named `name` (a variable-only row by its variable):
  /// String() is the text of any kind, the typed reads must match the kind.
  const std::string& String(std::string_view name) const {
    return Get(name).text;
  }
  bool Bool(std::string_view name) const {
    return Get(name, FlagKind::kBool).integer != 0;
  }
  int64_t Int(std::string_view name) const {
    return Get(name, FlagKind::kInt).integer;
  }
  double Double(std::string_view name) const {
    return Get(name, FlagKind::kDouble).number;
  }
  /// True iff the value came from argv or the environment.
  bool IsSet(std::string_view name) const { return Get(name).set; }
  bool help() const { return Bool("help"); }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  struct Value {
    std::string text;
    int64_t integer = 0;  // kInt, and kBool as 0/1.
    double number = 0.0;  // kDouble.
    bool set = false;     // From argv or the environment.
  };

  // The row's value; an undeclared name or the wrong kind DCHECK-fails.
  const Value& Get(std::string_view name,
                   std::optional<FlagKind> kind = std::nullopt) const;

  std::vector<Flag> rows_;  // The table, then the implicit --help row.
  std::vector<Value> values_;
  std::vector<std::string> positional_;
};

/// "usage: <program>" and every row's names, default, range and help.
std::string FlagUsage(std::span<const Flag> rows, std::string_view program);

/// FlagSet::Parse for a main(): an error is logged and exits 2; --help
/// prints the usage and exits 0. `program` is the usage synopsis, starting
/// with the binary's name.
FlagSet ParseFlagsOrExit(std::span<const Flag> rows, int argc,
                         const char* const* argv, std::string_view program);

}  // namespace madnet

#endif  // MADNET_UTIL_FLAGS_H_
