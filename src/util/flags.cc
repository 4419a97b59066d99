// Copyright (c) 2026 madnet authors. All rights reserved.

#include "util/flags.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"
#include "util/string_util.h"

namespace madnet {
namespace {

const Flag kHelpRow{"help", "", FlagKind::kBool, "false", "print this help"};

std::string FormatBound(double bound) {
  if (std::fabs(bound) >= std::numeric_limits<double>::max()) {
    return bound > 0 ? "inf" : "-inf";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", bound);
  return buf;
}

// Parses `text` as the row's kind into `*integer` (kInt; kBool as 0/1) or
// `*number` (kDouble), checking the range and the row's hook; errors name
// `label`.
Status ParseValue(const Flag& row, const std::string& text,
                  const std::string& label, int64_t* integer,
                  double* number) {
  auto fail = [&](const std::string& message) {
    return Status::InvalidArgument(label + ": " + message);
  };
  *integer = 0;  // kString, and kInt's zero word.
  *number = 0.0;
  if (row.kind == FlagKind::kBool) {
    const StatusOr<bool> parsed = ParseBool(text);
    if (!parsed.ok()) return fail(parsed.status().message());
    *integer = *parsed ? 1 : 0;
  } else if (row.kind == FlagKind::kInt &&
             (row.zero_word.empty() || text != row.zero_word)) {
    const StatusOr<int64_t> parsed = ParseInt(text);
    if (!parsed.ok()) return fail(parsed.status().message());
    *integer = *parsed;
  } else if (row.kind == FlagKind::kDouble) {
    const StatusOr<double> parsed = ParseDouble(text);
    if (!parsed.ok()) return fail(parsed.status().message());
    if (!std::isfinite(*parsed)) return fail("must be finite, got " + text);
    *number = *parsed;
  }
  const double value = row.kind == FlagKind::kDouble
                           ? *number
                           : static_cast<double>(*integer);
  if (!(value >= row.min)) {
    return fail("must be >= " + FormatBound(row.min) + ", got " + text);
  }
  if (!(value <= row.max)) {
    return fail("must be <= " + FormatBound(row.max) + ", got " + text);
  }
  const Status checked =
      row.check == nullptr ? Status::Ok() : row.check(row.name, text);
  return checked.ok() ? checked : fail(checked.message());
}

}  // namespace

StatusOr<FlagSet> FlagSet::Parse(std::span<const Flag> rows, int argc,
                                 const char* const* argv,
                                 const char* (*env)(const char*)) {
  if (env == nullptr) {
    env = [](const char* name) -> const char* { return std::getenv(name); };
  }
  FlagSet flags;
  flags.rows_.assign(rows.begin(), rows.end());
  flags.rows_.push_back(kHelpRow);
  flags.values_.resize(flags.rows_.size());
  auto set = [&flags](size_t i, const std::string& text,
                      const std::string& label, bool given) {
    Value value{text, 0, 0.0, given};
    Status parsed = ParseValue(flags.rows_[i], text, label, &value.integer,
                               &value.number);
    if (parsed.ok()) flags.values_[i] = std::move(value);
    return parsed;
  };

  for (size_t i = 0; i < flags.rows_.size(); ++i) {
    const Flag& row = flags.rows_[i];
    const std::string label = row.name.empty() ? row.env : "--" + row.name;
    Status status = set(i, row.default_value, label + " default", false);
    const char* from_env = row.env.empty() ? nullptr : env(row.env.c_str());
    if (status.ok() && from_env != nullptr &&
        (from_env[0] != '\0' || row.kind == FlagKind::kString)) {
      status = set(i, from_env, row.env, true);
    }
    if (!status.ok()) return status;
  }

  size_t next_positional = 0;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = std::string_view(argv[a]) == "-h" ? "--help"
                                                               : argv[a];
    size_t i = 0;
    std::string text = arg;
    std::string label;
    if (!StartsWith(arg, "--")) {
      i = next_positional;
      while (i < flags.rows_.size() && !flags.rows_[i].positional) ++i;
      if (i == flags.rows_.size()) {
        flags.positional_.push_back(arg);
        continue;
      }
      next_positional = i + 1;
      label = flags.rows_[i].name;
    } else {
      const size_t eq = arg.find('=');
      const std::string name = arg.substr(2, eq - 2);
      label = "--" + name;
      while (i < flags.rows_.size() &&
             (flags.rows_[i].positional || flags.rows_[i].name != name)) {
        ++i;
      }
      if (name.empty() || i == flags.rows_.size()) {
        return Status::InvalidArgument("unknown flag " + label);
      }
      if (eq != std::string::npos) {
        text = arg.substr(eq + 1);
      } else if (flags.rows_[i].kind == FlagKind::kBool) {
        text = "true";
      } else if (a + 1 < argc) {
        text = argv[++a];
      } else {
        return Status::InvalidArgument(label + ": missing value");
      }
    }
    Status status = set(i, text, label, true);
    if (!status.ok()) return status;
  }
  return flags;
}

const FlagSet::Value& FlagSet::Get(std::string_view name,
                                   std::optional<FlagKind> kind) const {
  static const Value kMissing;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].name == name ||
        (rows_[i].name.empty() && rows_[i].env == name)) {
      MADNET_DCHECK(!kind.has_value() || rows_[i].kind == *kind);
      return values_[i];
    }
  }
  MADNET_DCHECK(false && "read of an undeclared flag");
  return kMissing;
}

std::string FlagUsage(std::span<const Flag> rows, std::string_view program) {
  std::string out = "usage: " + std::string(program) + "\n\nflags:\n";
  for (const Flag& row : rows) {
    std::string names = row.positional     ? "[" + row.name + "]"
                        : row.name.empty() ? ""
                                           : "--" + row.name;
    if (!names.empty() && !row.env.empty()) names += ", ";
    out += "  " + names + row.env + " (default: " +
           (row.default_value.empty() ? "\"\"" : row.default_value);
    if (row.min > std::numeric_limits<double>::lowest() ||
        row.max < std::numeric_limits<double>::max()) {
      out += "; range: [" + FormatBound(row.min) + ", " +
             FormatBound(row.max) + "]";
    }
    if (!row.zero_word.empty()) out += "; " + row.zero_word + " = 0";
    out += ")\n      " + row.help + "\n";
  }
  return out + "  --help, -h\n      " + kHelpRow.help + "\n";
}

FlagSet ParseFlagsOrExit(std::span<const Flag> rows, int argc,
                         const char* const* argv, std::string_view program) {
  StatusOr<FlagSet> flags = FlagSet::Parse(rows, argc, argv);
  if (!flags.ok()) {
    MADNET_LOG_ERROR("%s (%.*s --help lists the flags)",
                     flags.status().message().c_str(),
                     static_cast<int>(program.find(' ')), program.data());
    std::exit(2);
  }
  if (flags->help()) {
    std::fputs(FlagUsage(rows, program).c_str(), stdout);
    std::exit(0);
  }
  return std::move(flags).value();
}

}  // namespace madnet
