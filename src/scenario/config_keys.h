// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The config key table: one row per config-file key, giving the key's
// name, the field it sets and an optional hook run after each set. Rows
// live in ScenarioConfigKeys() (config_io.cc) and the multi-ad table
// (multi_ad.cc). ApplyConfigKey, SaveConfigText, the multi-ad key
// functions and the finiteness pass of both Validate()s all walk the
// rows through the generic functions below, so adding a key is adding
// one row. Internal to src/scenario; callers use config_io.h.

#ifndef MADNET_SCENARIO_CONFIG_KEYS_H_
#define MADNET_SCENARIO_CONFIG_KEYS_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "scenario/config.h"
#include "util/string_util.h"

namespace madnet::scenario {

/// One config-file key: its name, the field it sets and an optional hook
/// run after every successful set. The field's type is the key's kind:
/// number (double), count (int, or the unsigned 64-bit integer that
/// size_t and uint64_t fields are: `unsigned long` on LP64,
/// `unsigned long long` on LLP64), bool, or enum token (Method,
/// Mobility; tokens from config.h's tables).
template <typename Config>
struct ConfigKey {
  using Number = double& (*)(Config&);
  using Field = std::variant<Number, int& (*)(Config&),
                             unsigned long& (*)(Config&),
                             unsigned long long& (*)(Config&),
                             bool& (*)(Config&), Method& (*)(Config&),
                             Mobility& (*)(Config&)>;
  const char* key;
  Field field;
  void (*after_set)(Config&) = nullptr;
};

/// The single-ad key table, in SaveConfigText order.
std::span<const ConfigKey<ScenarioConfig>> ScenarioConfigKeys();

/// Parses one value of a field's kind, naming `key` in every diagnostic.
/// Counts reject negatives and values the field cannot hold, so nothing
/// wraps or narrows on the way in.
template <typename T>
Status ParseKeyValue(const std::string& key, const std::string& value,
                     T* out) {
  if constexpr (std::is_enum_v<T>) {
    for (const EnumToken<T>& entry : TokensOf(T{})) {
      if (value == entry.token) {
        *out = entry.value;
        return Status::Ok();
      }
    }
    return Status::InvalidArgument("key '" + key + "' = '" + value +
                                   "': unknown " + key + " (accepted: " +
                                   AcceptedTokens<T>() + ")");
  } else {
    auto parsed = [&] {
      if constexpr (std::is_same_v<T, double>) return ParseDouble(value);
      else if constexpr (std::is_same_v<T, bool>) return ParseBool(value);
      else return ParseInt(value);
    }();
    if (!parsed.ok()) {
      return Status::InvalidArgument("key '" + key + "': " +
                                     parsed.status().message());
    }
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      if (*parsed < 0) {
        return Status::InvalidArgument("key '" + key + "' = " + value +
                                       ": must be a non-negative integer");
      }
      constexpr auto kMax =
          static_cast<uint64_t>(std::numeric_limits<T>::max());
      if (static_cast<uint64_t>(*parsed) > kMax) {
        return Status::InvalidArgument("key '" + key + "' = " + value +
                                       ": must be at most " +
                                       std::to_string(kMax));
      }
    }
    *out = static_cast<T>(*parsed);
    return Status::Ok();
  }
}

/// The text a value of a field's kind saves as: "%g" numbers, decimal
/// counts, true/false, enum tokens.
template <typename T>
std::string FormatKeyValue(T value) {
  if constexpr (std::is_same_v<T, double>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
  } else if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_enum_v<T>) {
    const EnumToken<T>* entry = FindToken(value);
    return entry == nullptr ? "?" : entry->token;
  } else {
    return std::to_string(value);
  }
}

/// The row named `key`, or nullptr.
template <typename Config>
const ConfigKey<Config>* FindConfigKey(
    std::span<const ConfigKey<Config>> rows, std::string_view key) {
  for (const ConfigKey<Config>& row : rows) {
    if (key == row.key) return &row;
  }
  return nullptr;
}

/// Parses `value` into the row's field, then runs its hook. On failure
/// the field is left unchanged.
template <typename Config>
Status ApplyConfigRow(const ConfigKey<Config>& row, const std::string& value,
                      Config* config) {
  Status set = std::visit(
      [&](auto field) {
        return ParseKeyValue(row.key, value, &field(*config));
      },
      row.field);
  if (set.ok() && row.after_set != nullptr) row.after_set(*config);
  return set;
}

/// The row's value in `config`, as saved.
template <typename Config>
std::string FormatConfigRow(const ConfigKey<Config>& row,
                            const Config& config) {
  // Accessors take a mutable config so one table serves parse and save;
  // this path only reads through them.
  Config& fields = const_cast<Config&>(config);
  return std::visit([&](auto field) { return FormatKeyValue(field(fields)); },
                    row.field);
}

/// Appends "key = value\n" for every row, in row order.
template <typename Config>
void AppendConfigRows(std::span<const ConfigKey<Config>> rows,
                      const Config& config, std::string* out) {
  for (const ConfigKey<Config>& row : rows) {
    *out += row.key;
    *out += " = ";
    *out += FormatConfigRow(row, config);
    *out += '\n';
  }
}

/// Rejects the first number row holding NaN or an infinity. Validate()
/// runs this before any range check: a NaN compares false against every
/// bound, so it would sail through checks written as rejections of the
/// complement.
template <typename Config>
Status CheckFiniteRows(std::span<const ConfigKey<Config>> rows,
                       const Config& config) {
  for (const ConfigKey<Config>& row : rows) {
    const auto* number =
        std::get_if<typename ConfigKey<Config>::Number>(&row.field);
    if (number == nullptr) continue;
    const double value = (*number)(const_cast<Config&>(config));
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("key '" + std::string(row.key) + "' = " +
                                     FormatKeyValue(value) +
                                     ": must be a finite number");
    }
  }
  return Status::Ok();
}

}  // namespace madnet::scenario

#endif  // MADNET_SCENARIO_CONFIG_KEYS_H_
