// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Text persistence for ScenarioConfig: a flat "key = value" format ('#'
// comments, blank lines allowed) so experiment setups can be versioned and
// shared, and `madnet_run --config=file` reproduces them exactly. The full
// schema — every key, type, accepted range, default and cross-field
// constraint — is documented in docs/scenario_schema.md; the shipped
// corpus under scenarios/ exercises it end to end.
//
// Example:
//   # Table II, sparse point
//   method = gossip
//   peers = 100
//   radius = 1000
//   duration = 800
//   seed = 7
//
// The contract is fail-fast: every malformed line, unknown key, garbage
// value or cross-field inconsistency is rejected with a diagnostic naming
// the key, the offending value and the accepted range, *before* any
// simulator state exists.
//
// Every key is one row of a key table (config_keys.h): ScenarioConfigKeys()
// in config_io.cc, plus the multi-ad rows in multi_ad.cc.

#ifndef MADNET_SCENARIO_CONFIG_IO_H_
#define MADNET_SCENARIO_CONFIG_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "scenario/config.h"

namespace madnet::scenario {

/// One "key = value" assignment read from a config file, with its 1-based
/// line number for diagnostics.
struct ConfigEntry {
  std::string key;
  std::string value;
  int line = 0;
};

/// Reads every assignment of a config file ('#' comments and blank lines
/// skipped) without interpreting the keys. Shared by the single-ad and
/// multi-ad loaders so both report identical "path:line:" diagnostics.
StatusOr<std::vector<ConfigEntry>> ReadConfigEntries(const std::string& path);

/// Applies one "key = value" assignment to `config` through its row of
/// ScenarioConfigKeys(). Unknown keys and malformed values return
/// InvalidArgument naming the key and the offending token. 'area'
/// recenters issue_location (set issue_x/issue_y *after* area to place
/// the issuer off-centre); 'speed'/'speed_delta' raise
/// medium.max_speed_mps as needed so a fast scenario round-trips without
/// an explicit 'max_speed'.
Status ApplyConfigKey(const std::string& key, const std::string& value,
                      ScenarioConfig* config);

/// Loads a config file on top of `*config` (which supplies defaults for
/// unmentioned keys). The result is validated before returning; no invalid
/// configuration ever leaves this function.
Status LoadConfigFile(const std::string& path, ScenarioConfig* config);

/// Serializes every row of ScenarioConfigKeys() in the same format. Every
/// key written here re-parses to an identical config (round-trip
/// contract, covered by scenario_config_io_test).
std::string SaveConfigText(const ScenarioConfig& config);

/// The value SaveConfigText writes for `key` ("optimized", "300", "0.5",
/// "false"); empty for an unknown key.
std::string ConfigKeyValue(const ScenarioConfig& config, std::string_view key);

}  // namespace madnet::scenario

#endif  // MADNET_SCENARIO_CONFIG_IO_H_
