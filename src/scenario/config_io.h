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

#ifndef MADNET_SCENARIO_CONFIG_IO_H_
#define MADNET_SCENARIO_CONFIG_IO_H_

#include <string>
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

/// Applies one "key = value" assignment to `config`. Unknown keys and
/// malformed values return InvalidArgument naming the key and the
/// offending token. Keys match madnet_run's flag names (method, mobility,
/// peers, area, issue_x, issue_y, radius, duration, sim_time, issue_time,
/// speed, speed_delta, max_speed, pause_min, pause_max, manhattan_block,
/// hotspot_p, hotspot_sigma, hotspot_extra, round, alpha, beta, dis,
/// cache, range, loss, fading, collisions, csma, ranking, issuer_offline,
/// tiles, seed) plus the fault plan (churn_rate, churn_up, churn_down,
/// churn_crash, churn_start, loss_extra, loss_episode, loss_period,
/// loss_start, outage_x0/y0/x1/y1, outage_start, outage_end — see
/// docs/FAULTS.md). 'area' recenters issue_location; set issue_x/issue_y
/// *after* area to place the issuer off-centre. 'speed'/'speed_delta'
/// raise medium.max_speed_mps as needed so a fast scenario round-trips
/// without an explicit 'max_speed'.
Status ApplyConfigKey(const std::string& key, const std::string& value,
                      ScenarioConfig* config);

/// Loads a config file on top of `*config` (which supplies defaults for
/// unmentioned keys). The result is validated before returning; no invalid
/// configuration ever leaves this function.
Status LoadConfigFile(const std::string& path, ScenarioConfig* config);

/// Serializes the settable keys of a config in the same format. Every key
/// written here re-parses to an identical config (round-trip contract,
/// covered by scenario_config_io_test).
std::string SaveConfigText(const ScenarioConfig& config);

}  // namespace madnet::scenario

#endif  // MADNET_SCENARIO_CONFIG_IO_H_
