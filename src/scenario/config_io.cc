// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/config_io.h"

#include <algorithm>
#include <fstream>

#include "scenario/config_keys.h"
#include "util/string_util.h"

namespace madnet::scenario {

namespace {

// After-set hooks of the key table.

void RecenterIssue(ScenarioConfig& c) {
  c.issue_location = {c.area_size_m / 2.0, c.area_size_m / 2.0};
}

// Keeps the index staleness slack covering the fastest peer whenever the
// speed keys move, so saved fast scenarios reload without an explicit
// 'max_speed'. An explicit 'max_speed' later in the file still wins.
void RaiseMaxSpeed(ScenarioConfig& c) {
  c.medium.max_speed_mps =
      std::max(c.medium.max_speed_mps, c.mean_speed_mps + c.speed_delta_mps);
}

void MirrorRound(ScenarioConfig& c) {
  c.flooding.round_time_s = c.gossip.round_time_s;
}

void MirrorPropagation(ScenarioConfig& c) {
  c.flooding.propagation = c.gossip.propagation;
}

void AssignInterests(ScenarioConfig& c) {
  if (!c.gossip.ranking) return;
  c.assign_interests = true;
  if (c.interest_options.universe.empty()) {
    c.interest_options.universe = core::InterestGenerator::DefaultUniverse();
  }
}

}  // namespace

#define FIELD(member) [](ScenarioConfig& c) -> auto& { return c.member; }

std::span<const ConfigKey<ScenarioConfig>> ScenarioConfigKeys() {
  // Rows in save order: SaveConfigText's bytes are hashed into every
  // trace header. 'area' recenters the issuer, so issue_x/issue_y follow
  // it; 'speed'/'speed_delta' raise max_speed, so the explicit
  // 'max_speed' follows them. Fault-plan keys: docs/FAULTS.md.
  static constexpr ConfigKey<ScenarioConfig> kKeys[] = {
      {"method", FIELD(method)},
      {"mobility", FIELD(mobility)},
      {"peers", FIELD(num_peers)},
      {"area", FIELD(area_size_m), RecenterIssue},
      {"issue_x", FIELD(issue_location.x)},
      {"issue_y", FIELD(issue_location.y)},
      {"radius", FIELD(initial_radius_m)},
      {"duration", FIELD(initial_duration_s)},
      {"sim_time", FIELD(sim_time_s)},
      {"issue_time", FIELD(issue_time_s)},
      {"speed", FIELD(mean_speed_mps), RaiseMaxSpeed},
      {"speed_delta", FIELD(speed_delta_mps), RaiseMaxSpeed},
      {"max_speed", FIELD(medium.max_speed_mps)},
      {"pause_min", FIELD(min_pause_s)},
      {"pause_max", FIELD(max_pause_s)},
      {"manhattan_block", FIELD(manhattan_block_m)},
      {"hotspot_p", FIELD(hotspot_probability)},
      {"hotspot_sigma", FIELD(hotspot_sigma_m)},
      {"hotspot_extra", FIELD(hotspot_extra)},
      {"round", FIELD(gossip.round_time_s), MirrorRound},
      {"alpha", FIELD(gossip.propagation.alpha), MirrorPropagation},
      {"beta", FIELD(gossip.propagation.beta), MirrorPropagation},
      {"dis", FIELD(gossip.dis_m)},
      {"cache", FIELD(gossip.cache_capacity)},
      {"range", FIELD(medium.range_m)},
      {"loss", FIELD(medium.loss_probability)},
      {"fading", FIELD(medium.fading_exponent)},
      {"collisions", FIELD(medium.enable_collisions)},
      {"csma", FIELD(medium.csma)},
      {"ranking", FIELD(gossip.ranking), AssignInterests},
      {"issuer_offline", FIELD(issuer_goes_offline)},
      {"tiles", FIELD(tiles)},
      {"churn_rate", FIELD(fault.churn_rate)},
      {"churn_up", FIELD(fault.churn_up_s)},
      {"churn_down", FIELD(fault.churn_down_s)},
      {"churn_crash", FIELD(fault.churn_crash)},
      {"churn_start", FIELD(fault.churn_start_s)},
      {"loss_extra", FIELD(fault.loss_extra)},
      {"loss_episode", FIELD(fault.loss_episode_s)},
      {"loss_period", FIELD(fault.loss_period_s)},
      {"loss_start", FIELD(fault.loss_start_s)},
      {"outage_x0", FIELD(fault.outage_rect.min.x)},
      {"outage_y0", FIELD(fault.outage_rect.min.y)},
      {"outage_x1", FIELD(fault.outage_rect.max.x)},
      {"outage_y1", FIELD(fault.outage_rect.max.y)},
      {"outage_start", FIELD(fault.outage_start_s)},
      {"outage_end", FIELD(fault.outage_end_s)},
      {"seed", FIELD(seed)},
  };
  return kKeys;
}

#undef FIELD

Status ApplyConfigKey(const std::string& key, const std::string& value,
                      ScenarioConfig* config) {
  const ConfigKey<ScenarioConfig>* row =
      FindConfigKey(ScenarioConfigKeys(), key);
  if (row == nullptr) {
    return Status::InvalidArgument("unknown config key '" + key +
                                   "' (see docs/scenario_schema.md)");
  }
  return ApplyConfigRow(*row, value, config);
}

StatusOr<std::vector<ConfigEntry>> ReadConfigEntries(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::IoError("cannot open " + path);
  std::vector<ConfigEntry> entries;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) +
          ": expected 'key = value', got '" + std::string(trimmed) + "'");
    }
    ConfigEntry entry;
    entry.key = std::string(Trim(trimmed.substr(0, eq)));
    entry.value = std::string(Trim(trimmed.substr(eq + 1)));
    entry.line = line_number;
    if (entry.key.empty()) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) +
                                     ": missing key before '='");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

Status LoadConfigFile(const std::string& path, ScenarioConfig* config) {
  auto entries = ReadConfigEntries(path);
  if (!entries.ok()) return entries.status();
  for (const ConfigEntry& entry : *entries) {
    Status applied = ApplyConfigKey(entry.key, entry.value, config);
    if (!applied.ok()) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(entry.line) + ": " +
                                     applied.message());
    }
  }
  Status valid = config->Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument(path + ": " + valid.message());
  }
  return Status::Ok();
}

std::string SaveConfigText(const ScenarioConfig& config) {
  std::string text = "# madnet scenario config\n";
  AppendConfigRows(ScenarioConfigKeys(), config, &text);
  return text;
}

std::string ConfigKeyValue(const ScenarioConfig& config,
                           std::string_view key) {
  const ConfigKey<ScenarioConfig>* row =
      FindConfigKey(ScenarioConfigKeys(), key);
  return row == nullptr ? "" : FormatConfigRow(*row, config);
}

}  // namespace madnet::scenario
