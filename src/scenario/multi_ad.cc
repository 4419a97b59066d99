// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/multi_ad.h"

#include "scenario/config_io.h"
#include "scenario/config_keys.h"
#include "scenario/scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace madnet::scenario {

namespace {

// "%g", as the value is saved.
constexpr auto* Num = &FormatKeyValue<double>;

#define FIELD(member) [](MultiAdConfig& c) -> auto& { return c.member; }

/// The multi-ad rows of the key table, in SaveMultiAdConfigText order.
std::span<const ConfigKey<MultiAdConfig>> MultiAdKeys() {
  static constexpr ConfigKey<MultiAdConfig> kKeys[] = {
      {"ads", FIELD(num_ads)},
      {"first_issue", FIELD(first_issue_s)},
      {"issue_spacing", FIELD(issue_spacing_s)},
      {"ad_radius", FIELD(ad_radius_m)},
      {"ad_duration", FIELD(ad_duration_s)},
      {"border_margin", FIELD(border_margin_m)},
      {"stalls", FIELD(num_stalls)},
      {"zipf", FIELD(zipf_s)},
  };
  return kKeys;
}

#undef FIELD

// The read-apply-validate loop behind both loaders. Every key goes
// through ApplyMultiAdConfigKey, which hands single-ad keys on to
// `config->base`. The file validates as multi-ad when `force_multi_ad` is
// set or any of its keys IsMultiAdKey; `*is_multi_ad` says which.
Status LoadScenarioFile(const std::string& path, bool force_multi_ad,
                        MultiAdConfig* config, bool* is_multi_ad) {
  auto entries = ReadConfigEntries(path);
  if (!entries.ok()) return entries.status();
  *is_multi_ad = force_multi_ad ||
                 std::any_of(entries->begin(), entries->end(),
                             [](const ConfigEntry& entry) {
                               return IsMultiAdKey(entry.key);
                             });
  for (const ConfigEntry& entry : *entries) {
    Status applied = ApplyMultiAdConfigKey(entry.key, entry.value, config);
    if (!applied.ok()) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(entry.line) + ": " +
                                     applied.message());
    }
  }
  Status valid = *is_multi_ad ? config->Validate() : config->base.Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument(path + ": " + valid.message());
  }
  return Status::Ok();
}

}  // namespace

Status MultiAdConfig::Validate() const {
  Status finite = CheckFiniteRows(MultiAdKeys(), *this);
  if (!finite.ok()) return finite;
  Status base_status = base.Validate();
  if (!base_status.ok()) return base_status;
  if (num_ads < 1) {
    return Status::InvalidArgument(
        "key 'ads' = " + std::to_string(num_ads) +
        ": accepted range [1, inf) — a multi-ad scenario needs at least "
        "one advertisement");
  }
  if (ad_radius_m <= 0.0) {
    return Status::InvalidArgument(
        "key 'ad_radius' = " + Num(ad_radius_m) +
        ": accepted range (0, inf) metres");
  }
  if (ad_duration_s <= 0.0) {
    return Status::InvalidArgument(
        "key 'ad_duration' = " + Num(ad_duration_s) +
        ": accepted range (0, inf) seconds");
  }
  if (first_issue_s < 0.0 || issue_spacing_s < 0.0) {
    return Status::InvalidArgument(
        "keys 'first_issue'/'issue_spacing' = " +
        Num(first_issue_s) + "/" +
        Num(issue_spacing_s) +
        ": the issue schedule must be non-negative");
  }
  const double last_issue =
      first_issue_s + issue_spacing_s * (num_ads - 1);
  if (last_issue >= base.sim_time_s) {
    return Status::InvalidArgument(
        "keys 'ads'/'first_issue'/'issue_spacing': the last ad would be "
        "issued at " + Num(last_issue) +
        " s, at or after sim_time = " + Num(base.sim_time_s) +
        " s (key 'sim_time')");
  }
  if (2.0 * border_margin_m >= base.area_size_m) {
    return Status::InvalidArgument(
        "key 'border_margin' = " + Num(border_margin_m) +
        ": accepted range [0, area/2) = [0, " +
        Num(base.area_size_m / 2.0) +
        ") — the issue-location placement band must be non-empty "
        "(key 'area')");
  }
  if (num_stalls < 0) {
    return Status::InvalidArgument(
        "key 'stalls' = " + std::to_string(num_stalls) +
        ": accepted range [0, inf) (0 = one fresh location per ad)");
  }
  if (zipf_s < 0.0) {
    return Status::InvalidArgument(
        "key 'zipf' = " + Num(zipf_s) +
        ": accepted range [0, inf) (0 = uniform stall demand)");
  }
  return Status::Ok();
}

double MultiAdResult::MeanDeliveryRatePercent() const {
  double total = 0.0;
  int scored = 0;
  for (const PerAd& ad : ads) {
    if (ad.report.peers_passed == 0) continue;
    total += ad.report.DeliveryRatePercent();
    ++scored;
  }
  return scored == 0 ? 0.0 : total / scored;
}

double MultiAdResult::MeanDeliveryTime() const {
  double sum = 0.0;
  size_t count = 0;
  for (const PerAd& ad : ads) {
    sum += ad.report.delivery_times.Sum();
    count += ad.report.delivery_times.Count();
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

Scenario::Plan Scenario::MultiAdPlan(const MultiAdConfig& config,
                                     bool observed) {
  Status valid = config.Validate();
  assert(valid.ok() && "invalid MultiAdConfig");
  (void)valid;
  MultiAdConfig folded = config;
  folded.base = FoldMethod(config.base);
  Plan plan{folded.base, {}, kMultiAdStreams, {}};
  if (observed) plan.config_text = SaveMultiAdConfigText(folded);

  // Issue locations, uniform with a border margin.
  Rng placer = Rng(config.base.seed).Fork(0x504C4143);  // "PLAC"
  const Rect placement{{config.border_margin_m, config.border_margin_m},
                       {config.base.area_size_m - config.border_margin_m,
                        config.base.area_size_m - config.border_margin_m}};
  std::vector<Vec2> locations(config.num_ads);
  if (config.num_stalls > 0) {
    // Marketplace mode: fixed stalls, each ad drawn to a stall with Zipf
    // weight 1/(rank+1)^s — stall 0 is the most popular. Stall positions
    // first, then the per-ad draws, so adding ads never moves the stalls.
    std::vector<Vec2> stalls(config.num_stalls);
    for (Vec2& stall : stalls) stall = placer.UniformInRect(placement);
    std::vector<double> cumulative(config.num_stalls);
    double total = 0.0;
    for (int r = 0; r < config.num_stalls; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), config.zipf_s);
      cumulative[r] = total;
    }
    for (Vec2& location : locations) {
      const double draw = placer.Uniform(0.0, total);
      const size_t stall = static_cast<size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), draw) -
          cumulative.begin());
      location = stalls[std::min(
          stall, static_cast<size_t>(config.num_stalls - 1))];
    }
  } else {
    for (Vec2& location : locations) location = placer.UniformInRect(placement);
  }
  for (int i = 0; i < config.num_ads; ++i) {
    core::AdContent content = config.base.content;
    content.text += " #" + std::to_string(i);
    plan.issues.push_back(Issue{
        locations[i], config.first_issue_s + config.issue_spacing_s * i,
        config.ad_radius_m, config.ad_duration_s, std::move(content)});
  }
  return plan;
}

Scenario::Scenario(const MultiAdConfig& config, obs::RunContext* obs)
    : Scenario(MultiAdPlan(config, obs != nullptr), obs) {}

MultiAdResult RunMultiAdScenario(const MultiAdConfig& config) {
  Scenario scenario(config);
  MultiAdResult result;
  result.net = scenario.Run().net;
  result.ads = scenario.ads();
  return result;
}

bool IsMultiAdKey(const std::string& key) {
  return FindConfigKey(MultiAdKeys(), key) != nullptr;
}

Status ApplyMultiAdConfigKey(const std::string& key, const std::string& value,
                             MultiAdConfig* config) {
  const ConfigKey<MultiAdConfig>* row = FindConfigKey(MultiAdKeys(), key);
  if (row == nullptr) return ApplyConfigKey(key, value, &config->base);
  return ApplyConfigRow(*row, value, config);
}

std::string SaveMultiAdConfigText(const MultiAdConfig& config) {
  std::string text = SaveConfigText(config.base) + "# multi-ad keys\n";
  AppendConfigRows(MultiAdKeys(), config, &text);
  return text;
}

Status LoadMultiAdConfigFile(const std::string& path, MultiAdConfig* config) {
  bool is_multi_ad = true;
  return LoadScenarioFile(path, /*force_multi_ad=*/true, config, &is_multi_ad);
}

Status LoadScenarioFileAuto(const std::string& path, MultiAdConfig* out,
                            bool* is_multi_ad) {
  return LoadScenarioFile(path, /*force_multi_ad=*/false, out, is_multi_ad);
}

}  // namespace madnet::scenario
