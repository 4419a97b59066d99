// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/multi_ad.h"

#include "scenario/config_io.h"
#include "scenario/scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "util/string_util.h"

namespace madnet::scenario {

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

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
  return key == "ads" || key == "first_issue" || key == "issue_spacing" ||
         key == "ad_radius" || key == "ad_duration" ||
         key == "border_margin" || key == "stalls" || key == "zipf";
}

Status ApplyMultiAdConfigKey(const std::string& key, const std::string& value,
                             MultiAdConfig* config) {
  auto as_double = [&](double* field) -> Status {
    auto parsed = ParseDouble(value);
    if (!parsed.ok()) {
      return Status::InvalidArgument("key '" + key + "': " +
                                     parsed.status().message());
    }
    *field = *parsed;
    return Status::Ok();
  };
  auto as_count = [&](int* field) -> Status {
    auto parsed = ParseInt(value);
    if (!parsed.ok()) {
      return Status::InvalidArgument("key '" + key + "': " +
                                     parsed.status().message());
    }
    if (*parsed < 0) {
      return Status::InvalidArgument("key '" + key + "' = " + value +
                                     ": must be a non-negative integer");
    }
    *field = static_cast<int>(*parsed);
    return Status::Ok();
  };
  if (key == "ads") return as_count(&config->num_ads);
  if (key == "first_issue") return as_double(&config->first_issue_s);
  if (key == "issue_spacing") return as_double(&config->issue_spacing_s);
  if (key == "ad_radius") return as_double(&config->ad_radius_m);
  if (key == "ad_duration") return as_double(&config->ad_duration_s);
  if (key == "border_margin") return as_double(&config->border_margin_m);
  if (key == "stalls") return as_count(&config->num_stalls);
  if (key == "zipf") return as_double(&config->zipf_s);
  return ApplyConfigKey(key, value, &config->base);
}

std::string SaveMultiAdConfigText(const MultiAdConfig& config) {
  std::ostringstream out;
  char buf[96];
  auto number = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "%s = %g\n", key, v);
    out << buf;
  };
  out << SaveConfigText(config.base);
  out << "# multi-ad keys\n";
  out << "ads = " << config.num_ads << '\n';
  number("first_issue", config.first_issue_s);
  number("issue_spacing", config.issue_spacing_s);
  number("ad_radius", config.ad_radius_m);
  number("ad_duration", config.ad_duration_s);
  number("border_margin", config.border_margin_m);
  out << "stalls = " << config.num_stalls << '\n';
  number("zipf", config.zipf_s);
  return out.str();
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
