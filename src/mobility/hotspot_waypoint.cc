// Copyright (c) 2026 madnet authors. All rights reserved.

#include "mobility/hotspot_waypoint.h"

#include <utility>

#include "util/logging.h"

namespace madnet::mobility {

HotspotWaypoint::HotspotWaypoint(std::shared_ptr<const Options> options,
                                 Rng rng)
    : options_(std::move(options)), rng_(rng) {
  MADNET_DCHECK(options_->min_speed_mps > 0.0 &&
                options_->max_speed_mps >= options_->min_speed_mps);
  MADNET_DCHECK(options_->min_pause_s >= 0.0 &&
                options_->max_pause_s >= options_->min_pause_s);
  MADNET_DCHECK(options_->hotspot_probability >= 0.0 &&
                options_->hotspot_probability <= 1.0);
  MADNET_DCHECK(
      (options_->hotspot_probability == 0.0 || !options_->hotspots.empty()) &&
      "hotspot_probability > 0 requires hotspots");
  for (const Hotspot& hotspot : options_->hotspots) {
    MADNET_DCHECK(hotspot.weight > 0.0 && hotspot.sigma_m >= 0.0);
    MADNET_DCHECK(options_->area.Contains(hotspot.center));
  }
}

HotspotWaypoint::HotspotWaypoint(const Options& options, Rng rng)
    : HotspotWaypoint(std::make_shared<const Options>(options), rng) {}

const HotspotWaypoint::Hotspot& HotspotWaypoint::HotspotAt(
    double roll) const {
  // The first hotspot whose normalized cumulative weight is not below
  // `roll`. Recomputed per draw (a handful of hotspots) instead of stored
  // per peer; the sums and divisions are the same, so is the choice.
  const std::vector<Hotspot>& hotspots = options_->hotspots;
  double total = 0.0;
  for (const Hotspot& hotspot : hotspots) total += hotspot.weight;
  double cumulative = 0.0;
  for (size_t i = 0; i + 1 < hotspots.size(); ++i) {
    cumulative += hotspots[i].weight;
    if (!(cumulative / total < roll)) return hotspots[i];
  }
  return hotspots.back();
}

Vec2 HotspotWaypoint::NextWaypoint() {
  if (!options_->hotspots.empty() &&
      rng_.Bernoulli(options_->hotspot_probability)) {
    const Hotspot& hotspot = HotspotAt(rng_.NextDouble());
    const Vec2 target{rng_.Normal(hotspot.center.x, hotspot.sigma_m),
                      rng_.Normal(hotspot.center.y, hotspot.sigma_m)};
    return options_->area.Clamp(target);
  }
  return rng_.UniformInRect(options_->area);
}

Leg HotspotWaypoint::NextLeg(const Leg* previous) {
  const Time start = previous == nullptr ? 0.0 : previous->end;
  const Vec2 from =
      previous == nullptr ? rng_.UniformInRect(options_->area) : previous->to;

  if (pause_next_) {
    pause_next_ = false;
    const Time pause =
        rng_.Uniform(options_->min_pause_s, options_->max_pause_s);
    return Leg{start, start + pause, from, from};
  }

  pause_next_ = options_->max_pause_s > 0.0;
  const Vec2 to = NextWaypoint();
  const double speed =
      rng_.Uniform(options_->min_speed_mps, options_->max_speed_mps);
  const double distance = Distance(from, to);
  const Time duration = distance > 0.0 ? distance / speed : 1e-3;
  return Leg{start, start + duration, from, to};
}

}  // namespace madnet::mobility
