// Copyright (c) 2026 madnet authors. All rights reserved.

#include "mobility/hotspot_waypoint.h"

#include <algorithm>

#include "util/logging.h"

namespace madnet::mobility {

HotspotWaypoint::HotspotWaypoint(const Options& options, Rng rng)
    : options_(options), rng_(rng) {
  MADNET_DCHECK(options.min_speed_mps > 0.0 &&
                options.max_speed_mps >= options.min_speed_mps);
  MADNET_DCHECK(options.min_pause_s >= 0.0 &&
                options.max_pause_s >= options.min_pause_s);
  MADNET_DCHECK(options.hotspot_probability >= 0.0 &&
                options.hotspot_probability <= 1.0);
  MADNET_DCHECK(
      (options.hotspot_probability == 0.0 || !options.hotspots.empty()) &&
      "hotspot_probability > 0 requires hotspots");
  double total = 0.0;
  for (const Hotspot& hotspot : options.hotspots) {
    MADNET_DCHECK(hotspot.weight > 0.0 && hotspot.sigma_m >= 0.0);
    MADNET_DCHECK(options.area.Contains(hotspot.center));
    total += hotspot.weight;
    cumulative_weights_.push_back(total);
  }
  for (double& w : cumulative_weights_) w /= total > 0.0 ? total : 1.0;
}

Vec2 HotspotWaypoint::NextWaypoint() {
  if (!options_.hotspots.empty() &&
      rng_.Bernoulli(options_.hotspot_probability)) {
    const double roll = rng_.NextDouble();
    const size_t index = static_cast<size_t>(
        std::lower_bound(cumulative_weights_.begin(),
                         cumulative_weights_.end(), roll) -
        cumulative_weights_.begin());
    const Hotspot& hotspot =
        options_.hotspots[std::min(index, options_.hotspots.size() - 1)];
    const Vec2 target{rng_.Normal(hotspot.center.x, hotspot.sigma_m),
                      rng_.Normal(hotspot.center.y, hotspot.sigma_m)};
    return options_.area.Clamp(target);
  }
  return rng_.UniformInRect(options_.area);
}

Leg HotspotWaypoint::NextLeg(const Leg* previous) {
  const Time start = previous == nullptr ? 0.0 : previous->end;
  const Vec2 from =
      previous == nullptr ? rng_.UniformInRect(options_.area) : previous->to;

  if (pause_next_) {
    pause_next_ = false;
    const Time pause =
        rng_.Uniform(options_.min_pause_s, options_.max_pause_s);
    return Leg{start, start + pause, from, from};
  }

  pause_next_ = options_.max_pause_s > 0.0;
  const Vec2 to = NextWaypoint();
  const double speed =
      rng_.Uniform(options_.min_speed_mps, options_.max_speed_mps);
  const double distance = Distance(from, to);
  const Time duration = distance > 0.0 ? distance / speed : 1e-3;
  return Leg{start, start + duration, from, to};
}

}  // namespace madnet::mobility
