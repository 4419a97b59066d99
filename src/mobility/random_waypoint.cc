// Copyright (c) 2026 madnet authors. All rights reserved.

#include "mobility/random_waypoint.h"

#include <utility>

#include "util/logging.h"

namespace madnet::mobility {

RandomWaypoint::RandomWaypoint(std::shared_ptr<const Options> options,
                               Rng rng)
    : options_(std::move(options)), rng_(rng) {
  MADNET_DCHECK(options_->min_speed_mps > 0.0 &&
                options_->max_speed_mps >= options_->min_speed_mps);
  MADNET_DCHECK(options_->min_pause_s >= 0.0 &&
                options_->max_pause_s >= options_->min_pause_s);
  MADNET_DCHECK(options_->area.Width() > 0.0 &&
                options_->area.Height() > 0.0);
}

RandomWaypoint::RandomWaypoint(const Options& options, Rng rng)
    : RandomWaypoint(std::make_shared<const Options>(options), rng) {}

Leg RandomWaypoint::NextLeg(const Leg* previous) {
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
  const Vec2 to = rng_.UniformInRect(options_->area);
  const double speed =
      rng_.Uniform(options_->min_speed_mps, options_->max_speed_mps);
  const double distance = Distance(from, to);
  // A degenerate zero-length hop still advances time a little so the model
  // always makes progress.
  const Time duration = distance > 0.0 ? distance / speed : 1e-3;
  return Leg{start, start + duration, from, to};
}

}  // namespace madnet::mobility
