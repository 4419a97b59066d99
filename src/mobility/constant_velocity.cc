// Copyright (c) 2026 madnet authors. All rights reserved.

#include "mobility/constant_velocity.h"

#include <cmath>
#include <limits>

#include "util/logging.h"

namespace madnet::mobility {

ConstantVelocity::ConstantVelocity(const Rect& area, const Vec2& position,
                                   const Vec2& velocity)
    : area_(area), start_position_(position), velocity_(velocity) {
  MADNET_DCHECK(area.Contains(position) && "start position outside the area");
}

Leg ConstantVelocity::NextLeg(const Leg* previous) {
  const Time start = previous == nullptr ? 0.0 : previous->end;
  const Vec2 from = previous == nullptr ? start_position_ : previous->to;

  if (velocity_.x == 0.0 && velocity_.y == 0.0) {
    return Leg{start, start + 3600.0, from, from};
  }

  // Time until each wall is hit along the current heading.
  auto time_to_wall = [](double pos, double vel, double lo, double hi) {
    if (vel > 0.0) return (hi - pos) / vel;
    if (vel < 0.0) return (lo - pos) / vel;
    return std::numeric_limits<double>::infinity();
  };
  const double tx =
      time_to_wall(from.x, velocity_.x, area_.min.x, area_.max.x);
  const double ty =
      time_to_wall(from.y, velocity_.y, area_.min.y, area_.max.y);
  double dt = std::min(tx, ty);
  // Numerical safety: when starting exactly on a wall moving inward, dt can
  // be 0 for the other axis; bound below to keep making progress.
  dt = std::max(dt, 1e-9);

  const Vec2 to = area_.Clamp(from + velocity_ * dt);
  // Reflect whichever components hit a wall.
  if (tx <= ty) velocity_.x = -velocity_.x;
  if (ty <= tx) velocity_.y = -velocity_.y;
  return Leg{start, start + dt, from, to};
}

}  // namespace madnet::mobility
