// Copyright (c) 2026 madnet authors. All rights reserved.

#include "mobility/manhattan_grid.h"

#include <cmath>
#include <utility>

#include "util/logging.h"

namespace madnet::mobility {

ManhattanGrid::ManhattanGrid(std::shared_ptr<const Options> options_in,
                             Rng rng)
    : options_(std::move(options_in)), rng_(rng) {
  const Options& options = *options_;
  MADNET_DCHECK(options.block_size_m > 0.0);
  MADNET_DCHECK(options.min_speed_mps > 0.0 &&
                options.max_speed_mps >= options.min_speed_mps);
  MADNET_DCHECK(options.p_straight >= 0.0 && options.p_turn_left >= 0.0 &&
                options.p_turn_right >= 0.0 &&
                options.p_straight + options.p_turn_left +
                        options.p_turn_right <=
                    1.0 + 1e-9);
  cols_ = static_cast<int>(
              std::floor(options.area.Width() / options.block_size_m)) +
          1;
  rows_ = static_cast<int>(
              std::floor(options.area.Height() / options.block_size_m)) +
          1;
  MADNET_DCHECK(cols_ >= 2 && rows_ >= 2 && "area too small for the grid");
}

ManhattanGrid::ManhattanGrid(const Options& options, Rng rng)
    : ManhattanGrid(std::make_shared<const Options>(options), rng) {}

Vec2 ManhattanGrid::HeadingVector(Heading h) const {
  switch (h) {
    case Heading::kEast: return {1.0, 0.0};
    case Heading::kNorth: return {0.0, 1.0};
    case Heading::kWest: return {-1.0, 0.0};
    case Heading::kSouth: return {0.0, -1.0};
  }
  return {1.0, 0.0};
}

bool ManhattanGrid::InBounds(const Vec2& intersection) const {
  const double eps = 1e-6;
  return intersection.x >= options_->area.min.x - eps &&
         intersection.x <= options_->area.min.x +
                               (cols_ - 1) * options_->block_size_m + eps &&
         intersection.y >= options_->area.min.y - eps &&
         intersection.y <= options_->area.min.y +
                               (rows_ - 1) * options_->block_size_m + eps;
}

ManhattanGrid::Heading ManhattanGrid::ChooseHeading(const Vec2& at,
                                                    Heading current) {
  // Candidate headings in preference classes: straight / left / right /
  // u-turn, thinned down to the ones that stay on the grid.
  const int cur = static_cast<int>(current);
  const Heading straight = current;
  const Heading left = static_cast<Heading>((cur + 1) % 4);
  const Heading right = static_cast<Heading>((cur + 3) % 4);
  const Heading back = static_cast<Heading>((cur + 2) % 4);

  auto feasible = [&](Heading h) {
    return InBounds(at + HeadingVector(h) * options_->block_size_m);
  };

  // Sample by the configured probabilities, then fall through to any
  // feasible direction (boundary handling).
  const double roll = rng_.NextDouble();
  Heading preferred;
  if (roll < options_->p_straight) {
    preferred = straight;
  } else if (roll < options_->p_straight + options_->p_turn_left) {
    preferred = left;
  } else if (roll <
             options_->p_straight + options_->p_turn_left +
                 options_->p_turn_right) {
    preferred = right;
  } else {
    preferred = back;
  }
  if (feasible(preferred)) return preferred;
  for (Heading h : {straight, left, right, back}) {
    if (feasible(h)) return h;
  }
  MADNET_DCHECK(false && "grid node has no feasible direction");
  return back;
}

Leg ManhattanGrid::NextLeg(const Leg* previous) {
  const Time start = previous == nullptr ? 0.0 : previous->end;
  Vec2 from;
  if (previous == nullptr) {
    // Start at a uniformly random intersection.
    const int col = static_cast<int>(rng_.NextUint64(cols_));
    const int row = static_cast<int>(rng_.NextUint64(rows_));
    from = {options_->area.min.x + col * options_->block_size_m,
            options_->area.min.y + row * options_->block_size_m};
    heading_ = static_cast<Heading>(rng_.NextUint64(4));
  } else {
    from = previous->to;
  }

  heading_ = ChooseHeading(from, heading_);
  const Vec2 to = from + HeadingVector(heading_) * options_->block_size_m;
  const double speed =
      rng_.Uniform(options_->min_speed_mps, options_->max_speed_mps);
  const Time duration = options_->block_size_m / speed;
  return Leg{start, start + duration, from, to};
}

}  // namespace madnet::mobility
