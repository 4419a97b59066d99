// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Manhattan-grid mobility (extension beyond the paper's Random Waypoint):
// peers move along the streets of a regular grid, turning at intersections
// with configurable probabilities. This models the urban vehicle scenario
// the paper's introduction motivates (petrol stations, supermarkets).

#ifndef MADNET_MOBILITY_MANHATTAN_GRID_H_
#define MADNET_MOBILITY_MANHATTAN_GRID_H_

#include <memory>

#include "mobility/mobility_model.h"
#include "util/random.h"

namespace madnet::mobility {

/// Movement constrained to the lines x = i*block and y = j*block of a
/// square area. Each leg runs from one intersection to an adjacent one;
/// at intersections the peer continues straight, turns left, or turns
/// right, with the given probabilities (u-turns take the leftover mass,
/// and are forced at the area boundary when no other option remains).
class ManhattanGrid : public MobilityModel {
 public:
  struct Options {
    Rect area{{0.0, 0.0}, {5000.0, 5000.0}};  ///< Must be grid-aligned.
    double block_size_m = 500.0;              ///< Street spacing.
    double min_speed_mps = 5.0;
    double max_speed_mps = 15.0;
    double p_straight = 0.5;   ///< Probability of continuing straight.
    double p_turn_left = 0.25;
    double p_turn_right = 0.25;
  };

  /// `options` is shared by every peer of a run and must be non-null.
  ManhattanGrid(std::shared_ptr<const Options> options, Rng rng);

  /// Convenience form: holds a private shared copy of `options`.
  ManhattanGrid(const Options& options, Rng rng);

  const Options& options() const { return *options_; }

 protected:
  Leg NextLeg(const Leg* previous) override;

 private:
  /// Axis-aligned unit headings.
  enum class Heading { kEast = 0, kNorth = 1, kWest = 2, kSouth = 3 };

  Vec2 HeadingVector(Heading h) const;
  bool InBounds(const Vec2& intersection) const;
  /// Picks the next heading at an intersection, respecting boundaries.
  Heading ChooseHeading(const Vec2& at, Heading current);

  std::shared_ptr<const Options> options_;  // Shared per run.
  Rng rng_;
  Heading heading_ = Heading::kEast;
  int cols_ = 0;  // Number of intersections per row.
  int rows_ = 0;
};

}  // namespace madnet::mobility

#endif  // MADNET_MOBILITY_MANHATTAN_GRID_H_
