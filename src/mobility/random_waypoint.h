// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The Random Waypoint mobility model used by the paper's evaluation: each
// peer starts at a uniform random position, repeatedly picks a uniform
// random destination in the area, travels there in a straight line at a
// constant speed drawn per leg, pauses, and repeats.

#ifndef MADNET_MOBILITY_RANDOM_WAYPOINT_H_
#define MADNET_MOBILITY_RANDOM_WAYPOINT_H_

#include <memory>

#include "mobility/mobility_model.h"
#include "util/random.h"

namespace madnet::mobility {

/// Random Waypoint over a rectangular area.
class RandomWaypoint : public MobilityModel {
 public:
  /// Model parameters. The paper's Table II setting is speed uniform in
  /// [mean - delta, mean + delta] = 10 +- 5 m/s.
  struct Options {
    Rect area{{0.0, 0.0}, {5000.0, 5000.0}};  ///< Movement area, metres.
    double min_speed_mps = 5.0;               ///< Per-leg speed lower bound.
    double max_speed_mps = 15.0;              ///< Per-leg speed upper bound.
    double min_pause_s = 0.0;                 ///< Pause lower bound.
    double max_pause_s = 10.0;                ///< Pause upper bound.
  };

  /// Creates a model; all randomness (start position, waypoints, speeds,
  /// pauses) comes deterministically from `rng`. `options` is shared by
  /// every peer of a run and must be non-null.
  RandomWaypoint(std::shared_ptr<const Options> options, Rng rng);

  /// Convenience form: holds a private shared copy of `options`.
  RandomWaypoint(const Options& options, Rng rng);

  const Options& options() const { return *options_; }

 protected:
  Leg NextLeg(const Leg* previous) override;

 private:
  // Alternate travel leg / pause leg. First, so it sits in the base's
  // tail padding.
  bool pause_next_ = false;
  std::shared_ptr<const Options> options_;  // Shared per run.
  Rng rng_;
};

}  // namespace madnet::mobility

#endif  // MADNET_MOBILITY_RANDOM_WAYPOINT_H_
