// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Hotspot-biased waypoint mobility (extension): like Random Waypoint, but
// a configurable fraction of waypoints is drawn around attraction points
// (shops, petrol stations, intersections) instead of uniformly. This
// matches the paper's motivating scenarios — people *head to* the
// supermarket — and produces the centre-heavy densities real advertising
// areas see.

#ifndef MADNET_MOBILITY_HOTSPOT_WAYPOINT_H_
#define MADNET_MOBILITY_HOTSPOT_WAYPOINT_H_

#include <memory>
#include <vector>

#include "mobility/mobility_model.h"
#include "util/random.h"

namespace madnet::mobility {

/// Random-waypoint variant with attraction points.
class HotspotWaypoint : public MobilityModel {
 public:
  /// One attraction point: waypoints near it are normally distributed
  /// with the given spread; `weight` sets its share among hotspots.
  struct Hotspot {
    Vec2 center;
    double sigma_m = 100.0;
    double weight = 1.0;
  };

  struct Options {
    Rect area{{0.0, 0.0}, {5000.0, 5000.0}};
    double min_speed_mps = 5.0;
    double max_speed_mps = 15.0;
    double min_pause_s = 0.0;
    double max_pause_s = 10.0;
    /// Probability that a waypoint targets a hotspot (vs uniform).
    double hotspot_probability = 0.7;
    std::vector<Hotspot> hotspots;  ///< Must be non-empty if probability>0.
  };

  /// `options` is shared by every peer of a run and must be non-null.
  HotspotWaypoint(std::shared_ptr<const Options> options, Rng rng);

  /// Convenience form: holds a private shared copy of `options`.
  HotspotWaypoint(const Options& options, Rng rng);

  const Options& options() const { return *options_; }

 protected:
  Leg NextLeg(const Leg* previous) override;

 private:
  /// Draws the next destination (hotspot-biased or uniform), inside area.
  Vec2 NextWaypoint();

  /// The hotspot a uniform `roll` in [0, 1) selects by weight.
  const Hotspot& HotspotAt(double roll) const;

  std::shared_ptr<const Options> options_;  // Shared per run.
  Rng rng_;
  bool pause_next_ = false;
};

}  // namespace madnet::mobility

#endif  // MADNET_MOBILITY_HOTSPOT_WAYPOINT_H_
