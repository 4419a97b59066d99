// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Mobility substrate. Every model produces a piecewise-linear trajectory —
// a sequence of constant-velocity legs (pauses are legs with from == to).
// The analytic representation gives exact positions and velocities at any
// instant and, crucially, exact advertising-area entry/exit times
// (util/geometry.h SegmentCircleCrossing), which the metrics pipeline uses
// instead of sampling. This replaces ns-2's `setdest` trace machinery.

#ifndef MADNET_MOBILITY_MOBILITY_MODEL_H_
#define MADNET_MOBILITY_MOBILITY_MODEL_H_

#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "util/geometry.h"

namespace madnet::mobility {

using sim::Time;

/// One constant-velocity segment of a trajectory. A pause is a leg with
/// from == to. Legs abut: leg[i+1].start == leg[i].end and
/// leg[i+1].from == leg[i].to.
struct Leg {
  Time start = 0.0;
  Time end = 0.0;
  Vec2 from;
  Vec2 to;

  /// Duration in seconds (>= 0).
  Time Duration() const { return end - start; }

  /// Velocity vector during the leg (zero for pauses or instant legs).
  Vec2 Velocity() const {
    Time d = Duration();
    if (d <= 0.0) return {0.0, 0.0};
    return (to - from) / d;
  }

  /// Position at time `t`, clamped into [start, end].
  Vec2 PositionAt(Time t) const;
};

/// Base class of all mobility models: an extendable sequence of legs.
/// Queries at time t lazily extend the trajectory (via NextLeg) until it
/// covers t. Not thread-safe; each node owns one model instance.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Exact position at time `t` (>= 0). Times beyond the last generated leg
  /// extend the trajectory deterministically.
  Vec2 PositionAt(Time t) {
    // Fast path: `t` strictly inside the cached cursor leg. The expression
    // mirrors Leg::PositionAt exactly; strict interior guarantees d > 0 and
    // s in (0, 1], where the clamp is a no-op, so results are bit-identical
    // to the general path. Boundary times (t == start or t == end) fall
    // through so leg selection stays byte-for-byte with the cursor logic.
    if (cursor_ < legs_.size()) {
      const Leg& leg = legs_[cursor_];
      if (leg.start < t && t < leg.end) {
        const double s = (t - leg.start) / (leg.end - leg.start);
        return leg.from + (leg.to - leg.from) * s;
      }
    }
    return PositionAtSlow(t);
  }

  /// Exact velocity at time `t`. At a leg boundary, the later leg's
  /// velocity is reported.
  Vec2 VelocityAt(Time t);

  /// Extends the trajectory to cover [0, horizon].
  void EnsureHorizon(Time horizon);

  /// All legs generated so far (EnsureHorizon first for a known span).
  const std::vector<Leg>& legs() const { return legs_; }

  /// Exact time intervals within [t0, t1] spent inside `circle`.
  /// Overlapping/abutting intervals from consecutive legs are coalesced.
  std::vector<CrossingInterval> CrossingsWithin(const Circle& circle, Time t0,
                                                Time t1);

 protected:
  /// Produces the leg following `previous` (nullptr for the first leg).
  /// Implementations must return a leg starting exactly where the previous
  /// one ended (time and position). Must make progress (end > start) at
  /// least every few calls, or trajectory extension will abort.
  virtual Leg NextLeg(const Leg* previous) = 0;

 private:
  /// Index of the leg containing time `t`, extending as needed.
  size_t LegIndexAt(Time t);

  /// General-path position query backing the inline fast path above.
  Vec2 PositionAtSlow(Time t);

  std::vector<Leg> legs_;
  // Cache: queries are usually time-monotonic. 32 bits leave the base's
  // last 4 bytes as tail padding a subclass can put a member in.
  uint32_t cursor_ = 0;
};

}  // namespace madnet::mobility

#endif  // MADNET_MOBILITY_MOBILITY_MODEL_H_
