// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Mobility trace record / replay: captures any model's legs up to a
// horizon, and replays them later as a mobility model of its own. Useful
// for running different protocols over the *identical* movement pattern
// (paired comparison, as the paper does across its five methods).

#ifndef MADNET_MOBILITY_TRACE_H_
#define MADNET_MOBILITY_TRACE_H_

#include <vector>

#include "mobility/mobility_model.h"
#include "util/status.h"

namespace madnet::mobility {

/// An immutable recorded trajectory.
class Trace {
 public:
  /// Records `model`'s legs covering [0, horizon].
  static Trace Record(MobilityModel* model, Time horizon);

  /// Builds a trace from explicit legs. Legs must abut in time and space
  /// and start at time 0 (InvalidArgument otherwise).
  static StatusOr<Trace> FromLegs(std::vector<Leg> legs);

  const std::vector<Leg>& legs() const { return legs_; }

  /// End time of the last recorded leg.
  Time Horizon() const { return legs_.empty() ? 0.0 : legs_.back().end; }

 private:
  explicit Trace(std::vector<Leg> legs) : legs_(std::move(legs)) {}
  std::vector<Leg> legs_;
};

/// A mobility model that replays a Trace. Queries beyond the trace horizon
/// keep the node at its final position.
class TraceReplay : public MobilityModel {
 public:
  explicit TraceReplay(Trace trace) : trace_(std::move(trace)), next_(0) {}

 protected:
  Leg NextLeg(const Leg* previous) override;

 private:
  Trace trace_;
  size_t next_;
};

}  // namespace madnet::mobility

#endif  // MADNET_MOBILITY_TRACE_H_
