// Copyright (c) 2026 madnet authors. All rights reserved.

#include "mobility/mobility_model.h"

#include <algorithm>

#include "util/logging.h"

namespace madnet::mobility {

namespace {
// Legs may legitimately have zero duration (instant turns); require progress
// within this many consecutive generated legs.
constexpr int kMaxZeroDurationLegs = 16;
}  // namespace

Vec2 Leg::PositionAt(Time t) const {
  Time d = Duration();
  if (d <= 0.0) return from;
  double s = (t - start) / d;
  s = std::clamp(s, 0.0, 1.0);
  return from + (to - from) * s;
}

void MobilityModel::EnsureHorizon(Time horizon) {
  int zero_streak = 0;
  while (legs_.empty() || legs_.back().end < horizon) {
    const Leg* previous = legs_.empty() ? nullptr : &legs_.back();
    Leg next = NextLeg(previous);
    if (previous != nullptr) {
      MADNET_DCHECK(next.start == previous->end && "legs must abut in time");
      MADNET_DCHECK(next.from == previous->to && "legs must abut in space");
    }
    MADNET_DCHECK(next.end >= next.start && "leg must not run backwards");
    zero_streak = next.Duration() > 0.0 ? 0 : zero_streak + 1;
    MADNET_DCHECK(zero_streak < kMaxZeroDurationLegs &&
                  "mobility model failed to make progress");
    // The trajectory extends by whole legs (seconds of virtual time each),
    // so per-query cost is O(1) amortized; hot callers hit the cursor cache.
    legs_.push_back(next);
  }
}

size_t MobilityModel::LegIndexAt(Time t) {
  MADNET_DCHECK(t >= 0.0 && "mobility queries require non-negative time");
  // Fast path first: if the cached cursor leg contains `t`, the trajectory
  // already covers `t` and EnsureHorizon would be a no-op, so checking the
  // cursor before extending is a pure reorder.
  if (cursor_ < legs_.size() && legs_[cursor_].start <= t &&
      t <= legs_[cursor_].end) {
    return cursor_;
  }
  EnsureHorizon(t);
  // Binary search: first leg whose end >= t.
  auto it = std::lower_bound(
      legs_.begin(), legs_.end(), t,
      [](const Leg& leg, Time value) { return leg.end < value; });
  MADNET_DCHECK(it != legs_.end());
  cursor_ = static_cast<uint32_t>(it - legs_.begin());
  return cursor_;
}

Vec2 MobilityModel::PositionAtSlow(Time t) {
  return legs_[LegIndexAt(t)].PositionAt(t);
}

Vec2 MobilityModel::VelocityAt(Time t) {
  size_t index = LegIndexAt(t);
  // Prefer the later leg at boundaries so a node "already moving" reports
  // its new direction the instant a leg starts.
  if (t == legs_[index].end && index + 1 < legs_.size()) ++index;
  return legs_[index].Velocity();
}

std::vector<CrossingInterval> MobilityModel::CrossingsWithin(
    const Circle& circle, Time t0, Time t1) {
  std::vector<CrossingInterval> result;
  if (t1 < t0) return result;
  EnsureHorizon(t1);
  for (const Leg& leg : legs_) {
    if (leg.end < t0) continue;
    if (leg.start > t1) break;
    const Time lo = std::max(leg.start, t0);
    const Time hi = std::min(leg.end, t1);
    Vec2 from = leg.PositionAt(lo);
    Vec2 to = leg.PositionAt(hi);
    auto crossing = SegmentCircleCrossing(from, to, lo, hi, circle);
    if (!crossing.has_value()) continue;
    if (!result.empty() && crossing->enter <= result.back().exit) {
      // Coalesce with the previous interval (leg boundary inside circle).
      result.back().exit = std::max(result.back().exit, crossing->exit);
    } else {
      result.push_back(*crossing);
    }
  }
  return result;
}

}  // namespace madnet::mobility
