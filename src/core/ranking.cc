// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/ranking.h"

#include <cmath>

#include "util/logging.h"

namespace madnet::core {

double EstimatedRank(const Advertisement& ad) {
  return ad.sketches.Estimate();
}

double EnlargementIncrement(double increment_base, double rank) {
  if (rank < 1.0) rank = 1.0;
  return increment_base / std::log2(rank + 1.0);
}

bool RankAndEnlarge(Advertisement* ad, const InterestProfile& interests,
                    uint64_t user_id, const RankingOptions& options) {
  MADNET_DCHECK(ad != nullptr);
  if (!interests.Matches(ad->content)) return false;

  const double rank_before = EstimatedRank(*ad);
  ad->sketches.AddUser(user_id);
  const double rank_after = EstimatedRank(*ad);
  if (rank_after <= rank_before) {
    // The sketches did not change: this user was (probabilistically)
    // already counted; skip the enlargement (Algorithm 5).
    return false;
  }
  ad->radius_m += EnlargementIncrement(
      options.radius_increment_fraction * ad->initial_radius_m, rank_after);
  ad->duration_s += EnlargementIncrement(
      options.duration_increment_fraction * ad->initial_duration_s,
      rank_after);
  return true;
}

double ExpiryBound(double d0_s, double round_time_s,
                   double duration_increment_s) {
  MADNET_DCHECK(round_time_s > 0.0);
  double accumulated = d0_s;
  // With the log2(j+1) divisor the growth of `accumulated` is o(k), so the
  // line k * round_time always catches up; iterate until it does.
  for (uint64_t k = 1;; ++k) {
    accumulated +=
        duration_increment_s / std::log2(static_cast<double>(k) + 1.0);
    if (static_cast<double>(k) * round_time_s > accumulated) {
      return static_cast<double>(k) * round_time_s;
    }
    // Safety valve: bail out at an absurd horizon (callers treat this as
    // "effectively unbounded"); unreachable for sane parameters.
    if (k > 100'000'000ULL) return static_cast<double>(k) * round_time_s;
  }
}

}  // namespace madnet::core
