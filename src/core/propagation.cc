// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/propagation.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace madnet::core {

double RadiusAtAge(double r_m, double d_s, double age_s,
                   const PropagationParams& params) {
  MADNET_DCHECK(params.Valid());
  if (age_s > d_s) return 0.0;
  if (age_s < 0.0) age_s = 0.0;
  const double exponent = (d_s - age_s) / params.time_unit_s + 1.0;
  return (1.0 - std::pow(params.beta, exponent)) * r_m;
}

double ForwardingProbability(double distance_m, double radius_m,
                             const PropagationParams& params) {
  MADNET_DCHECK(params.Valid());
  if (radius_m <= 0.0) return 0.0;
  if (distance_m < 0.0) distance_m = 0.0;
  if (distance_m <= radius_m) {
    const double exponent =
        (radius_m - distance_m) / params.distance_unit_m + 1.0;
    return 1.0 - std::pow(params.alpha, exponent);
  }
  const double exponent = (distance_m - radius_m) / params.outside_unit_m;
  return (1.0 - params.alpha) * std::pow(params.alpha, exponent);
}

double AnnulusForwardingProbability(double distance_m, double radius_m,
                                    double dis_m,
                                    const PropagationParams& params) {
  MADNET_DCHECK(params.Valid());
  if (radius_m <= 0.0) return 0.0;
  if (dis_m >= radius_m) {
    return ForwardingProbability(distance_m, radius_m, params);
  }
  if (distance_m < 0.0) distance_m = 0.0;
  const double inner_edge = radius_m - dis_m;
  if (distance_m >= inner_edge) {
    // Annulus and beyond: identical to Formula 1.
    return ForwardingProbability(distance_m, radius_m, params);
  }
  // Central disc: probability at the annulus inner edge, decaying inwards
  // with the fine unit so the centre is truly quiet.
  const double edge_probability =
      1.0 - std::pow(params.alpha, dis_m / params.distance_unit_m + 1.0);
  const double decay = std::pow(
      params.alpha, (inner_edge - distance_m) / params.outside_unit_m);
  return edge_probability * decay;
}

double PostponeInterval(double round_time_s, double overlap_fraction,
                        double angle_rad) {
  overlap_fraction = std::clamp(overlap_fraction, 0.0, 1.0);
  angle_rad = std::clamp(angle_rad, 0.0, 3.14159265358979323846);
  const double interval = round_time_s * std::exp(overlap_fraction) *
                          overlap_fraction * std::cos(angle_rad / 2.0);
  return std::max(interval, 0.0);
}

double VelocityConstrainedDis(double max_speed_mps, double round_time_s) {
  return max_speed_mps * round_time_s;
}

}  // namespace madnet::core
