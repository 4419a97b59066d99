// Copyright (c) 2026 madnet authors. All rights reserved.

#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace madnet::stats {

void Summary::Add(double value) {
  values_.push_back(value);
  sum_ += value;
  sorted_valid_ = false;
}

double Summary::Mean() const {
  if (values_.empty()) return 0.0;
  return sum_ / static_cast<double>(values_.size());
}

double Summary::Stddev() const {
  if (values_.size() < 2) return 0.0;
  const double mean = Mean();
  double ss = 0.0;
  for (double v : values_) ss += (v - mean) * (v - mean);
  return std::sqrt(ss / static_cast<double>(values_.size() - 1));
}

double Summary::ConfidenceInterval95() const {
  if (values_.size() < 2) return 0.0;
  return 1.96 * Stddev() / std::sqrt(static_cast<double>(values_.size()));
}

void Summary::EnsureSorted() const {
  if (sorted_valid_) return;
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Summary::Min() const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  return sorted_.front();
}

double Summary::Max() const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  return sorted_.back();
}

double Summary::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

std::string Summary::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.3f sd=%.3f min=%.3f p50=%.3f max=%.3f",
                Count(), Mean(), Stddev(), Min(), Percentile(50.0), Max());
  return buf;
}

}  // namespace madnet::stats
