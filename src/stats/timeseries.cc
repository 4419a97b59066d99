// Copyright (c) 2026 madnet authors. All rights reserved.

#include "stats/timeseries.h"

#include <algorithm>

namespace madnet::stats {

TimeSeries::TimeSeries(std::string label) : label_(std::move(label)) {}

Status TimeSeries::Add(Time time, double value) {
  if (!samples_.empty() && time < samples_.back().time) {
    return Status::InvalidArgument("time series must be appended in order");
  }
  samples_.push_back(Sample{time, value});
  return Status::Ok();
}

double TimeSeries::ValueAt(Time time) const {
  // Last sample with sample.time <= time.
  auto it = std::upper_bound(
      samples_.begin(), samples_.end(), time,
      [](Time t, const Sample& s) { return t < s.time; });
  if (it == samples_.begin()) return 0.0;
  return std::prev(it)->value;
}

double TimeSeries::MeanOver(Time t0, Time t1) const {
  double sum = 0.0;
  size_t count = 0;
  for (const Sample& sample : samples_) {
    if (sample.time < t0) continue;
    if (sample.time > t1) break;
    sum += sample.value;
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double TimeSeries::MaxValue() const {
  double best = 0.0;
  for (const Sample& sample : samples_) best = std::max(best, sample.value);
  return best;
}

}  // namespace madnet::stats
