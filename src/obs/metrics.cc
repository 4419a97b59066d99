// Copyright (c) 2026 madnet authors. All rights reserved.

#include "obs/metrics.h"

#include <algorithm>

#include "util/logging.h"

namespace madnet::obs {

FixedHistogram::FixedHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  MADNET_DCHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void FixedHistogram::Observe(double value) {
  // First bucket whose inclusive upper edge is >= value; everything above
  // the last edge lands in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  counts_[static_cast<size_t>(it - bounds_.begin())] += 1;
  count_ += 1;
  sum_ += value;
}

Status FixedHistogram::MergeFrom(const FixedHistogram& other) {
  if (counts_.empty()) {
    *this = other;
    return Status::Ok();
  }
  if (other.counts_.empty()) return Status::Ok();  // Nothing to add.
  if (bounds_ != other.bounds_) {
    return Status::InvalidArgument(
        "FixedHistogram::MergeFrom: mismatched bucket bounds");
  }
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  return Status::Ok();
}

double FixedHistogram::Quantile(double q) const {
  if (count_ == 0 || counts_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, interpolated).
  const double target = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i >= bounds_.size()) {
      // Overflow bucket: clamp to the largest finite edge (Prometheus
      // behaviour); with no finite edges at all, fall back to the mean.
      return bounds_.empty() ? Mean() : bounds_.back();
    }
    const double upper = bounds_[i];
    const double lower = i == 0 ? std::min(0.0, upper) : bounds_[i - 1];
    const double fraction =
        (target - before) / static_cast<double>(counts_[i]);
    return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
  }
  return bounds_.empty() ? Mean() : bounds_.back();
}

uint64_t* MetricsRegistry::Counter(const std::string& name) {
  return &counters_[name];
}

double* MetricsRegistry::Gauge(const std::string& name) {
  return &gauges_[name];
}

FixedHistogram* MetricsRegistry::Histogram(const std::string& name,
                                           std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, FixedHistogram(std::move(bounds))).first;
  }
  return &it->second;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.gauges_) {
    gauges_[name] = value;  // Last merged-in registry wins (seed order).
  }
  for (const auto& [name, histogram] : other.histograms_) {
    const Status merged = histograms_[name].MergeFrom(histogram);
    if (!merged.ok()) {
      // Two replications of one sweep booked the same name with different
      // buckets — a programming error upstream. Keep this registry's
      // buckets and say so, instead of silently misaligning the counts.
      MADNET_LOG_ERROR("metrics merge skipped histogram '%s': %s",
                       name.c_str(), merged.ToString().c_str());
      MADNET_DCHECK(merged.ok());
    }
  }
}

void MetricsRegistry::WriteJsonFields(JsonWriter* json) const {
  json->Key("counters");
  json->BeginObject();
  for (const auto& [name, value] : counters_) {
    json->Key(name);
    json->Value(value);
  }
  json->EndObject();
  json->Key("gauges");
  json->BeginObject();
  for (const auto& [name, value] : gauges_) {
    json->Key(name);
    json->Value(value);
  }
  json->EndObject();
  json->Key("histograms");
  json->BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    json->Key(name);
    json->BeginObject();
    json->Key("bounds");
    json->BeginArray();
    for (double bound : histogram.bounds()) json->Value(bound);
    json->EndArray();
    json->Key("counts");
    json->BeginArray();
    for (uint64_t count : histogram.counts()) json->Value(count);
    json->EndArray();
    json->Key("count");
    json->Value(histogram.count());
    json->Key("sum");
    json->Value(histogram.sum());
    json->EndObject();
  }
  json->EndObject();
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  WriteJsonFields(&json);
  json.EndObject();
  return json.TakeString();
}

}  // namespace madnet::obs
