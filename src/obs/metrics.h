// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The metrics registry: named counters, gauges, and fixed-bucket
// histograms describing one run. Plain and allocation-light — a registry
// belongs to a single replication (single-threaded, like the simulator);
// under exec::RunReplicated each replication fills its own registry
// and the per-seed registries are merged *in seed order*, so the merged
// aggregate is bit-identical at any --jobs.
//
// Merge semantics: counters and histogram buckets sum; gauges take the
// value of the last merged-in registry that set them (merge order = seed
// order, so this is deterministic too).
//
// Storage is std::map so snapshots and JSON output are name-ordered and
// deterministic. Handles returned by Counter()/Gauge()/Histogram() are
// stable for the registry's lifetime (node-based map), so hot paths can
// resolve the name once and bump a plain integer afterwards.

#ifndef MADNET_OBS_METRICS_H_
#define MADNET_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace madnet::obs {

/// Fixed-bucket histogram: `bounds` are inclusive upper edges of the first
/// N buckets; one overflow bucket catches everything above the last bound.
class FixedHistogram {
 public:
  FixedHistogram() = default;
  explicit FixedHistogram(std::vector<double> bounds);

  /// Records one observation.
  void Observe(double value);

  /// Bucket-wise sum. Merging into a default-constructed histogram adopts
  /// `other` wholesale; otherwise both must share identical bounds —
  /// mismatched bounds return InvalidArgument and leave this histogram
  /// unchanged (a silent misaligned sum would corrupt every quantile
  /// derived from it).
  Status MergeFrom(const FixedHistogram& other);

  /// Estimates the q-quantile (q in [0, 1]) from the bucket counts by
  /// linear interpolation inside the bucket holding the target rank, with
  /// the first bound as each bucket's implicit lower edge floor at 0 (or
  /// the previous bound). Observations in the overflow bucket clamp to the
  /// last bound — like Prometheus's histogram_quantile, the estimate never
  /// exceeds the largest finite edge. Returns 0 for an empty histogram.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

 private:
  std::vector<double> bounds_;    // Ascending upper edges.
  std::vector<uint64_t> counts_;  // bounds_.size() + 1 (last = overflow).
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// One run's (or one merged aggregate's) named metrics.
class MetricsRegistry {
 public:
  /// Finds or creates a counter. The returned pointer stays valid for the
  /// registry's lifetime.
  uint64_t* Counter(const std::string& name);

  /// Finds or creates a gauge (last-set-wins semantics).
  double* Gauge(const std::string& name);

  /// Finds or creates a histogram. `bounds` is used only on creation; a
  /// later lookup with different bounds keeps the original buckets.
  FixedHistogram* Histogram(const std::string& name,
                            std::vector<double> bounds);

  /// Convenience one-shot mutators.
  void AddCounter(const std::string& name, uint64_t delta) {
    *Counter(name) += delta;
  }
  void SetGauge(const std::string& name, double value) {
    *Gauge(name) = value;
  }

  /// Deterministic merge (see file comment). Call in seed order.
  void MergeFrom(const MetricsRegistry& other);

  /// Writes {"counters":{...},"gauges":{...},"histograms":{...}} fields
  /// into the currently open JSON object, name-ordered.
  void WriteJsonFields(JsonWriter* json) const;

  /// Whole-registry JSON document (for --metrics-out style output).
  std::string ToJson() const;

  const std::map<std::string, uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, FixedHistogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, FixedHistogram> histograms_;
};

}  // namespace madnet::obs

#endif  // MADNET_OBS_METRICS_H_
