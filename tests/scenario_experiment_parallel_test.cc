// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Determinism contract of the parallel experiment engine: RunReplicated
// with jobs > 1 must produce Aggregate summaries that are bit-identical,
// field for field, to the serial path — parallelism only changes wall
// clock, never results. That holds too when RunReplicated runs nested in
// an exec::ParallelFor sweep and its replications share the sweep's
// workers.

#include <gtest/gtest.h>

#include <vector>

#include "exec/parallel_for.h"
#include "exec/replication.h"

namespace madnet::scenario {
namespace {

using exec::Aggregate;
using exec::RunReplicated;

ScenarioConfig SmallConfig(Method method) {
  ScenarioConfig config;
  config.method = method;
  config.num_peers = 80;
  config.area_size_m = 2000.0;
  config.issue_location = {1000.0, 1000.0};
  config.initial_radius_m = 600.0;
  config.initial_duration_s = 200.0;
  config.sim_time_s = 300.0;
  config.issue_time_s = 30.0;
  config.seed = 7;
  return config;
}

/// Exact (bitwise) equality of every queryable field of two summaries.
void ExpectSummaryIdentical(const stats::Summary& serial,
                            const stats::Summary& parallel,
                            const char* label) {
  EXPECT_EQ(serial.Count(), parallel.Count()) << label;
  EXPECT_EQ(serial.Sum(), parallel.Sum()) << label;
  EXPECT_EQ(serial.Mean(), parallel.Mean()) << label;
  EXPECT_EQ(serial.Stddev(), parallel.Stddev()) << label;
  EXPECT_EQ(serial.Min(), parallel.Min()) << label;
  EXPECT_EQ(serial.Max(), parallel.Max()) << label;
  EXPECT_EQ(serial.Percentile(50.0), parallel.Percentile(50.0)) << label;
  EXPECT_EQ(serial.ConfidenceInterval95(), parallel.ConfidenceInterval95())
      << label;
}

void ExpectAggregateIdentical(const Aggregate& serial,
                              const Aggregate& parallel) {
  ExpectSummaryIdentical(serial.delivery_rate_percent,
                         parallel.delivery_rate_percent, "delivery_rate");
  ExpectSummaryIdentical(serial.mean_delivery_time_s,
                         parallel.mean_delivery_time_s, "delivery_time");
  ExpectSummaryIdentical(serial.messages, parallel.messages, "messages");
  ExpectSummaryIdentical(serial.peers_passed, parallel.peers_passed,
                         "peers_passed");
  ExpectSummaryIdentical(serial.final_rank, parallel.final_rank,
                         "final_rank");
}

TEST(RunReplicatedParallelTest, FourJobsMatchSerialFieldForField) {
  const ScenarioConfig config = SmallConfig(Method::kOptimized);
  const Aggregate serial = RunReplicated(config, 5, /*jobs=*/1);
  const Aggregate parallel = RunReplicated(config, 5, /*jobs=*/4);
  ExpectAggregateIdentical(serial, parallel);
}

TEST(RunReplicatedParallelTest, DefaultJobsArgumentIsSerial) {
  const ScenarioConfig config = SmallConfig(Method::kGossip);
  const Aggregate implicit = RunReplicated(config, 3);
  const Aggregate serial = RunReplicated(config, 3, /*jobs=*/1);
  ExpectAggregateIdentical(implicit, serial);
}

TEST(RunReplicatedParallelTest, AutoJobsMatchesSerial) {
  const ScenarioConfig config = SmallConfig(Method::kFlooding);
  const Aggregate serial = RunReplicated(config, 4, /*jobs=*/1);
  // jobs <= 0 = one worker per hardware thread; results must not change.
  const Aggregate parallel = RunReplicated(config, 4, /*jobs=*/0);
  ExpectAggregateIdentical(serial, parallel);
}

TEST(RunReplicatedParallelTest, MoreJobsThanReplicationsIsFine) {
  const ScenarioConfig config = SmallConfig(Method::kOptimized2);
  const Aggregate serial = RunReplicated(config, 2, /*jobs=*/1);
  const Aggregate parallel = RunReplicated(config, 2, /*jobs=*/16);
  ExpectAggregateIdentical(serial, parallel);
}

TEST(RunReplicatedParallelTest, NestedInParallelForMatchesSerial) {
  std::vector<ScenarioConfig> points;
  for (Method method : {Method::kFlooding, Method::kGossip,
                        Method::kOptimized}) {
    for (int peers : {40, 80}) {
      ScenarioConfig config = SmallConfig(method);
      config.num_peers = peers;
      points.push_back(config);
    }
  }
  std::vector<Aggregate> serial;
  for (const ScenarioConfig& config : points) {
    serial.push_back(RunReplicated(config, 3));
  }
  std::vector<Aggregate> nested(points.size());
  exec::ParallelFor(4, points.size(), [&](size_t p) {
    nested[p] = RunReplicated(points[p], 3);
  });
  for (size_t p = 0; p < points.size(); ++p) {
    SCOPED_TRACE(p);
    ExpectAggregateIdentical(serial[p], nested[p]);
  }
}

}  // namespace
}  // namespace madnet::scenario
