// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Intra-run parallelism, end to end: a run large enough for the medium's
// parallel index warm-up (>= 4096 nodes) gives the same Session-flushed
// trace bytes and the same aggregates with four intra-run workers as with
// the serial path.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exec/intra_run.h"
#include "exec/replication.h"
#include "obs/manifest.h"
#include "obs/session.h"
#include "scenario/scenario.h"

namespace madnet::scenario {
namespace {

/// 4096 peers at Table II density (300 peers on a 5 km side), pure
/// gossip so every peer keeps a live round chain, short horizon to keep
/// the sanitizer builds fast.
ScenarioConfig FanOutConfig() {
  ScenarioConfig config;
  config.method = Method::kGossip;
  config.num_peers = 4096;
  config.area_size_m = 18475.0;  // 5000 * sqrt(4096 / 300).
  config.issue_location = {config.area_size_m / 2.0, config.area_size_m / 2.0};
  config.initial_radius_m = 3000.0;
  config.sim_time_s = 20.0;
  config.issue_time_s = 2.0;
  config.seed = 5;
  return config;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct Replicated {
  exec::Aggregate aggregate;
  std::string trace;
};

/// One replication through RunReplicated under a fresh all-category
/// Session; returns the aggregate and the flushed trace file's bytes.
Replicated RunObserved(const ScenarioConfig& config, int intra_jobs,
                       const std::string& path) {
  obs::SessionOptions options;
  options.trace.categories = obs::kTraceAll;
  options.trace_path = path;
  obs::Session::Configure(options);
  Replicated out;
  out.aggregate = exec::RunReplicated(config, 1, 1, intra_jobs);
  obs::Manifest manifest;
  manifest.base_seed = config.seed;
  manifest.replications = 1;
  manifest.jobs = 1;
  const Status status = obs::Session::Get()->Flush(manifest);
  obs::Session::Shutdown();
  EXPECT_TRUE(status.ok()) << status.ToString();
  out.trace = ReadWholeFile(path);
  return out;
}

TEST(ScenarioIntraRunTest, FourWorkersMatchSerialTraceAndAggregates) {
  const ScenarioConfig config = FanOutConfig();
  ASSERT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  const Replicated serial =
      RunObserved(config, 1, testing::TempDir() + "intra_run_j1.jsonl");
  const Replicated parallel =
      RunObserved(config, 4, testing::TempDir() + "intra_run_j4.jsonl");
  ASSERT_FALSE(serial.trace.empty());
  EXPECT_EQ(serial.trace, parallel.trace);
  const exec::Aggregate& a = serial.aggregate;
  const exec::Aggregate& b = parallel.aggregate;
  EXPECT_EQ(a.delivery_rate_percent.Sum(), b.delivery_rate_percent.Sum());
  EXPECT_EQ(a.mean_delivery_time_s.Sum(), b.mean_delivery_time_s.Sum());
  EXPECT_EQ(a.messages.Sum(), b.messages.Sum());
  EXPECT_EQ(a.peers_passed.Sum(), b.peers_passed.Sum());
  EXPECT_EQ(a.final_rank.Sum(), b.final_rank.Sum());
  // The run did something worth comparing.
  EXPECT_GT(a.messages.Sum(), 0.0);
}

TEST(ScenarioIntraRunTest, ConfigIsLargeEnoughToTakeTheParallelPath) {
  // Guards the test above: at this size the medium really hands its index
  // warm-up to the executor, so the comparison covers the threaded path.
  const net::Medium::ParallelExecutor workers = exec::IntraRunExecutor(4);
  int calls = 0;
  Scenario scenario(FanOutConfig());
  scenario.medium()->SetParallelExecutor(
      [&](size_t count,
          const std::function<void(size_t begin, size_t end)>& body) {
        ++calls;
        workers(count, body);
      });
  (void)scenario.Run();
  EXPECT_GT(calls, 0);
}

}  // namespace
}  // namespace madnet::scenario
