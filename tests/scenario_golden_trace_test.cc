// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Golden digest of one small pure-gossip run's protocol-level trace: the
// run header and the tx, rx, deliver, suppress and sketch records of a
// scenario with per-receiver loss, collisions and an issuer that goes
// offline after seeding. Any change to what the protocol sends, receives
// or suppresses, or to when it does, moves the digest. A change to the
// event schedule alone does not: the event category is not hashed. The
// all-category digests further down hash it too, so they also pin the
// event loop's pop order, on the jittered and on the CSMA delivery path.
//
// The ROADMAP's order-independent-randomness re-baseline is the one
// planned change expected to update this digest. Any other change to it
// is a behaviour change and must be explained where it is made. The
// digest was recorded with glibc 2.36: libm's transcendental results are
// part of the trace bytes, so a libm that rounds differently moves it.

#include <string>

#include <gtest/gtest.h>

#include "obs/manifest.h"
#include "obs/run_context.h"
#include "scenario/scenario.h"

namespace madnet::scenario {
namespace {

constexpr char kGoldenDigest[] = "3b1204b9e65df563";

TEST(GoldenTraceTest, PureGossipWithLossCollisionsAndOfflineIssuer) {
  ScenarioConfig config;
  config.method = Method::kGossip;
  config.num_peers = 60;
  config.area_size_m = 1500.0;
  config.issue_location = {750.0, 750.0};
  config.initial_radius_m = 600.0;
  config.initial_duration_s = 120.0;
  config.sim_time_s = 160.0;
  config.issue_time_s = 15.0;
  config.issuer_goes_offline = true;
  config.medium.loss_probability = 0.15;
  config.medium.enable_collisions = true;
  config.seed = 23;
  ASSERT_TRUE(config.Validate().ok());

  obs::TraceOptions options;
  options.categories = obs::kTraceTx | obs::kTraceRx | obs::kTraceDeliver |
                       obs::kTraceSuppress | obs::kTraceSketch;
  obs::RunContext context{options};
  const RunResult result = RunScenario(config, &context);
  const std::string& text = context.trace.text();
  // The scenario exercises every hashed category and both drop paths.
  ASSERT_GT(result.net.messages_sent, 0u);
  for (const char* cat : {"tx", "rx", "deliver", "suppress", "sketch"}) {
    EXPECT_NE(text.find(std::string("\"cat\":\"") + cat + "\""),
              std::string::npos)
        << cat;
  }
  EXPECT_GT(result.net.dropped_loss, 0u);
  EXPECT_GT(result.net.dropped_collision, 0u);
  EXPECT_EQ(obs::HashHex(text), kGoldenDigest);
}

// All-category digests: `event` records included, so these pin the pop
// order of the event loop (every executed event's time and ordinal), not
// only what the protocols send and receive. One run takes the jittered
// delivery path with collisions and loss, the other the CSMA path with
// fading. Recorded with glibc 2.36, like kGoldenDigest, before deliveries
// were batched into one queue run per frame, which left them unchanged.
constexpr char kFloodingAllDigest[] = "ea4db99d003ddf79";
constexpr char kCsmaAllDigest[] = "2509a93187ab4538";

/// Runs `config` with every trace category enabled and returns the trace.
std::string AllCategoryTrace(const ScenarioConfig& config,
                             RunResult* result) {
  obs::TraceOptions options;
  options.categories = obs::kTraceAll;
  obs::RunContext context{options};
  *result = RunScenario(config, &context);
  const std::string& text = context.trace.text();
  EXPECT_NE(text.find("\"cat\":\"event\""), std::string::npos);
  return text;
}

TEST(GoldenTraceTest, AllCategoriesFloodingWithLossAndCollisions) {
  ScenarioConfig config;
  config.method = Method::kFlooding;
  config.num_peers = 70;
  config.area_size_m = 1500.0;
  config.issue_location = {750.0, 750.0};
  config.initial_radius_m = 600.0;
  config.initial_duration_s = 60.0;
  config.sim_time_s = 90.0;
  config.issue_time_s = 10.0;
  config.medium.loss_probability = 0.1;
  config.medium.enable_collisions = true;
  config.seed = 31;
  ASSERT_TRUE(config.Validate().ok());

  RunResult result;
  const std::string text = AllCategoryTrace(config, &result);
  EXPECT_GT(result.net.dropped_loss, 0u);
  EXPECT_GT(result.net.dropped_collision, 0u);
  EXPECT_EQ(obs::HashHex(text), kFloodingAllDigest);
}

// The exchange run pins the beacon series (every peer's random phase plus
// k beacon intervals) and the batch frames, across crash churn that wipes
// resource memory. Recorded with glibc 2.36, like the digests above.
constexpr char kExchangeAllDigest[] = "0b05ca3a637b5668";

TEST(GoldenTraceTest, AllCategoriesResourceExchange) {
  ScenarioConfig config;
  config.method = Method::kResourceExchange;
  config.num_peers = 60;
  config.area_size_m = 1500.0;
  config.issue_location = {750.0, 750.0};
  config.initial_radius_m = 600.0;
  config.initial_duration_s = 60.0;
  config.sim_time_s = 90.0;
  config.issue_time_s = 10.0;
  config.medium.loss_probability = 0.1;
  config.fault.churn_rate = 0.3;
  config.fault.churn_up_s = 20.0;
  config.fault.churn_down_s = 10.0;
  config.fault.churn_crash = true;
  config.seed = 41;
  ASSERT_TRUE(config.Validate().ok());

  RunResult result;
  const std::string text = AllCategoryTrace(config, &result);
  EXPECT_GT(result.net.deliveries, 0u);
  EXPECT_GT(result.fault.crashes, 0u);
  EXPECT_GT(result.fault.node_rejoins, 0u);
  EXPECT_EQ(obs::HashHex(text), kExchangeAllDigest);
}

TEST(GoldenTraceTest, AllCategoriesOptimizedCsmaWithFading) {
  ScenarioConfig config;
  config.method = Method::kOptimized;
  config.num_peers = 150;
  config.area_size_m = 1200.0;
  config.issue_location = {600.0, 600.0};
  config.initial_radius_m = 500.0;
  config.initial_duration_s = 60.0;
  config.sim_time_s = 90.0;
  config.issue_time_s = 10.0;
  config.medium.csma = true;
  config.medium.fading_exponent = 4.0;
  config.medium.bitrate_bps = 1.0e5;
  config.seed = 37;
  ASSERT_TRUE(config.Validate().ok());

  RunResult result;
  const std::string text = AllCategoryTrace(config, &result);
  EXPECT_GT(result.net.deliveries, 0u);
  EXPECT_GT(result.net.dropped_loss, 0u);  // Fading drops.
  EXPECT_GT(result.net.mac_defers, 0u);
  EXPECT_EQ(obs::HashHex(text), kCsmaAllDigest);
}

}  // namespace
}  // namespace madnet::scenario
