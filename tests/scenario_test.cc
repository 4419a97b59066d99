// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Integration tests of the full scenario harness: configuration validation,
// end-to-end determinism, and the qualitative orderings the paper reports.
// Scenarios here are scaled down (fewer peers, shorter D) to keep the test
// suite fast; the full Table-II runs live in bench/.

#include <gtest/gtest.h>

#include "exec/replication.h"
#include "scenario/scenario.h"

namespace madnet::scenario {
namespace {

using exec::Aggregate;
using exec::RunReplicated;

/// A small, fast configuration used across the integration tests.
ScenarioConfig FastConfig(Method method, int peers = 150, uint64_t seed = 1) {
  ScenarioConfig config;
  config.method = method;
  config.num_peers = peers;
  config.area_size_m = 2000.0;
  config.issue_location = {1000.0, 1000.0};
  config.initial_radius_m = 600.0;
  config.initial_duration_s = 300.0;
  config.sim_time_s = 450.0;
  config.issue_time_s = 30.0;
  config.seed = seed;
  return config;
}

TEST(ConfigTest, DefaultsAreValid) {
  EXPECT_TRUE(ScenarioConfig().Validate().ok());
  EXPECT_TRUE(ScenarioConfig::PaperDefaults().Validate().ok());
}

TEST(ConfigTest, RejectsBadValues) {
  auto expect_invalid = [](auto mutate) {
    ScenarioConfig config;
    mutate(&config);
    EXPECT_FALSE(config.Validate().ok());
  };
  expect_invalid([](ScenarioConfig* c) { c->area_size_m = 0.0; });
  expect_invalid([](ScenarioConfig* c) { c->num_peers = -1; });
  expect_invalid([](ScenarioConfig* c) { c->sim_time_s = 0.0; });
  expect_invalid([](ScenarioConfig* c) { c->issue_time_s = 1e9; });
  expect_invalid([](ScenarioConfig* c) { c->initial_radius_m = -1.0; });
  expect_invalid([](ScenarioConfig* c) { c->issue_location = {-5.0, 0.0}; });
  expect_invalid([](ScenarioConfig* c) { c->speed_delta_mps = 20.0; });
  expect_invalid([](ScenarioConfig* c) { c->max_pause_s = -1.0; });
  expect_invalid([](ScenarioConfig* c) { c->gossip.propagation.alpha = 1.5; });
  expect_invalid([](ScenarioConfig* c) { c->gossip.round_time_s = 0.0; });
  expect_invalid([](ScenarioConfig* c) { c->gossip.cache_capacity = 0; });
  expect_invalid([](ScenarioConfig* c) { c->gossip.dis_m = -1.0; });
  expect_invalid([](ScenarioConfig* c) { c->medium.range_m = 0.0; });
  expect_invalid([](ScenarioConfig* c) { c->medium.max_speed_mps = 1.0; });
}

TEST(MethodTest, NamesMatchPaperLegends) {
  EXPECT_STREQ(MethodName(Method::kFlooding), "Flooding");
  EXPECT_STREQ(MethodName(Method::kGossip), "Gossiping");
  EXPECT_STREQ(MethodName(Method::kOptimized1), "Optimized Gossiping-1");
  EXPECT_STREQ(MethodName(Method::kOptimized2), "Optimized Gossiping-2");
  EXPECT_STREQ(MethodName(Method::kOptimized), "Optimized Gossiping");
}

TEST(ScenarioTest, DeterministicAcrossRuns) {
  for (Method method : {Method::kFlooding, Method::kGossip,
                        Method::kOptimized}) {
    RunResult a = RunScenario(FastConfig(method));
    RunResult b = RunScenario(FastConfig(method));
    EXPECT_EQ(a.Messages(), b.Messages()) << MethodName(method);
    EXPECT_EQ(a.report.peers_passed, b.report.peers_passed);
    EXPECT_EQ(a.report.peers_delivered, b.report.peers_delivered);
    EXPECT_DOUBLE_EQ(a.MeanDeliveryTime(), b.MeanDeliveryTime());
    EXPECT_EQ(a.events_executed, b.events_executed);
  }
}

TEST(ScenarioTest, DifferentSeedsDiffer) {
  RunResult a = RunScenario(FastConfig(Method::kGossip, 150, 1));
  RunResult b = RunScenario(FastConfig(Method::kGossip, 150, 2));
  EXPECT_NE(a.Messages(), b.Messages());
}

TEST(ScenarioTest, GossipDeliversWithIssuerOffline) {
  ScenarioConfig config = FastConfig(Method::kGossip);
  config.issuer_goes_offline = true;
  RunResult result = RunScenario(config);
  EXPECT_GT(result.report.peers_passed, 50u);
  EXPECT_GT(result.DeliveryRatePercent(), 80.0);
}

TEST(ScenarioTest, MessageOrderingOptimizedBelowGossip) {
  const RunResult gossip = RunScenario(FastConfig(Method::kGossip));
  const RunResult opt1 = RunScenario(FastConfig(Method::kOptimized1));
  const RunResult opt2 = RunScenario(FastConfig(Method::kOptimized2));
  const RunResult opt = RunScenario(FastConfig(Method::kOptimized));
  EXPECT_LT(opt1.Messages(), gossip.Messages());
  EXPECT_LT(opt2.Messages(), gossip.Messages());
  EXPECT_LT(opt.Messages(), opt1.Messages());
  EXPECT_LT(opt.Messages(), gossip.Messages() / 2);
}

TEST(ScenarioTest, AllMethodsDeliverInDenseNetwork) {
  for (Method method : {Method::kFlooding, Method::kGossip,
                        Method::kOptimized1, Method::kOptimized2,
                        Method::kOptimized}) {
    RunResult result = RunScenario(FastConfig(method, 250));
    EXPECT_GT(result.DeliveryRatePercent(), 90.0) << MethodName(method);
    EXPECT_GT(result.report.peers_passed, 100u) << MethodName(method);
  }
}

TEST(ScenarioTest, ZeroPeersRunsCleanly) {
  ScenarioConfig config = FastConfig(Method::kGossip, 0);
  RunResult result = RunScenario(config);
  EXPECT_EQ(result.report.peers_passed, 0u);
  EXPECT_DOUBLE_EQ(result.DeliveryRatePercent(), 0.0);
  // The issuer stays online (default) and keeps gossiping its own cached
  // ad once per round until expiry: roughly D / round_time frames.
  EXPECT_GT(result.Messages(), 10u);
  EXPECT_LT(result.Messages(), 100u);
}

TEST(ScenarioTest, FloodingKeepsIssuerTransmitting) {
  // With flooding the issuer stays online the whole period: its frames keep
  // flowing each round (compare against a gossip run where the issuer goes
  // offline after 1 s and contributes a single frame).
  ScenarioConfig config = FastConfig(Method::kFlooding, 0);
  RunResult result = RunScenario(config);
  // One frame per 5 s round over the 300 s life: ~60 frames.
  EXPECT_GT(result.Messages(), 50u);
}

TEST(ScenarioTest, FloodingReportIgnoresDuplicateReceipts) {
  // Flooding logs only a peer's first receipt of an ad. The log keeps the
  // earliest receipt per peer and the report counts mobile peers only, so
  // dropping the duplicates (and the issuer's receipts of relayed copies
  // of its own ad) must leave every number as it was when each duplicate
  // was logged too. The values below were recorded that way.
  ScenarioConfig config;
  config.method = Method::kFlooding;
  config.num_peers = 200;
  config.medium.loss_probability = 0.05;
  config.seed = 19;
  ASSERT_TRUE(config.Validate().ok());
  const RunResult result = RunScenario(config);
  EXPECT_EQ(result.report.peers_passed, 163u);
  EXPECT_EQ(result.report.peers_delivered, 157u);
  EXPECT_EQ(result.report.delivery_times.Count(), 157u);
  EXPECT_EQ(result.report.delivery_times.Sum(), 0x1.0ed0ac985cb8cp+13);
  EXPECT_EQ(result.report.delivery_times.Max(), 0x1.8650e501eff16p+9);
  EXPECT_EQ(result.net.messages_sent, 3176u);
  EXPECT_EQ(result.net.deliveries, 11602u);
  EXPECT_EQ(result.net.dropped_loss, 613u);
  EXPECT_EQ(result.events_executed, 15393u);
}

TEST(ScenarioTest, RankingPathProducesRank) {
  ScenarioConfig config = FastConfig(Method::kGossip, 200);
  // Stop before the ad expires so cache entries (and their enlarged R/D)
  // are still inspectable at the end of the run.
  config.sim_time_s = 250.0;
  config.gossip.ranking = true;
  config.assign_interests = true;
  config.interest_options.universe =
      core::InterestGenerator::DefaultUniverse();
  // Ad category "petrol" is the most popular keyword in the universe.
  RunResult result = RunScenario(config);
  EXPECT_GT(result.final_rank, 1.0);
  EXPECT_GT(result.final_radius_m, config.initial_radius_m);
  EXPECT_GT(result.final_duration_s, config.initial_duration_s);
}

TEST(ScenarioTest, AccessorsExposeParts) {
  ScenarioConfig config = FastConfig(Method::kGossip, 5);
  Scenario scenario(config);
  EXPECT_EQ(scenario.issuer_id(), 0u);
  EXPECT_EQ(scenario.num_peers(), 5);
  EXPECT_NE(scenario.simulator(), nullptr);
  EXPECT_NE(scenario.medium(), nullptr);
  EXPECT_NE(scenario.delivery_log(), nullptr);
  for (net::NodeId id = 0; id <= 5; ++id) {
    EXPECT_NE(scenario.protocol(id), nullptr);
    EXPECT_NE(scenario.mobility(id), nullptr);
  }
  EXPECT_EQ(scenario.medium()->node_ids().size(), 6u);
}

TEST(ScenarioTest, AlternativeMobilityModelsRun) {
  for (Mobility mobility : {Mobility::kManhattanGrid, Mobility::kHotspot}) {
    ScenarioConfig config = FastConfig(Method::kOptimized, 200);
    config.mobility = mobility;
    config.manhattan_block_m = 400.0;
    RunResult result = RunScenario(config);
    EXPECT_GT(result.DeliveryRatePercent(), 80.0) << MobilityName(mobility);
    EXPECT_GT(result.report.peers_passed, 30u) << MobilityName(mobility);
  }
}

TEST(ScenarioTest, HotspotPullConcentratesTransit) {
  // With the issue location as a strong hotspot, more peers pass through
  // the advertising area than under uniform Random Waypoint.
  ScenarioConfig uniform = FastConfig(Method::kGossip, 150);
  ScenarioConfig hotspot = uniform;
  hotspot.mobility = Mobility::kHotspot;
  hotspot.hotspot_probability = 0.8;
  const RunResult a = RunScenario(uniform);
  const RunResult b = RunScenario(hotspot);
  EXPECT_GT(b.report.peers_passed, a.report.peers_passed);
}

TEST(ScenarioTest, MobilityConfigValidation) {
  ScenarioConfig config = FastConfig(Method::kGossip);
  config.mobility = Mobility::kManhattanGrid;
  config.manhattan_block_m = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig(Method::kGossip);
  config.mobility = Mobility::kHotspot;
  config.hotspot_probability = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.hotspot_probability = 0.5;
  config.hotspot_extra = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ScenarioTest, ResourceExchangeMethodRuns) {
  ScenarioConfig config = FastConfig(Method::kResourceExchange, 150);
  RunResult result = RunScenario(config);
  EXPECT_GT(result.DeliveryRatePercent(), 80.0);
  // Beacons dominate: far more frames than gossip would send.
  const RunResult gossip = RunScenario(FastConfig(Method::kGossip, 150));
  EXPECT_GT(result.Messages(), gossip.Messages());
  EXPECT_STREQ(MethodName(Method::kResourceExchange), "Resource Exchange");
}

TEST(ScenarioTest, RecordTracesCoversAllNodesAndHorizon) {
  ScenarioConfig config = FastConfig(Method::kGossip, 10);
  Scenario scenario(config);
  mobility::TraceSet traces = scenario.RecordTraces(100.0);
  ASSERT_EQ(traces.size(), 11u);  // Issuer + 10 peers.
  for (const auto& [id, trace] : traces) {
    EXPECT_GE(trace.Horizon(), 100.0) << "node " << id;
  }
  // The recorded trace replays the same positions the scenario uses.
  mobility::TraceReplay replay(traces[3].second);
  for (double t = 0.0; t <= 100.0; t += 13.0) {
    EXPECT_EQ(replay.PositionAt(t), scenario.mobility(3)->PositionAt(t));
  }
}

TEST(ScenarioTest, IssuedAdKeyExposedToSamplers) {
  ScenarioConfig config = FastConfig(Method::kGossip, 20);
  Scenario scenario(config);
  EXPECT_EQ(scenario.issued_ad_key(), 0u);
  uint64_t seen_at_sampler = 0;
  scenario.simulator()->ScheduleAt(config.issue_time_s + 1.0, [&]() {
    seen_at_sampler = scenario.issued_ad_key();
  });
  RunResult result = scenario.Run();
  EXPECT_NE(seen_at_sampler, 0u);
  EXPECT_EQ(seen_at_sampler, result.ad_key);
  EXPECT_EQ(scenario.issued_ad_key(), result.ad_key);
}

TEST(ExperimentTest, RunReplicatedAggregates) {
  Aggregate aggregate = RunReplicated(FastConfig(Method::kOptimized, 80), 3);
  EXPECT_EQ(aggregate.delivery_rate_percent.Count(), 3u);
  EXPECT_EQ(aggregate.messages.Count(), 3u);
  EXPECT_GT(aggregate.DeliveryRate(), 0.0);
  EXPECT_GT(aggregate.Messages(), 0.0);
  // Distinct seeds: message counts should not all coincide.
  EXPECT_GT(aggregate.messages.Max(), aggregate.messages.Min());
}

TEST(ExperimentTest, CsmaModeDeterministicAndDelivers) {
  ScenarioConfig config = FastConfig(Method::kOptimized, 200);
  config.medium.csma = true;
  const RunResult a = RunScenario(config);
  const RunResult b = RunScenario(config);
  EXPECT_EQ(a.Messages(), b.Messages());
  EXPECT_EQ(a.report.peers_delivered, b.report.peers_delivered);
  EXPECT_GT(a.DeliveryRatePercent(), 85.0);
}

TEST(ExperimentTest, CollisionAblationStillDelivers) {
  ScenarioConfig config = FastConfig(Method::kOptimized, 200);
  config.medium.enable_collisions = true;
  RunResult result = RunScenario(config);
  EXPECT_GT(result.DeliveryRatePercent(), 80.0);
}

TEST(ExperimentTest, LossAblationDegradesGracefully) {
  ScenarioConfig clean = FastConfig(Method::kOptimized, 200);
  ScenarioConfig lossy = clean;
  lossy.medium.loss_probability = 0.3;
  const RunResult a = RunScenario(clean);
  const RunResult b = RunScenario(lossy);
  EXPECT_GT(b.DeliveryRatePercent(), 60.0);
  EXPECT_LE(b.report.peers_delivered, a.report.peers_delivered + 5);
}

}  // namespace
}  // namespace madnet::scenario
