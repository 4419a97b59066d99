// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/config_io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

namespace madnet::scenario {
namespace {

class ConfigIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases of this binary as parallel
    // processes sharing TempDir().
    path_ = ::testing::TempDir() + "/madnet_config_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".cfg";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }

  std::string path_;
};

TEST_F(ConfigIoTest, LoadsKeysOverDefaults) {
  WriteFile(
      "# sparse Table II point\n"
      "method = gossip\n"
      "mobility = manhattan\n"
      "peers = 100\n"
      "radius = 900\n"
      "alpha = 0.3\n"
      "csma = true\n"
      "seed = 42\n");
  ScenarioConfig config;
  ASSERT_TRUE(LoadConfigFile(path_, &config).ok());
  EXPECT_EQ(config.method, Method::kGossip);
  EXPECT_EQ(config.mobility, Mobility::kManhattanGrid);
  EXPECT_EQ(config.num_peers, 100);
  EXPECT_DOUBLE_EQ(config.initial_radius_m, 900.0);
  EXPECT_DOUBLE_EQ(config.gossip.propagation.alpha, 0.3);
  EXPECT_DOUBLE_EQ(config.flooding.propagation.alpha, 0.3);  // Mirrored.
  EXPECT_TRUE(config.medium.csma);
  EXPECT_EQ(config.seed, 42u);
  // Unmentioned keys keep their Table-II defaults.
  EXPECT_DOUBLE_EQ(config.initial_duration_s, 800.0);
}

TEST_F(ConfigIoTest, AreaRecentersIssueLocation) {
  WriteFile("area = 3000\n");
  ScenarioConfig config;
  ASSERT_TRUE(LoadConfigFile(path_, &config).ok());
  EXPECT_DOUBLE_EQ(config.area_size_m, 3000.0);
  EXPECT_EQ(config.issue_location, (Vec2{1500.0, 1500.0}));
}

TEST_F(ConfigIoTest, RankingEnablesInterests) {
  WriteFile("ranking = true\n");
  ScenarioConfig config;
  ASSERT_TRUE(LoadConfigFile(path_, &config).ok());
  EXPECT_TRUE(config.gossip.ranking);
  EXPECT_TRUE(config.assign_interests);
  EXPECT_FALSE(config.interest_options.universe.empty());
}

TEST_F(ConfigIoTest, RejectsUnknownKeyWithLocation) {
  WriteFile("peers = 100\nbogus = 1\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(":2:"), std::string::npos);
  EXPECT_NE(status.message().find("bogus"), std::string::npos);
}

TEST_F(ConfigIoTest, RejectsMalformedLineAndValue) {
  WriteFile("peers 100\n");
  ScenarioConfig config;
  EXPECT_FALSE(LoadConfigFile(path_, &config).ok());
  WriteFile("peers = many\n");
  EXPECT_FALSE(LoadConfigFile(path_, &config).ok());
  WriteFile("method = teleport\n");
  EXPECT_FALSE(LoadConfigFile(path_, &config).ok());
}

TEST_F(ConfigIoTest, RejectsInvalidResultingConfig) {
  WriteFile("speed = 1\nspeed_delta = 5\n");  // Min speed would be negative.
  ScenarioConfig config;
  EXPECT_FALSE(LoadConfigFile(path_, &config).ok());
}

TEST_F(ConfigIoTest, MissingFileFails) {
  ScenarioConfig config;
  EXPECT_FALSE(LoadConfigFile("/no/such/file.cfg", &config).ok());
}

TEST_F(ConfigIoTest, SaveLoadRoundTrip) {
  ScenarioConfig original;
  original.method = Method::kOptimized2;
  original.mobility = Mobility::kHotspot;
  original.num_peers = 123;
  original.initial_radius_m = 750.0;
  original.gossip.propagation.alpha = 0.4;
  original.medium.csma = true;
  original.seed = 99;
  WriteFile(SaveConfigText(original));

  ScenarioConfig loaded;
  ASSERT_TRUE(LoadConfigFile(path_, &loaded).ok());
  EXPECT_EQ(loaded.method, original.method);
  EXPECT_EQ(loaded.mobility, original.mobility);
  EXPECT_EQ(loaded.num_peers, original.num_peers);
  EXPECT_DOUBLE_EQ(loaded.initial_radius_m, original.initial_radius_m);
  EXPECT_DOUBLE_EQ(loaded.gossip.propagation.alpha,
                   original.gossip.propagation.alpha);
  EXPECT_TRUE(loaded.medium.csma);
  EXPECT_EQ(loaded.seed, original.seed);
}

TEST_F(ConfigIoTest, FaultPlanKeysLoadOverDefaults) {
  WriteFile(
      "churn_rate = 0.25\n"
      "churn_up = 90\n"
      "churn_down = 45\n"
      "churn_crash = true\n"
      "churn_start = 30\n"
      "loss_extra = 0.2\n"
      "loss_episode = 15\n"
      "loss_period = 60\n"
      "loss_start = 10\n"
      "outage_x0 = 100\n"
      "outage_y0 = 200\n"
      "outage_x1 = 400\n"
      "outage_y1 = 600\n"
      "outage_start = 50\n"
      "outage_end = 120\n");
  ScenarioConfig config;
  ASSERT_TRUE(LoadConfigFile(path_, &config).ok());
  EXPECT_DOUBLE_EQ(config.fault.churn_rate, 0.25);
  EXPECT_DOUBLE_EQ(config.fault.churn_up_s, 90.0);
  EXPECT_DOUBLE_EQ(config.fault.churn_down_s, 45.0);
  EXPECT_TRUE(config.fault.churn_crash);
  EXPECT_DOUBLE_EQ(config.fault.churn_start_s, 30.0);
  EXPECT_DOUBLE_EQ(config.fault.loss_extra, 0.2);
  EXPECT_DOUBLE_EQ(config.fault.loss_episode_s, 15.0);
  EXPECT_DOUBLE_EQ(config.fault.loss_period_s, 60.0);
  EXPECT_DOUBLE_EQ(config.fault.loss_start_s, 10.0);
  EXPECT_EQ(config.fault.outage_rect.min, (Vec2{100.0, 200.0}));
  EXPECT_EQ(config.fault.outage_rect.max, (Vec2{400.0, 600.0}));
  EXPECT_DOUBLE_EQ(config.fault.outage_start_s, 50.0);
  EXPECT_DOUBLE_EQ(config.fault.outage_end_s, 120.0);
  EXPECT_TRUE(config.fault.Enabled());
}

TEST_F(ConfigIoTest, FaultPlanSaveLoadRoundTrip) {
  ScenarioConfig original;
  original.fault.churn_rate = 0.4;
  original.fault.churn_up_s = 75.0;
  original.fault.churn_down_s = 33.0;
  original.fault.churn_crash = true;
  original.fault.churn_start_s = 12.0;
  original.fault.loss_extra = 0.35;
  original.fault.loss_episode_s = 8.0;
  original.fault.loss_period_s = 40.0;
  original.fault.loss_start_s = 5.0;
  original.fault.outage_rect = Rect{{10.0, 20.0}, {310.0, 420.0}};
  original.fault.outage_start_s = 100.0;
  original.fault.outage_end_s = 160.0;
  ASSERT_TRUE(original.Validate().ok());
  WriteFile(SaveConfigText(original));

  ScenarioConfig loaded;
  ASSERT_TRUE(LoadConfigFile(path_, &loaded).ok());
  EXPECT_DOUBLE_EQ(loaded.fault.churn_rate, original.fault.churn_rate);
  EXPECT_DOUBLE_EQ(loaded.fault.churn_up_s, original.fault.churn_up_s);
  EXPECT_DOUBLE_EQ(loaded.fault.churn_down_s, original.fault.churn_down_s);
  EXPECT_EQ(loaded.fault.churn_crash, original.fault.churn_crash);
  EXPECT_DOUBLE_EQ(loaded.fault.churn_start_s, original.fault.churn_start_s);
  EXPECT_DOUBLE_EQ(loaded.fault.loss_extra, original.fault.loss_extra);
  EXPECT_DOUBLE_EQ(loaded.fault.loss_episode_s,
                   original.fault.loss_episode_s);
  EXPECT_DOUBLE_EQ(loaded.fault.loss_period_s, original.fault.loss_period_s);
  EXPECT_DOUBLE_EQ(loaded.fault.loss_start_s, original.fault.loss_start_s);
  EXPECT_EQ(loaded.fault.outage_rect.min, original.fault.outage_rect.min);
  EXPECT_EQ(loaded.fault.outage_rect.max, original.fault.outage_rect.max);
  EXPECT_DOUBLE_EQ(loaded.fault.outage_start_s,
                   original.fault.outage_start_s);
  EXPECT_DOUBLE_EQ(loaded.fault.outage_end_s, original.fault.outage_end_s);
  // A disabled default plan round-trips as disabled.
  ScenarioConfig quiet;
  WriteFile(SaveConfigText(quiet));
  ScenarioConfig quiet_loaded;
  ASSERT_TRUE(LoadConfigFile(path_, &quiet_loaded).ok());
  EXPECT_FALSE(quiet_loaded.fault.Enabled());
}

TEST_F(ConfigIoTest, EverySavedKeyRoundTripsIdentically) {
  // Serializer identity: writing, re-parsing and re-writing a config with
  // every serialized key moved off its default must reproduce the exact
  // same text. This pins the save order against the two order-sensitive
  // keys ('area' recenters issue_x/issue_y; 'speed'/'speed_delta'
  // auto-raise 'max_speed').
  ScenarioConfig original;
  original.method = Method::kOptimized1;
  original.mobility = Mobility::kHighway;
  original.num_peers = 77;
  original.area_size_m = 4000.0;
  original.issue_location = {300.0, 3900.0};  // Off-centre: not area/2.
  original.initial_radius_m = 800.0;
  original.initial_duration_s = 500.0;
  original.sim_time_s = 1500.0;
  original.issue_time_s = 45.0;
  original.mean_speed_mps = 20.0;
  original.speed_delta_mps = 8.0;
  original.medium.max_speed_mps = 90.0;  // Explicit slack above speed+delta.
  original.min_pause_s = 2.0;
  original.max_pause_s = 40.0;
  original.manhattan_block_m = 350.0;
  original.hotspot_probability = 0.7;
  original.hotspot_sigma_m = 120.0;
  original.hotspot_extra = 3;
  original.gossip.round_time_s = 4.0;
  original.flooding.round_time_s = 4.0;
  original.gossip.propagation.alpha = 0.35;
  original.gossip.propagation.beta = 0.65;
  original.flooding.propagation = original.gossip.propagation;
  original.gossip.dis_m = 150.0;
  original.gossip.cache_capacity = 25;
  original.medium.range_m = 300.0;
  original.medium.loss_probability = 0.05;
  original.medium.fading_exponent = 2.0;
  original.medium.enable_collisions = true;
  original.medium.csma = true;
  original.issuer_goes_offline = true;
  original.fault.churn_rate = 0.1;
  original.fault.churn_start_s = 20.0;
  original.seed = 7;
  ASSERT_TRUE(original.Validate().ok());

  const std::string first = SaveConfigText(original);
  WriteFile(first);
  ScenarioConfig loaded;
  ASSERT_TRUE(LoadConfigFile(path_, &loaded).ok());
  EXPECT_EQ(SaveConfigText(loaded), first);
  // Spot-check the order-sensitive fields survived verbatim.
  EXPECT_EQ(loaded.issue_location, original.issue_location);
  EXPECT_DOUBLE_EQ(loaded.medium.max_speed_mps, 90.0);
  EXPECT_EQ(loaded.mobility, Mobility::kHighway);
  EXPECT_EQ(loaded.hotspot_extra, 3);
}

TEST_F(ConfigIoTest, SpeedKeysAutoRaiseMaxSpeed) {
  WriteFile("speed = 40\nspeed_delta = 10\n");
  ScenarioConfig config;
  ASSERT_TRUE(LoadConfigFile(path_, &config).ok());
  // No explicit max_speed, yet the staleness slack covers the fastest peer.
  EXPECT_GE(config.medium.max_speed_mps, 50.0);
}

TEST_F(ConfigIoTest, TrailingGarbageNamesKeyAndToken) {
  WriteFile("range = 250m\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("key 'range'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("250m"), std::string::npos)
      << status.message();
}

TEST_F(ConfigIoTest, EmptyValueNamesKey) {
  WriteFile("peers =\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("key 'peers'"), std::string::npos)
      << status.message();
}

TEST_F(ConfigIoTest, OverflowNamesOffendingToken) {
  WriteFile("radius = 1e999\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("key 'radius'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("1e999"), std::string::npos)
      << status.message();
}

TEST_F(ConfigIoTest, NegativeCacheRejectedBeforeSizeTWrap) {
  // Regression: "cache = -5" used to wrap through the size_t cast into a
  // huge accepted capacity; now it is rejected at parse time.
  WriteFile("cache = -5\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("key 'cache'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("non-negative"), std::string::npos)
      << status.message();
}

TEST_F(ConfigIoTest, NonFiniteFaultPlanValuesRejected) {
  // Regression: strtod accepts "nan" and "inf", and the fault-plan
  // numbers used to skip the finiteness pass.
  for (const char* key :
       {"churn_rate", "churn_up", "churn_down", "churn_start", "loss_extra",
        "loss_episode", "loss_period", "loss_start", "outage_x0",
        "outage_y0", "outage_x1", "outage_y1", "outage_start",
        "outage_end"}) {
    for (const char* value : {"nan", "inf", "-inf"}) {
      SCOPED_TRACE(std::string(key) + " = " + value);
      WriteFile(std::string(key) + " = " + value + "\n");
      ScenarioConfig config;
      Status status = LoadConfigFile(path_, &config);
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.message(), path_ + ": key '" + key + "' = " + value +
                                      ": must be a finite number");
    }
  }
}

TEST_F(ConfigIoTest, CountsThatDoNotFitTheirFieldAreRejected) {
  // Regression: counts were read as int64 and narrowed, so 'peers =
  // 4294967297' loaded as 1 peer.
  for (const char* key : {"peers", "hotspot_extra", "tiles"}) {
    SCOPED_TRACE(key);
    WriteFile(std::string(key) + " = 4294967297\n");
    ScenarioConfig config;
    Status status = LoadConfigFile(path_, &config);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), path_ + ":1: key '" + key +
                                    "' = 4294967297: must be at most "
                                    "2147483647");
  }
  // The 64-bit counts still take every non-negative int64.
  ScenarioConfig config;
  ASSERT_TRUE(ApplyConfigKey("seed", "9223372036854775807", &config).ok());
  EXPECT_EQ(config.seed, 9223372036854775807u);
}

TEST_F(ConfigIoTest, ZeroPeersRejectedNamingBothKeys) {
  // Regression: peers = 0 used to run with an empty delivery audience.
  WriteFile("peers = 0\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("key 'peers'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("issuer_offline"), std::string::npos)
      << status.message();
}

TEST_F(ConfigIoTest, OffArenaIssuerRejected) {
  WriteFile("area = 5000\nissue_x = 9000\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("issue_x"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("key 'area'"), std::string::npos)
      << status.message();
}

TEST_F(ConfigIoTest, OffArenaJammerRejected) {
  // Regression: an outage rectangle outside the arena jams nothing and
  // used to be silently accepted.
  WriteFile(
      "area = 1000\n"
      "outage_x0 = 900\n"
      "outage_y0 = 900\n"
      "outage_x1 = 1400\n"
      "outage_y1 = 1400\n"
      "outage_start = 10\n"
      "outage_end = 50\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("outage"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("inside the arena"), std::string::npos)
      << status.message();
}

TEST_F(ConfigIoTest, FaultEpisodeAfterSimEndRejected) {
  WriteFile(
      "sim_time = 100\n"
      "churn_rate = 0.2\n"
      "churn_start = 500\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("churn_start"), std::string::npos)
      << status.message();
}

TEST_F(ConfigIoTest, HotspotSigmaPlacementBandChecked) {
  // Regression: 2*sigma >= area inverts the extra-centre placement rect.
  WriteFile(
      "mobility = hotspot\n"
      "area = 1000\n"
      "hotspot_extra = 2\n"
      "hotspot_sigma = 600\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("hotspot_sigma"), std::string::npos)
      << status.message();
}

TEST_F(ConfigIoTest, ExplicitMaxSpeedBelowFastestPeerRejected) {
  WriteFile("speed = 10\nspeed_delta = 5\nmax_speed = 12\n");
  ScenarioConfig config;
  Status status = LoadConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("max_speed"), std::string::npos)
      << status.message();
}

TEST_F(ConfigIoTest, TilesOtherThanOneRejectedNamingKey) {
  // The event loop has one shared queue; 'tiles' survives only as a key
  // pinned to 1.
  for (const char* line : {"tiles = 0\n", "tiles = 8\n"}) {
    SCOPED_TRACE(line);
    WriteFile(line);
    ScenarioConfig config;
    Status status = LoadConfigFile(path_, &config);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("key 'tiles'"), std::string::npos)
        << status.message();
  }
}

TEST_F(ConfigIoTest, SavedTilesLineStillLoads) {
  // SaveConfigText keeps writing 'tiles = 1' (every trace header hashes
  // that text), so its output must keep loading.
  ScenarioConfig original;
  const std::string text = SaveConfigText(original);
  EXPECT_NE(text.find("tiles = 1\n"), std::string::npos);
  WriteFile(text);
  ScenarioConfig loaded;
  ASSERT_TRUE(LoadConfigFile(path_, &loaded).ok());
  EXPECT_EQ(loaded.tiles, 1);
  EXPECT_EQ(SaveConfigText(loaded), text);
}

TEST_F(ConfigIoTest, HighwayMobilityParses) {
  WriteFile("mobility = highway\n");
  ScenarioConfig config;
  ASSERT_TRUE(LoadConfigFile(path_, &config).ok());
  EXPECT_EQ(config.mobility, Mobility::kHighway);
}

TEST_F(ConfigIoTest, ReadConfigEntriesReportsLineNumbers) {
  WriteFile("# comment\npeers = 10\n\nrange = 300\n");
  auto entries = ReadConfigEntries(path_);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].key, "peers");
  EXPECT_EQ((*entries)[0].line, 2);
  EXPECT_EQ((*entries)[1].key, "range");
  EXPECT_EQ((*entries)[1].line, 4);
}

TEST_F(ConfigIoTest, RejectsInvalidFaultPlan) {
  WriteFile("churn_rate = 1.5\n");  // Not a probability.
  ScenarioConfig config;
  EXPECT_FALSE(LoadConfigFile(path_, &config).ok());
  WriteFile("loss_extra = 0.3\n");  // Episode length missing.
  EXPECT_FALSE(LoadConfigFile(path_, &config).ok());
  WriteFile(
      "outage_x1 = 100\n"
      "outage_y1 = 100\n");  // Zero-length outage window.
  EXPECT_FALSE(LoadConfigFile(path_, &config).ok());
}

}  // namespace
}  // namespace madnet::scenario
