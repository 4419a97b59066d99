// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/multi_ad.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/manifest.h"

#ifndef MADNET_SCENARIO_DIR
#error "build must define MADNET_SCENARIO_DIR (see tests/CMakeLists.txt)"
#endif

namespace madnet::scenario {
namespace {

MultiAdConfig FastConfig(Method method = Method::kOptimized) {
  MultiAdConfig config;
  config.base.method = method;
  config.base.num_peers = 150;
  config.base.area_size_m = 3000.0;
  config.base.sim_time_s = 600.0;
  config.base.seed = 4;
  config.num_ads = 5;
  config.first_issue_s = 30.0;
  config.issue_spacing_s = 25.0;
  config.ad_radius_m = 600.0;
  config.ad_duration_s = 250.0;
  config.border_margin_m = 600.0;
  return config;
}

TEST(MultiAdConfigTest, Validation) {
  EXPECT_TRUE(FastConfig().Validate().ok());
  MultiAdConfig config = FastConfig();
  config.num_ads = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig();
  config.ad_radius_m = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig();
  config.first_issue_s = 1e9;  // After sim end.
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig();
  config.border_margin_m = 2000.0;  // 2x margin exceeds the area.
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig();
  config.base.num_peers = -1;  // Base validation propagates.
  EXPECT_FALSE(config.Validate().ok());
}

TEST(MultiAdTest, RunsAndScoresEveryAd) {
  MultiAdResult result = RunMultiAdScenario(FastConfig());
  ASSERT_EQ(result.ads.size(), 5u);
  std::set<uint64_t> keys;
  for (const auto& ad : result.ads) {
    EXPECT_NE(ad.key, 0u);
    keys.insert(ad.key);
    EXPECT_GT(ad.report.peers_passed, 0u);
  }
  EXPECT_EQ(keys.size(), 5u);  // Distinct ads.
  EXPECT_GT(result.MeanDeliveryRatePercent(), 70.0);
  EXPECT_GT(result.net.messages_sent, 0u);
}

TEST(MultiAdTest, IssueTimesAreStaggered) {
  MultiAdResult result = RunMultiAdScenario(FastConfig());
  for (size_t i = 0; i < result.ads.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.ads[i].issue_time, 30.0 + 25.0 * i);
  }
}

TEST(MultiAdTest, DeterministicInSeed) {
  MultiAdResult a = RunMultiAdScenario(FastConfig());
  MultiAdResult b = RunMultiAdScenario(FastConfig());
  EXPECT_EQ(a.net.messages_sent, b.net.messages_sent);
  for (size_t i = 0; i < a.ads.size(); ++i) {
    EXPECT_EQ(a.ads[i].report.peers_delivered,
              b.ads[i].report.peers_delivered);
  }
}

TEST(MultiAdTest, TinyCacheStillDelivers) {
  MultiAdConfig config = FastConfig();
  config.base.gossip.cache_capacity = 1;  // Five live ads, one slot.
  MultiAdResult result = RunMultiAdScenario(config);
  // Degrades but does not collapse: probability-ordered eviction keeps
  // each peer serving its locally most relevant ad.
  EXPECT_GT(result.MeanDeliveryRatePercent(), 40.0);
}

TEST(MultiAdTest, WorksAcrossMethods) {
  for (Method method : {Method::kFlooding, Method::kGossip,
                        Method::kResourceExchange}) {
    MultiAdResult result = RunMultiAdScenario(FastConfig(method));
    EXPECT_GT(result.MeanDeliveryRatePercent(), 50.0)
        << MethodName(method);
  }
}

TEST(MultiAdTest, MoreAdsMoreMessages) {
  MultiAdConfig small = FastConfig();
  small.num_ads = 2;
  MultiAdConfig large = FastConfig();
  large.num_ads = 8;
  large.issue_spacing_s = 10.0;
  const MultiAdResult a = RunMultiAdScenario(small);
  const MultiAdResult b = RunMultiAdScenario(large);
  EXPECT_GT(b.net.messages_sent, a.net.messages_sent);
}

TEST(MultiAdTest, ZipfStallsReuseFixedLocations) {
  MultiAdConfig config = FastConfig();
  config.num_ads = 12;
  config.issue_spacing_s = 10.0;
  config.num_stalls = 3;
  config.zipf_s = 1.2;
  ASSERT_TRUE(config.Validate().ok());
  MultiAdResult result = RunMultiAdScenario(config);
  std::map<std::pair<double, double>, int> by_location;
  for (const auto& ad : result.ads) {
    ++by_location[{ad.location.x, ad.location.y}];
  }
  // Twelve ads, at most three distinct issue locations.
  EXPECT_LE(by_location.size(), 3u);
  EXPECT_GE(by_location.size(), 1u);
}

TEST(MultiAdTest, HighZipfSkewConcentratesDemand) {
  MultiAdConfig config = FastConfig();
  config.num_ads = 20;
  config.issue_spacing_s = 5.0;
  config.num_stalls = 5;
  config.zipf_s = 4.0;  // Near-degenerate skew: rank-0 stall dominates.
  MultiAdResult result = RunMultiAdScenario(config);
  std::map<std::pair<double, double>, int> by_location;
  for (const auto& ad : result.ads) {
    ++by_location[{ad.location.x, ad.location.y}];
  }
  int busiest = 0;
  for (const auto& [loc, count] : by_location) busiest = std::max(busiest, count);
  // With s = 4 the top stall holds > 90% of the Zipf mass, so the modal
  // stall must carry a clear majority of the 20 ads.
  EXPECT_GE(busiest, 12);
}

TEST(MultiAdTest, StallAssignmentDeterministicInSeed) {
  MultiAdConfig config = FastConfig();
  config.num_stalls = 4;
  MultiAdResult a = RunMultiAdScenario(config);
  MultiAdResult b = RunMultiAdScenario(config);
  for (size_t i = 0; i < a.ads.size(); ++i) {
    EXPECT_EQ(a.ads[i].location, b.ads[i].location);
  }
}

TEST(MultiAdConfigTest, AcceptsFaultPlans) {
  MultiAdConfig config = FastConfig();
  config.base.fault.churn_rate = 0.2;
  config.base.fault.loss_extra = 0.3;
  config.base.fault.loss_episode_s = 30.0;
  config.base.fault.loss_period_s = 100.0;
  ASSERT_TRUE(config.Validate().ok());
  Scenario scenario(config);
  const RunResult result = scenario.Run();
  EXPECT_GT(result.fault.node_downs, 0u);
  EXPECT_GT(result.fault.loss_episodes, 0u);
  // The plan churns peers only: every issuer is still online at the end.
  for (int i = 0; i < scenario.num_issuers(); ++i) {
    EXPECT_TRUE(scenario.medium()->IsOnline(static_cast<net::NodeId>(i)))
        << "issuer " << i;
  }
}

TEST(MultiAdTest, IssuerOfflineAppliesToEveryIssuer) {
  MultiAdConfig config = FastConfig(Method::kGossip);
  config.base.issuer_goes_offline = true;
  Scenario scenario(config);
  // Issuer i goes offline one second after its own issue: sample just
  // before and just after that instant.
  std::vector<int> online_before(config.num_ads, -1);
  std::vector<int> online_after(config.num_ads, -1);
  for (int i = 0; i < config.num_ads; ++i) {
    const double offline_at =
        config.first_issue_s + config.issue_spacing_s * i + 1.0;
    const net::NodeId issuer = static_cast<net::NodeId>(i);
    scenario.simulator()->ScheduleAt(offline_at - 0.5, [&, i, issuer]() {
      online_before[i] = scenario.medium()->IsOnline(issuer);
    });
    scenario.simulator()->ScheduleAt(offline_at + 0.5, [&, i, issuer]() {
      online_after[i] = scenario.medium()->IsOnline(issuer);
    });
  }
  scenario.Run();
  for (int i = 0; i < config.num_ads; ++i) {
    EXPECT_EQ(online_before[i], 1) << "issuer " << i;
    EXPECT_EQ(online_after[i], 0) << "issuer " << i;
  }
  for (const IssuedAd& ad : scenario.ads()) EXPECT_NE(ad.key, 0u);
}

TEST(MultiAdConfigTest, RejectsNegativeStallsAndZipf) {
  MultiAdConfig config = FastConfig();
  config.num_stalls = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig();
  config.zipf_s = -0.5;
  EXPECT_FALSE(config.Validate().ok());
}

// --- Golden fingerprints -----------------------------------------------------
//
// Exact values of whole multi-ad runs: the message and delivery counters,
// every ad's key, issue location and delivered-peer count, and the mean
// delivery rate. Any change to the multi-ad random streams, the issue
// placement, or the order in which nodes and events are set up moves them.
// Update them only for a deliberate re-baseline of those streams, and say
// so where it is made. One line per run: "msgs <messages_sent> rx
// <deliveries> rate <mean delivery rate %>", then one per ad: "ad <key in
// hex> (<x>, <y>) <delivered peers>". Doubles print with %.17g, so
// equality is exact.

std::string FingerprintText(const MultiAdResult& result) {
  std::string text;
  char line[160];
  std::snprintf(line, sizeof(line), "msgs %llu rx %llu rate %.17g\n",
                static_cast<unsigned long long>(result.net.messages_sent),
                static_cast<unsigned long long>(result.net.deliveries),
                result.MeanDeliveryRatePercent());
  text += line;
  for (const MultiAdResult::PerAd& ad : result.ads) {
    std::snprintf(line, sizeof(line), "ad %llx (%.17g, %.17g) %llu\n",
                  static_cast<unsigned long long>(ad.key), ad.location.x,
                  ad.location.y,
                  static_cast<unsigned long long>(ad.report.peers_delivered));
    text += line;
  }
  return text;
}

TEST(MultiAdGoldenTest, MarketplaceZipfCorpusFile) {
  MultiAdConfig config;
  bool is_multi_ad = false;
  const Status loaded = LoadScenarioFileAuto(
      std::string(MADNET_SCENARIO_DIR) + "/marketplace_zipf.cfg", &config,
      &is_multi_ad);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  ASSERT_TRUE(is_multi_ad);
  ASSERT_EQ(config.base.seed, 21u);
  EXPECT_EQ(FingerprintText(RunMultiAdScenario(config)),
            "msgs 3809 rx 26328 rate 96.824193927852448\n"
            "ad 1 (2023.8311256974832, 1207.2450577532579) 58\n"
            "ad 100000001 (1338.9911779852468, 880.93722785528234) 55\n"
            "ad 200000001 (1338.9911779852468, 880.93722785528234) 56\n"
            "ad 300000001 (1338.9911779852468, 880.93722785528234) 59\n"
            "ad 400000001 (1091.0368573983385, 621.47738727409205) 36\n"
            "ad 500000001 (2023.8311256974832, 1207.2450577532579) 67\n"
            "ad 600000001 (1874.7743820916583, 1664.2791202318324) 65\n"
            "ad 700000001 (2023.8311256974832, 1207.2450577532579) 69\n"
            "ad 800000001 (1091.0368573983385, 621.47738727409205) 33\n"
            "ad 900000001 (1091.0368573983385, 621.47738727409205) 33\n"
            "ad a00000001 (2023.8311256974832, 1207.2450577532579) 70\n"
            "ad b00000001 (2023.8311256974832, 1207.2450577532579) 72\n");
}

TEST(MultiAdGoldenTest, OneLocationPerAdAcrossMethods) {
  struct Golden {
    Method method;
    const char* expected;
  };
  const Golden goldens[] = {
      {Method::kFlooding,
       "msgs 4802 rx 32369 rate 98.428633784373645\n"
       "ad 1 (1910.5940197146501, 1244.2662248477814) 84\n"
       "ad 100000001 (1369.2784097894805, 1554.5233204051019) 99\n"
       "ad 200000001 (1232.7039541329086, 875.80221827588093) 78\n"},
      {Method::kGossip,
       "msgs 4259 rx 28147 rate 97.66235025946942\n"
       "ad 1 (1910.5940197146501, 1244.2662248477814) 82\n"
       "ad 100000001 (1369.2784097894805, 1554.5233204051019) 99\n"
       "ad 200000001 (1232.7039541329086, 875.80221827588093) 78\n"},
      {Method::kOptimized,
       "msgs 947 rx 5207 rate 96.988949586068728\n"
       "ad 1 (1910.5940197146501, 1244.2662248477814) 82\n"
       "ad 100000001 (1369.2784097894805, 1554.5233204051019) 97\n"
       "ad 200000001 (1232.7039541329086, 875.80221827588093) 78\n"},
      {Method::kResourceExchange,
       "msgs 51208 rx 242160 rate 99.233716475095775\n"
       "ad 1 (1910.5940197146501, 1244.2662248477814) 85\n"
       "ad 100000001 (1369.2784097894805, 1554.5233204051019) 99\n"
       "ad 200000001 (1232.7039541329086, 875.80221827588093) 79\n"},
  };
  for (const Golden& golden : goldens) {
    MultiAdConfig config = FastConfig(golden.method);
    config.num_ads = 3;
    EXPECT_EQ(FingerprintText(RunMultiAdScenario(config)), golden.expected)
        << MethodName(golden.method);
  }
}

TEST(MultiAdGoldenTest, SavedConfigTextBytes) {
  // SaveMultiAdConfigText is what a traced multi-ad run's header hashes,
  // so its bytes are pinned here: the default config, and a corpus file
  // that moves base, fault-plan and multi-ad keys off their defaults.
  EXPECT_EQ(obs::HashHex(SaveMultiAdConfigText(MultiAdConfig{})),
            "4a85a07313023159");
  MultiAdConfig config;
  bool is_multi_ad = false;
  const Status loaded = LoadScenarioFileAuto(
      std::string(MADNET_SCENARIO_DIR) + "/marketplace_zipf_faulted.cfg",
      &config, &is_multi_ad);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(obs::HashHex(SaveMultiAdConfigText(config)), "a58da1cdeab0761c");
}

class MultiAdIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases of this binary as parallel
    // processes sharing TempDir().
    path_ = ::testing::TempDir() + "/madnet_multi_ad_test_" +
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

TEST_F(MultiAdIoTest, LoadsMultiAdKeysOverDefaults) {
  WriteFile(
      "method = optimized\n"
      "peers = 150\n"
      "area = 3000\n"
      "sim_time = 600\n"
      "ads = 6\n"
      "first_issue = 40\n"
      "issue_spacing = 20\n"
      "ad_radius = 500\n"
      "ad_duration = 200\n"
      "border_margin = 500\n"
      "stalls = 3\n"
      "zipf = 1.5\n");
  MultiAdConfig config;
  ASSERT_TRUE(LoadMultiAdConfigFile(path_, &config).ok());
  EXPECT_EQ(config.num_ads, 6);
  EXPECT_DOUBLE_EQ(config.first_issue_s, 40.0);
  EXPECT_DOUBLE_EQ(config.issue_spacing_s, 20.0);
  EXPECT_DOUBLE_EQ(config.ad_radius_m, 500.0);
  EXPECT_DOUBLE_EQ(config.ad_duration_s, 200.0);
  EXPECT_DOUBLE_EQ(config.border_margin_m, 500.0);
  EXPECT_EQ(config.num_stalls, 3);
  EXPECT_DOUBLE_EQ(config.zipf_s, 1.5);
  EXPECT_EQ(config.base.num_peers, 150);  // Base keys route to base.
}

TEST_F(MultiAdIoTest, SaveLoadRoundTripsIdentically) {
  MultiAdConfig original = FastConfig();
  original.num_stalls = 4;
  original.zipf_s = 2.0;
  ASSERT_TRUE(original.Validate().ok());
  const std::string first = SaveMultiAdConfigText(original);
  WriteFile(first);
  MultiAdConfig loaded;
  ASSERT_TRUE(LoadMultiAdConfigFile(path_, &loaded).ok());
  EXPECT_EQ(SaveMultiAdConfigText(loaded), first);
  EXPECT_EQ(loaded.num_ads, original.num_ads);
  EXPECT_EQ(loaded.num_stalls, 4);
  EXPECT_DOUBLE_EQ(loaded.zipf_s, 2.0);
}

TEST_F(MultiAdIoTest, AutoLoaderSniffsKind) {
  WriteFile("peers = 100\n");
  MultiAdConfig loaded;
  bool is_multi_ad = true;
  ASSERT_TRUE(LoadScenarioFileAuto(path_, &loaded, &is_multi_ad).ok());
  EXPECT_FALSE(is_multi_ad);
  EXPECT_EQ(loaded.base.num_peers, 100);

  WriteFile("peers = 150\narea = 3000\nsim_time = 600\nads = 3\n");
  ASSERT_TRUE(LoadScenarioFileAuto(path_, &loaded, &is_multi_ad).ok());
  EXPECT_TRUE(is_multi_ad);
  EXPECT_EQ(loaded.num_ads, 3);
}

TEST_F(MultiAdIoTest, BadMultiAdValueNamesKeyAndLine) {
  WriteFile("ads = 3\nad_radius = wide\n");
  MultiAdConfig config;
  Status status = LoadMultiAdConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(":2:"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("ad_radius"), std::string::npos)
      << status.message();
}

TEST_F(MultiAdIoTest, NonFiniteMultiAdValuesRejected) {
  // Regression: strtod accepts "nan" and "inf", and the multi-ad numbers
  // used to reach the run unchecked (a NaN first_issue schedules an
  // issue at time NaN).
  for (const char* key : {"first_issue", "issue_spacing", "ad_radius",
                          "ad_duration", "border_margin", "zipf"}) {
    for (const char* value : {"nan", "inf"}) {
      SCOPED_TRACE(std::string(key) + " = " + value);
      WriteFile("ads = 3\n" + std::string(key) + " = " + value + "\n");
      MultiAdConfig config;
      const Status status = LoadMultiAdConfigFile(path_, &config);
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.message(), path_ + ": key '" + key + "' = " + value +
                                      ": must be a finite number");
    }
  }
}

TEST_F(MultiAdIoTest, AdCountThatDoesNotFitIsRejected) {
  // Regression: 'ads = 4294967298' used to narrow to 2 ads.
  WriteFile("ads = 4294967298\n");
  MultiAdConfig config;
  const Status status = LoadMultiAdConfigFile(path_, &config);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(),
            path_ + ":1: key 'ads' = 4294967298: must be at most 2147483647");
}

TEST_F(MultiAdIoTest, MultiAdFileWithFaultPlanLoads) {
  WriteFile("ads = 3\nchurn_rate = 0.2\n");
  MultiAdConfig config;
  const Status status = LoadMultiAdConfigFile(path_, &config);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(config.num_ads, 3);
  EXPECT_DOUBLE_EQ(config.base.fault.churn_rate, 0.2);
}

}  // namespace
}  // namespace madnet::scenario
