// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Observability contract of the scenario/experiment stack:
//   1. a fixed config + seed produces a byte-identical trace file at
//      jobs=1 and jobs=4 (the ISSUE's acceptance criterion);
//   2. running with a disabled trace (or none) changes no result — the
//      simulation is bit-for-bit what it was before obs existed;
//   3. the per-run context captures the metrics and phase timings the
//      manifest reports.

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/manifest.h"
#include "obs/run_context.h"
#include "obs/session.h"
#include "obs/trace_query.h"
#include "obs/trace_reader.h"
#include "exec/parallel_for.h"
#include "exec/replication.h"
#include "scenario/multi_ad.h"
#include "scenario/scenario.h"

namespace madnet::scenario {
namespace {

using exec::RunReplicated;

ScenarioConfig SmallConfig() {
  ScenarioConfig config;
  config.method = Method::kOptimized;
  config.num_peers = 40;
  config.area_size_m = 1500.0;
  config.issue_location = {750.0, 750.0};
  config.initial_radius_m = 500.0;
  config.initial_duration_s = 150.0;
  config.sim_time_s = 200.0;
  config.issue_time_s = 20.0;
  config.seed = 11;
  return config;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs a replicated sweep under a fresh Session and returns the flushed
/// trace file's bytes.
std::string SweepTraceBytes(const ScenarioConfig& config, int replications,
                            int jobs, const std::string& path) {
  obs::SessionOptions options;
  options.trace.categories = obs::kTraceAll;
  options.trace_path = path;
  obs::Session::Configure(options);
  RunReplicated(config, replications, jobs);
  EXPECT_EQ(obs::Session::Get()->run_count(),
            static_cast<size_t>(replications));
  obs::Manifest manifest;
  manifest.base_seed = config.seed;
  manifest.replications = replications;
  manifest.jobs = jobs;
  const Status status = obs::Session::Get()->Flush(manifest);
  obs::Session::Shutdown();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return ReadWholeFile(path);
}

TEST(ScenarioObsTest, TraceIsByteIdenticalAtOneAndFourJobs) {
  const ScenarioConfig config = SmallConfig();
  const std::string serial = SweepTraceBytes(
      config, 4, /*jobs=*/1, testing::TempDir() + "obs_trace_j1.jsonl");
  const std::string parallel = SweepTraceBytes(
      config, 4, /*jobs=*/4, testing::TempDir() + "obs_trace_j4.jsonl");
  ASSERT_FALSE(serial.empty());
  // Whole-file bytes, not just record counts: field order, float
  // formatting, and run concatenation order all must match.
  EXPECT_EQ(serial, parallel);
}

TEST(ScenarioObsTest, FaultedTraceIsByteIdenticalAtOneAndFourJobs) {
  // The fault layer's determinism gate: churn + crash recovery + periodic
  // loss episodes + a jammer rectangle all active, and the whole sweep is
  // still byte-for-byte --jobs-invariant (metrics included — they are part
  // of the flushed manifest/trace stream).
  ScenarioConfig config = SmallConfig();
  config.fault.churn_rate = 0.3;
  config.fault.churn_up_s = 40.0;
  config.fault.churn_down_s = 20.0;
  config.fault.churn_crash = true;
  config.fault.loss_extra = 0.3;
  config.fault.loss_episode_s = 10.0;
  config.fault.loss_period_s = 50.0;
  config.fault.outage_rect = Rect{{0.0, 0.0}, {500.0, 500.0}};
  config.fault.outage_start_s = 60.0;
  config.fault.outage_end_s = 120.0;
  ASSERT_TRUE(config.Validate().ok());
  const std::string serial = SweepTraceBytes(
      config, 4, /*jobs=*/1, testing::TempDir() + "obs_fault_j1.jsonl");
  const std::string parallel = SweepTraceBytes(
      config, 4, /*jobs=*/4, testing::TempDir() + "obs_fault_j4.jsonl");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // The injector actually left its mark on the trace.
  EXPECT_NE(serial.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(serial.find("\"reason\":\"crash\""), std::string::npos);
}

TEST(ScenarioObsTest, FlushedTraceParsesAndIsOrderedWithinRuns) {
  const ScenarioConfig config = SmallConfig();
  const std::string path = testing::TempDir() + "obs_trace_parse.jsonl";
  const std::string bytes = SweepTraceBytes(config, 2, /*jobs=*/2, path);
  std::istringstream in(bytes);
  std::string line;
  int runs = 0;
  uint64_t records = 0;
  double last_t = 0.0;
  while (std::getline(in, line)) {
    obs::TraceEvent event;
    ASSERT_TRUE(obs::ParseTraceLine(line, &event).ok()) << line;
    ++records;
    if (event.cat == "run") {
      ++runs;
      last_t = 0.0;
      continue;
    }
    ASSERT_GE(runs, 1) << "record before the first run header";
    EXPECT_GE(event.t, last_t) << "virtual time went backwards";
    last_t = event.t;
  }
  EXPECT_EQ(runs, 2);
  EXPECT_GT(records, static_cast<uint64_t>(runs));
  // The sidecar manifest is written when only a trace was requested.
  const std::string manifest = ReadWholeFile(path + ".manifest.json");
  EXPECT_NE(manifest.find("\"runs\":2"), std::string::npos);
  EXPECT_NE(manifest.find("\"counters\""), std::string::npos);
}

/// Trace bytes and the run-derived part of the metrics report of a grid
/// sweep under a fresh Session: each point's RunReplicated nested in one
/// exec::ParallelFor at `jobs`.
struct SweepArtifacts {
  std::string trace;
  std::string metrics;  // From "counters" on: phases and manifest time runs.
};

SweepArtifacts NestedSweepArtifacts(int jobs, const std::string& prefix) {
  std::vector<ScenarioConfig> points;
  for (Method method : {Method::kGossip, Method::kOptimized}) {
    for (int peers : {30, 50}) {
      ScenarioConfig config = SmallConfig();
      config.method = method;
      config.num_peers = peers;
      points.push_back(config);
    }
  }
  obs::SessionOptions options;
  options.trace.categories = obs::kTraceAll;
  options.trace_path = testing::TempDir() + prefix + ".jsonl";
  options.metrics_path = testing::TempDir() + prefix + ".metrics.json";
  obs::Session::Configure(options);
  exec::ParallelFor(jobs, points.size(),
                    [&](size_t p) { RunReplicated(points[p], 3); });
  const Status status = obs::Session::Get()->Flush(obs::Manifest{});
  obs::Session::Shutdown();
  EXPECT_TRUE(status.ok()) << status.ToString();
  const std::string metrics = ReadWholeFile(options.metrics_path);
  const size_t counters = metrics.find("\"counters\"");
  EXPECT_NE(counters, std::string::npos);
  return {ReadWholeFile(options.trace_path), metrics.substr(counters)};
}

TEST(ScenarioObsTest, NestedSweepArtifactsMatchSerialSweep) {
  const SweepArtifacts serial = NestedSweepArtifacts(1, "obs_nested_j1");
  const SweepArtifacts nested = NestedSweepArtifacts(4, "obs_nested_j4");
  ASSERT_FALSE(serial.trace.empty());
  EXPECT_EQ(serial.trace, nested.trace);
  EXPECT_EQ(serial.metrics, nested.metrics);
}

/// Flushes a Session holding two distinct runs under one sort key (the way
/// ablation's bootstrap variants share a key), added in either order, and
/// returns the trace file's bytes.
std::string FlushTiedRuns(bool reversed, const std::string& path) {
  obs::SessionOptions options;
  options.trace.categories = obs::kTraceAll;
  options.trace_path = path;
  obs::Session::Configure(options);
  std::vector<std::unique_ptr<obs::RunContext>> runs;
  for (const double t : {1.0, 2.0}) {
    auto run = std::make_unique<obs::RunContext>(options.trace);
    run->trace.BeginRun(7, "00f00ba400f00ba4");
    run->trace.Event(t, 1);
    runs.push_back(std::move(run));
  }
  if (reversed) std::swap(runs[0], runs[1]);
  for (auto& run : runs) {
    obs::Session::Get()->AddRun("same-key", std::move(run));
  }
  const Status status = obs::Session::Get()->Flush(obs::Manifest{});
  obs::Session::Shutdown();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return ReadWholeFile(path);
}

TEST(ScenarioObsTest, EqualSortKeysFlushInTraceTextOrder) {
  const std::string forward =
      FlushTiedRuns(false, testing::TempDir() + "obs_tie_forward.jsonl");
  const std::string reversed =
      FlushTiedRuns(true, testing::TempDir() + "obs_tie_reversed.jsonl");
  ASSERT_FALSE(forward.empty());
  EXPECT_EQ(forward, reversed);
}

TEST(ScenarioObsTest, DisabledTraceMatchesUnobservedRunExactly) {
  const ScenarioConfig config = SmallConfig();
  const RunResult plain = RunScenario(config);
  obs::RunContext context{obs::TraceOptions{}};  // No categories enabled.
  const RunResult observed = RunScenario(config, &context);
  EXPECT_EQ(observed.events_executed, plain.events_executed);
  EXPECT_EQ(observed.net.messages_sent, plain.net.messages_sent);
  EXPECT_EQ(observed.net.bytes_sent, plain.net.bytes_sent);
  EXPECT_EQ(observed.net.deliveries, plain.net.deliveries);
  EXPECT_EQ(observed.ad_key, plain.ad_key);
  EXPECT_EQ(observed.DeliveryRatePercent(), plain.DeliveryRatePercent());
  EXPECT_EQ(observed.MeanDeliveryTime(), plain.MeanDeliveryTime());
  EXPECT_EQ(observed.final_rank, plain.final_rank);
  EXPECT_EQ(observed.final_radius_m, plain.final_radius_m);
  EXPECT_EQ(observed.final_duration_s, plain.final_duration_s);
  EXPECT_TRUE(context.trace.text().empty());
}

TEST(ScenarioObsTest, FullTracingDoesNotPerturbResults) {
  const ScenarioConfig config = SmallConfig();
  const RunResult plain = RunScenario(config);
  obs::TraceOptions trace_options;
  trace_options.categories = obs::kTraceAll;
  obs::RunContext context{trace_options};
  const RunResult observed = RunScenario(config, &context);
  EXPECT_EQ(observed.events_executed, plain.events_executed);
  EXPECT_EQ(observed.net.messages_sent, plain.net.messages_sent);
  EXPECT_EQ(observed.DeliveryRatePercent(), plain.DeliveryRatePercent());
  EXPECT_FALSE(context.trace.text().empty());
}

TEST(ScenarioObsTest, ContextCapturesMetricsAndPhases) {
  const ScenarioConfig config = SmallConfig();
  obs::TraceOptions trace_options;
  trace_options.categories = obs::kTraceTx;
  obs::RunContext context{trace_options};
  const RunResult result = RunScenario(config, &context);
  EXPECT_EQ(context.metrics.counters().at("sim.events_executed"),
            result.events_executed);
  EXPECT_EQ(context.metrics.counters().at("net.messages_sent"),
            result.net.messages_sent);
  EXPECT_EQ(context.metrics.counters().at("scenario.runs"), 1u);
  EXPECT_DOUBLE_EQ(context.metrics.gauges().at("scenario.final_rank"),
                   result.final_rank);
  // Each phase was entered exactly once for a single run.
  EXPECT_EQ(context.phases().at("setup").count, 1u);
  EXPECT_EQ(context.phases().at("event_loop").count, 1u);
  EXPECT_EQ(context.phases().at("aggregate").count, 1u);
  EXPECT_GE(context.PhaseSeconds("event_loop"), 0.0);
}

TEST(ScenarioObsTest, DeliverTraceReconstructsADisseminationForest) {
  // End-to-end provenance: a real replicated sweep's flushed trace must
  // satisfy every deliver invariant (non-zero hop, parent-before-child,
  // hop monotonicity, no duplicate deliveries) that DisseminationForest
  // enforces, and reconstruct one tree per run.
  const ScenarioConfig config = SmallConfig();
  const std::string path = testing::TempDir() + "obs_trace_forest.jsonl";
  const std::string bytes = SweepTraceBytes(config, 3, /*jobs=*/2, path);
  ASSERT_NE(bytes.find("\"cat\":\"deliver\""), std::string::npos);
  obs::DisseminationForest forest;
  const Status status = forest.AddFile(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(forest.runs().size(), 3u);
  const obs::ForestStats stats = forest.Summarize();
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_EQ(stats.ads, 3u);  // One advertisement per replication.
  EXPECT_GT(stats.deliveries, 0u);
  // The medium reported the delivering frame, so rx coverage is at least
  // the deliveries and latencies are anchored at the issuer's seed tx.
  EXPECT_GE(stats.rx_frames, stats.deliveries);
  EXPECT_GE(stats.redundancy_ratio, 1.0);
  EXPECT_GT(stats.latency_p50, 0.0);
  EXPECT_GE(stats.latency_p99, stats.latency_p50);
  for (const obs::RunForest& run : forest.runs()) {
    for (const auto& [ad_key, tree] : run.ads) {
      EXPECT_EQ(tree.issuer, static_cast<uint32_t>(ad_key >> 32));
      EXPECT_TRUE(tree.has_origin_tx) << "seed tx not found for ad";
      EXPECT_GE(tree.max_hop, 1u);
    }
  }
}

TEST(ScenarioObsTest, ObservedMarketplaceRunTracesEveryAd) {
  // A multi-ad run goes through the same assembly as a single-ad one, so
  // it gets the same trace header, provenance records and run metrics.
  MultiAdConfig config;
  config.base = SmallConfig();
  config.num_ads = 3;
  config.first_issue_s = 20.0;
  config.issue_spacing_s = 15.0;
  config.ad_radius_m = 500.0;
  config.ad_duration_s = 150.0;
  config.border_margin_m = 500.0;
  obs::TraceOptions trace_options;
  trace_options.categories = obs::kTraceDeliver;
  obs::RunContext context{trace_options};
  Scenario scenario(config, &context);
  const RunResult result = scenario.Run();
  ASSERT_EQ(scenario.ads().size(), 3u);

  // The header hashes the multi-ad config that ran (method folded).
  MultiAdConfig ran = config;
  ran.base = scenario.config();
  std::istringstream trace(context.trace.text());
  std::string line;
  ASSERT_TRUE(std::getline(trace, line));
  obs::TraceEvent header;
  ASSERT_TRUE(obs::ParseTraceLine(line, &header).ok()) << line;
  EXPECT_EQ(header.cat, "run");
  EXPECT_EQ(header.seed, config.base.seed);
  EXPECT_EQ(header.config, obs::HashHex(SaveMultiAdConfigText(ran)));

  // Deliver records for every ad, and for nothing else.
  std::set<uint64_t> delivered;
  while (std::getline(trace, line)) {
    obs::TraceEvent event;
    ASSERT_TRUE(obs::ParseTraceLine(line, &event).ok()) << line;
    EXPECT_EQ(event.cat, "deliver");
    delivered.insert(event.ad);
  }
  std::set<uint64_t> issued;
  for (const IssuedAd& ad : scenario.ads()) issued.insert(ad.key);
  EXPECT_EQ(delivered, issued);

  const auto& counters = context.metrics.counters();
  EXPECT_EQ(counters.at("scenario.runs"), 1u);
  EXPECT_EQ(counters.at("net.messages_sent"), result.net.messages_sent);
  EXPECT_EQ(counters.at("sim.events_executed"), result.events_executed);
  // One delivery-rate observation per ad.
  EXPECT_EQ(context.metrics.histograms()
                .at("scenario.delivery_rate_percent")
                .count(),
            3u);
  EXPECT_EQ(context.phases().at("event_loop").count, 1u);
}

TEST(ScenarioObsTest, FlightRecorderCapturesARunWithoutChangingIt) {
  const ScenarioConfig config = SmallConfig();
  const RunResult plain = RunScenario(config);
  obs::TraceOptions trace_options;  // No text categories requested.
  trace_options.flight_recorder = true;
  obs::RunContext context{trace_options};
  ASSERT_NE(context.flight_recorder, nullptr);
  const RunResult observed = RunScenario(config, &context);
  // Recorder-only capture: the ring saw the run, the text stream did not,
  // and the simulation is bit-for-bit unchanged.
  EXPECT_GT(context.flight_recorder->total(), 0u);
  EXPECT_TRUE(context.trace.text().empty());
  EXPECT_EQ(observed.events_executed, plain.events_executed);
  EXPECT_EQ(observed.net.messages_sent, plain.net.messages_sent);
  EXPECT_EQ(observed.net.deliveries, plain.net.deliveries);
  // The ring's dump parses with the standard reader.
  std::istringstream dump(context.flight_recorder->ToJsonl());
  std::string line;
  uint64_t parsed = 0;
  while (std::getline(dump, line)) {
    obs::TraceEvent event;
    ASSERT_TRUE(obs::ParseTraceLine(line, &event).ok()) << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, context.flight_recorder->size());
}

TEST(ScenarioObsTest, SamplingShrinksTheTraceDeterministically) {
  const ScenarioConfig config = SmallConfig();
  obs::TraceOptions dense;
  dense.categories = obs::kTraceEvent;
  obs::RunContext dense_context{dense};
  RunScenario(config, &dense_context);

  obs::TraceOptions sparse = dense;
  sparse.sample_period = 10;
  obs::RunContext sparse_context{sparse};
  RunScenario(config, &sparse_context);

  EXPECT_GT(sparse_context.trace.records_sampled_out(), 0u);
  EXPECT_LT(sparse_context.trace.records_kept(),
            dense_context.trace.records_kept());
  // Same run, same sampling => same bytes.
  obs::RunContext repeat_context{sparse};
  RunScenario(config, &repeat_context);
  EXPECT_EQ(sparse_context.trace.text(), repeat_context.trace.text());
}

}  // namespace
}  // namespace madnet::scenario
