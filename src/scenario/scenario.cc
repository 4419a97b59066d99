// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/scenario.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>
#include <vector>

#include "core/opportunistic_gossip.h"
#include "core/resource_exchange.h"
#include "core/restricted_flooding.h"
#include "mobility/constant_velocity.h"
#include "mobility/hotspot_waypoint.h"
#include "mobility/manhattan_grid.h"
#include "mobility/random_waypoint.h"
#include "obs/manifest.h"
#include "scenario/config_io.h"
#include "util/logging.h"

namespace madnet::scenario {

namespace {
// The issuer broadcasts at issue time; deliveries land within milliseconds.
// A gossip issuer that "goes offline" does so shortly after.
constexpr double kIssuerOfflineDelay = 1.0;

// Builds one mobile peer's mobility model per `config.mobility` (Random
// Waypoint / Manhattan grid / hotspot waypoint / constant-velocity highway
// lanes, with the speed, pause and model-specific fields of `config`).
std::unique_ptr<mobility::MobilityModel> MakePeerMobility(
    const ScenarioConfig& config, Rng rng) {
  const Rect area{{0.0, 0.0}, {config.area_size_m, config.area_size_m}};
  const double min_speed = config.mean_speed_mps - config.speed_delta_mps;
  const double max_speed = config.mean_speed_mps + config.speed_delta_mps;
  switch (config.mobility) {
    case Mobility::kManhattanGrid: {
      mobility::ManhattanGrid::Options options;
      options.area = area;
      options.block_size_m = config.manhattan_block_m;
      options.min_speed_mps = min_speed;
      options.max_speed_mps = max_speed;
      return std::make_unique<mobility::ManhattanGrid>(options, rng);
    }
    case Mobility::kHotspot: {
      mobility::HotspotWaypoint::Options options;
      options.area = area;
      options.min_speed_mps = min_speed;
      options.max_speed_mps = max_speed;
      options.min_pause_s = config.min_pause_s;
      options.max_pause_s = config.max_pause_s;
      options.hotspot_probability = config.hotspot_probability;
      // The issuing location is always an attraction point; extra hotspots
      // are placed deterministically from the scenario seed.
      options.hotspots.push_back({config.issue_location,
                                  config.hotspot_sigma_m, 2.0});
      Rng placer = Rng(config.seed).Fork(0x484F54);  // "HOT"
      const double margin = config.hotspot_sigma_m;
      for (int i = 0; i < config.hotspot_extra; ++i) {
        options.hotspots.push_back(
            {placer.UniformInRect(Rect{{margin, margin},
                                       {config.area_size_m - margin,
                                        config.area_size_m - margin}}),
             config.hotspot_sigma_m, 1.0});
      }
      return std::make_unique<mobility::HotspotWaypoint>(options, rng);
    }
    case Mobility::kHighway: {
      // Vehicular strip: a fixed lane (the start y) and a constant speed
      // along x, reflecting at the arena walls. Draw order (position,
      // speed, direction) is part of the determinism contract.
      const Vec2 start = rng.UniformInRect(area);
      const double speed = rng.Uniform(min_speed, max_speed);
      const double direction = rng.Uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
      return std::make_unique<mobility::ConstantVelocity>(
          area, start, Vec2{direction * speed, 0.0});
    }
    case Mobility::kRandomWaypoint:
      break;
  }
  mobility::RandomWaypoint::Options options;
  options.area = area;
  options.min_speed_mps = min_speed;
  options.max_speed_mps = max_speed;
  options.min_pause_s = config.min_pause_s;
  options.max_pause_s = config.max_pause_s;
  return std::make_unique<mobility::RandomWaypoint>(options, rng);
}

}  // namespace

ScenarioConfig Scenario::FoldMethod(const ScenarioConfig& config) {
  ScenarioConfig folded = config;
  switch (folded.method) {
    case Method::kFlooding: break;
    case Method::kResourceExchange: break;
    case Method::kGossip:
      folded.gossip.annulus = false;
      folded.gossip.postpone = false;
      break;
    case Method::kOptimized1:
      folded.gossip.annulus = true;
      folded.gossip.postpone = false;
      break;
    case Method::kOptimized2:
      folded.gossip.annulus = false;
      folded.gossip.postpone = true;
      break;
    case Method::kOptimized:
      folded.gossip.annulus = true;
      folded.gossip.postpone = true;
      break;
  }
  return folded;
}

Scenario::Plan Scenario::SingleAdPlan(const ScenarioConfig& config,
                                      bool observed) {
  Status valid = config.Validate();
  assert(valid.ok() && "invalid ScenarioConfig");
  (void)valid;
  Plan plan{FoldMethod(config), {}, kSingleAdStreams, {}};
  plan.issues.push_back(Issue{config.issue_location, config.issue_time_s,
                              config.initial_radius_m,
                              config.initial_duration_s, config.content});
  // The hash covers the folded config (what actually ran), seed included.
  if (observed) plan.config_text = SaveConfigText(plan.config);
  return plan;
}

Scenario::Scenario(const ScenarioConfig& config, obs::RunContext* obs)
    : Scenario(SingleAdPlan(config, obs != nullptr), obs) {}

Scenario::Scenario(Plan plan, obs::RunContext* obs)
    : config_(std::move(plan.config)),
      obs_(obs),
      log_clock_(simulator_.NowHandle()),
      issues_(std::move(plan.issues)) {
  obs::PhaseTimer setup_timer(obs_, "setup");
  ads_.resize(issues_.size());
  for (size_t i = 0; i < issues_.size(); ++i) {
    ads_[i].location = issues_[i].location;
    ads_[i].issue_time = issues_[i].time;
  }
  Rng root(config_.seed);
  // NOLINTNEXTLINE(madnet-rng-fork-label): "MEDI" or "MADI", StreamLabels.
  const Rng medium_rng = root.Fork(plan.streams.medium);
  medium_ = std::make_unique<net::Medium>(config_.medium, &simulator_,
                                          medium_rng);

  if (obs_ != nullptr) {
    // Header first, so every run's chunk is self-describing; then hand the
    // sink to the subsystems that emit records.
    obs_->trace.BeginRun(config_.seed, obs::HashHex(plan.config_text));
    simulator_.SetTrace(&obs_->trace);
    medium_->SetTrace(&obs_->trace);
    // Spatial load telemetry: one tile per radio range, so each tile is
    // one interference neighbourhood and the tile-load report reads as a
    // congestion map. Summarized by CaptureMetrics.
    tiles_ = std::make_unique<obs::TileLoadMap>(config_.medium.range_m,
                                                config_.area_size_m);
    medium_->SetTileLoad(tiles_.get());
    // Inter-event virtual-time gaps: a spike at 0 means event storms, a
    // heavy right tail means the calendar queue idles between bursts.
    // The simulator buckets them inline; CaptureMetrics books the counts.
    simulator_.EnableDispatchGapTelemetry();
  }

  const int issuers = num_issuers();
  const int node_count = issuers + config_.num_peers;
  mobilities_.reserve(node_count);
  protocols_.reserve(node_count);

  // Nodes 0..K-1: the issuers, stationary at their issuing locations.
  for (const Issue& issue : issues_) {
    mobilities_.push_back(
        std::make_unique<mobility::Stationary>(issue.location));
  }
  // Nodes K..K+N-1: mobile peers.
  for (int i = 0; i < config_.num_peers; ++i) {
    // Per-peer mobility streams fork label first_peer_mobility + i. These
    // stay below the per-node protocol labels 0x20000 + id only for fewer
    // than 65,536 peers; beyond that, single-ad peer i shares node
    // (i - 65,535)'s protocol stream, as Fork is a pure function of
    // (parent state, label). The fix changes streams: ROADMAP item 6.
    mobilities_.push_back(MakePeerMobility(
        config_,
        // NOLINTNEXTLINE(madnet-rng-fork-label): 0x10000+i, unique if N<65536.
        root.Fork(plan.streams.first_peer_mobility + i)));
  }

  for (net::NodeId id = 0; id < static_cast<net::NodeId>(node_count); ++id) {
    Status added = medium_->AddNode(id, mobilities_[id].get());
    assert(added.ok());
    (void)added;
  }
  for (net::NodeId id = 0; id < static_cast<net::NodeId>(node_count); ++id) {
    // Per-node protocol streams fork label 0x20000 + id. They are distinct
    // from the peer mobility labels only below 65,536 peers (see above).
    // NOLINTNEXTLINE(madnet-rng-fork-label): 0x20000+node, unique if N<65536.
    protocols_.push_back(MakeProtocol(id, root.Fork(0x20000 + id)));
    protocols_.back()->Start();
  }

  if (config_.fault.Enabled()) {
    // The injector draws from its own labelled fork, so enabling faults
    // leaves the medium/mobility/protocol streams untouched.
    injector_ = std::make_unique<fault::FaultInjector>(
        config_.fault, &simulator_, medium_.get(),
        root.Fork(0x4641554C));  // "FAUL"
    if (obs_ != nullptr) injector_->SetTrace(&obs_->trace);
    fault::FaultInjector::Hooks hooks;
    hooks.on_crash = [this](net::NodeId id) { protocols_[id]->OnCrash(); };
    hooks.on_rejoin = [this](net::NodeId id) { protocols_[id]->OnRejoin(); };
    // Only mobile peers churn; the issuers' availability is governed by
    // issuer_goes_offline alone.
    if (config_.num_peers > 0) {
      injector_->Arm(static_cast<net::NodeId>(issuers),
                     static_cast<net::NodeId>(node_count - 1),
                     std::move(hooks));
    }
    if (obs_ != nullptr && obs_->flight_recorder == nullptr) {
      // Fault runs get a postmortem ring even when the session did not ask
      // for one: a crash under injected faults is exactly when the last few
      // hundred records matter. Recorder-only capture never gates on the
      // text mask, so the trace text stays byte-identical either way.
      recorder_ = std::make_unique<obs::FlightRecorder>();
      obs_->trace.SetFlightRecorder(recorder_.get());
      obs::RegisterCrashDump(recorder_.get(), config_.seed);
    }
  }
}

Scenario::~Scenario() {
  if (recorder_ != nullptr) {
    obs::UnregisterCrashDump(recorder_.get());
    obs_->trace.SetFlightRecorder(nullptr);
  }
}

std::unique_ptr<core::Protocol> Scenario::MakeProtocol(net::NodeId id,
                                                       Rng rng) {
  core::ProtocolContext context;
  context.simulator = &simulator_;
  context.medium = medium_.get();
  context.self = id;
  context.delivery_log = &delivery_log_;
  context.rng = rng;
  context.trace = obs_ != nullptr ? &obs_->trace : nullptr;

  if (config_.method == Method::kFlooding) {
    return std::make_unique<core::RestrictedFlooding>(std::move(context),
                                                      config_.flooding);
  }
  if (config_.method == Method::kResourceExchange) {
    return std::make_unique<core::ResourceExchange>(std::move(context),
                                                    config_.exchange);
  }
  core::InterestProfile interests;
  if (config_.assign_interests) {
    core::InterestGenerator generator(config_.interest_options);
    Rng interest_rng = rng.Fork(0x494E54);  // "INT"
    interests = generator.Sample(&interest_rng);
  }
  return std::make_unique<core::OpportunisticGossip>(
      std::move(context), config_.gossip, std::move(interests));
}

RunResult Scenario::Run() {
  assert(!ran_ && "Scenario::Run may only be called once");
  ran_ = true;

  // Issuer i puts out its ad at the ad's issue time.
  for (size_t i = 0; i < issues_.size(); ++i) {
    simulator_.ScheduleAt(issues_[i].time, [this, i]() {
      const Issue& issue = issues_[i];
      const net::NodeId issuer = static_cast<net::NodeId>(i);
      auto issued = protocols_[issuer]->Issue(issue.content, issue.radius_m,
                                              issue.duration_s);
      assert(issued.ok());
      ads_[i].key = issued->Key();
      if (config_.method != Method::kFlooding && config_.issuer_goes_offline) {
        simulator_.Schedule(kIssuerOfflineDelay, [this, issuer]() {
          const Status off = medium_->SetOnline(issuer, false);
          if (!off.ok()) {
            MADNET_LOG_ERROR("issuer %u could not go offline: %s",
                             static_cast<unsigned>(issuer),
                             off.message().c_str());
          }
        });
      }
    });
  }

  {
    obs::PhaseTimer loop_timer(obs_, "event_loop");
    simulator_.RunUntil(config_.sim_time_s);
  }
  obs::PhaseTimer aggregate_timer(obs_, "aggregate");

  // Metrics over each ad's life cycle within the simulated horizon; only
  // mobile peers count.
  for (size_t i = 0; i < issues_.size(); ++i) {
    const Issue& issue = issues_[i];
    const double life_end =
        std::min(issue.time + issue.duration_s, config_.sim_time_s);
    stats::AreaTracker tracker(Circle{issue.location, issue.radius_m},
                               issue.time, life_end);
    for (size_t id = issues_.size(); id < mobilities_.size(); ++id) {
      tracker.Observe(static_cast<net::NodeId>(id), mobilities_[id].get());
    }
    ads_[i].report = ComputeDeliveryReport(tracker, delivery_log_,
                                           ads_[i].key);
  }
  RunResult result;
  result.report = ads_.front().report;
  result.ad_key = ads_.front().key;
  result.net = medium_->stats();
  if (injector_ != nullptr) result.fault = injector_->stats();
  result.events_executed = simulator_.ExecutedEvents();

  // Ranking evidence: the most-enlarged surviving copy of the first ad.
  for (const auto& protocol : protocols_) {
    const auto* gossip =
        dynamic_cast<const core::OpportunisticGossip*>(protocol.get());
    if (gossip == nullptr) continue;
    const core::CacheEntry* entry = gossip->cache().Find(result.ad_key);
    if (entry == nullptr) continue;
    result.final_rank =
        std::max(result.final_rank, core::EstimatedRank(entry->ad));
    result.final_radius_m = std::max(result.final_radius_m,
                                     entry->ad.radius_m);
    result.final_duration_s = std::max(result.final_duration_s,
                                       entry->ad.duration_s);
  }
  aggregate_timer.Stop();
  if (obs_ != nullptr) CaptureMetrics(result);
  return result;
}

void Scenario::CaptureMetrics(const RunResult& result) {
  obs::MetricsRegistry& metrics = obs_->metrics;
  *metrics.Counter("scenario.runs") += 1;
  *metrics.Counter("sim.events_executed") += result.events_executed;
  *metrics.Counter("net.messages_sent") += result.net.messages_sent;
  *metrics.Counter("net.bytes_sent") += result.net.bytes_sent;
  *metrics.Counter("net.deliveries") += result.net.deliveries;
  *metrics.Counter("net.dropped_loss") += result.net.dropped_loss;
  *metrics.Counter("net.dropped_collision") += result.net.dropped_collision;
  *metrics.Counter("net.dropped_offline") += result.net.dropped_offline;
  *metrics.Counter("net.dropped_jammed") += result.net.dropped_jammed;
  *metrics.Counter("net.dropped_mac_busy") += result.net.dropped_mac_busy;
  *metrics.Counter("net.mac_defers") += result.net.mac_defers;
  // Hot-path instrumentation: spatial-grid builds, batched/memoized
  // neighbour queries and the frame arena (peaks sum across replications
  // — divide by scenario.runs for a mean per-run high water).
  *metrics.Counter("medium.index_rebuilds") += result.net.index_rebuilds;
  *metrics.Counter("medium.batch_queries") += result.net.batch_queries;
  *metrics.Counter("medium.batch_walk_reuse") += result.net.batch_walk_reuse;
  *metrics.Counter("medium.batch_memo_hits") += result.net.batch_memo_hits;
  *metrics.Counter("medium.arena_frames_peak") += result.net.arena_frames_peak;
  if (injector_ != nullptr) {
    *metrics.Counter("fault.node_downs") += result.fault.node_downs;
    *metrics.Counter("fault.node_rejoins") += result.fault.node_rejoins;
    *metrics.Counter("fault.crashes") += result.fault.crashes;
    *metrics.Counter("fault.loss_episodes") += result.fault.loss_episodes;
    *metrics.Counter("fault.outages") += result.fault.outages;
  }
  // One observation per issued ad.
  obs::FixedHistogram* rates = metrics.Histogram(
      "scenario.delivery_rate_percent",
      {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  obs::FixedHistogram* times = metrics.Histogram(
      "scenario.mean_delivery_time_s", {1, 2, 5, 10, 20, 50, 100, 200, 500});
  for (const IssuedAd& ad : ads_) {
    rates->Observe(ad.report.DeliveryRatePercent());
    times->Observe(ad.report.MeanDeliveryTime());
  }
  metrics.SetGauge("scenario.final_rank", result.final_rank);
  metrics.SetGauge("scenario.final_radius_m", result.final_radius_m);
  metrics.SetGauge("scenario.final_duration_s", result.final_duration_s);
  if (simulator_.dispatch_gap_telemetry_enabled()) {
    // The simulator bucketed the gaps inline (hot path); fold its counts
    // into a registry histogram with matching bounds here, once per run.
    obs::FixedHistogram* gaps = metrics.Histogram(
        "sim.dispatch_gap_s",
        std::vector<double>(std::begin(sim::Simulator::kDispatchGapBounds),
                            std::end(sim::Simulator::kDispatchGapBounds)));
    const Status booked = gaps->MergeBucketCounts(
        simulator_.dispatch_gap_counts(), sim::Simulator::kDispatchGapBuckets,
        simulator_.dispatch_gap_sum());
    MADNET_DCHECK(booked.ok());
    (void)booked;
  }
  if (tiles_ != nullptr) tiles_->Summarize(&metrics);
}

mobility::TraceSet Scenario::RecordTraces(sim::Time horizon) {
  mobility::TraceSet traces;
  traces.reserve(mobilities_.size());
  for (size_t id = 0; id < mobilities_.size(); ++id) {
    traces.emplace_back(static_cast<uint32_t>(id),
                        mobility::Trace::Record(mobilities_[id].get(),
                                                horizon));
  }
  return traces;
}

RunResult RunScenario(const ScenarioConfig& config) {
  Scenario scenario(config);
  return scenario.Run();
}

RunResult RunScenario(const ScenarioConfig& config, obs::RunContext* obs) {
  Scenario scenario(config, obs);
  return scenario.Run();
}

}  // namespace madnet::scenario
