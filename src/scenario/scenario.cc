// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/scenario.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <vector>

#include "core/opportunistic_gossip.h"
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
}  // namespace

Scenario::Scenario(const ScenarioConfig& config, obs::RunContext* obs)
    : config_(config), obs_(obs), log_clock_(simulator_.NowHandle()) {
  obs::PhaseTimer setup_timer(obs_, "setup");
  Status valid = config_.Validate();
  assert(valid.ok() && "invalid ScenarioConfig");
  (void)valid;

  // Fold the per-method optimization switches into the gossip options.
  switch (config_.method) {
    case Method::kFlooding: break;
    case Method::kResourceExchange: break;
    case Method::kGossip:
      config_.gossip.annulus = false;
      config_.gossip.postpone = false;
      break;
    case Method::kOptimized1:
      config_.gossip.annulus = true;
      config_.gossip.postpone = false;
      break;
    case Method::kOptimized2:
      config_.gossip.annulus = false;
      config_.gossip.postpone = true;
      break;
    case Method::kOptimized:
      config_.gossip.annulus = true;
      config_.gossip.postpone = true;
      break;
  }

  Rng root(config_.seed);
  medium_ = std::make_unique<net::Medium>(config_.medium, &simulator_,
                                          root.Fork(0x4D454449));  // "MEDI"

  if (obs_ != nullptr) {
    // Header first, so every run's chunk is self-describing; then hand the
    // sink to the subsystems that emit records. The hash covers the folded
    // config (what actually ran), seed included.
    obs_->trace.BeginRun(config_.seed,
                         obs::HashHex(SaveConfigText(config_)));
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

  const int node_count = config_.num_peers + 1;  // Peers plus the issuer.
  mobilities_.reserve(node_count);
  protocols_.reserve(node_count);

  // Node 0: the issuer, stationary at the issuing location.
  mobilities_.push_back(
      std::make_unique<mobility::Stationary>(config_.issue_location));
  // Nodes 1..N: mobile peers.
  for (int i = 1; i <= config_.num_peers; ++i) {
    // Per-peer mobility streams draw from the reserved range
    // [0x10000, 0x20000), disjoint from every other Fork range.
    // NOLINTNEXTLINE(madnet-rng-fork-label): reserved range 0x10000+peer.
    mobilities_.push_back(MakeMobility(root.Fork(0x10000 + i)));
  }

  for (net::NodeId id = 0; id < static_cast<net::NodeId>(node_count); ++id) {
    Status added = medium_->AddNode(id, mobilities_[id].get());
    assert(added.ok());
    (void)added;
  }
  for (net::NodeId id = 0; id < static_cast<net::NodeId>(node_count); ++id) {
    // Per-node protocol streams draw from the reserved range
    // [0x20000, 0x30000), disjoint from every other Fork range.
    // NOLINTNEXTLINE(madnet-rng-fork-label): reserved range 0x20000+node.
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
    // Only mobile peers churn; the issuer's availability is governed by
    // issuer_goes_offline alone.
    if (config_.num_peers > 0) {
      injector_->Arm(issuer_id() + 1,
                     issuer_id() + static_cast<net::NodeId>(config_.num_peers),
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

std::unique_ptr<mobility::MobilityModel> Scenario::MakeMobility(Rng rng) {
  return MakePeerMobility(config_, rng);
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

  RunResult result;
  // Issue the advertisement at the configured time.
  simulator_.ScheduleAt(config_.issue_time_s, [this, &result]() {
    auto issued = protocols_[issuer_id()]->Issue(config_.content,
                                                 config_.initial_radius_m,
                                                 config_.initial_duration_s);
    assert(issued.ok());
    result.ad_key = issued->Key();
    issued_ad_key_ = result.ad_key;
    if (config_.method != Method::kFlooding && config_.issuer_goes_offline) {
      simulator_.Schedule(kIssuerOfflineDelay, [this]() {
        const Status off = medium_->SetOnline(issuer_id(), false);
        if (!off.ok()) {
          MADNET_LOG_ERROR("issuer %u could not go offline: %s",
                           static_cast<unsigned>(issuer_id()),
                           off.message().c_str());
        }
      });
    }
  });

  {
    obs::PhaseTimer loop_timer(obs_, "event_loop");
    simulator_.RunUntil(config_.sim_time_s);
  }
  obs::PhaseTimer aggregate_timer(obs_, "aggregate");

  // Metrics over the ad's life cycle within the simulated horizon.
  const double life_end = std::min(
      config_.issue_time_s + config_.initial_duration_s, config_.sim_time_s);
  stats::AreaTracker tracker(
      Circle{config_.issue_location, config_.initial_radius_m},
      config_.issue_time_s, life_end);
  for (int i = 1; i <= config_.num_peers; ++i) {
    tracker.Observe(static_cast<net::NodeId>(i), mobilities_[i].get());
  }
  result.report = ComputeDeliveryReport(tracker, delivery_log_, result.ad_key);
  result.net = medium_->stats();
  if (injector_ != nullptr) result.fault = injector_->stats();
  result.events_executed = simulator_.ExecutedEvents();

  // Ranking evidence: the most-enlarged surviving copy of the ad.
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
  // Hot-path instrumentation: batched/memoized neighbour queries and the
  // frame arena (peaks sum across replications — divide by scenario.runs
  // for a mean per-run high water).
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
  metrics
      .Histogram("scenario.delivery_rate_percent",
                 {10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
      ->Observe(result.DeliveryRatePercent());
  metrics
      .Histogram("scenario.mean_delivery_time_s",
                 {1, 2, 5, 10, 20, 50, 100, 200, 500})
      ->Observe(result.MeanDeliveryTime());
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
