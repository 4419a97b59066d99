// Copyright (c) 2026 madnet authors. All rights reserved.

#include "replays.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/ad_cache.h"
#include "core/propagation.h"
#include "mobility/constant_velocity.h"
#include "mobility/random_waypoint.h"
#include "net/medium.h"
#include "net/spatial_index.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "spans.h"
#include "util/random.h"

namespace madnet::perfbench {
namespace {

using scenario::ScenarioConfig;

// Keeps replayed results observable so the optimizer cannot drop the work.
volatile double g_sink = 0.0;

Rect Arena(const ScenarioConfig& config) {
  return Rect{{0.0, 0.0}, {config.area_size_m, config.area_size_m}};
}

// Hold model at constant depth: pop the earliest event, push one a
// gossip-round-scale delay later. Counts pushes and pops.
uint64_t ReplayQueue(const ScenarioConfig& config, uint64_t depth, Rng rng) {
  constexpr uint64_t kPops = 1'000'000;
  const double max_delay = 2.0 * config.gossip.round_time_s;
  sim::EventQueue queue;
  for (uint64_t i = 0; i < std::max<uint64_t>(depth, 1); ++i) {
    queue.Push(rng.Uniform(0.0, max_delay), [] {});
  }
  std::vector<double> delays(kPops);
  for (double& delay : delays) delay = rng.Uniform(0.0, max_delay);
  ScopedSpan span(SpanName::kReplayQueue);
  for (uint64_t i = 0; i < kPops; ++i) {
    auto [when, callback] = queue.Pop();
    queue.Push(when + delays[i], std::move(callback));
  }
  return 2 * kPops;
}

std::vector<Vec2> UniformPoints(const ScenarioConfig& config, size_t count,
                                Rng* rng) {
  std::vector<Vec2> points(count);
  for (Vec2& point : points) point = rng->UniformInRect(Arena(config));
  return points;
}

// Index rebuilds over the run's node count, then range queries at the
// radius the medium asks for (range plus half an interval's staleness
// slack on average).
std::pair<uint64_t, uint64_t> ReplayIndex(const ScenarioConfig& config,
                                          size_t nodes, Rng rng) {
  constexpr uint64_t kRebuilds = 8;
  constexpr uint64_t kQueries = 200'000;
  const std::vector<Vec2> points = UniformPoints(config, nodes, &rng);
  std::vector<net::NodeId> ids(nodes);
  std::vector<double> xs(nodes);
  std::vector<double> ys(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    ids[i] = static_cast<net::NodeId>(i);
    xs[i] = points[i].x;
    ys[i] = points[i].y;
  }
  net::SpatialIndex index(config.medium.range_m);
  {
    ScopedSpan span(SpanName::kReplayIndexRebuild);
    for (uint64_t i = 0; i < kRebuilds; ++i) index.Rebuild(ids, xs, ys);
  }
  const std::vector<Vec2> centers = UniformPoints(config, kQueries, &rng);
  const double radius = config.medium.range_m +
                        config.medium.max_speed_mps *
                            config.medium.reindex_interval_s;
  std::vector<net::NodeId> out;
  uint64_t found = 0;
  {
    ScopedSpan span(SpanName::kReplayIndexQuery);
    for (const Vec2& center : centers) {
      out.clear();
      index.QueryRange(center, radius, &out);
      found += out.size();
    }
  }
  g_sink = g_sink + static_cast<double>(found);
  return {kRebuilds, kQueries};
}

// Broadcasts from random senders over static nodes at the run's density,
// each drained before the next. Returns deliveries.
uint64_t ReplayFanout(const ScenarioConfig& config, size_t nodes, Rng rng) {
  constexpr uint64_t kBroadcasts = 20'000;
  sim::Simulator simulator;
  net::Medium medium(config.medium, &simulator, rng.Fork(1));
  std::vector<std::unique_ptr<mobility::Stationary>> models;
  models.reserve(nodes);
  for (const Vec2& point : UniformPoints(config, nodes, &rng)) {
    models.push_back(std::make_unique<mobility::Stationary>(point));
  }
  uint64_t received = 0;
  for (net::NodeId id = 0; id < nodes; ++id) {
    (void)medium.AddNode(id, models[id].get());
    (void)medium.SetReceiver(
        id, [&received](const net::Packet&, net::NodeId, net::NodeId) {
          ++received;
        });
  }
  net::Packet packet;
  packet.size_bytes = 200;
  std::vector<net::NodeId> senders(kBroadcasts);
  for (net::NodeId& sender : senders) {
    sender = static_cast<net::NodeId>(rng.NextUint64(nodes));
  }
  {
    ScopedSpan span(SpanName::kReplayFanout);
    for (net::NodeId sender : senders) {
      (void)medium.Broadcast(sender, packet);
      simulator.Run();
    }
  }
  g_sink = g_sink + static_cast<double>(received);
  return std::max<uint64_t>(medium.stats().deliveries, 1);
}

// Position queries in the pattern of the index refresh: every model once
// per reindex interval, in time order.
uint64_t ReplayPosition(const ScenarioConfig& config, size_t nodes, Rng rng) {
  constexpr uint64_t kMaxQueries = 4'000'000;
  const size_t models_count = std::min<size_t>(nodes, 20'000);
  mobility::RandomWaypoint::Options options;
  options.area = Arena(config);
  options.min_speed_mps = config.mean_speed_mps - config.speed_delta_mps;
  options.max_speed_mps = config.mean_speed_mps + config.speed_delta_mps;
  options.min_pause_s = config.min_pause_s;
  options.max_pause_s = config.max_pause_s;
  std::vector<mobility::RandomWaypoint> models;
  models.reserve(models_count);
  for (size_t i = 0; i < models_count; ++i) {
    models.emplace_back(options, rng.Fork(i));
  }
  const double step = config.medium.reindex_interval_s;
  const uint64_t steps = std::max<uint64_t>(
      1, std::min<uint64_t>(
             static_cast<uint64_t>(config.sim_time_s / step),
             kMaxQueries / models_count));
  double sum = 0.0;
  {
    ScopedSpan span(SpanName::kReplayPosition);
    for (uint64_t k = 1; k <= steps; ++k) {
      const double t = step * static_cast<double>(k);
      for (auto& model : models) sum += model.PositionAt(t).x;
    }
  }
  g_sink = g_sink + sum;
  return steps * models_count;
}

// Inserts of distinct ads into a full top-k cache: every insert evicts the
// lowest-probability entry (or loses to it).
uint64_t ReplayCacheInsert(const ScenarioConfig& config, Rng rng) {
  constexpr uint64_t kInserts = 200'000;
  core::AdCache cache(config.gossip.cache_capacity);
  core::CacheEntry entry;
  entry.ad.content = config.content;
  std::vector<double> probabilities(kInserts);
  for (double& p : probabilities) p = rng.NextDouble();
  uint64_t evicted = 0;
  {
    ScopedSpan span(SpanName::kReplayCacheInsert);
    for (uint64_t i = 0; i < kInserts; ++i) {
      entry.ad.id.sequence = static_cast<uint32_t>(i + 1);
      entry.probability = probabilities[i];
      sim::EventId timer = sim::kInvalidEventId;
      if (cache.Insert(entry, &timer) == nullptr) ++evicted;
    }
  }
  g_sink = g_sink + static_cast<double>(evicted + cache.Size());
  return kInserts;
}

// Formula 2 then Formula 1 (Formula 3 under Optimization 1) at random
// distances and ages over the ad's area and life.
uint64_t ReplayPropagation(const ScenarioConfig& config, Rng rng) {
  constexpr size_t kInputs = 250'000;
  constexpr uint64_t kRounds = 4;
  const core::PropagationParams& params = config.gossip.propagation;
  const double radius = config.initial_radius_m;
  const double duration = config.initial_duration_s;
  const bool annulus = config.method == scenario::Method::kOptimized ||
                       config.method == scenario::Method::kOptimized1;
  std::vector<double> distances(kInputs);
  std::vector<double> ages(kInputs);
  for (size_t i = 0; i < kInputs; ++i) {
    distances[i] = rng.Uniform(0.0, 2.0 * radius);
    ages[i] = rng.Uniform(0.0, duration);
  }
  double sum = 0.0;
  {
    ScopedSpan span(SpanName::kReplayPropagation);
    for (uint64_t round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < kInputs; ++i) {
        const double r = core::RadiusAtAge(radius, duration, ages[i], params);
        sum += annulus ? core::AnnulusForwardingProbability(
                             distances[i], r, config.gossip.dis_m, params)
                       : core::ForwardingProbability(distances[i], r, params);
      }
    }
  }
  g_sink = g_sink + sum;
  return kRounds * kInputs;
}

}  // namespace

std::map<std::string, uint64_t> RunReplays(const ScenarioConfig& config,
                                           uint64_t pending_depth) {
  const Rng root = Rng(config.seed).Fork(0x5245504C);  // "REPL"
  const size_t nodes = static_cast<size_t>(config.num_peers) + 1;
  std::map<std::string, uint64_t> ops;
  ops[SpanNameText(SpanName::kReplayQueue)] =
      ReplayQueue(config, pending_depth, root.Fork(1));
  const auto [rebuilds, queries] = ReplayIndex(config, nodes, root.Fork(2));
  ops[SpanNameText(SpanName::kReplayIndexRebuild)] = rebuilds;
  ops[SpanNameText(SpanName::kReplayIndexQuery)] = queries;
  ops[SpanNameText(SpanName::kReplayFanout)] =
      ReplayFanout(config, nodes, root.Fork(3));
  ops[SpanNameText(SpanName::kReplayPosition)] =
      ReplayPosition(config, nodes, root.Fork(4));
  ops[SpanNameText(SpanName::kReplayCacheInsert)] =
      ReplayCacheInsert(config, root.Fork(5));
  ops[SpanNameText(SpanName::kReplayPropagation)] =
      ReplayPropagation(config, root.Fork(6));
  return ops;
}

}  // namespace madnet::perfbench
