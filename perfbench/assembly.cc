// Copyright (c) 2026 madnet authors. All rights reserved.

#include "assembly.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/opportunistic_gossip.h"
#include "core/restricted_flooding.h"
#include "mobility/constant_velocity.h"
#include "mobility/random_waypoint.h"
#include "spans.h"

namespace madnet::perfbench {
namespace {

using scenario::Method;
using scenario::ScenarioConfig;

class TimedWaypoint final : public mobility::RandomWaypoint {
 public:
  using RandomWaypoint::RandomWaypoint;

 protected:
  mobility::Leg NextLeg(const mobility::Leg* previous) override {
    ScopedSpan span(SpanName::kMobilityNextLeg);
    return RandomWaypoint::NextLeg(previous);
  }
};

template <class P>
class TimedProtocol final : public P {
 public:
  using P::P;

 protected:
  void OnReceive(const net::Packet& packet, net::NodeId from) override {
    ScopedSpan span(SpanName::kCoreOnReceive);
    P::OnReceive(packet, from);
  }
};

// The method switches Scenario and RunMultiAdScenario fold into the gossip
// options before building protocols.
void FoldMethod(ScenarioConfig* config) {
  switch (config->method) {
    case Method::kFlooding:
    case Method::kResourceExchange:
      break;
    case Method::kGossip:
      config->gossip.annulus = false;
      config->gossip.postpone = false;
      break;
    case Method::kOptimized1:
      config->gossip.annulus = true;
      config->gossip.postpone = false;
      break;
    case Method::kOptimized2:
      config->gossip.annulus = false;
      config->gossip.postpone = true;
      break;
    case Method::kOptimized:
      config->gossip.annulus = true;
      config->gossip.postpone = true;
      break;
  }
}

Status Supported(const ScenarioConfig& config) {
  if (config.mobility != scenario::Mobility::kRandomWaypoint) {
    return Status::InvalidArgument("traced assembly: waypoint mobility only");
  }
  if (config.method == Method::kResourceExchange) {
    return Status::InvalidArgument("traced assembly: no resource exchange");
  }
  if (config.tiles != 1 || config.fault.Enabled() || config.assign_interests) {
    return Status::InvalidArgument(
        "traced assembly: tiles = 1, no faults, no interests");
  }
  return Status::Ok();
}

}  // namespace

Fingerprint FingerprintOf(const scenario::RunResult& result) {
  return Fingerprint{result.events_executed, result.net.messages_sent,
                     result.net.deliveries, result.DeliveryRatePercent()};
}

Fingerprint FingerprintOf(const scenario::MultiAdResult& result) {
  return Fingerprint{0, result.net.messages_sent, result.net.deliveries,
                     result.MeanDeliveryRatePercent()};
}

Assembly::Assembly(const ScenarioConfig& config) : config_(config) {
  FoldMethod(&config_);
}

Assembly::~Assembly() = default;

StatusOr<std::unique_ptr<Assembly>> Assembly::Single(
    const ScenarioConfig& config) {
  if (Status valid = config.Validate(); !valid.ok()) return valid;
  if (Status supported = Supported(config); !supported.ok()) return supported;
  std::unique_ptr<Assembly> run(new Assembly(config));
  const ScenarioConfig& c = run->config_;
  const Rng root(c.seed);
  run->medium_ = std::make_unique<net::Medium>(c.medium, &run->simulator_,
                                               root.Fork(0x4D454449));
  run->issues_.push_back(Issue{c.issue_location, c.issue_time_s,
                               c.initial_radius_m, c.initial_duration_s,
                               c.content, 0});
  run->mobilities_.push_back(
      std::make_unique<mobility::Stationary>(c.issue_location));
  run->AddPeerMobility(0x10001);
  for (net::NodeId id = 0; id < run->mobilities_.size(); ++id) {
    if (Status added = run->medium_->AddNode(id, run->mobilities_[id].get());
        !added.ok()) {
      return added;
    }
  }
  for (net::NodeId id = 0; id < run->mobilities_.size(); ++id) {
    run->AddProtocol(id, root.Fork(0x20000 + id));
  }
  return run;
}

StatusOr<std::unique_ptr<Assembly>> Assembly::Multi(
    const scenario::MultiAdConfig& config) {
  if (Status valid = config.Validate(); !valid.ok()) return valid;
  if (Status supported = Supported(config.base); !supported.ok()) {
    return supported;
  }
  std::unique_ptr<Assembly> run(new Assembly(config.base));
  run->multi_ = true;
  const ScenarioConfig& c = run->config_;
  const Rng root(c.seed);
  run->medium_ = std::make_unique<net::Medium>(c.medium, &run->simulator_,
                                               root.Fork(0x4D414449));

  // Issue locations: the same placer draws, in the same order, as the
  // multi-ad harness.
  Rng placer = root.Fork(0x504C4143);
  const Rect placement{
      {config.border_margin_m, config.border_margin_m},
      {c.area_size_m - config.border_margin_m,
       c.area_size_m - config.border_margin_m}};
  std::vector<Vec2> locations(config.num_ads);
  if (config.num_stalls > 0) {
    std::vector<Vec2> stalls(config.num_stalls);
    for (Vec2& stall : stalls) stall = placer.UniformInRect(placement);
    std::vector<double> cumulative(config.num_stalls);
    double total = 0.0;
    for (int r = 0; r < config.num_stalls; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), config.zipf_s);
      cumulative[r] = total;
    }
    for (Vec2& location : locations) {
      const double draw = placer.Uniform(0.0, total);
      const size_t stall = static_cast<size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), draw) -
          cumulative.begin());
      location =
          stalls[std::min(stall, static_cast<size_t>(config.num_stalls - 1))];
    }
  } else {
    for (Vec2& location : locations) location = placer.UniformInRect(placement);
  }
  for (int i = 0; i < config.num_ads; ++i) {
    core::AdContent content = c.content;
    content.text += " #" + std::to_string(i);
    run->issues_.push_back(Issue{
        locations[i], config.first_issue_s + config.issue_spacing_s * i,
        config.ad_radius_m, config.ad_duration_s, std::move(content), 0});
    run->mobilities_.push_back(
        std::make_unique<mobility::Stationary>(locations[i]));
  }
  run->AddPeerMobility(0x10000);
  for (net::NodeId id = 0; id < run->mobilities_.size(); ++id) {
    if (Status added = run->medium_->AddNode(id, run->mobilities_[id].get());
        !added.ok()) {
      return added;
    }
    run->AddProtocol(id, root.Fork(0x20000 + id));
  }
  return run;
}

void Assembly::AddPeerMobility(uint64_t first_fork_label) {
  // The options MakePeerMobility gives a random-waypoint peer.
  mobility::RandomWaypoint::Options options;
  options.area = Rect{{0.0, 0.0}, {config_.area_size_m, config_.area_size_m}};
  options.min_speed_mps = config_.mean_speed_mps - config_.speed_delta_mps;
  options.max_speed_mps = config_.mean_speed_mps + config_.speed_delta_mps;
  options.min_pause_s = config_.min_pause_s;
  options.max_pause_s = config_.max_pause_s;
  const Rng root(config_.seed);
  for (int i = 0; i < config_.num_peers; ++i) {
    mobilities_.push_back(std::make_unique<TimedWaypoint>(
        options, root.Fork(first_fork_label + static_cast<uint64_t>(i))));
  }
}

void Assembly::AddProtocol(net::NodeId id, Rng rng) {
  core::ProtocolContext context;
  context.simulator = &simulator_;
  context.medium = medium_.get();
  context.self = id;
  context.delivery_log = &log_;
  context.rng = rng;
  if (config_.method == Method::kFlooding) {
    protocols_.push_back(
        std::make_unique<TimedProtocol<core::RestrictedFlooding>>(
            std::move(context), config_.flooding));
  } else {
    protocols_.push_back(
        std::make_unique<TimedProtocol<core::OpportunisticGossip>>(
            std::move(context), config_.gossip));
  }
  protocols_.back()->Start();
}

AssemblyResult Assembly::Run(double slice_s) {
  ScopedSpan run_span(SpanName::kScenarioRun);
  AssemblyResult result;
  // Index refreshes follow Medium::RefreshIndex's rule: a neighbour query
  // rebuilds when the index is older than reindex_interval_s. Every
  // broadcast queries once; nothing else in these workloads does.
  double index_time = -1.0;
  medium_->SetBroadcastObserver([&](net::NodeId, const net::Packet&,
                                    const Vec2&) {
    const double now = simulator_.Now();
    if (index_time < 0.0 ||
        now - index_time > config_.medium.reindex_interval_s) {
      ++result.index_rebuilds;
      index_time = now;
    }
  });
  for (size_t i = 0; i < issues_.size(); ++i) {
    Issue* issue = &issues_[i];
    simulator_.ScheduleAt(issue->time, [this, issue, i]() {
      auto issued = protocols_[i]->Issue(issue->content, issue->radius_m,
                                         issue->duration_s);
      issue->key = issued.ok() ? issued->Key() : 0;
      if (!multi_ && config_.method != Method::kFlooding &&
          config_.issuer_goes_offline) {
        simulator_.Schedule(1.0, [this]() {
          (void)medium_->SetOnline(0, false);
        });
      }
    });
  }

  const double horizon = config_.sim_time_s;
  for (int k = 1;; ++k) {
    const double until = std::min(horizon, slice_s * k);
    {
      ScopedSpan slice(SpanName::kSimRunUntil);
      simulator_.RunUntil(until);
    }
    result.pending_peak = std::max<uint64_t>(result.pending_peak,
                                             simulator_.PendingEvents());
    if (until >= horizon) break;
  }

  ScopedSpan aggregate(SpanName::kScenarioAggregate);
  scenario::MultiAdResult per_ad;
  const net::NodeId first_peer = static_cast<net::NodeId>(issues_.size());
  for (const Issue& issue : issues_) {
    const double life_end =
        std::min(issue.time + issue.duration_s, config_.sim_time_s);
    stats::AreaTracker tracker(Circle{issue.location, issue.radius_m},
                               issue.time, life_end);
    for (net::NodeId id = first_peer; id < mobilities_.size(); ++id) {
      tracker.Observe(id, mobilities_[id].get());
    }
    scenario::MultiAdResult::PerAd ad;
    ad.report = ComputeDeliveryReport(tracker, log_, issue.key);
    per_ad.ads.push_back(std::move(ad));
    result.first_receipts += log_.ReceiverCount(issue.key);
  }
  result.net = medium_->stats();
  per_ad.net = result.net;
  result.events = simulator_.ExecutedEvents();
  result.fingerprint =
      multi_ ? FingerprintOf(per_ad)
             : Fingerprint{result.events, result.net.messages_sent,
                           result.net.deliveries,
                           per_ad.ads[0].report.DeliveryRatePercent()};
  medium_->SetBroadcastObserver(nullptr);
  return result;
}

}  // namespace madnet::perfbench
