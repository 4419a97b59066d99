// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The traced run's scenario assembly. scenario::Scenario and
// scenario::RunMultiAdScenario build their protocols and mobility models
// internally, so the benchmark cannot time OnReceive or NextLeg through
// them. This assembly builds the same run from the same public pieces, in
// the same order and from the same Rng::Fork labels, but with
// benchmark-side subclasses whose OnReceive / NextLeg record a span, and
// it drives the event loop in RunUntil slices so the loop is spanned too.
//
// It must compute exactly what the harness it mirrors computes: the runner
// compares its fingerprint with the untraced run's and fails the workload
// on any difference.

#ifndef MADNET_PERFBENCH_ASSEMBLY_H_
#define MADNET_PERFBENCH_ASSEMBLY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/protocol.h"
#include "mobility/mobility_model.h"
#include "net/medium.h"
#include "scenario/multi_ad.h"
#include "sim/simulator.h"
#include "stats/delivery.h"
#include "util/status.h"

namespace madnet::perfbench {

/// What the output check compares between runs of one seed.
struct Fingerprint {
  uint64_t events = 0;  ///< 0 where the harness does not report it.
  uint64_t messages = 0;
  uint64_t deliveries = 0;
  double delivery_rate_percent = 0.0;

  bool operator==(const Fingerprint& other) const = default;
};

Fingerprint FingerprintOf(const scenario::RunResult& result);
/// RunMultiAdScenario reports no event count; `events` stays 0.
Fingerprint FingerprintOf(const scenario::MultiAdResult& result);

/// Counts the traced run reads from one assembled run.
struct AssemblyResult {
  Fingerprint fingerprint;
  uint64_t events = 0;
  net::MediumStats net;
  uint64_t first_receipts = 0;  ///< Distinct (ad, peer) receipts.
  uint64_t pending_peak = 0;    ///< Max pending events at slice ends.
  uint64_t index_rebuilds = 0;  ///< Derived; see Assembly::Run.
};

/// One run assembled from public madnet pieces. Build with Single() or
/// Multi(), then Run() once.
class Assembly {
 public:
  /// Mirrors scenario::Scenario. Supports what the workloads use: random
  /// waypoint mobility, flooding or gossip, tiles = 1, no fault plan, no
  /// interest profiles.
  static StatusOr<std::unique_ptr<Assembly>> Single(
      const scenario::ScenarioConfig& config);

  /// Mirrors scenario::RunMultiAdScenario, with the same restrictions.
  static StatusOr<std::unique_ptr<Assembly>> Multi(
      const scenario::MultiAdConfig& config);

  ~Assembly();
  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  /// Runs to the horizon in RunUntil slices of `slice_s` simulated seconds
  /// and aggregates like the mirrored harness.
  AssemblyResult Run(double slice_s);

 private:
  struct Issue {
    Vec2 location;
    double time = 0.0;
    double radius_m = 0.0;
    double duration_s = 0.0;
    core::AdContent content;
    uint64_t key = 0;
  };

  explicit Assembly(const scenario::ScenarioConfig& config);

  /// Builds peers' mobility; the caller adds the issuers first.
  void AddPeerMobility(uint64_t first_fork_label);
  /// Creates node `id`'s protocol from fork label 0x20000 + id and starts it.
  void AddProtocol(net::NodeId id, Rng rng);

  scenario::ScenarioConfig config_;  // Method switches folded in.
  bool multi_ = false;
  sim::Simulator simulator_;
  std::unique_ptr<net::Medium> medium_;
  stats::DeliveryLog log_;
  std::vector<Issue> issues_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobilities_;
  std::vector<std::unique_ptr<core::Protocol>> protocols_;
};

}  // namespace madnet::perfbench

#endif  // MADNET_PERFBENCH_ASSEMBLY_H_
