// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Declarative description of every fault a scenario injects. A FaultPlan is
// part of ScenarioConfig: it is parsed/serialized by scenario/config_io,
// hashed into the run manifest, and expanded into concrete simulator events
// by fault::FaultInjector using an RNG stream forked from the replication
// seed — so a fault-laden run is exactly as deterministic (and as
// --jobs-invariant) as a clean one. See docs/FAULTS.md.
//
// Three independent fault families, each off by default:
//
//   * Node churn — a deterministic subset of the mobile peers duty-cycles
//     between online and offline with exponentially distributed dwell
//     times. With `churn_crash`, going down is a crash: the node loses its
//     volatile protocol state (caches / resource memory) and rejoins cold.
//   * Loss episodes — periodic windows during which the medium's random
//     per-receiver loss probability is raised by `loss_extra` (a crowd, a
//     microwave oven, cross-traffic).
//   * Regional outage — a jammer rectangle: while active, receivers inside
//     it decode nothing (a dead mall wing, a garage level).

#ifndef MADNET_FAULT_FAULT_PLAN_H_
#define MADNET_FAULT_FAULT_PLAN_H_

#include "util/geometry.h"
#include "util/status.h"

namespace madnet::fault {

struct FaultPlan {
  // --- Node churn (peers only; the issuer never churns) ---
  /// Probability that a given peer is a churner, in [0, 1]. 0 disables.
  double churn_rate = 0.0;
  /// Mean online dwell time of a churner (exponential; > 0 when churning).
  double churn_up_s = 120.0;
  /// Mean offline dwell time of a churner (exponential; > 0 when churning).
  double churn_down_s = 60.0;
  /// When true, going down is a crash: volatile protocol state is lost.
  bool churn_crash = false;
  /// No churner goes down before this instant.
  double churn_start_s = 0.0;

  // --- Loss episodes (time-varying medium loss) ---
  /// Loss probability added to Medium::Options::loss_probability during an
  /// episode (the sum is clamped to 1). 0 disables episodes.
  double loss_extra = 0.0;
  /// Length of one episode (> 0 when loss_extra > 0).
  double loss_episode_s = 0.0;
  /// Start-to-start spacing of episodes; 0 means a single episode.
  double loss_period_s = 0.0;
  /// First episode's start time.
  double loss_start_s = 0.0;

  // --- Regional outage (jammer rectangle) ---
  /// Jammed region; a zero-area rectangle disables the outage.
  Rect outage_rect{{0.0, 0.0}, {0.0, 0.0}};
  double outage_start_s = 0.0;  ///< Jammer switches on.
  double outage_end_s = 0.0;    ///< Jammer switches off (> start).

  bool ChurnEnabled() const { return churn_rate > 0.0; }
  bool LossEpisodesEnabled() const { return loss_extra > 0.0; }
  bool OutageEnabled() const { return outage_rect.Area() > 0.0; }

  /// True iff any fault family is active. When false, Scenario builds no
  /// injector and the simulation is byte-identical to a plan-less run.
  bool Enabled() const {
    return ChurnEnabled() || LossEpisodesEnabled() || OutageEnabled();
  }

  /// Range/consistency checks; called from ScenarioConfig::Validate().
  Status Validate() const;
};

}  // namespace madnet::fault

#endif  // MADNET_FAULT_FAULT_PLAN_H_
