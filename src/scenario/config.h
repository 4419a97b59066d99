// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Scenario configuration — the paper's Table II / Table III parameters plus
// every reconstruction default (see DESIGN.md "Parameter reconstruction").
// One ScenarioConfig fully determines a run: same config + same seed =>
// identical results.

#ifndef MADNET_SCENARIO_CONFIG_H_
#define MADNET_SCENARIO_CONFIG_H_

#include <span>
#include <string>

#include "core/interest.h"
#include "core/opportunistic_gossip.h"
#include "core/resource_exchange.h"
#include "core/restricted_flooding.h"
#include "fault/fault_plan.h"
#include "net/medium.h"
#include "util/status.h"

namespace madnet::scenario {

/// Which advertising protocol the scenario's peers run — the paper's five
/// compared methods.
enum class Method {
  kFlooding,    ///< Restricted Flooding (baseline, Section III-B).
  kGossip,      ///< Pure Opportunistic Gossiping (Section III-C).
  kOptimized1,  ///< Gossip + Optimization 1 (annulus).
  kOptimized2,  ///< Gossip + Optimization 2 (postpone).
  kOptimized,   ///< Gossip + both optimizations ("Optimized Gossiping").
  /// Extension beyond the paper's five: the related-work exchange-at-
  /// encounter model (Section II), for head-to-head comparison.
  kResourceExchange,
};

/// One value of a config enum: the token config files and madnet_run
/// flags spell it with, and its display name for reports.
template <typename E>
struct EnumToken {
  E value;
  const char* token;
  const char* name;
};

/// Every Method; display names as the paper's figure legends spell them.
inline constexpr EnumToken<Method> kMethodTokens[] = {
    {Method::kFlooding, "flooding", "Flooding"},
    {Method::kGossip, "gossip", "Gossiping"},
    {Method::kOptimized1, "optimized1", "Optimized Gossiping-1"},
    {Method::kOptimized2, "optimized2", "Optimized Gossiping-2"},
    {Method::kOptimized, "optimized", "Optimized Gossiping"},
    {Method::kResourceExchange, "exchange", "Resource Exchange"},
};

/// Human-readable method name, as the paper's figure legends spell it.
const char* MethodName(Method method);

/// Which mobility model the peers follow. The paper evaluates Random
/// Waypoint; the others are extensions (urban streets, waypoints biased
/// towards attraction points such as the issuing shop, and straight-line
/// vehicular motion along a highway strip).
enum class Mobility {
  kRandomWaypoint,
  kManhattanGrid,
  kHotspot,
  /// Constant-velocity lanes: each peer keeps a fixed y (its lane) and
  /// drives along x at its drawn speed, reflecting at the arena walls —
  /// the vehicular highway-strip regime of the scenario corpus.
  kHighway,
};

/// Every Mobility model.
inline constexpr EnumToken<Mobility> kMobilityTokens[] = {
    {Mobility::kRandomWaypoint, "waypoint", "Random Waypoint"},
    {Mobility::kManhattanGrid, "manhattan", "Manhattan Grid"},
    {Mobility::kHotspot, "hotspot", "Hotspot Waypoint"},
    {Mobility::kHighway, "highway", "Highway Strip"},
};

/// Human-readable mobility model name.
const char* MobilityName(Mobility mobility);

/// The token table of an enum, for code generic over the enum type.
constexpr std::span<const EnumToken<Method>> TokensOf(Method) {
  return kMethodTokens;
}
constexpr std::span<const EnumToken<Mobility>> TokensOf(Mobility) {
  return kMobilityTokens;
}

/// The table row of `value`, or nullptr for a value outside the enum.
template <typename E>
const EnumToken<E>* FindToken(E value) {
  for (const EnumToken<E>& entry : TokensOf(value)) {
    if (entry.value == value) return &entry;
  }
  return nullptr;
}

/// The accepted tokens of an enum in table order: "waypoint|manhattan|...".
template <typename E>
std::string AcceptedTokens() {
  std::string tokens;
  for (const EnumToken<E>& entry : TokensOf(E{})) {
    if (!tokens.empty()) tokens += '|';
    tokens += entry.token;
  }
  return tokens;
}

/// Full description of one simulation run.
struct ScenarioConfig {
  // --- Population & area (Table II defaults) ---
  double area_size_m = 5000.0;  ///< Square side; area is [0, s] x [0, s].
  int num_peers = 300;          ///< Mobile peers (excluding the issuer).
  uint64_t seed = 1;            ///< Root of all randomness in the run.

  // --- Timing ---
  double sim_time_s = 2000.0;   ///< Total simulated time.
  double issue_time_s = 60.0;   ///< When the advertisement is issued.

  // --- The advertisement ---
  Vec2 issue_location{2500.0, 2500.0};  ///< Centre of the area.
  double initial_radius_m = 1000.0;     ///< R.
  double initial_duration_s = 800.0;    ///< D.
  core::AdContent content{"petrol", {"petrol", "discount"},
                          "unleaded 95 at 1.09/L until 10am"};

  // --- Mobility ---
  Mobility mobility = Mobility::kRandomWaypoint;
  double mean_speed_mps = 10.0;  ///< Speeds uniform in mean +- delta.
  double speed_delta_mps = 5.0;
  double min_pause_s = 0.0;      ///< Pause bounds at each waypoint (not in
  double max_pause_s = 10.0;     ///< the paper's tables; see DESIGN.md).
  /// Manhattan grid: street spacing (kManhattanGrid only).
  double manhattan_block_m = 500.0;
  /// Hotspot model: attraction-point pull (kHotspot only). The issue
  /// location is always a hotspot; `hotspot_extra` adds that many more at
  /// deterministic pseudo-random positions.
  double hotspot_probability = 0.6;
  double hotspot_sigma_m = 200.0;
  int hotspot_extra = 3;

  // --- Protocol ---
  Method method = Method::kOptimized;
  /// Gossip parameters; `annulus` and `postpone` are overridden by
  /// `method`, everything else applies as given.
  core::GossipOptions gossip;
  core::RestrictedFlooding::Options flooding;
  core::ResourceExchange::Options exchange;
  /// When true, gossip issuers seed the ad once and go offline — the
  /// paper's robustness argument (Section III-C). Default false, matching
  /// the paper's *evaluation*: the issuer keeps participating as an
  /// ordinary gossiping peer. In sparse networks a fire-and-forget issuer
  /// frequently has no neighbour at issue time and the ad is lost ("if all
  /// peers within an advertising area accidentally leave ... the issuer
  /// peer has to broadcast the advertisement again"); flooding issuers
  /// always stay online.
  bool issuer_goes_offline = false;

  // --- PHY / MAC ---
  net::Medium::Options medium;

  /// Retired execution-plan key, pinned to 1 (Validate rejects any other
  /// value). It survives only because SaveConfigText writes it into the
  /// config text every trace header hashes.
  int tiles = 1;

  // --- Fault injection (churn / loss episodes / outage; all off by
  // default — see docs/FAULTS.md) ---
  fault::FaultPlan fault;

  // --- Interests (ranking experiments only) ---
  bool assign_interests = false;
  core::InterestGenerator::Options interest_options;

  /// The paper's Table II configuration (which these defaults already
  /// encode); provided for explicitness in benches.
  static ScenarioConfig PaperDefaults();

  /// Checks cross-field consistency (positive sizes, speed bounds, medium
  /// max speed covering mobility speeds, fault geometry inside the arena,
  /// ...). Every rejection names the offending config-file key(s), the bad
  /// value, and the accepted range, so a config error is actionable before
  /// any simulator state exists — see docs/scenario_schema.md for the full
  /// contract.
  Status Validate() const;
};

}  // namespace madnet::scenario

#endif  // MADNET_SCENARIO_CONFIG_H_
