// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Builds and runs one complete experiment: simulator + medium + mobility +
// one protocol instance per node + K stationary issuers, then computes the
// paper's metrics over each advertisement's life cycle. A single-ad run is
// K = 1; a multi-ad run (scenario/multi_ad.h) puts one issuer per ad.

#ifndef MADNET_SCENARIO_SCENARIO_H_
#define MADNET_SCENARIO_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "fault/fault_injector.h"
#include "mobility/mobility_model.h"
#include "mobility/trace_io.h"
#include "net/medium.h"
#include "obs/flight_recorder.h"
#include "obs/run_context.h"
#include "obs/tile_load.h"
#include "scenario/config.h"
#include "sim/simulator.h"
#include "stats/delivery.h"
#include "util/logging.h"

namespace madnet::scenario {

struct MultiAdConfig;  // scenario/multi_ad.h

/// One issued advertisement and its delivery report.
struct IssuedAd {
  uint64_t key = 0;              ///< The ad's key (0 until issued).
  Vec2 location;                 ///< Issue location, the area's centre.
  sim::Time issue_time = 0.0;
  stats::DeliveryReport report;  ///< Over the ad's own life cycle; only
                                 ///< mobile peers count.
};

/// Everything a run reports.
struct RunResult {
  stats::DeliveryReport report;   ///< Delivery rate & delivery times of
                                  ///< the first ad (all ads: Scenario::ads).
  net::MediumStats net;           ///< Message/byte/drop counters.
  fault::FaultStats fault;        ///< Injected-fault counters (all zero
                                  ///< when the config's plan is disabled).
  uint64_t events_executed = 0;   ///< Simulator events (sanity/efficiency).
  uint64_t ad_key = 0;            ///< The first issued ad's key.
  double final_rank = 0.0;        ///< FM rank estimate of the first ad at
                                  ///< end of run (0 when ranking is off or
                                  ///< the ad vanished).
  double final_radius_m = 0.0;    ///< First ad's R at end (enlargement
                                  ///< evidence).
  double final_duration_s = 0.0;  ///< First ad's D at end.

  double DeliveryRatePercent() const { return report.DeliveryRatePercent(); }
  double MeanDeliveryTime() const { return report.MeanDeliveryTime(); }
  uint64_t Messages() const { return net.messages_sent; }
};

/// One assembled simulation. Typical use is the one-liner RunScenario();
/// the class form lets examples reach into the pieces (issue more ads,
/// inspect caches) before/after Run(). Node ids: issuers are
/// 0..num_issuers()-1, each stationary at its ad's location; mobile peers
/// follow.
class Scenario {
 public:
  /// Builds a single-ad scenario: one issuer puts out the ad described by
  /// the config's issue_* fields. `config` must Validate() (asserted).
  explicit Scenario(const ScenarioConfig& config) : Scenario(config, nullptr) {}

  /// Observed variant: when `obs` is non-null the scenario emits trace
  /// records (per the context's enabled categories) from the simulator,
  /// the medium, and every protocol instance, books setup / event-loop /
  /// aggregation phase timings, and snapshots run metrics into the
  /// context's registry at the end of Run(). `obs` is borrowed and must
  /// outlive the scenario. With nullptr this is exactly the plain ctor —
  /// hot paths pay a single null test per potential record.
  Scenario(const ScenarioConfig& config, obs::RunContext* obs);

  /// Builds a multi-ad scenario: `config.num_ads` issuers, placed and
  /// scheduled as described on MultiAdConfig; everything else comes from
  /// `config.base`. `config` must Validate() (asserted). `obs` as above;
  /// the trace header hashes SaveMultiAdConfigText.
  explicit Scenario(const MultiAdConfig& config,
                    obs::RunContext* obs = nullptr);

  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Runs to config.sim_time_s and reports the metrics. Call once.
  RunResult Run();

  /// The node id of the first issuer (for a single-ad run, the
  /// stationary node at issue_location).
  net::NodeId issuer_id() const { return 0; }

  /// Issuers are nodes 0..num_issuers()-1; issuer i puts out the i-th ad.
  /// The issuer_goes_offline event and the fault layer's churner exclusion
  /// route through this count, never a literal node id.
  int num_issuers() const { return static_cast<int>(issues_.size()); }

  /// Peer ids are num_issuers()..num_issuers()+num_peers()-1.
  int num_peers() const { return config_.num_peers; }

  sim::Simulator* simulator() { return &simulator_; }
  net::Medium* medium() { return medium_.get(); }
  stats::DeliveryLog* delivery_log() { return &delivery_log_; }

  /// The protocol instance of a node (issuer included).
  core::Protocol* protocol(net::NodeId id) { return protocols_[id].get(); }

  /// The mobility model of a node.
  mobility::MobilityModel* mobility(net::NodeId id) {
    return mobilities_[id].get();
  }

  /// Key of the first advertisement issued during Run(); 0 before it is
  /// issued. Valid inside custom events scheduled after its issue time
  /// (e.g. samplers) and after Run() returns.
  uint64_t issued_ad_key() const { return ads_.front().key; }

  /// Every ad, in issuer order. Keys are set as the ads are issued, and
  /// reports once Run() returns.
  const std::vector<IssuedAd>& ads() const { return ads_; }

  /// Records every node's trajectory over [0, horizon] (issuers included,
  /// under their node ids) — e.g. for SaveTraces, or for replaying the
  /// identical movement under a protocol built outside the Scenario harness.
  mobility::TraceSet RecordTraces(sim::Time horizon);

  /// The config that runs: for a multi-ad scenario its `base`, and in
  /// both cases with the method's switches folded into `gossip`.
  const ScenarioConfig& config() const { return config_; }

 private:
  /// One ad to put out: issuer i issues issues_[i].
  struct Issue {
    Vec2 location;
    sim::Time time = 0.0;
    double radius_m = 0.0;
    double duration_s = 0.0;
    core::AdContent content;
  };

  /// Random-stream labels that differ between the two entry points. Each
  /// keeps the pair it has always used, so single-ad traces and multi-ad
  /// results stay as pinned by their golden tests: the medium forks from
  /// `medium`, and the i-th mobile peer (0-based) from
  /// `first_peer_mobility + i`.
  struct StreamLabels {
    uint64_t medium;
    uint64_t first_peer_mobility;
  };
  static constexpr StreamLabels kSingleAdStreams{0x4D454449,  // "MEDI"
                                                 0x10001};    // 0x10000+id
  static constexpr StreamLabels kMultiAdStreams{0x4D414449,  // "MADI"
                                                0x10000};    // 0x10000+peer

  /// What an entry point hands the shared assembly.
  struct Plan {
    ScenarioConfig config;     ///< Method switches already folded.
    std::vector<Issue> issues;
    StreamLabels streams;
    /// Hashed into the trace header; empty for unobserved runs.
    std::string config_text;
  };

  /// `config` with the per-method optimization switches folded into its
  /// gossip options.
  static ScenarioConfig FoldMethod(const ScenarioConfig& config);
  static Plan SingleAdPlan(const ScenarioConfig& config, bool observed);
  /// Defined in multi_ad.cc, next to the issue placement it draws.
  static Plan MultiAdPlan(const MultiAdConfig& config, bool observed);

  /// The one assembly path behind both public constructors.
  Scenario(Plan plan, obs::RunContext* obs);

  /// Creates the protocol instance for one node per config_.method.
  std::unique_ptr<core::Protocol> MakeProtocol(net::NodeId id, Rng rng);

  /// Snapshots the finished run's counters and reports into obs_->metrics.
  void CaptureMetrics(const RunResult& result);

  ScenarioConfig config_;
  obs::RunContext* obs_;  // Borrowed; may be null.
  sim::Simulator simulator_;
  // Log records carry virtual time while this scenario is on the stack.
  ScopedLogClock log_clock_;
  std::vector<Issue> issues_;
  std::unique_ptr<net::Medium> medium_;
  stats::DeliveryLog delivery_log_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobilities_;
  std::vector<std::unique_ptr<core::Protocol>> protocols_;
  /// Expands config_.fault into simulator events; null when the plan is
  /// disabled (the run is then byte-identical to a pre-fault-layer one).
  std::unique_ptr<fault::FaultInjector> injector_;
  /// Per-tile broadcast/delivery/queue-depth counters (observed runs only;
  /// tile edge = the radio range, so a tile is one interference
  /// neighbourhood). Summarized into obs_->metrics by CaptureMetrics.
  std::unique_ptr<obs::TileLoadMap> tiles_;
  /// Postmortem ring auto-attached for observed fault runs when the
  /// session did not install one (see ctor); detached in the dtor.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  /// ads_[i] is issues_[i]'s outcome.
  std::vector<IssuedAd> ads_;
  bool ran_ = false;
};

/// Builds, runs, and reports one scenario.
RunResult RunScenario(const ScenarioConfig& config);

/// Observed variant; see Scenario's two-argument constructor.
RunResult RunScenario(const ScenarioConfig& config, obs::RunContext* obs);

}  // namespace madnet::scenario

#endif  // MADNET_SCENARIO_SCENARIO_H_
