// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Evidence for the propagation-model requirements of Section III:
//
//   Requirement 1 — the advertisement is *densely distributed* inside the
//   advertising area, and sparsely outside. Measured two ways per sampling
//   window: transmissions per peer (forwarding density, via the medium's
//   broadcast observer) and cache-holder fraction, split inside/outside
//   the advertising circle.
//
//   Requirement 2 — the advertising area shrinks with age and the ad is
//   eventually eliminated: R_t (Formula 2) alongside the measurements,
//   which collapse to 0 shortly after t = D.
//
// One Optimized Gossiping run at the Table-II setting, sampled every 25 s.

#include <vector>

#include "bench/bench_util.h"
#include "core/opportunistic_gossip.h"
#include "core/propagation.h"
#include "scenario/scenario.h"
#include "stats/timeseries.h"
#include "util/table.h"

namespace madnet {
namespace {

using scenario::Method;
using scenario::Scenario;
using scenario::ScenarioConfig;

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Section III requirements — coverage dynamics over the ad's life",
      "Req 1: forwarding density high inside the advertising area, near "
      "zero outside. Req 2: R_t ~ R for most of the life, collapsing near "
      "t = D; the ad is gone from every cache shortly after.");

  ScenarioConfig config;
  config.method = Method::kOptimized;
  config.num_peers = 300;
  config.sim_time_s = 1000.0;  // D = 800 plus slack to observe elimination.
  config.seed = 3;

  Scenario scenario(config);

  // Transmission counters for the current sampling window, reset by the
  // sampler. Sender position classifies inside/outside.
  uint64_t window_tx_inside = 0;
  uint64_t window_tx_outside = 0;
  scenario.medium()->SetBroadcastObserver(
      [&](net::NodeId /*from*/, const net::Packet& /*packet*/,
          const Vec2& origin) {
        if (Distance(origin, config.issue_location) <=
            config.initial_radius_m) {
          ++window_tx_inside;
        } else {
          ++window_tx_outside;
        }
      });

  stats::TimeSeries tx_inside_per_peer("tx_inside_per_peer");
  stats::TimeSeries tx_outside_per_peer("tx_outside_per_peer");
  stats::TimeSeries holders_inside("holders_inside_pct");
  stats::TimeSeries radius_series("radius_m");

  const double sample_period = 25.0;
  for (double t = config.issue_time_s + sample_period;
       t <= config.sim_time_s; t += sample_period) {
    scenario.simulator()->ScheduleAt(t, [&, t]() {
      const uint64_t key = scenario.issued_ad_key();
      int inside_total = 0;
      int outside_total = 0;
      int inside_holders = 0;
      for (net::NodeId id = 1;
           id <= static_cast<net::NodeId>(config.num_peers); ++id) {
        const bool inside =
            Distance(scenario.medium()->PositionOf(id),
                     config.issue_location) <= config.initial_radius_m;
        (inside ? inside_total : outside_total) += 1;
        if (inside) {
          const auto* gossip =
              dynamic_cast<const core::OpportunisticGossip*>(
                  scenario.protocol(id));
          if (gossip != nullptr && gossip->cache().Find(key) != nullptr) {
            ++inside_holders;
          }
        }
      }
      auto per_peer = [](uint64_t tx, int peers) {
        return peers == 0 ? 0.0 : static_cast<double>(tx) / peers;
      };
      (void)tx_inside_per_peer.Add(t, per_peer(window_tx_inside,
                                               inside_total));
      (void)tx_outside_per_peer.Add(t, per_peer(window_tx_outside,
                                                outside_total));
      (void)holders_inside.Add(
          t, inside_total == 0 ? 0.0
                               : 100.0 * inside_holders / inside_total);
      (void)radius_series.Add(
          t, core::RadiusAtAge(config.initial_radius_m,
                               config.initial_duration_s,
                               t - config.issue_time_s,
                               config.gossip.propagation));
      window_tx_inside = 0;
      window_tx_outside = 0;
    });
  }

  scenario.Run();

  Table table({"t_s", "age_s", "R_t_m", "tx/peer inside", "tx/peer outside",
               "holders_inside_pct"});
  auto csv = bench::OpenCsv(
      env, "coverage_dynamics.csv",
      {"t_s", "age_s", "radius_m", "tx_per_peer_inside",
       "tx_per_peer_outside", "holders_inside_pct"});
  for (size_t i = 0; i < tx_inside_per_peer.Size(); ++i) {
    const double t = tx_inside_per_peer.At(i).time;
    table.Row(Table::Num(t, 0), Table::Num(t - config.issue_time_s, 0),
              Table::Num(radius_series.At(i).value, 1),
              Table::Num(tx_inside_per_peer.At(i).value, 2),
              Table::Num(tx_outside_per_peer.At(i).value, 2),
              Table::Num(holders_inside.At(i).value, 1));
    if (csv) {
      csv->Row(t, t - config.issue_time_s, radius_series.At(i).value,
               tx_inside_per_peer.At(i).value,
               tx_outside_per_peer.At(i).value, holders_inside.At(i).value);
    }
  }
  table.Print();

  const double mid_tx_inside = tx_inside_per_peer.MeanOver(200.0, 700.0);
  const double mid_tx_outside = tx_outside_per_peer.MeanOver(200.0, 700.0);
  const double after_expiry = holders_inside.MeanOver(
      config.issue_time_s + config.initial_duration_s + 50.0,
      config.sim_time_s);
  std::printf(
      "\nmid-life forwarding density: %.2f tx/peer inside vs %.2f outside "
      "per %.0f s window (requirement 1); holders after expiry+50s: %.1f%% "
      "(requirement 2)\n",
      mid_tx_inside, mid_tx_outside, sample_period, after_expiry);
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
