// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Battery cost per method (extension): the paper motivates its
// optimizations with scarce wireless bandwidth and device resources.
// Using a standard linear 802.11 energy model (Feeney-Nilsson broadcast
// coefficients) over the per-node radio counters, this bench reports the
// network-wide radio energy of one Table-II advertising life cycle and
// the worst single peer's cost — i.e. what each method asks of a handset
// battery.

#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "scenario/scenario.h"
#include "stats/energy.h"
#include "util/table.h"

namespace madnet {
namespace {

using scenario::Method;
using scenario::MethodName;
using scenario::RunResult;
using scenario::Scenario;
using scenario::ScenarioConfig;

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Radio energy per method (300 peers, Table II, one ad life cycle)",
      "Optimized Gossiping cuts network radio energy by roughly the same "
      "order of magnitude as its message reduction; receive energy "
      "dominates for chatty methods because every frame wakes every "
      "in-range radio.");

  auto csv = bench::OpenCsv(env, "energy.csv",
                            {"method", "total_j", "tx_j", "rx_j",
                             "mean_peer_mj", "max_peer_mj"});
  Table table({"method", "network_J", "tx_J", "rx_J", "mean_peer_mJ",
               "max_peer_mJ"});
  const stats::EnergyModel model;
  for (Method method : {Method::kFlooding, Method::kGossip,
                        Method::kOptimized1, Method::kOptimized2,
                        Method::kOptimized}) {
    ScenarioConfig config;
    config.method = method;
    config.num_peers = 300;
    config.seed = 12;
    Scenario scenario(config);
    RunResult result = scenario.Run();

    double total = 0.0;
    double tx_total = 0.0;
    double rx_total = 0.0;
    double peak = 0.0;
    for (net::NodeId id = 1;
         id <= static_cast<net::NodeId>(config.num_peers); ++id) {
      const auto* medium = scenario.medium();
      const double tx = stats::NodeEnergyJoules(
          medium->SentBy(id), medium->SentBytesBy(id), 0, 0, model);
      const double rx = stats::NodeEnergyJoules(
          0, 0, medium->ReceivedBy(id), medium->ReceivedBytesBy(id), model);
      tx_total += tx;
      rx_total += rx;
      total += tx + rx;
      peak = std::max(peak, tx + rx);
    }
    const double mean_mj = 1000.0 * total / config.num_peers;
    table.Row(MethodName(method), Table::Num(total, 2),
              Table::Num(tx_total, 2), Table::Num(rx_total, 2),
              Table::Num(mean_mj, 1), Table::Num(1000.0 * peak, 1));
    if (csv) {
      csv->Row(MethodName(method), total, tx_total, rx_total, mean_mj,
               1000.0 * peak);
    }
  }
  table.Print();
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
