// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Battery cost per method (extension): the paper motivates its
// optimizations with scarce wireless bandwidth and device resources.
// Using a standard linear 802.11 energy model (Feeney-Nilsson broadcast
// coefficients) over per-node radio counts, this bench reports the
// network-wide radio energy of one Table-II advertising life cycle and
// the worst single peer's cost — i.e. what each method asks of a handset
// battery.

#include <algorithm>
#include <cstdint>
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

/// One node's radio traffic over a run.
struct RadioCounts {
  uint64_t sent = 0;
  uint64_t sent_bytes = 0;
  uint64_t received = 0;
  uint64_t received_bytes = 0;
};

/// Counts every node's sends (through the broadcast observer) and
/// receptions (through a receiver that counts each frame, then hands it
/// to the node's protocol) from here on. `counts` must outlive the run.
void CountRadio(Scenario* scenario, std::vector<RadioCounts>* counts) {
  net::Medium* medium = scenario->medium();
  counts->assign(medium->node_count(), {});
  medium->SetBroadcastObserver(
      [counts](net::NodeId from, const net::Packet& packet, const Vec2&) {
        (*counts)[from].sent += 1;
        (*counts)[from].sent_bytes += packet.size_bytes;
      });
  for (net::NodeId id = 0; id < counts->size(); ++id) {
    net::Receiver* protocol = scenario->protocol(id);
    const Status status = medium->SetReceiver(
        id, [counts, protocol](const net::Packet& packet, net::NodeId from,
                               net::NodeId to) {
          (*counts)[to].received += 1;
          (*counts)[to].received_bytes += packet.size_bytes;
          protocol->OnFrame(packet, from, to);
        });
    MADNET_DCHECK(status.ok());
  }
}

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
    std::vector<RadioCounts> counts;
    CountRadio(&scenario, &counts);
    RunResult result = scenario.Run();

    double total = 0.0;
    double tx_total = 0.0;
    double rx_total = 0.0;
    double peak = 0.0;
    for (net::NodeId id = 1;
         id <= static_cast<net::NodeId>(config.num_peers); ++id) {
      const RadioCounts& node = counts[id];
      const double tx = stats::NodeEnergyJoules(node.sent, node.sent_bytes,
                                                0, 0, model);
      const double rx = stats::NodeEnergyJoules(
          0, 0, node.received, node.received_bytes, model);
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
