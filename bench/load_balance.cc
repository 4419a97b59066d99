// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Forwarding-load distribution across peers, per method. Optimization 1
// deliberately concentrates the gossiping on the annulus; this ablation
// quantifies the cost: the share of all frames sent by the busiest 10% of
// peers, and a Gini coefficient of the per-peer transmission counts.
// (Not a figure of the paper; supports the DESIGN.md discussion of the
// annulus mechanism's side effects.)

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "scenario/scenario.h"
#include "util/table.h"

namespace madnet {
namespace {

using scenario::Method;
using scenario::MethodName;
using scenario::RunResult;
using scenario::Scenario;
using scenario::ScenarioConfig;

/// Gini coefficient of a non-negative sample set (0 = perfectly even,
/// -> 1 = fully concentrated).
double Gini(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double cumulative = 0.0;
  double weighted = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    cumulative += values[i];
    weighted += values[i] * static_cast<double>(i + 1);
  }
  if (cumulative == 0.0) return 0.0;
  const double n = static_cast<double>(values.size());
  return (2.0 * weighted) / (n * cumulative) - (n + 1.0) / n;
}

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Forwarding-load distribution across peers (300 peers)",
      "Optimization 1 concentrates transmissions on annulus peers: its "
      "top-10% share and Gini rise above pure Gossiping's, while the "
      "total load falls. Optimization 2 spreads the (much smaller) load "
      "more evenly again.");

  auto csv = bench::OpenCsv(env, "load_balance.csv",
                            {"method", "messages", "gini",
                             "top10pct_share_pct", "max_per_peer"});
  Table table({"method", "messages", "gini", "top10%_share_pct",
               "max_frames_one_peer"});
  for (Method method : {Method::kFlooding, Method::kGossip,
                        Method::kOptimized1, Method::kOptimized2,
                        Method::kOptimized}) {
    ScenarioConfig config;
    config.method = method;
    config.num_peers = 300;
    config.seed = 8;
    Scenario scenario(config);
    // Frames each node put on the air.
    std::vector<uint64_t> sent(scenario.medium()->node_count(), 0);
    scenario.medium()->SetBroadcastObserver(
        [&sent](net::NodeId from, const net::Packet&, const Vec2&) {
          ++sent[from];
        });
    RunResult result = scenario.Run();

    std::vector<double> per_peer;
    per_peer.reserve(config.num_peers);
    for (net::NodeId id = 1;
         id <= static_cast<net::NodeId>(config.num_peers); ++id) {
      per_peer.push_back(static_cast<double>(sent[id]));
    }
    std::vector<double> sorted = per_peer;
    std::sort(sorted.rbegin(), sorted.rend());
    double total = 0.0;
    for (double v : sorted) total += v;
    double top10 = 0.0;
    const size_t top_count = std::max<size_t>(1, sorted.size() / 10);
    for (size_t i = 0; i < top_count; ++i) top10 += sorted[i];
    const double top10_share = total == 0.0 ? 0.0 : 100.0 * top10 / total;

    table.Row(MethodName(method), result.Messages(),
              Table::Num(Gini(per_peer), 3), Table::Num(top10_share, 1),
              Table::Num(sorted.empty() ? 0.0 : sorted.front(), 0));
    if (csv) {
      csv->Row(MethodName(method), result.Messages(), Gini(per_peer),
               top10_share, sorted.empty() ? 0.0 : sorted.front());
    }
  }
  table.Print();
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
