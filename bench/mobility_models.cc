// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Robustness across movement patterns (extension beyond the paper's
// Random Waypoint evaluation): the same Table-II advertising scenario
// under urban street movement (Manhattan grid) and attraction-point
// movement (Hotspot Waypoint, with the issuing shop as the main hotspot).
// The method orderings of Figure 7 should survive the mobility change;
// hotspot pull concentrates peers near the issuer and helps delivery.

#include <vector>

#include "bench/bench_util.h"
#include "exec/replication.h"
#include "util/table.h"

namespace madnet {
namespace {

using exec::Aggregate;
using scenario::Method;
using scenario::MethodName;
using scenario::Mobility;
using scenario::MobilityName;
using exec::RunReplicated;
using scenario::ScenarioConfig;

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Mobility-model robustness (300 peers, Table II otherwise)",
      "Hotspot pull concentrates peers near the issuer: every method "
      "reaches ~100% and Optimized keeps its ~10x message advantage. "
      "Street-bound movement (500 m blocks, 250 m radios) partitions the "
      "network between parallel streets — the sparse regime of Figure 7 "
      "reappears: Flooding collapses while store-&-forward Gossiping "
      "stays far ahead, exactly the paper's robustness argument.");

  auto csv = bench::OpenCsv(env, "mobility_models.csv",
                            {"mobility", "method", "delivery_rate_pct",
                             "delivery_time_s", "messages"});
  const std::vector<Mobility> mobilities = {
      Mobility::kRandomWaypoint, Mobility::kManhattanGrid,
      Mobility::kHotspot};
  const std::vector<Method> methods = {Method::kFlooding, Method::kGossip,
                                       Method::kOptimized};
  // results[mobility index * methods + method index], filled over the
  // worker pool; the table and CSV follow in grid order.
  std::vector<Aggregate> results(mobilities.size() * methods.size());
  bench::ParallelSweep(env, results.size(), [&](size_t point) {
    ScenarioConfig config;
    config.method = methods[point % methods.size()];
    config.mobility = mobilities[point / methods.size()];
    config.num_peers = 300;
    results[point] = RunReplicated(config, env.reps);
  });

  Table table({"mobility", "method", "rate_pct", "time_s", "messages"});
  for (size_t point = 0; point < results.size(); ++point) {
    const char* mobility = MobilityName(mobilities[point / methods.size()]);
    const char* method = MethodName(methods[point % methods.size()]);
    const Aggregate& aggregate = results[point];
    table.Row(mobility, method, Table::Num(aggregate.DeliveryRate(), 2),
              Table::Num(aggregate.DeliveryTime(), 2),
              Table::Num(aggregate.Messages(), 0));
    if (csv) {
      csv->Row(mobility, method, aggregate.DeliveryRate(),
               aggregate.DeliveryTime(), aggregate.Messages());
    }
  }
  table.Print();
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
