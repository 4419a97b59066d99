// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Figure 9: percentage of messages each optimization removes from pure
// Gossiping, versus network size. The paper reports: mechanism (1)'s
// reduction power decreases with density while mechanism (2)'s rises;
// mechanism (2) overtakes (1) once the network is dense (> 300 peers);
// the combination exceeds 80% reduction in dense networks.

#include <vector>

#include "bench/bench_util.h"
#include "exec/replication.h"
#include "util/table.h"

namespace madnet {
namespace {

using exec::Aggregate;
using scenario::Method;
using scenario::MethodName;
using exec::RunReplicated;
using scenario::ScenarioConfig;

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Figure 9 — % of messages reduced from pure Gossiping",
      "Opt-1's reduction shrinks as density grows; Opt-2's grows with "
      "density and overtakes Opt-1 in dense networks; Optimized (1+2) "
      "reduces >80% when dense.");

  std::vector<int> sizes = {100, 200, 300, 400, 500, 600, 700, 800, 900,
                            1000};
  if (env.fast) sizes = {100, 300, 1000};

  auto csv = bench::OpenCsv(env, "fig09_reduction.csv",
                            {"peers", "reduction_opt1_pct",
                             "reduction_opt2_pct", "reduction_opt_pct"});

  // messages[size index * methods + method index], filled over the worker
  // pool; the table and CSV follow in grid order.
  const std::vector<Method> methods = {Method::kGossip, Method::kOptimized1,
                                       Method::kOptimized2,
                                       Method::kOptimized};
  std::vector<double> messages(sizes.size() * methods.size());
  bench::ParallelSweep(env, messages.size(), [&](size_t point) {
    ScenarioConfig config;
    config.method = methods[point % methods.size()];
    config.num_peers = sizes[point / methods.size()];
    messages[point] = RunReplicated(config, env.reps).Messages();
  });

  Table table({"peers", "Optimized Gossiping-1", "Optimized Gossiping-2",
               "Optimized Gossiping"});
  for (size_t s = 0; s < sizes.size(); ++s) {
    const double* m = &messages[s * methods.size()];
    const double gossip = m[0];
    const double r1 = 100.0 * (1.0 - m[1] / gossip);
    const double r2 = 100.0 * (1.0 - m[2] / gossip);
    const double r12 = 100.0 * (1.0 - m[3] / gossip);
    table.Row(sizes[s], Table::Num(r1, 1), Table::Num(r2, 1),
              Table::Num(r12, 1));
    if (csv) csv->Row(sizes[s], r1, r2, r12);
  }
  table.Print();
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
