// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Figure 7 (a/b/c): Delivery Rate, Delivery Time, and Number of Messages
// versus network size (100-1000 peers) for all five methods, under the
// Table II setting. Also prints the paper's headline ratio: at 1000 peers
// Optimized Gossiping produced 8.85% of Flooding's and 9.89% of pure
// Gossiping's messages.

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
      "Figure 7 — Performance in different network sizes (Table II setting)",
      "(a) all methods ~100% delivery when dense (>300 peers); Flooding and "
      "Optimized degrade significantly when sparse while pure Gossiping "
      "stays >90%. (b) Gossiping has the shortest delivery time in sparse "
      "networks; all methods close (<10 s) when dense. (c) Optimized "
      "Gossiping cuts messages by ~an order of magnitude: 8.85% of Flooding "
      "and 9.89% of Gossiping at 1000 peers.");

  std::vector<int> sizes = {100, 200, 300, 400, 500, 600, 700, 800, 900, 1000};
  if (env.fast) sizes = {100, 300, 1000};
  const std::vector<Method> methods = {
      Method::kFlooding, Method::kGossip, Method::kOptimized1,
      Method::kOptimized2, Method::kOptimized};

  auto csv = bench::OpenCsv(
      env, "fig07_network_size.csv",
      {"method", "peers", "delivery_rate_pct", "delivery_time_s",
       "messages", "rate_sd", "time_sd", "messages_sd"});

  // results[method][size index]. The (method, size) grid is flattened and
  // fanned out over the worker pool; CSV/tables are emitted afterwards in
  // grid order, so the output is identical at any --jobs value.
  std::vector<std::vector<Aggregate>> results(
      methods.size(), std::vector<Aggregate>(sizes.size()));
  bench::ParallelSweep(
      env, methods.size() * sizes.size(), [&](size_t point) {
        const size_t m = point / sizes.size();
        const size_t s = point % sizes.size();
        ScenarioConfig config;  // Table II defaults.
        config.method = methods[m];
        config.num_peers = sizes[s];
        results[m][s] = RunReplicated(config, env.reps);
      });
  if (csv) {
    for (size_t m = 0; m < methods.size(); ++m) {
      for (size_t s = 0; s < sizes.size(); ++s) {
        const Aggregate& aggregate = results[m][s];
        csv->Row(MethodName(methods[m]), sizes[s],
                 aggregate.delivery_rate_percent.Mean(),
                 aggregate.mean_delivery_time_s.Mean(),
                 aggregate.messages.Mean(),
                 aggregate.delivery_rate_percent.Stddev(),
                 aggregate.mean_delivery_time_s.Stddev(),
                 aggregate.messages.Stddev());
      }
    }
  }

  const char* subtitles[3] = {"(a) Delivery Rate (%)",
                              "(b) Delivery Time (s)",
                              "(c) Number of Messages"};
  for (int metric = 0; metric < 3; ++metric) {
    std::printf("\n%s\n", subtitles[metric]);
    std::vector<std::string> header = {"peers"};
    for (Method method : methods) header.push_back(MethodName(method));
    Table table(header);
    for (size_t s = 0; s < sizes.size(); ++s) {
      std::vector<std::string> row = {std::to_string(sizes[s])};
      for (size_t m = 0; m < methods.size(); ++m) {
        const Aggregate& a = results[m][s];
        switch (metric) {
          case 0: row.push_back(Table::Num(a.DeliveryRate(), 2)); break;
          case 1: row.push_back(Table::Num(a.DeliveryTime(), 2)); break;
          case 2: row.push_back(Table::Num(a.Messages(), 0)); break;
        }
      }
      table.AddRow(row);
    }
    table.Print();
  }

  // Headline ratio at the largest size.
  const size_t last = sizes.size() - 1;
  const double flood = results[0][last].Messages();
  const double gossip = results[1][last].Messages();
  const double optimized = results[4][last].Messages();
  std::printf(
      "\nHeadline (at %d peers): Optimized Gossiping messages = %.2f%% of "
      "Flooding (paper: 8.85%%), %.2f%% of Gossiping (paper: 9.89%%)\n",
      sizes[last], 100.0 * optimized / flood, 100.0 * optimized / gossip);
  bench::CloseCsv(std::move(csv));
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
