// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Figure 8 (a/b/c): Delivery Rate, Delivery Time, and Number of Messages
// versus motion speed (5-30 m/s) at 300 peers (Table II otherwise), for
// Flooding, Gossiping, and Optimized Gossiping.

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
      "Figure 8 — Performance at different motion speeds (300 peers)",
      "Speed has limited impact on Delivery Rate and Messages (near-stable "
      "with small fluctuation); Delivery Time *drops* as speed rises, since "
      "faster peers carry copies across the area sooner. Optimized "
      "Gossiping always wins on Messages.");

  std::vector<double> speeds = {5.0, 10.0, 15.0, 20.0, 25.0, 30.0};
  if (env.fast) speeds = {5.0, 15.0, 30.0};
  const std::vector<Method> methods = {Method::kFlooding, Method::kGossip,
                                       Method::kOptimized};

  auto csv = bench::OpenCsv(env, "fig08_speed.csv",
                            {"method", "mean_speed_mps", "delivery_rate_pct",
                             "delivery_time_s", "messages"});

  // Grid points fan out over the pool; CSV is written serially afterwards
  // in grid order, so output is identical at any --jobs value.
  std::vector<std::vector<Aggregate>> results(
      methods.size(), std::vector<Aggregate>(speeds.size()));
  bench::ParallelSweep(
      env, methods.size() * speeds.size(), [&](size_t point) {
        const size_t m = point / speeds.size();
        const size_t s = point % speeds.size();
        const double speed = speeds[s];
        ScenarioConfig config;
        config.method = methods[m];
        config.num_peers = 300;
        config.mean_speed_mps = speed;
        config.speed_delta_mps = std::min(5.0, speed - 1.0);
        config.medium.max_speed_mps = speed + 5.0;
        results[m][s] = RunReplicated(config, env.reps);
      });
  if (csv) {
    for (size_t m = 0; m < methods.size(); ++m) {
      for (size_t s = 0; s < speeds.size(); ++s) {
        csv->Row(MethodName(methods[m]), speeds[s],
                 results[m][s].delivery_rate_percent.Mean(),
                 results[m][s].mean_delivery_time_s.Mean(),
                 results[m][s].messages.Mean());
      }
    }
  }

  const char* subtitles[3] = {"(a) Delivery Rate (%)",
                              "(b) Delivery Time (s)",
                              "(c) Number of Messages"};
  for (int metric = 0; metric < 3; ++metric) {
    std::printf("\n%s\n", subtitles[metric]);
    std::vector<std::string> header = {"speed_mps"};
    for (Method method : methods) header.push_back(MethodName(method));
    Table table(header);
    for (size_t s = 0; s < speeds.size(); ++s) {
      std::vector<std::string> row = {Table::Num(speeds[s], 0)};
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
  bench::CloseCsv(std::move(csv));
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
