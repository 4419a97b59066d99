// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Ablations beyond the paper's figures, for the design choices DESIGN.md
// calls out:
//   * PHY realism: random loss and the collision model on/off.
//   * Cache capacity k (the top-k store-&-forward buffer).
//   * Bootstrap age for Optimization 1 (0 disables the initial full-
//     probability spread phase).
//   * Waypoint pause time (mobility model detail the paper leaves unset).

#include <vector>

#include "bench/bench_util.h"
#include "exec/replication.h"
#include "util/table.h"

namespace madnet {
namespace {

using exec::Aggregate;
using scenario::Method;
using exec::RunReplicated;
using scenario::ScenarioConfig;

ScenarioConfig Base(int peers) {
  ScenarioConfig config;
  config.method = Method::kOptimized;
  config.num_peers = peers;
  return config;
}

void Report(const bench::BenchEnv& env, const std::string& name,
            const std::vector<std::pair<std::string, ScenarioConfig>>& runs) {
  Table table({"variant", "delivery_rate_pct", "delivery_time_s",
               "messages"});
  auto csv = bench::OpenCsv(env, "ablation_" + name + ".csv",
                            {"variant", "delivery_rate_pct",
                             "delivery_time_s", "messages"});
  std::vector<Aggregate> results(runs.size());
  bench::ParallelSweep(env, runs.size(), [&](size_t i) {
    results[i] = RunReplicated(runs[i].second, env.reps);
  });
  for (size_t i = 0; i < runs.size(); ++i) {
    const std::string& label = runs[i].first;
    const Aggregate& a = results[i];
    table.Row(label, Table::Num(a.DeliveryRate(), 2),
              Table::Num(a.DeliveryTime(), 2), Table::Num(a.Messages(), 0));
    if (csv) csv->Row(label, a.DeliveryRate(), a.DeliveryTime(),
                      a.Messages());
  }
  table.Print();
}

void Run(const bench::BenchEnv& env) {

  bench::PrintHeader(
      "Ablation 1 — PHY realism: loss and collisions (Optimized, 300 peers)",
      "Gossip redundancy tolerates moderate random loss and MAC collisions "
      "with modest delivery-rate cost.");
  {
    std::vector<std::pair<std::string, ScenarioConfig>> runs;
    runs.emplace_back("clean", Base(300));
    for (double loss : {0.1, 0.3, 0.5}) {
      ScenarioConfig config = Base(300);
      config.medium.loss_probability = loss;
      runs.emplace_back("loss=" + Table::Num(loss, 1), config);
    }
    ScenarioConfig collisions = Base(300);
    collisions.medium.enable_collisions = true;
    runs.emplace_back("collisions=on", collisions);
    ScenarioConfig csma = Base(300);
    csma.medium.csma = true;
    runs.emplace_back("mac=csma/ca", csma);
    Report(env, "phy", runs);
  }

  bench::PrintHeader(
      "Ablation 1b — CSMA/CA MAC across methods (300 peers)",
      "Under a carrier-sensing MAC with airtime, deferral and hidden-"
      "terminal collisions, the method ordering of Figure 7 is unchanged; "
      "Flooding suffers the most contention (relay bursts).");
  {
    std::vector<std::pair<std::string, ScenarioConfig>> runs;
    for (Method method : {Method::kFlooding, Method::kGossip,
                          Method::kOptimized}) {
      ScenarioConfig config = Base(300);
      config.method = method;
      config.medium.csma = true;
      runs.emplace_back(scenario::MethodName(method), config);
    }
    Report(env, "csma", runs);
  }

  bench::PrintHeader(
      "Ablation 2 — Cache capacity k (Optimized, 300 peers, single ad)",
      "With one live ad even k=1 suffices; the top-k cache matters under "
      "multi-ad pressure (see the parking_traffic example).");
  {
    std::vector<std::pair<std::string, ScenarioConfig>> runs;
    for (size_t k : {size_t{1}, size_t{2}, size_t{5}, size_t{10},
                     size_t{50}}) {
      ScenarioConfig config = Base(300);
      config.gossip.cache_capacity = k;
      runs.emplace_back("k=" + std::to_string(k), config);
    }
    Report(env, "cache", runs);
  }

  bench::PrintHeader(
      "Ablation 3 — Optimization-1 bootstrap phase (Optimized, 300 peers)",
      "Without the initial full-probability phase the first wave struggles "
      "to cross the suppressed central disc; a short bootstrap restores "
      "delivery at tiny message cost.");
  {
    std::vector<std::pair<std::string, ScenarioConfig>> runs;
    for (double bootstrap : {0.0, 10.0, 20.0, 60.0}) {
      ScenarioConfig config = Base(300);
      config.gossip.bootstrap_age_s = bootstrap;
      runs.emplace_back("bootstrap=" + Table::Num(bootstrap, 0) + "s",
                        config);
    }
    Report(env, "bootstrap", runs);
  }

  bench::PrintHeader(
      "Ablation 4 — Waypoint pause time (Optimized, 300 peers)",
      "The paper leaves the RWP pause unset; delivery metrics are "
      "insensitive to it, justifying the reconstruction default (0-10 s).");
  {
    std::vector<std::pair<std::string, ScenarioConfig>> runs;
    for (double pause : {0.0, 10.0, 60.0, 120.0}) {
      ScenarioConfig config = Base(300);
      config.min_pause_s = 0.0;
      config.max_pause_s = pause;
      runs.emplace_back("pause<=" + Table::Num(pause, 0) + "s", config);
    }
    Report(env, "pause", runs);
  }
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  const auto env = madnet::bench::BenchEnv::FromEnvironment(argc, argv);
  madnet::bench::ObsGuard obs(env);
  madnet::Run(env);
  return 0;
}
