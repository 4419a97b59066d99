// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Figure 10 (a/b/c) and the Section IV-C beta note: impact of the tuning
// parameters on Optimized Gossiping at 300 peers (Table III setting).
//
//   (a) alpha sweep     — delivery rate high and steady for alpha < 0.5,
//                         then falling (sharply past ~0.7); messages fall
//                         as alpha rises. The paper picks alpha = 0.5.
//   (b) round-time sweep— messages fall roughly ~1/round_time; delivery
//                         rate degrades for long rounds. Paper picks 5 s.
//   (c) DIS sweep       — delivery rate very low for small DIS, >96% by
//                         DIS = 250 m, then flat while messages keep
//                         growing. Paper picks DIS = 250 m (R/4).
//   (beta)              — negligible impact on all three metrics.
//
// Pass --sweep=alpha|round|dis|beta to run one sweep; default runs all.

#include <cstring>
#include <functional>
#include <string>
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

ScenarioConfig BaseConfig() {
  ScenarioConfig config;  // Table II defaults.
  config.method = Method::kOptimized;
  config.num_peers = 300;
  return config;
}

void PrintSweep(const bench::BenchEnv& env, const std::string& name,
                const std::string& parameter,
                const std::vector<double>& values,
                const std::function<void(ScenarioConfig*, double)>& apply) {
  Table table({parameter, "delivery_rate_pct", "delivery_time_s",
               "messages"});
  auto csv = bench::OpenCsv(env, "fig10_" + name + ".csv",
                            {parameter, "delivery_rate_pct",
                             "delivery_time_s", "messages"});
  std::vector<Aggregate> results(values.size());
  bench::ParallelSweep(env, values.size(), [&](size_t i) {
    ScenarioConfig config = BaseConfig();
    apply(&config, values[i]);
    results[i] = RunReplicated(config, env.reps);
  });
  for (size_t i = 0; i < values.size(); ++i) {
    const double value = values[i];
    const Aggregate& a = results[i];
    table.Row(Table::Num(value, 2), Table::Num(a.DeliveryRate(), 2),
              Table::Num(a.DeliveryTime(), 2), Table::Num(a.Messages(), 0));
    if (csv) csv->Row(value, a.DeliveryRate(), a.DeliveryTime(), a.Messages());
  }
  table.Print();
}

void Run(const std::string& which, const bench::BenchEnv& env) {

  if (which.empty() || which == "alpha") {
    bench::PrintHeader(
        "Figure 10(a) — Tuning alpha (300 peers, round=5s, DIS=250m)",
        "Delivery rate >96% and steady for alpha<0.5, slow decline to 0.7, "
        "sharp drop past 0.7; messages decline as alpha rises. Choose 0.5.");
    PrintSweep(env, "alpha", "alpha",
               {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
               [](ScenarioConfig* c, double v) {
                 c->gossip.propagation.alpha = v;
               });
  }

  if (which.empty() || which == "round") {
    bench::PrintHeader(
        "Figure 10(b) — Tuning the Gossiping Round Time (alpha=0.5, "
        "DIS=250m)",
        "Messages fall as the round lengthens; delivery rate stays high "
        "for short rounds and sags for long ones. Choose 5 s.");
    PrintSweep(env, "round", "round_time_s",
               {1.0, 2.0, 5.0, 10.0, 20.0, 40.0},
               [](ScenarioConfig* c, double v) {
                 c->gossip.round_time_s = v;
                 c->flooding.round_time_s = v;
               });
  }

  if (which.empty() || which == "dis") {
    bench::PrintHeader(
        "Figure 10(c) — Tuning DIS (alpha=0.5, round=5s)",
        "Very low delivery rate for small DIS (newcomers slip through the "
        "annulus unseen), >96% once DIS reaches 250 m, then flat while "
        "messages keep growing. Choose 250 m.");
    PrintSweep(env, "dis", "dis_m",
               {50.0, 100.0, 150.0, 200.0, 250.0, 375.0, 500.0, 750.0,
                1000.0},
               [](ScenarioConfig* c, double v) { c->gossip.dis_m = v; });
  }

  if (which.empty() || which == "beta") {
    bench::PrintHeader(
        "Section IV-C — beta sensitivity",
        "beta has negligible impact on all three metrics (the radius decay "
        "only bites in the final moments of the ad's life).");
    PrintSweep(env, "beta", "beta", {0.1, 0.3, 0.5, 0.7, 0.9},
               [](ScenarioConfig* c, double v) {
                 c->gossip.propagation.beta = v;
                 c->flooding.propagation.beta = v;
               });
  }
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  std::string which;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sweep=", 8) == 0) which = argv[i] + 8;
  }
  const auto env = madnet::bench::BenchEnv::FromEnvironment(argc, argv);
  madnet::bench::ObsGuard obs(env);
  madnet::Run(which, env);
  return 0;
}
