// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Resilience under injected faults (not a paper figure): how coverage and
// delivery degrade as the fault layer turns up (a) crash-churn intensity
// and (b) loss-episode intensity. Two sweeps over the Table II reference
// scenario:
//
//   1. Churn: churn_rate in {0 .. 0.8}, crash semantics (caches wiped),
//      exponential 120 s up / 240 s down duty cycle.
//   2. Loss episodes: loss_extra in {0 .. 0.8} on a 90 s-on / 30 s-off
//      cadence, with a short-lived ad so erased rounds cost coverage.
//
// Delivery rate must degrade monotonically along each grid — a fault knob
// that does not hurt is a wiring bug, and the binary fails loudly. Results
// go to stdout and BENCH_resilience.json in $MADNET_BENCH_CSV (default
// "."). MADNET_BENCH_FAST shrinks the scenario and the grids.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/thread_pool.h"
#include "obs/manifest.h"
#include "scenario/config_io.h"
#include "exec/replication.h"
#include "util/json.h"
#include "util/logging.h"

namespace madnet {
namespace {

using exec::Aggregate;
using scenario::Method;
using exec::RunReplicated;
using scenario::ScenarioConfig;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One sweep point: the fault knob's value and the replicated aggregate.
struct Point {
  double knob = 0.0;
  Aggregate aggregate;
};

ScenarioConfig BaseConfig(const bench::BenchEnv& env) {
  ScenarioConfig config;  // Table II defaults.
  config.method = Method::kOptimized;
  if (env.fast) {
    config.num_peers = 100;
    config.area_size_m = 3000.0;
    config.issue_location = {1500.0, 1500.0};
    config.sim_time_s = 600.0;
  }
  return config;
}

std::vector<Point> Sweep(const bench::BenchEnv& env,
                         const ScenarioConfig& base,
                         const std::vector<double>& grid,
                         void (*apply)(double, ScenarioConfig*)) {
  std::vector<ScenarioConfig> configs;
  for (double knob : grid) {
    ScenarioConfig config = base;
    apply(knob, &config);
    const Status valid = config.Validate();
    if (!valid.ok()) {
      MADNET_LOG_ERROR("sweep config invalid at knob %g: %s", knob,
                       valid.message().c_str());
      std::exit(EXIT_FAILURE);
    }
    configs.push_back(config);
  }
  std::vector<Point> points(grid.size());
  bench::ParallelSweep(env, grid.size(), [&](size_t i) {
    points[i] = {grid[i], RunReplicated(configs[i], env.reps)};
  });
  return points;
}

void ApplyChurn(double rate, ScenarioConfig* config) {
  config->fault.churn_rate = rate;
  config->fault.churn_up_s = 120.0;
  config->fault.churn_down_s = 240.0;
  config->fault.churn_crash = true;
}

void ApplyLoss(double extra, ScenarioConfig* config) {
  // 75% duty cycle, and a short-lived ad: the wave has to cross the area
  // before the ad expires, so rounds erased by an episode are truly lost
  // coverage, not just delay.
  config->fault.loss_extra = extra;
  config->fault.loss_episode_s = 90.0;
  config->fault.loss_period_s = 120.0;
  config->initial_duration_s = config->sim_time_s / 4.0;
}

/// Delivery rate must not climb as the fault knob climbs. Exact-arithmetic
/// comparison: the runs are deterministic, so any rise is a real wiring
/// bug, not noise.
bool MonotoneDegradation(const std::vector<Point>& points) {
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].aggregate.delivery_rate_percent.Mean() >
        points[i - 1].aggregate.delivery_rate_percent.Mean() + 1e-9) {
      return false;
    }
  }
  return true;
}

void PrintSweep(const char* title, const char* knob_name,
                const std::vector<Point>& points) {
  std::printf("\n%s:\n", title);
  std::printf("  %-12s %-16s %-18s %s\n", knob_name, "delivery-rate %",
              "mean delay s", "messages");
  for (const Point& p : points) {
    std::printf("  %-12g %-16.2f %-18.2f %.0f\n", p.knob,
                p.aggregate.delivery_rate_percent.Mean(),
                p.aggregate.mean_delivery_time_s.Mean(),
                p.aggregate.messages.Mean());
  }
}

void WriteSweepJson(JsonWriter* json, const char* knob_name,
                    const std::vector<Point>& points, bool monotone) {
  json->BeginObject();
  json->Key("grid");
  json->BeginArray();
  for (const Point& p : points) {
    json->BeginObject();
    json->Key(knob_name);
    json->Value(p.knob);
    json->Key("delivery_rate_percent");
    json->Value(p.aggregate.delivery_rate_percent.Mean());
    json->Key("mean_delivery_time_s");
    json->Value(p.aggregate.mean_delivery_time_s.Mean());
    json->Key("messages");
    json->Value(p.aggregate.messages.Mean());
    json->EndObject();
  }
  json->EndArray();
  json->Key("monotone_degradation");
  json->Value(monotone);
  json->EndObject();
}

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Resilience — coverage under churn and loss episodes (fault layer)",
      "n/a; degradation must be monotone in each fault knob.");

  const ScenarioConfig base = BaseConfig(env);
  std::vector<double> churn_grid = {0.0, 0.2, 0.4, 0.6, 0.8};
  std::vector<double> loss_grid = {0.0, 0.2, 0.4, 0.6, 0.8};
  if (env.fast) {
    churn_grid = {0.0, 0.4, 0.8};
    loss_grid = {0.0, 0.4, 0.8};
  }
  // Unless told otherwise, the sweeps use every hardware thread.
  bench::BenchEnv sweep_env = env;
  if (sweep_env.jobs <= 1) {
    sweep_env.jobs = exec::ThreadPool::HardwareConcurrency();
  }

  auto start = std::chrono::steady_clock::now();
  const std::vector<Point> churn =
      Sweep(sweep_env, base, churn_grid, ApplyChurn);
  const double churn_wall_s = SecondsSince(start);
  start = std::chrono::steady_clock::now();
  const std::vector<Point> loss = Sweep(sweep_env, base, loss_grid, ApplyLoss);
  const double loss_wall_s = SecondsSince(start);

  PrintSweep("Crash-churn sweep (120s up / 240s down, caches wiped)",
             "churn_rate", churn);
  PrintSweep("Loss-episode sweep (90s on / 30s off, short-lived ad)",
             "loss_extra", loss);

  const bool churn_monotone = MonotoneDegradation(churn);
  const bool loss_monotone = MonotoneDegradation(loss);
  std::printf("\n  churn degradation monotone  %s\n",
              churn_monotone ? "yes ✓" : "NO");
  std::printf("  loss degradation monotone   %s\n",
              loss_monotone ? "yes ✓" : "NO");
  if (!churn_monotone || !loss_monotone) {
    MADNET_LOG_ERROR(
        "delivery rate rose while a fault knob climbed — fault wiring bug");
    std::exit(EXIT_FAILURE);
  }

  if (env.csv_dir.empty()) return;
  JsonWriter json;
  json.BeginObject();
  // Provenance block: which code and configuration produced these numbers.
  obs::Manifest manifest;
  manifest.config_hash = obs::HashHex(scenario::SaveConfigText(base));
  manifest.base_seed = base.seed;
  manifest.replications = env.reps;
  manifest.jobs = sweep_env.jobs;
  manifest.wall_s = churn_wall_s + loss_wall_s;
  json.Key("manifest");
  manifest.WriteJson(&json);
  json.Key("churn");
  WriteSweepJson(&json, "churn_rate", churn, churn_monotone);
  json.Key("loss");
  WriteSweepJson(&json, "loss_extra", loss, loss_monotone);
  json.EndObject();

  const std::string path = env.csv_dir + "/BENCH_resilience.json";
  std::ofstream out(path, std::ios::trunc);
  out << json.TakeString() << '\n';
  out.close();
  if (out.fail()) {
    MADNET_LOG_ERROR("cannot write %s", path.c_str());
    std::exit(EXIT_FAILURE);
  }
  std::printf("\nWrote %s\n", path.c_str());
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  const auto env = madnet::bench::BenchEnv::FromEnvironment(argc, argv);
  madnet::bench::ObsGuard obs(env);
  madnet::Run(env);
  return 0;
}
