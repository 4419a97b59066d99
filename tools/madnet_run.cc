// Copyright (c) 2026 madnet authors. All rights reserved.
//
// madnet_run — run any madnet scenario from the command line.
//
//   madnet_run --method=optimized --peers=300 --reps=3
//   madnet_run --method=gossip --peers=100 --duration=400 --seed=9
//   madnet_run --method=flooding --loss=0.2 --collisions
//   madnet_run --method=optimized --dump_traces=traces.txt
//
// Prints the paper's three metrics (multi-seed mean ± sd) as a table.

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "exec/replication.h"
#include "madnet_run_flags.h"
#include "mobility/trace_io.h"
#include "scenario/config_io.h"
#include "scenario/multi_ad.h"
#include "scenario/scenario.h"
#include "util/json.h"
#include "util/table.h"

namespace madnet {
namespace {

using exec::Aggregate;
using exec::RunReplicated;
using scenario::MethodName;
using scenario::ScenarioConfig;

int Run(int argc, char** argv) {
  const FlagSet flags = ParseFlagsOrExit(RunFlags(), argc, argv,
                                         "madnet_run [--flag=value ...]");
  const int reps = static_cast<int>(flags.Int("reps"));

  if (flags.Bool("validate-only") || flags.Bool("validate_only")) {
    // Contract check only: the file is validated exactly as the corpus CI
    // job and the smoke tests see it; other flags are parsed, not used.
    const std::string path = flags.String("config");
    if (path.empty()) {
      std::fprintf(stderr, "--validate-only requires --config=<file>\n");
      return 2;
    }
    scenario::MultiAdConfig loaded;
    bool is_multi_ad = false;
    Status valid = scenario::LoadScenarioFileAuto(path, &loaded,
                                                  &is_multi_ad);
    if (!valid.ok()) {
      std::fprintf(stderr, "invalid scenario: %s\n",
                   valid.ToString().c_str());
      return 2;
    }
    std::printf("OK: %s (%s scenario)\n", path.c_str(),
                is_multi_ad ? "multi-ad" : "single-ad");
    return 0;
  }

  ScenarioConfig config;
  const std::string config_path = flags.String("config");
  if (!config_path.empty()) {
    Status loaded = scenario::LoadConfigFile(config_path, &config);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
      return 2;
    }
  }
  // Explicit flags override the file; unset flags keep its values (or
  // the defaults, which their help shows).
  for (const auto& [key, help] : kRunConfigKeys) {
    if (!flags.IsSet(key)) continue;
    Status applied =
        scenario::ApplyConfigKey(key, flags.String(key), &config);
    if (!applied.ok()) {
      std::fprintf(stderr, "--%s: %s\n", key, applied.ToString().c_str());
      return 2;
    }
  }
  // The speed keys auto-raise medium.max_speed_mps inside ApplyConfigKey,
  // so an explicit max_speed from the config file survives flag overrides.
  Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 valid.ToString().c_str());
    return 2;
  }

  const std::string save_path = flags.String("save_config");
  if (!save_path.empty()) {
    std::ofstream out(save_path, std::ios::trunc);
    out << scenario::SaveConfigText(config);
    out.close();
    if (out.fail()) {
      std::fprintf(stderr, "cannot write %s\n", save_path.c_str());
      return 1;
    }
    std::printf("wrote config to %s\n", save_path.c_str());
    return 0;
  }

  const std::string trace_path = flags.String("dump_traces");
  if (!trace_path.empty()) {
    scenario::Scenario scenario(config);
    Status saved =
        SaveTraces(trace_path, scenario.RecordTraces(config.sim_time_s));
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("wrote %d traces to %s\n", config.num_peers + 1,
                trace_path.c_str());
    return 0;
  }

  Aggregate aggregate =
      RunReplicated(config, reps, static_cast<int>(flags.Int("jobs")));

  if (flags.Bool("json")) {
    JsonWriter json;
    json.BeginObject();
    json.Field("method", MethodName(config.method));
    json.Field("peers", config.num_peers);
    json.Field("replications", reps);
    json.Field("seed", static_cast<uint64_t>(config.seed));
    auto emit = [&](const char* name, const stats::Summary& s) {
      json.Key(name);
      json.BeginObject();
      for (const auto& [key, value] :
           {std::pair{"mean", s.Mean()}, {"sd", s.Stddev()},
            {"ci95", s.ConfidenceInterval95()}, {"min", s.Min()},
            {"max", s.Max()}}) {
        json.Field(key, value);
      }
      json.EndObject();
    };
    emit("delivery_rate_pct", aggregate.delivery_rate_percent);
    emit("delivery_time_s", aggregate.mean_delivery_time_s);
    emit("messages", aggregate.messages);
    emit("peers_passed", aggregate.peers_passed);
    if (config.gossip.ranking) emit("final_rank", aggregate.final_rank);
    json.EndObject();
    std::printf("%s\n", json.TakeString().c_str());
    return 0;
  }

  std::printf("%s — %d peers, %d replication(s), seed %llu\n",
              MethodName(config.method), config.num_peers, reps,
              static_cast<unsigned long long>(config.seed));
  Table table({"metric", "mean", "sd", "min", "max"});
  auto add = [&](const char* name, const stats::Summary& s, int digits) {
    table.Row(name, Table::Num(s.Mean(), digits),
              Table::Num(s.Stddev(), digits), Table::Num(s.Min(), digits),
              Table::Num(s.Max(), digits));
  };
  add("delivery rate (%)", aggregate.delivery_rate_percent, 2);
  add("delivery time (s)", aggregate.mean_delivery_time_s, 2);
  add("messages", aggregate.messages, 0);
  add("peers passed", aggregate.peers_passed, 0);
  if (config.gossip.ranking) add("final rank", aggregate.final_rank, 1);
  table.Print();
  return 0;
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) { return madnet::Run(argc, argv); }
