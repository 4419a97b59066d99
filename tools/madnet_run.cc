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

#include "mobility/trace_io.h"
#include "scenario/config_io.h"
#include "exec/replication.h"
#include "scenario/multi_ad.h"
#include "scenario/scenario.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/table.h"

namespace madnet {
namespace {

using exec::Aggregate;
using exec::RunReplicated;
using scenario::MethodName;
using scenario::ScenarioConfig;

int Run(int argc, char** argv) {
  // Scenario keys that double as flags, with their help text. Each flag's
  // default is the key's value in ScenarioConfig{}, and a set flag goes
  // through ApplyConfigKey exactly like a config-file line.
  const std::pair<const char*, std::string> key_flags[] = {
      {"method", scenario::AcceptedTokens<scenario::Method>()},
      {"mobility", scenario::AcceptedTokens<scenario::Mobility>()},
      {"peers", "number of mobile peers"},
      {"area", "square area side, metres"},
      {"radius", "initial advertising radius R, metres"},
      {"duration", "initial advertising duration D, seconds"},
      {"sim_time", "simulated seconds"},
      {"issue_time", "ad issue time, seconds"},
      {"speed", "mean peer speed, m/s"},
      {"speed_delta", "speed spread (uniform mean +- delta)"},
      {"round", "gossiping round time, seconds"},
      {"alpha", "probability drop parameter, (0,1)"},
      {"beta", "radius decay parameter, (0,1)"},
      {"dis", "Optimization-1 annulus width DIS, metres"},
      {"cache", "ad cache capacity k"},
      {"range", "transmission range, metres"},
      {"loss", "per-receiver random loss probability"},
      {"collisions", "enable the collision model"},
      {"ranking", "enable FM popularity ranking"},
      {"issuer_offline", "gossip issuer goes offline after seeding the ad"},
      {"seed", "base random seed"},
  };
  FlagSet flags;
  const ScenarioConfig defaults;
  for (const auto& [key, help] : key_flags) {
    flags.Define(key, scenario::ConfigKeyValue(defaults, key), help);
  }
  flags.Define("reps", "3", "replications (seeds seed..seed+reps-1)");
  flags.Define("jobs", "1",
               "worker threads (<= 0 = hardware concurrency), one "
               "replication each; results stay byte-identical at any "
               "value");
  flags.Define("dump_traces", "",
               "write every node's mobility trace to this file and exit");
  flags.Define("config", "",
               "load a 'key = value' scenario file first; explicit flags "
               "override it");
  flags.Define("validate-only", "false",
               "validate --config (single- or multi-ad) and exit: 0 = "
               "valid, 2 = invalid with a diagnostic naming the key");
  flags.Define("validate_only", "false", "alias for --validate-only");
  flags.Define("save_config", "",
               "write the effective configuration to this file and exit");
  flags.Define("json", "false", "emit results as JSON instead of a table");
  flags.Define("help", "false", "print this help");

  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage("madnet_run").c_str());
    return 2;
  }
  if (*flags.GetBool("help")) {
    std::fputs(flags.Usage("madnet_run").c_str(), stdout);
    return 0;
  }
  // The run-shape flags are checked up front, so a malformed value never
  // reaches RunReplicated (which would start threads from it).
  const StatusOr<int64_t> reps = flags.GetInt("reps");
  const StatusOr<int64_t> jobs = flags.GetInt("jobs");
  for (const auto& [name, value] : {std::pair{"reps", &reps},
                                    std::pair{"jobs", &jobs}}) {
    if (!value->ok()) {
      std::fprintf(stderr, "--%s: %s\n", name,
                   value->status().ToString().c_str());
      return 2;
    }
  }
  if (*reps < 1) {
    std::fprintf(stderr, "--reps: must be >= 1, got %lld\n",
                 static_cast<long long>(*reps));
    return 2;
  }

  if (*flags.GetBool("validate-only") || *flags.GetBool("validate_only")) {
    // Contract check only: the file is validated exactly as the corpus CI
    // job and the smoke tests see it; other flags are ignored.
    const std::string path = flags.GetString("config");
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
  const std::string config_path = flags.GetString("config");
  if (!config_path.empty()) {
    Status loaded = scenario::LoadConfigFile(config_path, &config);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
      return 2;
    }
  }
  // Explicit flags override the file; unset flags keep its values (or
  // the defaults, which their help shows).
  for (const auto& [key, help] : key_flags) {
    if (!flags.IsSet(key)) continue;
    Status applied =
        scenario::ApplyConfigKey(key, flags.GetString(key), &config);
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

  const std::string save_path = flags.GetString("save_config");
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

  const std::string trace_path = flags.GetString("dump_traces");
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

  Aggregate aggregate = RunReplicated(config, static_cast<int>(*reps),
                                      static_cast<int>(*jobs));

  if (*flags.GetBool("json")) {
    JsonWriter json;
    json.BeginObject();
    json.Key("method");
    json.Value(MethodName(config.method));
    json.Key("peers");
    json.Value(config.num_peers);
    json.Key("replications");
    json.Value(*reps);
    json.Key("seed");
    json.Value(static_cast<uint64_t>(config.seed));
    auto emit = [&](const char* name, const stats::Summary& s) {
      json.Key(name);
      json.BeginObject();
      json.Key("mean");
      json.Value(s.Mean());
      json.Key("sd");
      json.Value(s.Stddev());
      json.Key("ci95");
      json.Value(s.ConfidenceInterval95());
      json.Key("min");
      json.Value(s.Min());
      json.Key("max");
      json.Value(s.Max());
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
              MethodName(config.method), config.num_peers,
              static_cast<int>(*reps),
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
