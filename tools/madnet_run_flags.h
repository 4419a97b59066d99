// Copyright (c) 2026 madnet authors. All rights reserved.
//
// madnet_run's flag table (util/flags.h), shared with the flag-parser
// fuzz test so the test drives the exact rows the binary parses.

#ifndef MADNET_TOOLS_MADNET_RUN_FLAGS_H_
#define MADNET_TOOLS_MADNET_RUN_FLAGS_H_

#include <climits>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel_for.h"
#include "scenario/config_io.h"
#include "util/flags.h"

namespace madnet {

/// Scenario keys that double as flags, with their help text. Each flag's
/// default is the key's value in ScenarioConfig{}, and a set flag goes
/// through ApplyConfigKey exactly like a config-file line.
inline const std::pair<const char*, std::string> kRunConfigKeys[] = {
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

/// Every flag madnet_run reads: the config keys, then the run's own.
inline std::vector<Flag> RunFlags() {
  std::vector<Flag> rows =
      scenario::ConfigKeyFlags(kRunConfigKeys, scenario::ScenarioConfig{});
  rows.insert(rows.end(), {
      {"reps", "", FlagKind::kInt, "3",
       "replications (seeds seed..seed+reps-1)", 1, INT_MAX},
      {"jobs", "", FlagKind::kInt, "1",
       "worker threads (0 or auto = hardware concurrency), one "
       "replication each; results stay byte-identical at any value",
       0, static_cast<double>(exec::MaxJobs()), "auto"},
      {"dump_traces", "", FlagKind::kString, "",
       "write every node's mobility trace to this file and exit"},
      {"config", "", FlagKind::kString, "",
       "load a 'key = value' scenario file first; explicit flags "
       "override it"},
      {"validate-only", "", FlagKind::kBool, "false",
       "validate --config (single- or multi-ad) and exit: 0 = valid, "
       "2 = invalid with a diagnostic naming the key"},
      {"validate_only", "", FlagKind::kBool, "false",
       "alias for --validate-only"},
      {"save_config", "", FlagKind::kString, "",
       "write the effective configuration to this file and exit"},
      {"json", "", FlagKind::kBool, "false",
       "emit results as JSON instead of a table"},
  });
  return rows;
}

}  // namespace madnet

#endif  // MADNET_TOOLS_MADNET_RUN_FLAGS_H_
