// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Quickstart: run the paper's Table-II scenario with one line of
// configuration and print the three evaluation metrics.
//
//   $ ./quickstart [num_peers]

#include <climits>
#include <cstdio>

#include "scenario/scenario.h"
#include "util/flags.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace madnet::scenario;

  const madnet::Flag rows[] = {{"num_peers", "", madnet::FlagKind::kInt,
                                "300", "number of mobile peers", 1, INT_MAX,
                                "", nullptr, /*positional=*/true}};
  const madnet::FlagSet flags = madnet::ParseFlagsOrExit(
      rows, argc, argv, "quickstart [num_peers]");

  ScenarioConfig config;              // Table II defaults: 5000 m x 5000 m,
  config.method = Method::kOptimized; // R=1000 m, D=800 s, alpha=beta=0.5,
  config.num_peers =                  // round=5 s, DIS=R/4, speed 10±5 m/s.
      static_cast<int>(flags.Int("num_peers"));
  config.seed = 7;

  madnet::Status valid = config.Validate();
  if (!valid.ok()) {
    MADNET_LOG_ERROR("bad config: %s", valid.ToString().c_str());
    return 1;
  }

  RunResult result = RunScenario(config);

  std::printf("madnet quickstart — %s, %d peers\n",
              MethodName(config.method), config.num_peers);
  std::printf("  peers passing the advertising area : %llu\n",
              static_cast<unsigned long long>(result.report.peers_passed));
  std::printf("  delivery rate                      : %.2f %%\n",
              result.DeliveryRatePercent());
  std::printf("  mean delivery time                 : %.2f s\n",
              result.MeanDeliveryTime());
  std::printf("  messages (whole network)           : %llu\n",
              static_cast<unsigned long long>(result.Messages()));
  std::printf("  bytes on air                       : %llu\n",
              static_cast<unsigned long long>(result.net.bytes_sent));
  return 0;
}
