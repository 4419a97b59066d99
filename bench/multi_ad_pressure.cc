// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Cache pressure under many concurrent advertisements: delivery rate as a
// function of the number of live ads and the cache capacity k. With one ad
// the top-k cache is irrelevant (see Ablation 2); once live ads exceed k,
// the probability-ordered eviction of Algorithm 1 decides which ads a peer
// keeps serving, and too-small caches start costing delivery.

#include <vector>

#include "bench/bench_util.h"
#include "scenario/multi_ad.h"
#include "util/table.h"

namespace madnet {
namespace {

using scenario::Method;
using scenario::MultiAdConfig;
using scenario::MultiAdResult;
using scenario::RunMultiAdScenario;

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Multi-ad cache pressure — delivery vs live ads and cache size",
      "The top-k cache (Algorithm 1) is exercised only once concurrent ads "
      "exceed k; eviction by forwarding probability keeps the locally-"
      "relevant ads and sheds far-away ones, so delivery degrades "
      "gracefully rather than collapsing.");

  std::vector<int> ad_counts = {4, 8, 16, 24};
  std::vector<size_t> cache_sizes = {2, 4, 8, 16};
  if (env.fast) {
    ad_counts = {8, 16};
    cache_sizes = {2, 8};
  }

  auto csv = bench::OpenCsv(env, "multi_ad_pressure.csv",
                            {"num_ads", "cache_k", "mean_delivery_rate_pct",
                             "mean_delivery_time_s", "messages"});

  Table table({"num_ads", "cache_k", "mean_rate_pct", "mean_time_s",
               "messages"});
  for (int ads : ad_counts) {
    for (size_t k : cache_sizes) {
      MultiAdConfig config;
      config.base.method = Method::kOptimized;
      config.base.num_peers = 300;
      config.base.sim_time_s = 1400.0;
      config.base.gossip.cache_capacity = k;
      config.base.seed = 17;
      config.num_ads = ads;
      config.first_issue_s = 60.0;
      config.issue_spacing_s = 20.0;
      config.ad_radius_m = 800.0;
      config.ad_duration_s = 500.0;
      MultiAdResult result = RunMultiAdScenario(config);
      table.Row(ads, k, Table::Num(result.MeanDeliveryRatePercent(), 2),
                Table::Num(result.MeanDeliveryTime(), 2),
                result.net.messages_sent);
      if (csv) {
        csv->Row(ads, k, result.MeanDeliveryRatePercent(),
                 result.MeanDeliveryTime(), result.net.messages_sent);
      }
    }
  }
  table.Print();
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
