// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Ad-provenance queries over madnet trace files: reconstructs each
// advertisement's dissemination tree from the deliver records (validating
// the parent/hop invariants on the way in) and reports delivery-latency
// quantiles, the hop-count distribution, the redundancy ratio (duplicate
// ad receptions per unique delivery), and coverage-over-time milestones.
//
//   madnet_tracequery trace.jsonl           # JSON report (see --help)
//   madnet_tracequery --tree trace.jsonl    # dump tree edges as text
//
// Requires a trace recorded with at least the "deliver" category; "tx"
// records make latencies absolute (measured from the issuer's seed
// broadcast), and "rx" records enable the redundancy ratio.

#include <cstdio>
#include <string>

#include "obs/trace_query.h"
#include "util/flags.h"

namespace madnet {
namespace {

void DumpTrees(const obs::DisseminationForest& forest) {
  for (const obs::RunForest& run : forest.runs()) {
    std::printf("run seed=%llu ads=%zu\n",
                static_cast<unsigned long long>(run.seed), run.ads.size());
    for (const auto& [key, tree] : run.ads) {
      std::printf("  ad %llu issuer=%u deliveries=%zu max_hop=%u\n",
                  static_cast<unsigned long long>(key), tree.issuer,
                  tree.deliveries.size(), tree.max_hop);
      for (const obs::DeliveryRecord& delivery : tree.deliveries) {
        std::printf("    t=%.9f node=%u parent=%u hop=%u seq=%llu\n",
                    delivery.t, delivery.node, delivery.parent, delivery.hop,
                    static_cast<unsigned long long>(delivery.tx_seq));
      }
    }
  }
}

int Run(const std::string& path, bool tree) {
  obs::DisseminationForest forest;
  const Status status = forest.AddFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  if (forest.runs().empty()) {
    std::fprintf(stderr, "error: %s: no \"run\" header records\n",
                 path.c_str());
    return 1;
  }
  if (tree) {
    DumpTrees(forest);
    return 0;
  }
  std::printf("%s\n", forest.ReportJson().c_str());
  return 0;
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  const madnet::Flag rows[] = {
      {"tree", "", madnet::FlagKind::kBool, "false",
       "dump dissemination-tree edges as text"},
  };
  constexpr const char* kUsage =
      "madnet_tracequery [--flag=value ...] TRACE.jsonl";
  const madnet::FlagSet flags =
      madnet::ParseFlagsOrExit(rows, argc, argv, kUsage);
  if (flags.positional().size() != 1) {
    std::fputs(madnet::FlagUsage(rows, kUsage).c_str(), stderr);
    return 2;
  }
  return madnet::Run(flags.positional()[0], flags.Bool("tree"));
}
