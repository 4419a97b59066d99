// Copyright (c) 2026 madnet authors. All rights reserved.
//
// madnet_heatmap — ASCII maps of one scenario run: where frames were
// transmitted and where the ad's holders sit at a chosen sampling time.
// Makes the annulus of Optimization 1 and the advertising-area confinement
// visible at a glance.
//
// Transmission positions come from the observability trace stream (the
// "tx" records of docs/OBSERVABILITY.md) — either recorded live by running
// a scenario here, or replayed from a file some bench wrote with --trace:
//
//   madnet_heatmap --method=optimized --peers=400 --at=400
//   madnet_heatmap --trace-in=trace.jsonl            # tx density only

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/opportunistic_gossip.h"
#include "obs/run_context.h"
#include "obs/trace_reader.h"
#include "scenario/config_io.h"
#include "scenario/scenario.h"
#include "util/flags.h"

namespace madnet {
namespace {

using scenario::MethodName;
using scenario::Scenario;
using scenario::ScenarioConfig;

constexpr int kGrid = 40;  // Cells per axis (terminal-friendly).

/// Renders a grid of counts as ASCII shades.
void PrintGrid(const std::vector<uint64_t>& cells, uint64_t peak,
               const char* title) {
  static const char kShades[] = " .:-=+*#%@";
  std::printf("\n%s (peak cell = %llu)\n", title,
              static_cast<unsigned long long>(peak));
  for (int y = kGrid - 1; y >= 0; --y) {
    std::fputs("  |", stdout);
    for (int x = 0; x < kGrid; ++x) {
      const uint64_t v = cells[y * kGrid + x];
      int shade = 0;
      if (peak > 0 && v > 0) {
        shade = 1 + static_cast<int>((v * 8) / peak);
        shade = std::min(shade, 9);
      }
      std::fputc(kShades[shade], stdout);
    }
    std::fputs("|\n", stdout);
  }
}

/// Bins every "tx" record of a trace stream into a kGrid x kGrid density
/// map scaled to `area_size_m`. Returns non-zero (and explains on stderr)
/// if the stream is not a well-formed trace.
int AccumulateTxCells(std::istream& in, const char* source,
                      double area_size_m, std::vector<uint64_t>* cells) {
  const double cell = area_size_m / kGrid;
  uint64_t line_number = 0;
  std::string line;
  obs::TraceEvent event;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const Status parsed = obs::ParseTraceLine(line, &event);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s:%llu: %s\n", source,
                   static_cast<unsigned long long>(line_number),
                   parsed.ToString().c_str());
      return 1;
    }
    if (event.cat != "tx") continue;
    const int x =
        std::min(kGrid - 1, std::max(0, static_cast<int>(event.x / cell)));
    const int y =
        std::min(kGrid - 1, std::max(0, static_cast<int>(event.y / cell)));
    ++(*cells)[y * kGrid + x];
  }
  return 0;
}

void PrintTxGrid(const std::vector<uint64_t>& tx_cells, const char* title) {
  uint64_t tx_peak = 0;
  for (uint64_t v : tx_cells) tx_peak = std::max(tx_peak, v);
  PrintGrid(tx_cells, tx_peak, title);
}

int Run(int argc, char** argv) {
  FlagSet flags;
  flags.Define("method", "optimized",
               scenario::AcceptedTokens<scenario::Method>());
  flags.Define("peers", "400", "number of mobile peers");
  flags.Define("at", "400", "holder-map sampling time, seconds");
  flags.Define("seed", "1", "random seed");
  flags.Define("trace-in", "",
               "replay tx density from an existing --trace file instead of "
               "running a scenario (holder map unavailable)");
  flags.Define("area", "5000", "area edge for --trace-in scaling, metres");
  flags.Define("help", "false", "print this help");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || *flags.GetBool("help")) {
    std::fputs(flags.Usage("madnet_heatmap").c_str(),
               parsed.ok() ? stdout : stderr);
    return parsed.ok() ? 0 : 2;
  }
  const StatusOr<double> sample_at = flags.GetDouble("at");
  const StatusOr<double> area = flags.GetDouble("area");
  for (const auto& [name, value] : {std::pair{"at", &sample_at},
                                    std::pair{"area", &area}}) {
    if (!value->ok()) {
      std::fprintf(stderr, "--%s: %s\n", name,
                   value->status().ToString().c_str());
      return 2;
    }
  }

  std::vector<uint64_t> tx_cells(kGrid * kGrid, 0);

  // Replay mode: the trace file is the single source of positions.
  const std::string trace_in = flags.GetString("trace-in");
  if (!trace_in.empty()) {
    std::ifstream in(trace_in, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", trace_in.c_str());
      return 2;
    }
    if (int failed =
            AccumulateTxCells(in, trace_in.c_str(), *area, &tx_cells)) {
      return failed;
    }
    std::printf("replay of %s — area %.0f m\n", trace_in.c_str(), *area);
    PrintTxGrid(tx_cells, "transmission density (trace file)");
    return 0;
  }

  // The scenario flags go through the config-key table and Validate,
  // like a config file.
  ScenarioConfig config;
  for (const char* key : {"method", "peers", "seed"}) {
    Status applied =
        scenario::ApplyConfigKey(key, flags.GetString(key), &config);
    if (!applied.ok()) {
      std::fprintf(stderr, "--%s: %s\n", key, applied.ToString().c_str());
      return 2;
    }
  }
  Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 valid.ToString().c_str());
    return 2;
  }

  // Live mode: record only kTraceTx and replay the run's own stream.
  obs::TraceOptions trace_options;
  trace_options.categories = obs::kTraceTx;
  obs::RunContext context(trace_options);
  Scenario scenario(config, &context);

  std::vector<uint64_t> holder_cells(kGrid * kGrid, 0);
  const double cell = config.area_size_m / kGrid;
  scenario.simulator()->ScheduleAt(*sample_at, [&]() {
    const uint64_t key = scenario.issued_ad_key();
    for (net::NodeId id = 1;
         id <= static_cast<net::NodeId>(config.num_peers); ++id) {
      const auto* gossip = dynamic_cast<const core::OpportunisticGossip*>(
          scenario.protocol(id));
      if (gossip == nullptr || gossip->cache().Find(key) == nullptr) {
        continue;
      }
      const Vec2 p = scenario.medium()->PositionOf(id);
      const int x =
          std::min(kGrid - 1, std::max(0, static_cast<int>(p.x / cell)));
      const int y =
          std::min(kGrid - 1, std::max(0, static_cast<int>(p.y / cell)));
      ++holder_cells[y * kGrid + x];
    }
  });

  scenario.Run();

  std::istringstream trace_stream(context.trace.text());
  if (int failed = AccumulateTxCells(trace_stream, "<live trace>",
                                     config.area_size_m, &tx_cells)) {
    return failed;
  }

  std::printf("%s, %d peers, seed %llu — area %.0f m, ad R=%.0f m at the "
              "centre\n",
              MethodName(config.method), config.num_peers,
              static_cast<unsigned long long>(config.seed),
              config.area_size_m, config.initial_radius_m);
  PrintTxGrid(tx_cells, "transmission density (whole run)");
  uint64_t holder_peak = 0;
  for (uint64_t v : holder_cells) holder_peak = std::max(holder_peak, v);
  char title[96];
  std::snprintf(title, sizeof(title), "ad holders at t=%.0f s", *sample_at);
  PrintGrid(holder_cells, holder_peak, title);
  return 0;
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) { return madnet::Run(argc, argv); }
