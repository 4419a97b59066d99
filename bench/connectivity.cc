// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Structural analysis behind Figure 7's sparse/dense regimes: the radio
// graph of the Table-II geometry (5000 m x 5000 m, 250 m range) as network
// size grows. The paper's crossover at ~300 peers is where the giant
// component starts spanning most of the network — below it, flooding has
// no multi-hop path to most peers and only store-&-forward (gossip) works.

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "mobility/random_waypoint.h"
#include "stats/connectivity.h"
#include "util/random.h"
#include "util/table.h"

namespace madnet {
namespace {

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Connectivity of the Table-II geometry vs network size",
      "Average degree grows linearly with peers; the giant component "
      "fraction sweeps through the percolation transition around the "
      "sparse/dense crossover (~300 peers) that shapes Figure 7.");

  const Rect area{{0.0, 0.0}, {5000.0, 5000.0}};
  const double range = 250.0;
  std::vector<int> sizes = {50,  100, 150, 200, 250, 300,
                            400, 500, 700, 1000};
  if (env.fast) sizes = {100, 300, 1000};

  auto csv = bench::OpenCsv(env, "connectivity.csv",
                            {"peers", "avg_degree", "components",
                             "largest_component_fraction"});
  Table table({"peers", "avg_degree", "components", "giant_fraction"});
  for (int n : sizes) {
    // Average over several placements; sample node positions at a few
    // instants of Random Waypoint motion (RWP's stationary distribution is
    // centre-biased, which matters for connectivity).
    double degree = 0.0;
    double components = 0.0;
    double giant = 0.0;
    int samples = 0;
    for (int seed = 0; seed < std::max(2, env.reps); ++seed) {
      std::vector<std::unique_ptr<mobility::RandomWaypoint>> models;
      auto options = std::make_shared<mobility::RandomWaypoint::Options>();
      options->area = area;
      for (int i = 0; i < n; ++i) {
        models.push_back(std::make_unique<mobility::RandomWaypoint>(
            options, Rng(seed * 100000 + i)));
      }
      for (double t : {100.0, 500.0, 1000.0}) {
        std::vector<Vec2> positions;
        positions.reserve(n);
        for (auto& model : models) positions.push_back(model->PositionAt(t));
        const auto snapshot =
            stats::AnalyzeConnectivity(positions, range);
        degree += snapshot.average_degree;
        components += static_cast<double>(snapshot.components);
        giant += snapshot.largest_component_fraction;
        ++samples;
      }
    }
    degree /= samples;
    components /= samples;
    giant /= samples;
    table.Row(n, Table::Num(degree, 2), Table::Num(components, 1),
              Table::Num(giant, 3));
    if (csv) csv->Row(n, degree, components, giant);
  }
  table.Print();
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
