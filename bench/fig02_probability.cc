// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Figure 2: forwarding probability (Formula 1) versus distance, for alpha
// from 0.1 to 0.9. The paper plots R_t = 100 units; we use the Table-II
// radius R_t = 1000 m with the default 10 m distance unit, which spans the
// same 100-unit range.

#include "bench/bench_util.h"
#include "core/propagation.h"
#include "util/table.h"

namespace madnet {
namespace {

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Figure 2 — Forwarding probability vs distance (Formula 1)",
      "P stays near 1 deep inside the area, drops drastically as d nears "
      "R_t, and vanishes outside; higher alpha drops faster.");

  const double radius = 1000.0;
  const std::vector<double> alphas = {0.1, 0.3, 0.5, 0.7, 0.9};

  Table table({"distance_m", "P(a=0.1)", "P(a=0.3)", "P(a=0.5)", "P(a=0.7)",
               "P(a=0.9)"});
  auto csv = bench::OpenCsv(env, "fig02_probability.csv",
                            {"distance_m", "alpha", "probability"});
  for (double d = 0.0; d <= 1300.0; d += 50.0) {
    std::vector<std::string> row = {Table::Num(d, 0)};
    for (double alpha : alphas) {
      core::PropagationParams params;
      params.alpha = alpha;
      const double p = core::ForwardingProbability(d, radius, params);
      row.push_back(Table::Num(p, 4));
      if (csv) csv->Row(d, alpha, p);
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
