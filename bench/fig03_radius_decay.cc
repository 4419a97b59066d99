// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Figure 3: advertising radius R_t (Formula 2) versus age, for beta from
// 0.1 to 0.9. R_t stays near R for most of the lifetime and collapses to 0
// at t = D.

#include "bench/bench_util.h"
#include "core/propagation.h"
#include "util/table.h"

namespace madnet {
namespace {

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Figure 3 — Advertising radius vs age (Formula 2)",
      "R_t ~ R while t << D, collapses near t = D, 0 afterwards; lower "
      "beta holds the radius up longer in the final stretch.");

  const double radius = 1000.0;
  const double duration = 800.0;
  const std::vector<double> betas = {0.1, 0.3, 0.5, 0.7, 0.9};

  Table table({"age_s", "Rt(b=0.1)", "Rt(b=0.3)", "Rt(b=0.5)", "Rt(b=0.7)",
               "Rt(b=0.9)"});
  auto csv = bench::OpenCsv(env, "fig03_radius_decay.csv",
                            {"age_s", "beta", "radius_m"});
  for (double age = 0.0; age <= 840.0; age += 40.0) {
    std::vector<std::string> row = {Table::Num(age, 0)};
    for (double beta : betas) {
      core::PropagationParams params;
      params.beta = beta;
      const double rt = core::RadiusAtAge(radius, duration, age, params);
      row.push_back(Table::Num(rt, 1));
      if (csv) csv->Row(age, beta, rt);
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
