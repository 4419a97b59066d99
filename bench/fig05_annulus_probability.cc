// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Figure 5: the Optimization-1 forwarding probability (Formula 3) versus
// distance. Only the annulus [R - DIS, R] gossips with high probability;
// the central disc is suppressed, decaying towards the issuing location.
// The paper plots R = 100, DIS = 30 in its units; we use the Table-II
// values R = 1000 m, DIS = 250 m.

#include "bench/bench_util.h"
#include "core/propagation.h"
#include "util/table.h"

namespace madnet {
namespace {

void Run(const bench::BenchEnv& env) {
  bench::PrintHeader(
      "Figure 5 — Annulus forwarding probability (Formula 3, Optimization 1)",
      "Probability is low in the centre, rises through the annulus "
      "[R-DIS, R], and vanishes outside R — newcomers are caught at the "
      "boundary.");

  const double radius = 1000.0;
  const double dis = 250.0;
  core::PropagationParams params;  // Table II: alpha = 0.5.

  Table table({"distance_m", "P_annulus", "P_formula1"});
  auto csv = bench::OpenCsv(env, "fig05_annulus_probability.csv",
                            {"distance_m", "p_annulus", "p_formula1"});
  for (double d = 0.0; d <= 1300.0; d += 50.0) {
    const double annulus =
        core::AnnulusForwardingProbability(d, radius, dis, params);
    const double plain = core::ForwardingProbability(d, radius, params);
    table.Row(Table::Num(d, 0), Table::Num(annulus, 4), Table::Num(plain, 4));
    if (csv) csv->Row(d, annulus, plain);
  }
  table.Print();
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, madnet::Run);
}
