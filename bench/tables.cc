// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The paper's three tables, as this repository configures them:
//   Table I   — notation (with the symbol's home in the codebase).
//   Table II  — parameter settings of the main experiments (Section IV-A),
//               read live from ScenarioConfig's defaults.
//   Table III — parameter settings of the tuning experiments (IV-C).
// Reconstructed values are marked; see DESIGN.md for the OCR evidence.

#include "bench/bench_util.h"
#include "scenario/config.h"
#include "util/table.h"

namespace madnet {
namespace {

using scenario::ScenarioConfig;

void Run() {
  bench::PrintHeader("Table I — notation",
                     "Symbols of the propagation model and where they live "
                     "in this codebase.");
  Table notation({"symbol", "meaning", "in this repo"});
  notation.Row("P", "forwarding probability",
               "core::ForwardingProbability (Formula 1/3)");
  notation.Row("R", "initial advertising radius",
               "ScenarioConfig::initial_radius_m");
  notation.Row("D", "initial advertising duration",
               "ScenarioConfig::initial_duration_s");
  notation.Row("alpha, beta", "tuning parameters in (0, 1)",
               "core::PropagationParams");
  notation.Row("R_t", "advertising radius at age t",
               "core::RadiusAtAge (Formula 2)");
  notation.Row("t (age)", "time since issue", "Advertisement::AgeAt");
  notation.Row("d", "distance from the issuing location",
               "util geometry, evaluated per peer");
  notation.Row("delta-t", "gossiping round time",
               "GossipOptions::round_time_s");
  notation.Row("rho", "average peer density",
               "num_peers / area (see bench/connectivity)");
  notation.Row("V_max", "maximum peer speed",
               "Medium::Options::max_speed_mps");
  notation.Row("DIS", "annular region width (Optimization 1)",
               "GossipOptions::dis_m");
  notation.Row("r", "wireless transmission range",
               "Medium::Options::range_m");
  notation.Print();

  const ScenarioConfig config;  // The defaults ARE Table II.
  bench::PrintHeader("Table II — parameter setting (Section IV-A)",
                     "Starred values are OCR reconstructions; DESIGN.md "
                     "documents the evidence for each.");
  Table table2({"name", "value", "paper text"});
  table2.Row("Simulation time",
             Table::Num(config.sim_time_s, 0) + " s", "\"2 seconds\" *");
  table2.Row("Area", Table::Num(config.area_size_m, 0) + " m square",
             "\"5m x 5m\" *");
  table2.Row("Issue location",
             config.issue_location.ToString(), "\"(25, 25), center\" *");
  table2.Row("R", Table::Num(config.initial_radius_m, 0) + " m",
             "\"meters\" *");
  table2.Row("D", Table::Num(config.initial_duration_s, 0) + " s",
             "\"8 seconds\" *");
  table2.Row("alpha, beta",
             Table::Num(config.gossip.propagation.alpha, 1) + ", " +
                 Table::Num(config.gossip.propagation.beta, 1),
             "\".5\"");
  table2.Row("Gossiping round time",
             Table::Num(config.gossip.round_time_s, 0) + " s",
             "\"5 seconds\"");
  table2.Row("DIS", Table::Num(config.gossip.dis_m, 0) + " m (R/4)",
             "\"R/4\"");
  table2.Row("Transmission range",
             Table::Num(config.medium.range_m, 0) + " m",
             "\"25 meters\" *");
  table2.Row("Peer speed",
             Table::Num(config.mean_speed_mps, 0) + " +- " +
                 Table::Num(config.speed_delta_mps, 0) + " m/s",
             "\"m/s with a delta of 5m/s\" *");
  table2.Row("Cache capacity k",
             std::to_string(config.gossip.cache_capacity), "\"(e.g. k=)\" *");
  table2.Print();

  bench::PrintHeader("Table III — tuning-experiment setting (Section IV-C)",
                     "As Table II with the network size pinned.");
  Table table3({"name", "value"});
  table3.Row("Simulation time", Table::Num(config.sim_time_s, 0) + " s");
  table3.Row("R", Table::Num(config.initial_radius_m, 0) + " m");
  table3.Row("D", Table::Num(config.initial_duration_s, 0) + " s");
  table3.Row("Speed", Table::Num(config.mean_speed_mps, 0) + " +- " +
                          Table::Num(config.speed_delta_mps, 0) + " m/s");
  table3.Row("Network size", "300 peers");
  table3.Print();
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  return madnet::bench::Main(argc, argv, [](const auto&) { madnet::Run(); });
}
