// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Replays of a workload's call shapes against single layers, for the
// per-layer costs no public seam of a full run exposes: calendar-queue
// push/pop at the run's pending depth, spatial-index rebuild and range
// query at its node count, medium fan-out at its density, mobility position
// queries, top-k cache inserts, and the propagation formulas. Each replay
// records one span (replay.*) and returns how many operations it timed.

#ifndef MADNET_PERFBENCH_REPLAYS_H_
#define MADNET_PERFBENCH_REPLAYS_H_

#include <cstdint>
#include <map>
#include <string>

#include "scenario/config.h"

namespace madnet::perfbench {

/// Runs every replay with inputs drawn from `config.seed`; `pending_depth`
/// is the queue depth the run reached. Returns span name -> operations.
std::map<std::string, uint64_t> RunReplays(
    const scenario::ScenarioConfig& config, uint64_t pending_depth);

}  // namespace madnet::perfbench

#endif  // MADNET_PERFBENCH_REPLAYS_H_
