// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Replicated experiment runner: runs a scenario over several seeds and
// aggregates the paper's metrics, so every figure's data point carries a
// mean and a spread instead of a single noisy run.
//
// Lives in src/exec (the top layer) because it composes the scenario
// harness with the thread pool: exec may depend on scenario, but scenario
// must not depend on exec (rule madnet-layering, docs/STATIC_ANALYSIS.md).

#ifndef MADNET_EXEC_REPLICATION_H_
#define MADNET_EXEC_REPLICATION_H_

#include "scenario/config.h"
#include "scenario/scenario.h"
#include "stats/summary.h"

namespace madnet::exec {

/// Cross-seed aggregation of scenario::RunResult.
struct Aggregate {
  stats::Summary delivery_rate_percent;
  stats::Summary mean_delivery_time_s;
  stats::Summary messages;
  stats::Summary peers_passed;
  stats::Summary final_rank;

  /// Convenience means.
  double DeliveryRate() const { return delivery_rate_percent.Mean(); }
  double DeliveryTime() const { return mean_delivery_time_s.Mean(); }
  double Messages() const { return messages.Mean(); }
};

/// Runs `replications` copies of `base` with seeds base.seed, base.seed+1,
/// ... and aggregates. Requires replications >= 1.
///
/// `jobs` is the concurrency knob of a top-level call: 1 (the default)
/// runs seeds serially on the calling thread; jobs > 1 runs up to that
/// many replications at once through exec::ParallelFor; jobs <= 0 means
/// one worker per hardware thread. Called from inside an exec::ParallelFor
/// worker (a grid point of a sweep) `jobs` is ignored: the replications
/// join the enclosing loop's workers, so idle workers of the sweep pick
/// them up; under a top-level jobs = 1 sweep they run serially on the
/// calling thread. Each replication owns its whole Simulator/Medium/RNG
/// stack, so runs are fully isolated; per-seed results are merged in seed
/// order regardless of completion order, making every Aggregate field
/// bit-identical to the serial path.
///
/// When an obs::Session is installed (see bench_util's Main), every
/// replication additionally records into its own obs::RunContext — trace
/// records, metrics, and a "replication" wall-clock phase — and the
/// contexts are handed to the session keyed by the replication's config
/// text, so flushed traces/metrics are also byte-identical at any `jobs`.
Aggregate RunReplicated(const scenario::ScenarioConfig& base,
                        int replications, int jobs = 1);

}  // namespace madnet::exec

#endif  // MADNET_EXEC_REPLICATION_H_
