// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Intra-run parallelism: adapts the exec thread pool to the medium's
// ParallelExecutor hook so a *single* simulation can spread order-free
// per-node work (the spatial index rebuild's position warm-up) across
// cores. This is the --jobs knob *inside* one run, complementing
// exec::RunReplicated's across-replication parallelism; both leave every
// trace byte identical to a serial run (docs/architecture.md, "Execution
// engine").
//
// Lives in exec, not net: the medium must stay below exec in the layer
// DAG, so it only declares the std::function hook and this file supplies
// the pool-backed implementation.

#ifndef MADNET_EXEC_INTRA_RUN_H_
#define MADNET_EXEC_INTRA_RUN_H_

#include "net/medium.h"

namespace madnet::exec {

/// Returns a pool-backed executor for Medium::SetParallelExecutor, or an
/// empty one when the resolved job count is 1 (so the medium keeps its
/// zero-overhead serial path). `jobs` follows the usual knob convention:
/// >= 1 is a worker count, anything else means one per hardware thread.
/// The executor splits [0, count) into near-equal contiguous chunks, one
/// per worker, and blocks until all chunks finish.
net::Medium::ParallelExecutor IntraRunExecutor(int jobs);

}  // namespace madnet::exec

#endif  // MADNET_EXEC_INTRA_RUN_H_
