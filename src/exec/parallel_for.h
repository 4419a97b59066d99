// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Deterministic-result parallel index loop. Workers claim indices
// dynamically, so the *execution* order is nondeterministic, but each index
// runs exactly once — callers keep results deterministic by writing into
// slot `i` of a pre-sized output and reducing in index order afterwards.
//
// Calls nest: a ParallelFor inside a worker of an enclosing one shares
// that call's workers, so a sweep's grid points and the replications
// inside each point are all scheduled as one pool of work.

#ifndef MADNET_EXEC_PARALLEL_FOR_H_
#define MADNET_EXEC_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace madnet::exec {

/// Runs fn(i) for every i in [0, n).
///
/// A top-level call (one not made from inside another ParallelFor) with
/// jobs <= 1 runs everything inline on the calling thread in increasing
/// index order — no threads, byte-identical to a plain for-loop — and
/// every call nested in it runs inline too, whatever its `jobs`.
///
/// A top-level call with jobs > 1 starts `jobs` workers and blocks until
/// all of [0, n) has run; no further thread is ever started for it. A call
/// nested in it (from fn, on one of those workers) ignores its own `jobs`:
/// it publishes its range to the same workers, claims its own indices
/// first and, while the last of them finish on other workers, helps any
/// other open range. Idle workers claim from the newest open range first.
///
/// The first exception thrown by any fn(i) is rethrown to that call's
/// caller once its claimed indices have finished; its unclaimed indices are
/// abandoned. Thrown out of a nested call's fn, it thus travels up through
/// each enclosing fn to the outermost caller.
void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn);

/// Maps the user-facing jobs knob to a worker count: values >= 1 pass
/// through, anything else (0, negative) means "one worker per hardware
/// thread".
int ResolveJobs(int jobs);

/// The largest jobs knob the binaries accept: 4 x the hardware threads.
int MaxJobs();

}  // namespace madnet::exec

#endif  // MADNET_EXEC_PARALLEL_FOR_H_
