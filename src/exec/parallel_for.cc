// Copyright (c) 2026 madnet authors. All rights reserved.

#include "exec/parallel_for.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace madnet::exec {
namespace {

// The indices of one ParallelFor call. Guarded by its region's mutex.
struct Range {
  size_t n = 0;
  const std::function<void(size_t)>* fn = nullptr;
  size_t next = 0;     // First unclaimed index; set to n to abandon the rest.
  size_t running = 0;  // Claimed indices whose fn has not returned yet.
  std::exception_ptr error = nullptr;  // First exception any fn(i) threw.

  bool Claimable() const { return next < n; }
  bool Finished() const { return next == n && running == 0; }
};

// The workers of one outermost ParallelFor and every range opened under
// it. Ranges stay on `open` (oldest first) until their caller sees them
// finished, so the newest claimable one is a backwards scan.
struct Region {
  std::mutex mutex;
  std::condition_variable changed;  // A range opened or finished.
  std::vector<Range*> open;

  Range* NewestClaimable() const {
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      if ((*it)->Claimable()) return *it;
    }
    return nullptr;
  }

  // Claims and runs the next index of `range`, with the lock released
  // while fn runs. The first exception abandons the range's unclaimed
  // indices.
  void RunOne(Range* range, std::unique_lock<std::mutex>& lock) {
    const size_t i = range->next++;
    ++range->running;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*range->fn)(i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error) {
      if (!range->error) range->error = error;
      range->next = range->n;
    }
    if (--range->running == 0 && !range->Claimable()) changed.notify_all();
  }
};

// The region this thread works for: null outside any ParallelFor, and
// &g_inline inside a top-level jobs <= 1 loop, so nested calls there stay
// inline too.
thread_local Region* t_region = nullptr;
Region g_inline;

void RunInline(size_t n, const std::function<void(size_t)>& fn) {
  struct Restore {
    Region* saved = std::exchange(t_region, &g_inline);
    ~Restore() { t_region = saved; }
  } restore;
  for (size_t i = 0; i < n; ++i) fn(i);
}

// A worker of `region`: claims from the newest open range until the
// outermost range `root` has finished.
void WorkerLoop(Region* region, const Range* root) {
  t_region = region;
  std::unique_lock<std::mutex> lock(region->mutex);
  while (!root->Finished()) {
    if (Range* range = region->NewestClaimable()) {
      region->RunOne(range, lock);
    } else {
      region->changed.wait(lock);
    }
  }
}

// A nested call: publishes `range` to the region, claims its own indices
// first and, while the last of them finish on other workers, helps the
// newest open range instead of idling.
void RunNested(Region* region, Range* range) {
  std::unique_lock<std::mutex> lock(region->mutex);
  region->open.push_back(range);
  region->changed.notify_all();
  while (!range->Finished()) {
    Range* pick = range->Claimable() ? range : region->NewestClaimable();
    if (pick != nullptr) {
      region->RunOne(pick, lock);
    } else {
      region->changed.wait(lock);
    }
  }
  std::vector<Range*>& open = region->open;
  open.erase(std::find(open.begin(), open.end(), range));
}

}  // namespace

void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (t_region == &g_inline || (t_region == nullptr && jobs <= 1)) {
    RunInline(n, fn);
    return;
  }
  Range range{n, &fn};
  if (t_region != nullptr) {
    RunNested(t_region, &range);
  } else {
    // The outermost call: `jobs` workers serve this range and every range
    // nested under it; the caller only waits for them.
    Region region;
    region.open.push_back(&range);
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      workers.emplace_back(WorkerLoop, &region, &range);
    }
  }
  if (range.error) std::rethrow_exception(range.error);
}

int ResolveJobs(int jobs) {
  return jobs >= 1 ? jobs : ThreadPool::HardwareConcurrency();
}

}  // namespace madnet::exec
