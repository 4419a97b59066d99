// Copyright (c) 2026 madnet authors. All rights reserved.

#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace madnet::perfbench {
namespace {

static_assert(sizeof(SpanRecord) == 40, "span file format is 40-byte records");

constexpr const char* kNames[] = {
    "bench.pass",           "exec.sweep",
    "exec.point",           "scenario.build",
    "scenario.run",         "scenario.aggregate",
    "sim.run_until",        "core.on_receive",
    "mobility.next_leg",    "replay.queue",
    "replay.index_rebuild", "replay.index_query",
    "replay.fanout",        "replay.position",
    "replay.cache_insert",  "replay.propagation",
};
static_assert(std::size(kNames) == kSpanNames);

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_next_id{1};

// One recording thread's output. Owned here, not by the thread:
// exec::ParallelFor joins its workers before the spans are written.
struct ThreadLog {
  uint16_t thread = 0;
  std::vector<SpanRecord> records;
  std::array<FoldedTotal, kSpanNames> folded{};
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

struct ThreadState {
  ThreadLog* log = nullptr;
  ScopedSpan* innermost = nullptr;
  uint32_t innermost_id = 0;
  uint32_t run = 0;
};
thread_local ThreadState t_state;

ThreadLog* Log() {
  if (t_state.log == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->thread = static_cast<uint16_t>(g_logs.size() - 1);
    t_state.log = g_logs.back().get();
  }
  return t_state.log;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* SpanNameText(SpanName name) {
  return kNames[static_cast<size_t>(name)];
}

bool IsFolded(SpanName name) {
  return name == SpanName::kCoreOnReceive ||
         name == SpanName::kMobilityNextLeg;
}

void EnableSpans() { g_enabled.store(true); }

void SetSpanRun(uint32_t run) { t_state.run = run; }

std::array<FoldedTotal, kSpanNames> TakeFoldedTotals() {
  std::array<FoldedTotal, kSpanNames> totals{};
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& log : g_logs) {
    for (size_t i = 0; i < kSpanNames; ++i) {
      totals[i].calls += log->folded[i].calls;
      totals[i].total_ns += log->folded[i].total_ns;
      totals[i].self_ns += log->folded[i].self_ns;
      log->folded[i] = FoldedTotal{};
    }
  }
  return totals;
}

Status WriteSpans(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status::Internal("cannot open " + path);
  std::lock_guard<std::mutex> lock(g_mutex);
  bool ok = true;
  for (const auto& log : g_logs) {
    const std::vector<SpanRecord>& records = log->records;
    if (records.empty()) continue;
    ok = ok && std::fwrite(records.data(), sizeof(SpanRecord), records.size(),
                           file) == records.size();
  }
  ok = std::fclose(file) == 0 && ok;
  return ok ? Status::Ok() : Status::Internal("cannot write " + path);
}

ScopedSpan::ScopedSpan(SpanName name)
    : ScopedSpan(name, t_state.innermost_id) {}

ScopedSpan::ScopedSpan(SpanName name, uint32_t parent) : name_(name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  active_ = true;
  outer_ = t_state.innermost;
  t_state.innermost = this;
  if (!IsFolded(name)) {
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = parent;
    t_state.innermost_id = id_;
  }
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end_ns = NowNs();
  const int64_t duration = end_ns - start_ns_;
  t_state.innermost = outer_;
  if (outer_ != nullptr) outer_->child_ns_ += duration;
  ThreadLog* log = Log();
  if (IsFolded(name_)) {
    FoldedTotal& total = log->folded[static_cast<size_t>(name_)];
    ++total.calls;
    total.total_ns += duration;
    total.self_ns += duration - child_ns_;
    return;
  }
  // The innermost recorded span is the nearest enclosing non-folded one.
  ScopedSpan* enclosing = outer_;
  while (enclosing != nullptr && IsFolded(enclosing->name_)) {
    enclosing = enclosing->outer_;
  }
  t_state.innermost_id = enclosing != nullptr ? enclosing->id_ : 0;
  log->records.push_back(SpanRecord{id_, parent_, t_state.run,
                                    static_cast<uint16_t>(name_), log->thread,
                                    start_ns_, end_ns, child_ns_});
}

}  // namespace madnet::perfbench
