// Copyright (c) 2026 madnet authors. All rights reserved.
//
// In-memory span recorder for the traced benchmark run. A span is one timed
// call into a madnet layer: name, start, end, the span that caused it
// (parent) and the replication it belongs to (run id). Spans are appended
// to per-thread buffers while the run goes on and written out once, at
// exit.
//
// Spans nest per thread through a thread-local stack, and each span adds
// its duration to the enclosing span's child time, so a span's self time
// needs no further bookkeeping for children on its own thread. A span
// started on a worker thread names its cross-thread parent explicitly (exec
// points under a pass); analysis.py unions those children's intervals.
//
// OnReceive and NextLeg run millions of times per pass, so their spans are
// folded: each call still times itself and adds to its parent's child time,
// but instead of a record it adds to per-name totals (calls, time, self
// time), which TakeFoldedTotals() hands out per pass.
//
// Recording is off until EnableSpans(); ScopedSpan is then a no-op, so the
// untraced passes pay one branch.

#ifndef MADNET_PERFBENCH_SPANS_H_
#define MADNET_PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace madnet::perfbench {

/// Every span name the benchmark records. The prefix before the first '.'
/// is the layer the span is booked to; "bench" marks the benchmark's own
/// pass spans, whose self time is the part of a pass no layer accounts for.
enum class SpanName : uint16_t {
  kBenchPass,
  kExecSweep,
  kExecPoint,
  kScenarioBuild,
  kScenarioRun,
  kScenarioAggregate,
  kSimRunUntil,
  kCoreOnReceive,     // Folded.
  kMobilityNextLeg,   // Folded.
  kReplayQueue,
  kReplayIndexRebuild,
  kReplayIndexQuery,
  kReplayFanout,
  kReplayPosition,
  kReplayCacheInsert,
  kReplayPropagation,
  kCount,
};

constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);

/// Dotted name of a span, e.g. "core.on_receive".
const char* SpanNameText(SpanName name);

/// True for the names recorded as per-name totals instead of records.
bool IsFolded(SpanName name);

/// One recorded span; ids start at 1 and 0 means "no parent".
struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t run = 0;
  uint16_t name = 0;
  uint16_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  ///< Time covered by children on the same thread.
};

/// Calls, time and self time of one folded span name.
struct FoldedTotal {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// Turns recording on for the rest of the process.
void EnableSpans();

/// Sets the run id stamped on spans this thread records from now on.
void SetSpanRun(uint32_t run);

/// Folded totals since the previous call, summed over threads, indexed by
/// SpanName. Call while no worker is recording.
std::array<FoldedTotal, kSpanNames> TakeFoldedTotals();

/// Writes every span record to `path` as packed little-endian SpanRecord
/// structs (40 bytes each, fields in declaration order). Call once the
/// workers that recorded spans have been joined.
[[nodiscard]] Status WriteSpans(const std::string& path);

/// Records one span over its own lifetime.
class ScopedSpan {
 public:
  /// Parent is the innermost open span of this thread.
  explicit ScopedSpan(SpanName name);
  /// Explicit parent id (0 = root), for a span whose caller is another
  /// thread.
  ScopedSpan(SpanName name, uint32_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when recording is off or the name is folded).
  uint32_t id() const { return id_; }

 private:
  SpanName name_;
  bool active_ = false;
  uint32_t id_ = 0;
  uint32_t parent_ = 0;
  ScopedSpan* outer_ = nullptr;  // This thread's enclosing open span.
  int64_t start_ns_ = 0;
  int64_t child_ns_ = 0;
};

}  // namespace madnet::perfbench

#endif  // MADNET_PERFBENCH_SPANS_H_
