// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Structured run tracing: a per-run sink of JSONL records describing what
// happened *inside* a simulation — event dispatch, broadcast tx/rx,
// first-receipt deliveries (ad provenance), gossip suppression decisions,
// sketch merges. Records are appended in simulation order, which is fully
// deterministic given the seed, so a trace is a reproducible artifact:
// same config + same seed => byte-identical bytes, at any --jobs
// (per-replication sinks are concatenated in seed order by
// scenario::ReplicatedObs / obs::Session).
//
// Cost model: a subsystem holds a `Trace*` that is null when its category
// is not requested, so a disabled trace costs exactly one branch on the
// hot path. When enabled, each record is one snprintf into a stack buffer
// plus a string append; `sample_period` keeps only every Nth record per
// category for high-frequency categories (event dispatch, rx).
//
// An attached FlightRecorder (see obs/flight_recorder.h) additionally
// receives every record as a POD note — all categories, unsampled —
// regardless of the text category mask, so a postmortem ring can stay
// cheap while the JSONL text stays bounded.
//
// Record schema (field order is fixed; see docs/OBSERVABILITY.md):
//   {"cat":"run","seed":7,"config":"9a0f…"}          run header
//   {"cat":"event","t":12.5,"seq":3021}              event dispatch
//   {"cat":"tx","t":…,"node":5,"x":…,"y":…,"bytes":64,"seq":17}
//   {"cat":"rx","t":…,"from":5,"node":9,"bytes":64,"ad":…,"seq":17}
//   {"cat":"deliver","t":…,"node":9,"ad":…,"hop":2,"seq":17,"parent":5}
//   {"cat":"suppress","t":…,"node":5,"ad":…,"reason":"bernoulli","v":0.25}
//   {"cat":"sketch","t":…,"node":5,"ad":…}
//   {"cat":"fault","t":…,"node":5,"reason":"crash","v":0}

#ifndef MADNET_OBS_TRACE_H_
#define MADNET_OBS_TRACE_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace madnet::obs {

class FlightRecorder;

/// The trace categories, one row each, in bit order: X(Constant, "name").
/// The kTrace* bits, kTraceAll, kTraceCategoryCount, the record names and
/// the --trace-categories parser all expand from this one list, so a new
/// category is one new row.
#define MADNET_TRACE_CATEGORIES(X)                   \
  X(Event, "event")       /* Event dispatch. */      \
  X(Tx, "tx")             /* Broadcast sent. */      \
  X(Rx, "rx")             /* Frame delivered. */     \
  X(Suppress, "suppress") /* Gossip suppressed. */   \
  X(Sketch, "sketch")     /* FM sketch merge. */     \
  X(Fault, "fault")       /* Injected fault. */      \
  X(Deliver, "deliver")   /* First ad receipt. */

/// Bit index of each category (kTraceIndexEvent, ...), then the count.
enum TraceCategoryIndex : int {
#define MADNET_TRACE_INDEX(constant, name) kTraceIndex##constant,
  MADNET_TRACE_CATEGORIES(MADNET_TRACE_INDEX)
#undef MADNET_TRACE_INDEX
  kTraceIndexCount
};

/// Trace category bitmask values (kTraceEvent, kTraceTx, ...).
#define MADNET_TRACE_BIT(constant, name) \
  inline constexpr uint32_t kTrace##constant = 1u << kTraceIndex##constant;
MADNET_TRACE_CATEGORIES(MADNET_TRACE_BIT)
#undef MADNET_TRACE_BIT

/// Number of distinct categories (for per-category sampling state).
inline constexpr int kTraceCategoryCount = kTraceIndexCount;
inline constexpr uint32_t kTraceAll = (1u << kTraceCategoryCount) - 1u;

/// Record names ("event", "tx", ...), indexed by bit.
inline constexpr const char* kTraceCategoryNames[kTraceCategoryCount] = {
#define MADNET_TRACE_NAME(constant, name) name,
    MADNET_TRACE_CATEGORIES(MADNET_TRACE_NAME)
#undef MADNET_TRACE_NAME
};

/// The short name used in records and --trace-categories ("event", "tx",
/// ...). `category` must be exactly one bit of kTraceAll ("?" otherwise).
const char* TraceCategoryName(uint32_t category);

/// Parses a comma-separated category list ("tx,rx", "all", "none") into a
/// bitmask. InvalidArgument on unknown names.
StatusOr<uint32_t> ParseTraceCategories(const std::string& csv);

/// What a Trace records and how aggressively it samples.
struct TraceOptions {
  uint32_t categories = 0;     ///< Bitmask of kTrace* values.
  uint32_t sample_period = 1;  ///< Keep every Nth record per category (>= 1).
  /// Attach a bounded in-memory FlightRecorder ring (owned by the
  /// RunContext) capturing the most recent records of *all* categories for
  /// crash postmortems. See obs/flight_recorder.h.
  bool flight_recorder = false;
};

/// One run's trace sink. Single-threaded, like everything else inside a
/// replication; concurrent replications each own a Trace.
class Trace {
 public:
  explicit Trace(const TraceOptions& options);

  /// True iff `category` (one or more bits) should be reported at all —
  /// requested in the text mask, or captured by an attached flight
  /// recorder (which listens to every category). Inline so call sites
  /// gated on a non-null Trace* pay one mask test.
  bool Enabled(uint32_t category) const {
    return ((options_.categories | recorder_categories_) & category) != 0;
  }

  /// Emits the run-header record. Call once, before any other record.
  void BeginRun(uint64_t seed, const std::string& config_hash_hex);

  /// Typed record appenders. Each checks Enabled() and sampling itself,
  /// so callers may gate on the pointer alone.
  void Event(double t, uint64_t seq);
  /// `tx_seq` is the medium's per-run monotonic transmission sequence
  /// number of this frame (1-based; links rx/deliver records to their tx).
  void Tx(double t, uint32_t node, double x, double y, uint32_t bytes,
          uint64_t tx_seq);
  /// `ad_key` is the carried advertisement's key (0 for frames that carry
  /// none or several); `tx_seq` links back to the tx record.
  void Rx(double t, uint32_t from, uint32_t to, uint32_t bytes,
          uint64_t ad_key, uint64_t tx_seq);
  /// Ad provenance: node's *first* receipt of ad `ad_key`, at gossip depth
  /// `hop` (1 = heard the issuer directly), carried by the frame with
  /// transmission sequence `tx_seq`, transmitted by `parent`.
  void Deliver(double t, uint32_t node, uint64_t ad_key, uint32_t hop,
               uint64_t tx_seq, uint32_t parent);
  void Suppress(double t, uint32_t node, uint64_t ad_key, const char* reason,
                double value);
  void SketchMerge(double t, uint32_t node, uint64_t ad_key);
  /// Injected fault: `kind` is "down"/"crash"/"up" (node-scoped) or
  /// "loss_on"/"loss_off"/"jam_on"/"jam_off" (network-wide; node is
  /// 0xFFFFFFFF). `value` carries the episode loss / jammed area.
  void Fault(double t, uint32_t node, const char* kind, double value);

  /// Attaches (or detaches, with nullptr) a postmortem ring that receives
  /// every record of every category as a POD note, before text filtering.
  /// `reason` strings handed to noted records must outlive the recorder
  /// (the emitters all pass string literals). Not owned.
  void SetFlightRecorder(FlightRecorder* recorder);

  /// The JSONL text so far (one record per line, each '\n'-terminated).
  const std::string& text() const { return text_; }

  /// Records appended / records skipped by sampling.
  uint64_t records_kept() const { return records_kept_; }
  uint64_t records_sampled_out() const { return records_sampled_out_; }

  const TraceOptions& options() const { return options_; }

 private:
  /// True iff `category` is requested in the JSONL text output.
  bool TextEnabled(uint32_t category) const {
    return (options_.categories & category) != 0;
  }

  /// Sampling gate for one record of `category` (a single bit). Returns
  /// true if the record should be kept.
  bool Sample(uint32_t category);

  TraceOptions options_;
  std::string text_;
  uint64_t records_kept_ = 0;
  uint64_t records_sampled_out_ = 0;
  uint64_t sample_counters_[kTraceCategoryCount] = {};
  FlightRecorder* recorder_ = nullptr;
  /// kTraceAll while a recorder is attached, 0 otherwise (folded into
  /// Enabled() so emitters fire for recorder-only categories too).
  uint32_t recorder_categories_ = 0;
};

}  // namespace madnet::obs

#endif  // MADNET_OBS_TRACE_H_
