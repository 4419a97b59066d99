// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Process-wide observability session for bench binaries: configured once
// at startup (from --trace / --trace-categories / --metrics-out), it hands
// per-run TraceOptions to the replication engine and collects every run's
// RunContext as it finishes. Flush() sorts the collected runs by their
// deterministic sort key (the run's serialized config text, which embeds
// the seed), concatenates traces, merges metrics, and writes the output
// files — so a multi-threaded sweep produces byte-identical artifacts at
// any --jobs.
//
// Thread-safety: Configure/Get are for startup/shutdown (main thread);
// AddRun may be called concurrently from sweep workers.

#ifndef MADNET_OBS_SESSION_H_
#define MADNET_OBS_SESSION_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/manifest.h"
#include "obs/run_context.h"
#include "obs/trace.h"
#include "util/status.h"

namespace madnet::obs {

/// What the session records and where the artifacts go.
struct SessionOptions {
  TraceOptions trace;        ///< Categories + sampling for every run.
  std::string trace_path;    ///< JSONL output; empty = no trace file.
  std::string metrics_path;  ///< Metrics/manifest JSON; empty = none.
};

/// The process-wide collector. See file comment.
class Session {
 public:
  /// Installs the session. Call at most once per process (asserted);
  /// benches do this from ObsGuard before any scenario runs.
  static void Configure(const SessionOptions& options);

  /// The installed session, or nullptr when observability is off — the
  /// replication engine uses this to decide whether to build contexts.
  static Session* Get();

  /// Uninstalls and destroys the session (test hook; also makes a second
  /// Configure legal, e.g. across gtest cases).
  static void Shutdown();

  const SessionOptions& options() const { return options_; }

  /// Takes ownership of a finished run's context. `sort_key` must be a
  /// deterministic function of the run's full configuration (seed
  /// included); runs are emitted in ascending key order.
  void AddRun(std::string sort_key, std::unique_ptr<RunContext> run);

  /// Sorts, merges, and writes the artifacts:
  ///   - trace_path: every run's JSONL chunk, key order;
  ///   - metrics_path: {"manifest":…,"phases":…,"counters":…,…};
  ///   - trace_path + ".manifest.json" when only a trace was requested.
  /// Returns the first I/O error, if any.
  Status Flush(const Manifest& manifest);

  /// Number of runs collected so far.
  size_t run_count() const;

  /// Public only so Configure can construct via make_unique; callers use
  /// the static lifecycle (Configure/Get/Shutdown) instead.
  explicit Session(const SessionOptions& options) : options_(options) {}

 private:
  SessionOptions options_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::unique_ptr<RunContext>>> runs_;
};

}  // namespace madnet::obs

#endif  // MADNET_OBS_SESSION_H_
