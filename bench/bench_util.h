// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Shared plumbing for the figure-reproduction binaries: replication control,
// headers that restate the paper's expectation next to our measurement, CSV
// output so the series can be re-plotted outside the binary, and the
// parallel sweep engine that fans grid points out over a thread pool.
//
// Environment knobs:
//   MADNET_BENCH_REPS  — replications per data point (default 3).
//   MADNET_BENCH_FAST  — if set (non-empty), shrink sweeps for quick runs.
//   MADNET_BENCH_CSV   — directory for CSV output (default "."; set to an
//                        empty string to disable CSV files).
//   MADNET_JOBS        — worker threads for sweeps (default 1; 0 or "auto"
//                        means one per hardware thread). The --jobs=N
//                        command-line flag overrides it.
//
// Observability knobs (see docs/OBSERVABILITY.md; flags override env):
//   MADNET_TRACE / --trace=FILE             — JSONL trace output path.
//   MADNET_TRACE_CATEGORIES /
//     --trace-categories=CSV                — event,tx,rx,suppress,sketch,fault,
//                                             all (default), none.
//   MADNET_TRACE_SAMPLE / --trace-sample=N  — keep every Nth record per
//                                             category (default 1).
//   MADNET_METRICS_OUT / --metrics-out=FILE — manifest + merged metrics
//                                             JSON output path.
//   MADNET_FLIGHT_RECORDER /
//     --flight-recorder                     — keep a bounded in-memory ring
//                                             of recent trace records per
//                                             replication, dumped to a
//                                             postmortem file on DCHECK
//                                             failure ($MADNET_POSTMORTEM
//                                             or ./madnet_postmortem.jsonl).

#ifndef MADNET_BENCH_BENCH_UTIL_H_
#define MADNET_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exec/parallel_for.h"
#include "obs/manifest.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/table.h"

namespace madnet::bench {

/// Replication / scaling knobs read from the environment (and optionally
/// the command line).
struct BenchEnv {
  int reps = 3;
  bool fast = false;
  std::string csv_dir = ".";
  /// Sweep concurrency, already resolved: >= 1. Grid points (or
  /// replications) are distributed over this many workers.
  int jobs = 1;

  /// Observability outputs; empty paths mean "off" (see ObsGuard).
  std::string trace_path;
  std::string metrics_path;
  uint32_t trace_categories = obs::kTraceAll;
  uint32_t trace_sample = 1;
  bool flight_recorder = false;

  /// True when any observability output was requested. A flight recorder
  /// alone counts: it produces no artifact on a clean run, but needs the
  /// session installed so every replication carries a postmortem ring.
  bool ObsRequested() const {
    return !trace_path.empty() || !metrics_path.empty() || flight_recorder;
  }

  static BenchEnv FromEnvironment() {
    BenchEnv env;
    if (const char* reps = std::getenv("MADNET_BENCH_REPS")) {
      env.reps = std::max(1, std::atoi(reps));
    }
    if (const char* fast = std::getenv("MADNET_BENCH_FAST")) {
      env.fast = fast[0] != '\0';
    }
    if (const char* dir = std::getenv("MADNET_BENCH_CSV")) {
      env.csv_dir = dir;
    }
    if (const char* jobs = std::getenv("MADNET_JOBS")) {
      env.jobs = ParseJobs(jobs);
    }
    if (const char* trace = std::getenv("MADNET_TRACE")) {
      env.trace_path = trace;
    }
    if (const char* cats = std::getenv("MADNET_TRACE_CATEGORIES")) {
      env.trace_categories = ParseCategories(cats);
    }
    if (const char* sample = std::getenv("MADNET_TRACE_SAMPLE")) {
      env.trace_sample =
          static_cast<uint32_t>(std::max(1, std::atoi(sample)));
    }
    if (const char* metrics = std::getenv("MADNET_METRICS_OUT")) {
      env.metrics_path = metrics;
    }
    if (const char* recorder = std::getenv("MADNET_FLIGHT_RECORDER")) {
      env.flight_recorder = recorder[0] != '\0';
    }
    return env;
  }

  /// FromEnvironment() plus command-line overrides: --jobs=N / --jobs N
  /// (N = 0 or "auto" → hardware concurrency), --fast, --reps=N.
  static BenchEnv FromEnvironment(int argc, char** argv) {
    BenchEnv env = FromEnvironment();
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--jobs=", 7) == 0) {
        env.jobs = ParseJobs(arg + 7);
      } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
        env.jobs = ParseJobs(argv[++i]);
      } else if (std::strncmp(arg, "--reps=", 7) == 0) {
        env.reps = std::max(1, std::atoi(arg + 7));
      } else if (std::strcmp(arg, "--fast") == 0) {
        env.fast = true;
      } else if (std::strncmp(arg, "--trace=", 8) == 0) {
        env.trace_path = arg + 8;
      } else if (std::strncmp(arg, "--trace-categories=", 19) == 0) {
        env.trace_categories = ParseCategories(arg + 19);
      } else if (std::strncmp(arg, "--trace-sample=", 15) == 0) {
        env.trace_sample =
            static_cast<uint32_t>(std::max(1, std::atoi(arg + 15)));
      } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
        env.metrics_path = arg + 14;
      } else if (std::strcmp(arg, "--flight-recorder") == 0) {
        env.flight_recorder = true;
      }
    }
    return env;
  }

 private:
  static int ParseJobs(const char* text) {
    if (std::strcmp(text, "auto") == 0) return exec::ResolveJobs(0);
    char* end = nullptr;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || value < 0) {
      MADNET_LOG_ERROR("--jobs wants a count or \"auto\", got \"%s\"", text);
      std::exit(2);
    }
    return exec::ResolveJobs(static_cast<int>(value));
  }

  static uint32_t ParseCategories(const char* text) {
    auto parsed = obs::ParseTraceCategories(text);
    if (!parsed.ok()) {
      MADNET_LOG_ERROR("--trace-categories: %s",
                       parsed.status().ToString().c_str());
      std::exit(2);
    }
    return *parsed;
  }
};

/// Installs the process-wide obs::Session for the bench's lifetime when
/// the environment asked for observability output, and flushes/writes the
/// artifacts (trace JSONL, metrics JSON, manifest) on destruction. With no
/// --trace / --metrics-out this is a complete no-op: no session exists and
/// scenario hot paths keep their single null test.
///
///   int main(int argc, char** argv) {
///     BenchEnv env = BenchEnv::FromEnvironment(argc, argv);
///     ObsGuard obs(env);
///     Run(env);
///   }
class ObsGuard {
 public:
  explicit ObsGuard(const BenchEnv& env)
      : env_(env), start_(std::chrono::steady_clock::now()) {
    if (!env.ObsRequested()) return;
    obs::SessionOptions options;
    options.trace.categories = env.trace_categories;
    options.trace.sample_period = env.trace_sample;
    options.trace.flight_recorder = env.flight_recorder;
    options.trace_path = env.trace_path;
    options.metrics_path = env.metrics_path;
    obs::Session::Configure(options);
  }

  ObsGuard(const ObsGuard&) = delete;
  ObsGuard& operator=(const ObsGuard&) = delete;

  ~ObsGuard() {
    obs::Session* session = obs::Session::Get();
    if (session == nullptr) return;
    obs::Manifest manifest;
    manifest.replications = env_.reps;
    manifest.jobs = env_.jobs;
    manifest.wall_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    const Status status = session->Flush(manifest);
    obs::Session::Shutdown();
    if (!status.ok()) {
      // A bench whose requested artifacts are missing must not look green.
      MADNET_LOG_ERROR("observability flush failed: %s",
                       status.ToString().c_str());
      std::exit(EXIT_FAILURE);
    }
  }

 private:
  BenchEnv env_;
  std::chrono::steady_clock::time_point start_;
};

/// Runs fn(i) for every grid point i in [0, n), fanned out over env.jobs
/// workers (inline when env.jobs == 1). A RunReplicated(config, reps) call
/// inside fn shares those workers, so replications, not whole points, are
/// what they pick up. fn must write its result into an index-addressed
/// slot and leave printing/CSV to a serial pass afterwards; with that
/// discipline the output is identical at any job count.
template <typename Fn>
void ParallelSweep(const BenchEnv& env, size_t n, Fn&& fn) {
  exec::ParallelFor(env.jobs, n, fn);
}

/// Prints the figure banner: what the paper reports, what we regenerate.
inline void PrintHeader(const std::string& figure, const std::string& paper) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("Paper: %s\n", paper.c_str());
  std::printf("================================================================\n");
}

/// Opens a CSV file in the configured directory; returns nullptr when CSV
/// output is disabled. A file that cannot be opened aborts the benchmark
/// with a non-zero exit instead of silently dropping the series.
inline std::unique_ptr<CsvWriter> OpenCsv(
    const BenchEnv& env, const std::string& name,
    const std::vector<std::string>& header) {
  if (env.csv_dir.empty()) return nullptr;
  const std::string path = env.csv_dir + "/" + name;
  auto writer = std::make_unique<CsvWriter>(path, header);
  if (!writer->Ok()) {
    MADNET_LOG_ERROR("cannot write %s", path.c_str());
    std::exit(EXIT_FAILURE);
  }
  return writer;
}

/// Closes a CSV writer and aborts with a non-zero exit if any write (or
/// the close itself) failed — a benchmark whose data file is truncated
/// must not look successful. nullptr (CSV disabled) is a no-op.
inline void CloseCsv(std::unique_ptr<CsvWriter> writer) {
  if (!writer) return;
  const Status status = writer->Close();
  if (!status.ok()) {
    MADNET_LOG_ERROR("%s", status.ToString().c_str());
    std::exit(EXIT_FAILURE);
  }
}

}  // namespace madnet::bench

#endif  // MADNET_BENCH_BENCH_UTIL_H_
