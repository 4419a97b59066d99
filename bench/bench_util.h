// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Shared plumbing for the figure-reproduction binaries: replication control,
// headers that restate the paper's expectation next to our measurement, CSV
// output so the series can be re-plotted outside the binary, and the
// parallel sweep engine that fans grid points out over a thread pool.
//
// Every bench binary reads the flags and MADNET_* variables of
// BenchFlags() below, plus its own rows; `<binary> --help` lists them with
// their variables, defaults and ranges. A flag beats its variable.

#ifndef MADNET_BENCH_BENCH_UTIL_H_
#define MADNET_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/parallel_for.h"
#include "obs/manifest.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table.h"

namespace madnet::bench {

/// The rows every bench binary reads (util/flags.h).
inline std::vector<Flag> BenchFlags() {
  return {
      {"reps", "MADNET_BENCH_REPS", FlagKind::kInt, "3",
       "replications per data point", 1, INT_MAX},
      {"fast", "MADNET_BENCH_FAST", FlagKind::kBool, "false",
       "shrink sweeps for quick runs"},
      {"", "MADNET_BENCH_CSV", FlagKind::kString, ".",
       "directory for CSV output; empty disables CSV files"},
      {"jobs", "MADNET_JOBS", FlagKind::kInt, "1",
       "worker threads for sweeps (0 or auto = one per hardware thread)",
       0, static_cast<double>(exec::MaxJobs()), "auto"},
      {"trace", "MADNET_TRACE", FlagKind::kString, "",
       "JSONL trace output path (docs/OBSERVABILITY.md)"},
      {.name = "trace-categories",
       .env = "MADNET_TRACE_CATEGORIES",
       .default_value = "all",
       .help = "comma-separated trace categories, or all / none",
       .check = [](const std::string&, const std::string& value) {
         return obs::ParseTraceCategories(value).status();
       }},
      {"trace-sample", "MADNET_TRACE_SAMPLE", FlagKind::kInt, "1",
       "keep every Nth record per category", 1, UINT32_MAX},
      {"metrics-out", "MADNET_METRICS_OUT", FlagKind::kString, "",
       "manifest + merged metrics JSON output path"},
      {"flight-recorder", "MADNET_FLIGHT_RECORDER", FlagKind::kBool, "false",
       "keep a bounded ring of recent trace records per replication, "
       "dumped to $MADNET_POSTMORTEM (default ./madnet_postmortem.jsonl) "
       "on a DCHECK failure"},
  };
}

/// Wall-clock seconds since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The bench knobs, read once from BenchFlags() and the binary's own rows.
struct BenchEnv {
  int reps = 3;
  bool fast = false;
  std::string csv_dir = ".";
  /// Sweep concurrency, already resolved: >= 1. Grid points (or
  /// replications) are distributed over this many workers.
  int jobs = 1;
  /// The parsed table: the observability rows and the binary's own.
  FlagSet flags;
};

/// A bench binary's main(): parses BenchFlags() plus the `own` rows (a bad
/// flag or variable exits 2 before any work; --help prints every row),
/// runs `run(env)` and writes the observability artifacts asked for. With
/// no --trace, --metrics-out or --flight-recorder no obs::Session exists,
/// so scenario hot paths keep their single null test. A flight recorder
/// alone counts: it writes nothing on a clean run, but every replication
/// needs the session to carry a postmortem ring.
///
///   int main(int argc, char** argv) {
///     return madnet::bench::Main(argc, argv, madnet::Run);
///   }
template <typename Run>
int Main(int argc, char** argv, Run&& run, std::span<const Flag> own = {}) {
  std::vector<Flag> rows = BenchFlags();
  rows.insert(rows.end(), own.begin(), own.end());
  BenchEnv env;
  env.flags = ParseFlagsOrExit(rows, argc, argv,
                               std::string(argv[0]) + " [--flag=value ...]");
  env.reps = static_cast<int>(env.flags.Int("reps"));
  env.fast = env.flags.Bool("fast");
  env.csv_dir = env.flags.String("MADNET_BENCH_CSV");
  env.jobs = exec::ResolveJobs(static_cast<int>(env.flags.Int("jobs")));
  const auto start = std::chrono::steady_clock::now();
  obs::SessionOptions options;
  options.trace_path = env.flags.String("trace");
  options.metrics_path = env.flags.String("metrics-out");
  options.trace.flight_recorder = env.flags.Bool("flight-recorder");
  options.trace.sample_period =
      static_cast<uint32_t>(env.flags.Int("trace-sample"));
  options.trace.categories =
      obs::ParseTraceCategories(env.flags.String("trace-categories"))
          .value();
  if (!options.trace_path.empty() || !options.metrics_path.empty() ||
      options.trace.flight_recorder) {
    obs::Session::Configure(options);
  }
  run(env);
  obs::Session* session = obs::Session::Get();
  if (session == nullptr) return 0;
  obs::Manifest manifest;
  manifest.replications = env.reps;
  manifest.jobs = env.jobs;
  manifest.wall_s = SecondsSince(start);
  const Status status = session->Flush(manifest);
  obs::Session::Shutdown();
  if (!status.ok()) {
    // A bench whose requested artifacts are missing must not look green.
    MADNET_LOG_ERROR("observability flush failed: %s",
                     status.ToString().c_str());
    return EXIT_FAILURE;
  }
  return 0;
}

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
