// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Workload runner of the madnet benchmark: runs one workload's generated
// configs for a fixed time budget and prints one JSON object (its last
// stdout line) with the raw samples, output fingerprints and counts that
// perfbench/run.py turns into metrics. See perfbench/README.md.
//
//   perfbench_workload --workload NAME --seconds S --trace 0|1
//       [--spans PATH] CONFIG...
//
// Consecutive CONFIGs with the same seed form one seed variant. A variant
// of one config is one run (a multi-ad config runs RunMultiAdScenario); a
// variant of several configs is a sweep whose configs are its grid points,
// each run through exec::RunReplicated with kSweepReps replications, the
// points spread over exec::ParallelFor at kSweepJobs.
//
// Untraced (--trace 0): a serial reference of variant 0, then timed passes
// until the budget is spent, each running every variant once and taking a
// set-up sample after each run; every run must reproduce the first output
// of its variant. Traced (--trace 1): half the budget for passes over
// variant 0 with exec spans around each grid point, half for variant 0
// through the traced assembly (perfbench/assembly.h), which must reproduce
// the untraced fingerprints; then the layer replays. Spans go to --spans.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "assembly.h"
#include "exec/parallel_for.h"
#include "exec/replication.h"
#include "replays.h"
#include "scenario/config.h"
#include "scenario/multi_ad.h"
#include "scenario/scenario.h"
#include "spans.h"
#include "util/json.h"

namespace madnet::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using scenario::MultiAdConfig;
using scenario::ScenarioConfig;

#if defined(NDEBUG) && defined(__OPTIMIZE__) && !MADNET_DCHECK_ASSERTS && \
    !defined(PERFBENCH_SANITIZED)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// The traced loop runs in slices of one simulated second.
constexpr double kSliceS = 1.0;

// The Fig 7 sweep: replications per grid point, and the ParallelFor
// workers its points are spread over.
constexpr int kSweepReps = 3;
constexpr int kSweepJobs = 4;

// A set-up sample repeats the set-up until this much time is spent and
// reports the mean, so a sub-millisecond set-up is not one timer reading.
constexpr double kSetupSampleS = 0.02;

// Horizon of the marketplace's set-up call: every ad is issued at t = 0
// and the run ends before the first frame lands.
constexpr double kSetupHorizonS = 1e-9;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
  std::vector<std::string> configs;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args->trace = std::strcmp(argv[++i], "1") == 0;
    } else if (arg == "--spans" && has_value) {
      args->spans_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      return false;
    } else {
      args->configs.push_back(arg);
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         !args->configs.empty() &&
         (!args->trace || !args->spans_path.empty());
}

struct Loaded {
  MultiAdConfig config;
  bool multi = false;
};

Loaded Load(const std::string& path) {
  Loaded loaded;
  const Status status =
      scenario::LoadScenarioFileAuto(path, &loaded.config, &loaded.multi);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    std::exit(2);
  }
  return loaded;
}

/// Configs per seed variant: the length of the leading run of configs that
/// share the first config's seed. Every variant must have that length and
/// one seed of its own.
size_t PointsPerVariant(const std::vector<std::string>& paths) {
  std::vector<uint64_t> seeds;
  for (const std::string& path : paths) {
    seeds.push_back(Load(path).config.base.seed);
  }
  size_t points = 1;
  while (points < seeds.size() && seeds[points] == seeds[0]) ++points;
  bool grouped = seeds.size() % points == 0;
  for (size_t i = 1; grouped && i < seeds.size(); ++i) {
    grouped = (seeds[i] == seeds[i - 1]) == (i % points != 0);
  }
  if (!grouped) {
    std::fprintf(stderr,
                 "perfbench: configs must form seed variants of equal size\n");
    std::exit(2);
  }
  return points;
}

/// Everything the runner reports; run.py derives the metrics.
struct Report {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<int> wall_variant;  // Seed variant of each wall_s sample.
  uint64_t setup_nodes = 0;
  uint64_t peak_rss_kb = 0;  // After the first timed pass.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  // Reference fingerprint per replication, in grid order.
  std::vector<Fingerprint> reference;
  std::vector<std::string> reference_labels;
  // Traced run only.
  std::vector<double> untraced_wall_s;
  std::vector<double> traced_wall_s;
  AssemblyResult traced;  // Summed over one traced pass.
  std::map<std::string, uint64_t> replay_ops;
  // Folded span totals of each traced pass.
  std::vector<std::array<FoldedTotal, kSpanNames>> folded;

  /// Books one replication; a mismatch against `expected` fails it.
  void Check(const std::string& what, const Fingerprint& got,
             const Fingerprint& expected) {
    ++attempted;
    if (got == expected) return;
    ++failed;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s: events/messages/deliveries/rate %llu/%llu/%llu/%.9g, "
                  "expected %llu/%llu/%llu/%.9g",
                  what.c_str(), static_cast<unsigned long long>(got.events),
                  static_cast<unsigned long long>(got.messages),
                  static_cast<unsigned long long>(got.deliveries),
                  got.delivery_rate_percent,
                  static_cast<unsigned long long>(expected.events),
                  static_cast<unsigned long long>(expected.messages),
                  static_cast<unsigned long long>(expected.deliveries),
                  expected.delivery_rate_percent);
    if (failures.size() < 20) failures.push_back(buf);
  }

  /// Books one traced replication's counts.
  void AddTraced(const AssemblyResult& run) {
    traced.events += run.events;
    traced.first_receipts += run.first_receipts;
    traced.index_rebuilds += run.index_rebuilds;
    traced.pending_peak = std::max(traced.pending_peak, run.pending_peak);
    net::MediumStats& net = traced.net;
    net.messages_sent += run.net.messages_sent;
    net.deliveries += run.net.deliveries;
    net.dropped_loss += run.net.dropped_loss;
    net.dropped_collision += run.net.dropped_collision;
    net.dropped_offline += run.net.dropped_offline;
    net.dropped_jammed += run.net.dropped_jammed;
    net.dropped_mac_busy += run.net.dropped_mac_busy;
    net.batch_queries += run.net.batch_queries;
    net.batch_walk_reuse += run.net.batch_walk_reuse;
    net.batch_memo_hits += run.net.batch_memo_hits;
    net.arena_frames_peak =
        std::max(net.arena_frames_peak, run.net.arena_frames_peak);
  }
};

uint64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

/// Times one pass inside an exec.sweep span and returns seconds.
double TimedPass(const std::function<void(uint32_t sweep_span)>& work) {
  const auto start = Clock::now();
  ScopedSpan sweep(SpanName::kExecSweep);
  work(sweep.id());
  return SecondsSince(start);
}

/// One set-up sample: `setup`, which returns the seconds it timed, repeated
/// until kSetupSampleS has passed; the mean per set-up.
double SetupSample(const std::function<double()>& setup) {
  const auto start = Clock::now();
  double timed = 0.0;
  int count = 0;
  do {
    timed += setup();
    ++count;
  } while (SecondsSince(start) < kSetupSampleS);
  return timed / count;
}

/// What a pass computed, compared exactly between passes of one seed.
using Signature = std::vector<double>;

Signature SignatureOf(const Fingerprint& f) {
  return {static_cast<double>(f.events), static_cast<double>(f.messages),
          static_cast<double>(f.deliveries), f.delivery_rate_percent};
}

Signature SignatureOf(const std::vector<exec::Aggregate>& aggregates) {
  Signature signature;
  for (const exec::Aggregate& a : aggregates) {
    for (const stats::Summary* summary :
         {&a.delivery_rate_percent, &a.mean_delivery_time_s, &a.messages,
          &a.peers_passed, &a.final_rank}) {
      signature.insert(signature.end(),
                       {static_cast<double>(summary->Count()), summary->Sum(),
                        summary->Min(), summary->Max()});
    }
  }
  return signature;
}

ScenarioConfig Replication(const ScenarioConfig& base, size_t rep) {
  ScenarioConfig config = base;
  config.seed = base.seed + rep;
  return config;
}

/// One sweep pass over `variant`'s grid points: each point through
/// exec::RunReplicated inside an exec.point span, the points over
/// exec::ParallelFor at `jobs`.
std::vector<exec::Aggregate> SweepAggregates(
    const std::vector<ScenarioConfig>& bases, size_t variant, size_t points,
    int jobs, uint32_t sweep_span) {
  std::vector<exec::Aggregate> aggregates(points);
  exec::ParallelFor(jobs, points, [&](size_t point) {
    ScopedSpan point_span(SpanName::kExecPoint, sweep_span);
    aggregates[point] =
        exec::RunReplicated(bases[variant * points + point], kSweepReps);
  });
  return aggregates;
}

/// One workload, whatever its kind. Variant v is the v-th group of
/// configs; variant 0 carries the reference checks and the traced run.
struct Workload {
  const char* kind = "";
  int jobs = 1;
  size_t points = 1;        // Grid points per pass.
  size_t reps = 1;          // Replications per grid point.
  size_t variants = 1;
  uint64_t setup_nodes = 0;
  /// Runs one untimed reference of variant 0: fills the per-replication
  /// fingerprints and returns the signature every pass of variant 0 must
  /// reproduce.
  std::function<Signature(Report*)> reference;
  /// Builds `variant`'s scenarios once; returns the seconds set-up took.
  std::function<double(size_t variant)> setup;
  /// One timed pass of `variant`; returns its wall time.
  std::function<double(size_t variant, Signature* signature)> pass;
  /// Builds replication `run` of variant 0 through the traced assembly.
  std::function<StatusOr<std::unique_ptr<Assembly>>(size_t run)> build;
  /// The config whose call shapes the replays repeat.
  ScenarioConfig shape;
};

Workload SweepWorkload(const Args& args, size_t points) {
  Workload w;
  w.kind = "sweep";
  w.jobs = kSweepJobs;
  w.points = points;
  w.reps = kSweepReps;
  w.variants = args.configs.size() / points;
  auto bases = std::make_shared<std::vector<ScenarioConfig>>();
  for (const std::string& path : args.configs) {
    const Loaded loaded = Load(path);
    if (loaded.multi) {
      std::fprintf(stderr, "perfbench: sweep points must be single-ad\n");
      std::exit(2);
    }
    bases->push_back(loaded.config.base);
  }
  for (size_t point = 0; point < points; ++point) {
    w.setup_nodes += kSweepReps * ((*bases)[point].num_peers + 1);
  }
  w.reference = [bases, points](Report* report) {
    for (size_t point = 0; point < points; ++point) {
      const ScenarioConfig& base = (*bases)[point];
      const std::string label = std::string(scenario::MethodName(base.method)) +
                                " " + std::to_string(base.num_peers) +
                                " peers rep ";
      for (size_t rep = 0; rep < kSweepReps; ++rep) {
        report->reference.push_back(
            FingerprintOf(scenario::RunScenario(Replication(base, rep))));
        report->reference_labels.push_back(label + std::to_string(rep));
        ++report->attempted;
      }
    }
    // The jobs = 1 side of the aggregate check: the same pass, serially.
    return SignatureOf(SweepAggregates(*bases, 0, points, 1, 0));
  };
  // Config load plus Scenario construction of every replication.
  w.setup = [points, configs = args.configs](size_t variant) {
    double setup = 0.0;
    for (size_t point = 0; point < points; ++point) {
      auto start = Clock::now();
      const ScenarioConfig base =
          Load(configs[variant * points + point]).config.base;
      setup += SecondsSince(start);
      for (size_t rep = 0; rep < kSweepReps; ++rep) {
        start = Clock::now();
        auto built =
            std::make_unique<scenario::Scenario>(Replication(base, rep));
        setup += SecondsSince(start);
      }
    }
    return setup;
  };
  w.pass = [bases, points](size_t variant, Signature* signature) {
    std::vector<exec::Aggregate> aggregates;
    const double wall = TimedPass([&](uint32_t sweep_span) {
      aggregates =
          SweepAggregates(*bases, variant, points, kSweepJobs, sweep_span);
    });
    *signature = SignatureOf(aggregates);
    return wall;
  };
  w.build = [bases](size_t run) {
    return Assembly::Single(
        Replication((*bases)[run / kSweepReps], run % kSweepReps));
  };
  // The largest grid point's call shapes.
  w.shape = *std::max_element(
      bases->begin(), bases->begin() + points,
      [](const auto& a, const auto& b) { return a.num_peers < b.num_peers; });
  return w;
}

Workload SingleWorkload(const Args& args) {
  Workload w;
  w.kind = "single";
  w.variants = args.configs.size();
  auto configs = std::make_shared<std::vector<ScenarioConfig>>();
  for (const std::string& path : args.configs) {
    configs->push_back(Load(path).config.base);
  }
  const ScenarioConfig& first = configs->front();
  w.setup_nodes = first.num_peers + 1;
  w.reference = [configs, label = args.workload](Report* report) {
    report->reference.push_back(
        FingerprintOf(scenario::RunScenario(configs->front())));
    report->reference_labels.push_back(label);
    ++report->attempted;
    return SignatureOf(report->reference.back());
  };
  w.setup = [paths = args.configs](size_t variant) {
    const auto start = Clock::now();
    auto built =
        std::make_unique<scenario::Scenario>(Load(paths[variant]).config.base);
    return SecondsSince(start);
  };
  // Set-up is excluded: the timed part is Run().
  w.pass = [configs](size_t variant, Signature* signature) {
    scenario::Scenario run((*configs)[variant]);
    scenario::RunResult result;
    const double wall = TimedPass([&](uint32_t sweep_span) {
      exec::ParallelFor(1, 1, [&](size_t) {
        ScopedSpan point_span(SpanName::kExecPoint, sweep_span);
        result = run.Run();
      });
    });
    *signature = SignatureOf(FingerprintOf(result));
    return wall;
  };
  w.build = [configs](size_t) { return Assembly::Single(configs->front()); };
  w.shape = first;
  return w;
}

Workload MultiWorkload(const Args& args) {
  Workload w;
  w.kind = "multi";
  w.variants = args.configs.size();
  auto configs = std::make_shared<std::vector<MultiAdConfig>>();
  for (const std::string& path : args.configs) {
    configs->push_back(Load(path).config);
  }
  const MultiAdConfig& first = configs->front();
  w.setup_nodes = first.num_ads + first.base.num_peers;
  w.reference = [configs, label = args.workload](Report* report) {
    report->reference.push_back(
        FingerprintOf(scenario::RunMultiAdScenario(configs->front())));
    report->reference_labels.push_back(label);
    ++report->attempted;
    return SignatureOf(report->reference.back());
  };
  // RunMultiAdScenario builds and runs in one call. With every ad issued at
  // t = 0 and a horizon shorter than any frame's latency, the call is the
  // harness's own set-up (issuers, peers' mobility, protocols, AddNode)
  // plus the issues, an empty report and the teardown.
  w.setup = [paths = args.configs](size_t variant) {
    const auto start = Clock::now();
    MultiAdConfig config = Load(paths[variant]).config;
    config.first_issue_s = 0.0;
    config.issue_spacing_s = 0.0;
    config.base.issue_time_s = 0.0;
    config.base.sim_time_s = kSetupHorizonS;
    (void)scenario::RunMultiAdScenario(config);
    return SecondsSince(start);
  };
  w.pass = [configs](size_t variant, Signature* signature) {
    scenario::MultiAdResult result;
    const double wall = TimedPass([&](uint32_t sweep_span) {
      exec::ParallelFor(1, 1, [&](size_t) {
        ScopedSpan point_span(SpanName::kExecPoint, sweep_span);
        result = scenario::RunMultiAdScenario((*configs)[variant]);
      });
    });
    *signature = SignatureOf(FingerprintOf(result));
    return wall;
  };
  w.build = [configs](size_t) { return Assembly::Multi(configs->front()); };
  w.shape = first.base;
  return w;
}

/// Timed passes until `budget_s` is spent and at least two were made. A
/// pass runs each of the first `variants` variants once, so every seed runs
/// at least twice; each run must reproduce the first output of its
/// variant, and variant 0's first output comes from the reference. Appends
/// each run's wall time and variant to `walls` / `variant_of`, and takes
/// one set-up sample of the variant after each run.
void TimedPasses(const Workload& w, size_t variants, double budget_s,
                 std::vector<Signature>* signatures, Report* report,
                 std::vector<double>* walls, std::vector<int>* variant_of) {
  const bool first_timed = report->peak_rss_kb == 0;
  const size_t runs = w.points * w.reps;
  const auto start = Clock::now();
  for (int pass = 0; pass < 2 || SecondsSince(start) < budget_s; ++pass) {
    for (size_t variant = 0; variant < variants; ++variant) {
      Signature signature;
      walls->push_back(w.pass(variant, &signature));
      variant_of->push_back(static_cast<int>(variant));
      // Set-up samples are spread over the run, one after each timed run,
      // so their median does not hinge on one moment of the host's load.
      report->setup_s.push_back(
          SetupSample([&w, variant] { return w.setup(variant); }));
      report->attempted += runs;
      Signature& expected = (*signatures)[variant];
      if (expected.empty()) expected = signature;
      if (signature == expected) continue;
      report->failed += runs;
      if (report->failures.size() < 20) {
        report->failures.push_back(
            "variant " + std::to_string(variant) + " pass " +
            std::to_string(pass) +
            (variant == 0 ? ": output differs from the serial reference"
                          : ": output differs from this seed's first run"));
      }
    }
    // Peak memory as a user running the batch once would see it; later
    // passes only add allocator fragmentation.
    if (pass == 0 && first_timed) report->peak_rss_kb = PeakRssKb();
  }
}

/// Traced passes over variant 0's replications through the assembly; each
/// must reproduce its untraced reference fingerprint.
void TracedPasses(const Workload& w, double budget_s, Report* report) {
  const size_t runs = w.points * w.reps;
  (void)TakeFoldedTotals();
  const auto start = Clock::now();
  while (report->traced_wall_s.empty() || SecondsSince(start) < budget_s) {
    std::vector<AssemblyResult> results(runs);
    std::vector<std::string> errors(runs);
    const auto pass_start = Clock::now();
    {
      ScopedSpan root(SpanName::kBenchPass);
      const uint32_t root_id = root.id();
      exec::ParallelFor(w.jobs, w.points, [&](size_t point) {
        ScopedSpan point_span(SpanName::kExecPoint, root_id);
        for (size_t rep = 0; rep < w.reps; ++rep) {
          const size_t run = point * w.reps + rep;
          SetSpanRun(static_cast<uint32_t>(run));
          std::unique_ptr<Assembly> assembly;
          {
            ScopedSpan build_span(SpanName::kScenarioBuild);
            auto built = w.build(run);
            if (!built.ok()) {
              errors[run] = built.status().ToString();
              continue;
            }
            assembly = std::move(*built);
          }
          results[run] = assembly->Run(kSliceS);
        }
      });
    }
    report->traced_wall_s.push_back(SecondsSince(pass_start));
    report->folded.push_back(TakeFoldedTotals());
    const bool first_pass = report->traced_wall_s.size() == 1;
    for (size_t run = 0; run < runs; ++run) {
      if (!errors[run].empty()) {
        std::fprintf(stderr, "perfbench: %s\n", errors[run].c_str());
        std::exit(2);
      }
      report->Check("traced " + report->reference_labels[run],
                    results[run].fingerprint, report->reference[run]);
      if (first_pass) report->AddTraced(results[run]);
    }
  }
}

void RunWorkload(const Args& args, const Workload& w, Report* report) {
  report->setup_nodes = w.setup_nodes;
  std::vector<Signature> signatures(w.variants);
  signatures[0] = w.reference(report);  // Also warms the allocator.
  if (w.jobs > 1) {
    // Warm-up: worker threads, their allocator arenas, caches.
    Signature signature;
    (void)w.pass(0, &signature);
    report->attempted += w.points * w.reps;
    if (signature != signatures[0]) {
      report->failed += w.points * w.reps;
      report->failures.push_back("warm-up: jobs=" + std::to_string(w.jobs) +
                                 " output differs from the serial reference");
    }
  }
  if (!args.trace) {
    TimedPasses(w, w.variants, args.seconds, &signatures, report,
                &report->wall_s, &report->wall_variant);
    return;
  }
  // The traced run times variant 0 alone, untraced and then traced.
  EnableSpans();
  std::vector<int> variant_of;
  TimedPasses(w, 1, args.seconds / 2.0, &signatures, report,
              &report->untraced_wall_s, &variant_of);
  TracedPasses(w, args.seconds / 2.0, report);
  report->replay_ops = RunReplays(w.shape, report->traced.pending_peak);
}

// --- Output ---------------------------------------------------------------

void Samples(JsonWriter* json, const char* key,
             const std::vector<double>& values) {
  json->Key(key);
  json->BeginArray();
  for (double value : values) json->Value(value);
  json->EndArray();
}

void Count(JsonWriter* json, const char* key, uint64_t value) {
  json->Key(key);
  json->Value(value);
}

std::string ToJson(const Args& args, const Workload& workload,
                   const Report& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("workload");
  json.Value(args.workload);
  json.Key("kind");
  json.Value(workload.kind);
  json.Key("build_type");
  json.Value(PERFBENCH_BUILD_TYPE);
  json.Key("jobs");
  json.Value(workload.jobs);
  Count(&json, "variants", workload.variants);
  Count(&json, "setup_nodes", report.setup_nodes);
  Samples(&json, "setup_s", report.setup_s);
  Samples(&json, "wall_s", report.wall_s);
  json.Key("wall_variant");
  json.BeginArray();
  for (int variant : report.wall_variant) json.Value(variant);
  json.EndArray();
  Count(&json, "peak_rss_kb", report.peak_rss_kb);
  Count(&json, "attempted", report.attempted);
  Count(&json, "failed", report.failed);
  json.Key("failures");
  json.BeginArray();
  for (const std::string& failure : report.failures) json.Value(failure);
  json.EndArray();
  json.Key("replications");
  json.BeginArray();
  for (size_t i = 0; i < report.reference.size(); ++i) {
    const Fingerprint& f = report.reference[i];
    json.BeginObject();
    json.Key("label");
    json.Value(report.reference_labels[i]);
    Count(&json, "events", f.events);
    Count(&json, "messages", f.messages);
    Count(&json, "deliveries", f.deliveries);
    json.Key("rate");
    json.Value(f.delivery_rate_percent);
    json.EndObject();
  }
  json.EndArray();
  if (args.trace) {
    Samples(&json, "untraced_wall_s", report.untraced_wall_s);
    Samples(&json, "traced_wall_s", report.traced_wall_s);
    const net::MediumStats& net = report.traced.net;
    json.Key("traced");
    json.BeginObject();
    Count(&json, "events", report.traced.events);
    Count(&json, "messages", net.messages_sent);
    Count(&json, "deliveries", net.deliveries);
    Count(&json, "dropped", net.dropped_loss + net.dropped_collision +
                                net.dropped_offline + net.dropped_jammed +
                                net.dropped_mac_busy);
    Count(&json, "batch_queries", net.batch_queries);
    Count(&json, "batch_walk_reuse", net.batch_walk_reuse);
    Count(&json, "batch_memo_hits", net.batch_memo_hits);
    Count(&json, "arena_frames_peak", net.arena_frames_peak);
    Count(&json, "first_receipts", report.traced.first_receipts);
    Count(&json, "pending_peak", report.traced.pending_peak);
    Count(&json, "index_rebuilds", report.traced.index_rebuilds);
    json.EndObject();
    json.Key("replay_ops");
    json.BeginObject();
    for (const auto& [name, ops] : report.replay_ops) Count(&json, name.c_str(), ops);
    json.EndObject();
    json.Key("folded");
    json.BeginArray();
    for (const auto& totals : report.folded) {
      json.BeginObject();
      for (size_t i = 0; i < kSpanNames; ++i) {
        if (!IsFolded(static_cast<SpanName>(i))) continue;
        json.Key(SpanNameText(static_cast<SpanName>(i)));
        json.BeginArray();
        json.Value(totals[i].calls);
        json.Value(static_cast<uint64_t>(totals[i].total_ns));
        json.Value(static_cast<uint64_t>(totals[i].self_ns));
        json.EndArray();
      }
      json.EndObject();
    }
    json.EndArray();
    json.Key("span_names");
    json.BeginArray();
    for (size_t i = 0; i < kSpanNames; ++i) {
      json.Value(SpanNameText(static_cast<SpanName>(i)));
    }
    json.EndArray();
  }
  json.EndObject();
  return json.TakeString();
}

int Main(int argc, char** argv) {
  if (!kOptimizedBuild || std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build without "
                 "optimization or with sanitizers/DCHECKs; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_workload --workload NAME --seconds S "
                 "--trace 0|1 [--spans PATH] CONFIG...\n");
    return 2;
  }
  const size_t points = PointsPerVariant(args.configs);
  const Workload workload =
      points > 1                    ? SweepWorkload(args, points)
      : Load(args.configs[0]).multi ? MultiWorkload(args)
                                    : SingleWorkload(args);
  Report report;
  RunWorkload(args, workload, &report);
  if (args.trace) {
    if (Status written = WriteSpans(args.spans_path); !written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      return 2;
    }
  }
  std::printf("%s\n", ToJson(args, workload, report).c_str());
  return 0;
}

}  // namespace
}  // namespace madnet::perfbench

int main(int argc, char** argv) {
  return madnet::perfbench::Main(argc, argv);
}
