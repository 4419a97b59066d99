// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Reader / validator for madnet trace files (the JSONL stream written by
// --trace, schema in docs/OBSERVABILITY.md).
//
//   madnet_tracestat trace.jsonl             # per-category summary
//   madnet_tracestat --validate trace.jsonl  # schema + invariant check
//
// --validate exits non-zero on the first of: a malformed line, an unknown
// category, a record before any "run" header, virtual time running
// backwards within a run chunk, a "deliver" record with fields out of
// documented order, or a deliver violating the provenance invariants
// (parent-before-child, hop == parent hop + 1; checked by
// obs::DisseminationForest). CI pipes a bench's --trace output through
// this to keep the emitters and the documented schema honest.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_query.h"
#include "obs/trace_reader.h"
#include "util/flags.h"

namespace madnet {
namespace {

using obs::TraceEvent;

struct RunSummary {
  uint64_t seed = 0;
  std::string config;
  uint64_t records = 0;
  double first_t = 0.0;
  double last_t = 0.0;
  bool saw_timed_record = false;
};

/// True iff the documented deliver field order holds on the raw line:
/// cat, t, node, ad, hop, seq, parent (docs/OBSERVABILITY.md). The parser
/// is order-agnostic by design, so schema drift in the emitter would
/// otherwise go unnoticed.
bool DeliverFieldsOrdered(const std::string& line) {
  static const char* kKeys[] = {"\"cat\"",  "\"t\"",   "\"node\"",
                                "\"ad\"",   "\"hop\"", "\"seq\"",
                                "\"parent\""};
  size_t position = 0;
  for (const char* key : kKeys) {
    const size_t at = line.find(key, position);
    if (at == std::string::npos) return false;
    position = at + 1;
  }
  return true;
}

int Run(const std::string& path, bool validate) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 2;
  }

  std::map<std::string, uint64_t> per_category;
  std::vector<RunSummary> runs;
  obs::DisseminationForest forest;  // Provenance invariants (--validate).
  uint64_t line_number = 0;
  std::string line;
  TraceEvent event;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const Status parsed = obs::ParseTraceLine(line, &event);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s:%llu: %s\n", path.c_str(),
                   static_cast<unsigned long long>(line_number),
                   parsed.ToString().c_str());
      return 1;
    }
    per_category[event.cat] += 1;
    if (validate) {
      if (event.cat == "deliver" && !DeliverFieldsOrdered(line)) {
        std::fprintf(stderr,
                     "error: %s:%llu: deliver fields out of documented "
                     "order (want cat,t,node,ad,hop,seq,parent)\n",
                     path.c_str(),
                     static_cast<unsigned long long>(line_number));
        return 1;
      }
      const Status provenance = forest.Add(event);
      if (!provenance.ok()) {
        std::fprintf(stderr, "error: %s:%llu: %s\n", path.c_str(),
                     static_cast<unsigned long long>(line_number),
                     provenance.ToString().c_str());
        return 1;
      }
    }
    if (event.cat == "run") {
      runs.push_back({event.seed, event.config, 0, 0.0, 0.0, false});
      continue;
    }
    if (runs.empty()) {
      std::fprintf(stderr,
                   "error: %s:%llu: record before any \"run\" header\n",
                   path.c_str(),
                   static_cast<unsigned long long>(line_number));
      return 1;
    }
    RunSummary& run = runs.back();
    run.records += 1;
    if (run.saw_timed_record && event.t < run.last_t) {
      std::fprintf(stderr,
                   "error: %s:%llu: time went backwards within run seed=%llu "
                   "(%.9f after %.9f)\n",
                   path.c_str(), static_cast<unsigned long long>(line_number),
                   static_cast<unsigned long long>(run.seed), event.t,
                   run.last_t);
      return 1;
    }
    if (!run.saw_timed_record) run.first_t = event.t;
    run.last_t = event.t;
    run.saw_timed_record = true;
  }
  if (in.bad()) {
    std::fprintf(stderr, "error: read failure on %s\n", path.c_str());
    return 2;
  }

  uint64_t total = 0;
  for (const auto& [cat, count] : per_category) total += count;
  std::printf("%s: %llu records, %zu runs\n", path.c_str(),
              static_cast<unsigned long long>(total), runs.size());
  for (const auto& [cat, count] : per_category) {
    std::printf("  %-9s %llu\n", cat.c_str(),
                static_cast<unsigned long long>(count));
  }
  for (const RunSummary& run : runs) {
    std::printf("  run seed=%llu config=%s records=%llu span=[%.3f, %.3f]\n",
                static_cast<unsigned long long>(run.seed), run.config.c_str(),
                static_cast<unsigned long long>(run.records), run.first_t,
                run.last_t);
  }
  if (validate) {
    if (runs.empty()) {
      std::fprintf(stderr, "error: %s: no \"run\" header records\n",
                   path.c_str());
      return 1;
    }
    std::printf("validate: OK\n");
  }
  return 0;
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  const madnet::Flag rows[] = {
      {"validate", "", madnet::FlagKind::kBool, "false",
       "exit non-zero unless the file is a well-formed trace"},
  };
  constexpr const char* kUsage =
      "madnet_tracestat [--flag=value ...] TRACE.jsonl";
  const madnet::FlagSet flags =
      madnet::ParseFlagsOrExit(rows, argc, argv, kUsage);
  if (flags.positional().size() != 1) {
    std::fputs(madnet::FlagUsage(rows, kUsage).c_str(), stderr);
    return 2;
  }
  return madnet::Run(flags.positional()[0], flags.Bool("validate"));
}
