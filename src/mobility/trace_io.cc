// Copyright (c) 2026 madnet authors. All rights reserved.

#include "mobility/trace_io.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace madnet::mobility {

namespace {
constexpr char kMagic[] = "madnet-trace";
constexpr int kVersion = 1;
}  // namespace

Status SaveTraces(const std::string& path, const TraceSet& traces) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return Status::IoError("cannot open " + path);
  out << kMagic << ' ' << kVersion << '\n';
  char line[160];
  for (const auto& [id, trace] : traces) {
    out << "node " << id << ' ' << trace.legs().size() << '\n';
    for (const Leg& leg : trace.legs()) {
      // %.17g round-trips doubles exactly.
      std::snprintf(line, sizeof(line),
                    "%.17g %.17g %.17g %.17g %.17g %.17g\n", leg.start,
                    leg.end, leg.from.x, leg.from.y, leg.to.x, leg.to.y);
      out << line;
    }
  }
  out.close();
  if (out.fail()) return Status::IoError("failed writing " + path);
  return Status::Ok();
}

StatusOr<TraceSet> LoadTraces(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::IoError("cannot open " + path);

  std::string line;
  // Header.
  do {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("empty trace file");
    }
  } while (Trim(line).empty() || Trim(line)[0] == '#');
  {
    std::istringstream header(line);
    std::string magic;
    int version = 0;
    header >> magic >> version;
    if (magic != kMagic || version != kVersion) {
      return Status::InvalidArgument("bad trace header: '" + line + "'");
    }
  }

  TraceSet traces;
  while (std::getline(in, line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream node_line{std::string(trimmed)};
    std::string keyword;
    uint32_t id = 0;
    size_t num_legs = 0;
    node_line >> keyword >> id >> num_legs;
    if (keyword != "node" || node_line.fail()) {
      return Status::InvalidArgument("expected 'node <id> <legs>', got '" +
                                     std::string(trimmed) + "'");
    }
    std::vector<Leg> legs;
    legs.reserve(num_legs);
    for (size_t i = 0; i < num_legs; ++i) {
      if (!std::getline(in, line)) {
        return Status::InvalidArgument("truncated trace for node " +
                                       std::to_string(id));
      }
      std::istringstream leg_line(line);
      Leg leg;
      leg_line >> leg.start >> leg.end >> leg.from.x >> leg.from.y >>
          leg.to.x >> leg.to.y;
      if (leg_line.fail()) {
        return Status::InvalidArgument("bad leg line: '" + line + "'");
      }
      legs.push_back(leg);
    }
    auto trace = Trace::FromLegs(std::move(legs));
    if (!trace.ok()) return trace.status();
    traces.emplace_back(id, std::move(trace).value());
  }
  return traces;
}

Status SaveNs2Movements(const std::string& path, const TraceSet& traces) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return Status::IoError("cannot open " + path);
  out << "# madnet export in ns-2 setdest movement format\n";
  char line[200];
  for (const auto& [id, trace] : traces) {
    if (trace.legs().empty()) continue;
    const Vec2 start = trace.legs().front().from;
    std::snprintf(line, sizeof(line),
                  "$node_(%u) set X_ %.6f\n$node_(%u) set Y_ %.6f\n"
                  "$node_(%u) set Z_ 0.000000\n",
                  id, start.x, id, start.y, id);
    out << line;
    for (const Leg& leg : trace.legs()) {
      if (leg.from == leg.to) continue;  // Pause: implicit in setdest.
      const double speed = leg.Velocity().Norm();
      std::snprintf(line, sizeof(line),
                    "$ns_ at %.6f \"$node_(%u) setdest %.6f %.6f %.6f\"\n",
                    leg.start, id, leg.to.x, leg.to.y, speed);
      out << line;
    }
  }
  out.close();
  if (out.fail()) return Status::IoError("failed writing " + path);
  return Status::Ok();
}

}  // namespace madnet::mobility
