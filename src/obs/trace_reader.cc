// Copyright (c) 2026 madnet authors. All rights reserved.

#include "obs/trace_reader.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "obs/trace.h"

namespace madnet::obs {
namespace {

// Cursor over one line; every helper consumes on success only.
struct Cursor {
  std::string_view rest;

  bool Consume(char c) {
    if (rest.empty() || rest.front() != c) return false;
    rest.remove_prefix(1);
    return true;
  }

  bool ConsumeString(std::string* out) {
    if (!Consume('"')) return false;
    const size_t end = rest.find('"');
    if (end == std::string_view::npos) return false;
    // Trace never emits escapes, so a backslash means foreign input.
    const std::string_view body = rest.substr(0, end);
    if (body.find('\\') != std::string_view::npos) return false;
    out->assign(body);
    rest.remove_prefix(end + 1);
    return true;
  }

  bool ConsumeNumber(double* out) {
    const char* begin = rest.data();
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) return false;
    if (static_cast<size_t>(end - begin) > rest.size()) return false;
    *out = value;
    rest.remove_prefix(static_cast<size_t>(end - begin));
    return true;
  }

  // Unsigned integers are parsed separately: strtod would lose precision
  // above 2^53 (ad keys and seeds are full 64-bit values).
  bool ConsumeUint(uint64_t* out) {
    if (rest.empty() || rest.front() < '0' || rest.front() > '9') {
      return false;
    }
    const char* begin = rest.data();
    char* end = nullptr;
    *out = std::strtoull(begin, &end, 10);
    if (end == begin) return false;
    rest.remove_prefix(static_cast<size_t>(end - begin));
    return true;
  }

  bool PeekDigitOrSign() const {
    if (rest.empty()) return false;
    const char c = rest.front();
    return c == '-' || (c >= '0' && c <= '9');
  }
};

Status Malformed(std::string_view line) {
  return Status::InvalidArgument("malformed trace line: " +
                                 std::string(line.substr(0, 120)));
}

}  // namespace

Status ParseTraceLine(std::string_view line, TraceEvent* event) {
  *event = TraceEvent{};
  // Strip a trailing CR/LF so callers can pass raw getline output.
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  Cursor cursor{line};
  if (!cursor.Consume('{')) return Malformed(line);
  bool first = true;
  while (!cursor.Consume('}')) {
    if (!first && !cursor.Consume(',')) return Malformed(line);
    first = false;
    std::string key;
    if (!cursor.ConsumeString(&key)) return Malformed(line);
    if (!cursor.Consume(':')) return Malformed(line);
    bool ok = false;
    if (key == "cat") {
      ok = cursor.ConsumeString(&event->cat);
    } else if (key == "config") {
      ok = cursor.ConsumeString(&event->config);
    } else if (key == "reason") {
      ok = cursor.ConsumeString(&event->reason);
    } else if (key == "t") {
      ok = cursor.ConsumeNumber(&event->t);
    } else if (key == "x") {
      ok = cursor.ConsumeNumber(&event->x);
    } else if (key == "y") {
      ok = cursor.ConsumeNumber(&event->y);
    } else if (key == "v") {
      ok = cursor.ConsumeNumber(&event->v);
    } else if (key == "seq") {
      ok = cursor.ConsumeUint(&event->seq);
    } else if (key == "seed") {
      ok = cursor.ConsumeUint(&event->seed);
    } else if (key == "ad") {
      ok = cursor.ConsumeUint(&event->ad);
    } else if (key == "node") {
      uint64_t value = 0;
      ok = cursor.ConsumeUint(&value);
      event->node = static_cast<uint32_t>(value);
    } else if (key == "from") {
      uint64_t value = 0;
      ok = cursor.ConsumeUint(&value);
      event->from = static_cast<uint32_t>(value);
    } else if (key == "bytes") {
      uint64_t value = 0;
      ok = cursor.ConsumeUint(&value);
      event->bytes = static_cast<uint32_t>(value);
    } else if (key == "hop") {
      uint64_t value = 0;
      ok = cursor.ConsumeUint(&value);
      event->hop = static_cast<uint32_t>(value);
    } else if (key == "parent") {
      uint64_t value = 0;
      ok = cursor.ConsumeUint(&value);
      event->parent = static_cast<uint32_t>(value);
    } else {
      // Unknown key: skip its (string or number) value so the format can
      // grow fields without breaking old readers.
      std::string ignored_string;
      double ignored_number = 0.0;
      ok = cursor.PeekDigitOrSign() ? cursor.ConsumeNumber(&ignored_number)
                                    : cursor.ConsumeString(&ignored_string);
    }
    if (!ok) return Malformed(line);
  }
  if (!cursor.rest.empty()) return Malformed(line);
  if (event->cat != "run" &&
      std::find(std::begin(kTraceCategoryNames), std::end(kTraceCategoryNames),
                event->cat) == std::end(kTraceCategoryNames)) {
    return Status::InvalidArgument("unknown trace category: " + event->cat);
  }
  return Status::Ok();
}

}  // namespace madnet::obs
