// Copyright (c) 2026 madnet authors. All rights reserved.

#include "util/json.h"

#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace madnet {

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;  // Value directly follows "key":
  }
  if (needs_comma_) out_ += ',';
}

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  needs_comma_ = false;
}

void JsonWriter::EndObject() {
  MADNET_DCHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  MADNET_DCHECK(!after_key_ && "object ended after a dangling key");
  stack_.pop_back();
  out_ += '}';
  needs_comma_ = true;
}

void JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  needs_comma_ = false;
}

void JsonWriter::EndArray() {
  MADNET_DCHECK(!stack_.empty() && stack_.back() == Frame::kArray);
  stack_.pop_back();
  out_ += ']';
  needs_comma_ = true;
}

void JsonWriter::Key(const std::string& name) {
  MADNET_DCHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  MADNET_DCHECK(!after_key_ && "two keys in a row");
  if (needs_comma_) out_ += ',';
  out_ += '"';
  out_ += Escape(name);
  out_ += "\":";
  after_key_ = true;
  needs_comma_ = false;
}

void JsonWriter::Value(const std::string& text) {
  Separate();
  out_ += '"';
  out_ += Escape(text);
  out_ += '"';
  needs_comma_ = true;
}

void JsonWriter::Value(const char* text) { Value(std::string(text)); }

void JsonWriter::Value(double number) {
  Separate();
  if (std::isfinite(number)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", number);
    out_ += buf;
  } else {
    out_ += "null";  // JSON has no NaN/Inf.
  }
  needs_comma_ = true;
}

void JsonWriter::Value(int64_t number) {
  Separate();
  out_ += std::to_string(number);
  needs_comma_ = true;
}

void JsonWriter::Value(uint64_t number) {
  Separate();
  out_ += std::to_string(number);
  needs_comma_ = true;
}

void JsonWriter::Value(bool boolean) {
  Separate();
  out_ += boolean ? "true" : "false";
  needs_comma_ = true;
}

void JsonWriter::Null() {
  Separate();
  out_ += "null";
  needs_comma_ = true;
}

std::string JsonWriter::TakeString() {
  MADNET_DCHECK(stack_.empty() && "unbalanced JSON nesting");
  std::string result = std::move(out_);
  out_.clear();
  needs_comma_ = false;
  after_key_ = false;
  return result;
}

std::string JsonWriter::Escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          escaped += buf;
        } else {
          escaped += static_cast<char>(c);
        }
    }
  }
  return escaped;
}

}  // namespace madnet
