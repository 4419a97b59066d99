// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Minimal streaming JSON writer, for machine-readable experiment output
// (madnet_run --json). Write-only; no parsing, no DOM.

#ifndef MADNET_UTIL_JSON_H_
#define MADNET_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace madnet {

/// Builds one JSON document incrementally. Usage:
///
///   JsonWriter json;
///   json.BeginObject();
///   json.Key("rate");   json.Value(98.5);
///   json.Key("tags");   json.BeginArray();
///   json.Value("a");    json.Value("b");
///   json.EndArray();
///   json.EndObject();
///   std::string doc = json.TakeString();
///
/// Field("rate", 98.5) is Key("rate") then Value(98.5). Commas and quoting
/// are handled automatically. Misnesting is a programming error
/// (MADNET_DCHECK).
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Emits an object key; must be inside an object, before its value.
  void Key(const std::string& name);

  /// Scalar values.
  void Value(const std::string& text);
  void Value(const char* text);
  void Value(double number);
  void Value(int64_t number);
  void Value(uint64_t number);
  void Value(int number) { Value(static_cast<int64_t>(number)); }
  void Value(bool boolean);
  void Null();

  /// Key(name) then Value(value).
  template <typename T>
  void Field(const std::string& name, const T& value) {
    Key(name);
    Value(value);
  }

  /// The finished document. The writer must be back at nesting level 0.
  std::string TakeString();

 private:
  enum class Frame { kObject, kArray };

  /// Emits a separator before a new value/key if one is needed.
  void Separate();
  static std::string Escape(const std::string& text);

  std::string out_;
  std::vector<Frame> stack_;
  bool needs_comma_ = false;
  bool after_key_ = false;
};

}  // namespace madnet

#endif  // MADNET_UTIL_JSON_H_
