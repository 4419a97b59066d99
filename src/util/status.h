// Copyright (c) 2026 madnet authors. All rights reserved.
//
// A lightweight Status / StatusOr pair in the style of RocksDB and Abseil.
// Fallible madnet APIs return Status (or StatusOr<T>) instead of throwing;
// callers must inspect the result. Both classes are [[nodiscard]], so the
// build (-Werror=unused-result) rejects a dropped error at any call site.

#ifndef MADNET_UTIL_STATUS_H_
#define MADNET_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/logging.h"

namespace madnet {

/// Result of a fallible operation: an error code plus a human-readable
/// message. A default-constructed Status is OK.
class [[nodiscard]] Status {
 public:
  /// Machine-readable category of the failure.
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kOutOfRange,
    kAlreadyExists,
    kFailedPrecondition,
    kIoError,
    kInternal,
  };

  /// Constructs an OK status.
  Status() : code_(Code::kOk) {}

  /// Named constructors, one per error category.
  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(Code::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(Code::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == Code::kOk; }

  /// The error category.
  Code code() const { return code_; }

  /// The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<category>: <message>" for logs and test failures.
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) + ": " + message_;
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  static const char* CodeName(Code code) {
    switch (code) {
      case Code::kOk: return "OK";
      case Code::kInvalidArgument: return "InvalidArgument";
      case Code::kNotFound: return "NotFound";
      case Code::kOutOfRange: return "OutOfRange";
      case Code::kAlreadyExists: return "AlreadyExists";
      case Code::kFailedPrecondition: return "FailedPrecondition";
      case Code::kIoError: return "IoError";
      case Code::kInternal: return "Internal";
    }
    return "Unknown";
  }

  Code code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of an
/// errored StatusOr is a programming error (asserts in debug builds).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit construction from a value (success).
  StatusOr(T value) : status_(), value_(std::move(value)) {}  // NOLINT

  /// Implicit construction from a non-OK status (failure).
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    MADNET_DCHECK(!status_.ok() && "StatusOr(Status) requires a non-OK status");
  }

  /// True iff a value is present.
  bool ok() const { return status_.ok(); }

  /// The status; OK when a value is present.
  const Status& status() const { return status_; }

  /// The contained value. Requires ok().
  const T& value() const& {
    MADNET_DCHECK(ok());
    return *value_;
  }
  T& value() & {
    MADNET_DCHECK(ok());
    return *value_;
  }
  T&& value() && {
    MADNET_DCHECK(ok());
    return std::move(*value_);
  }

  /// Dereference sugar, mirroring std::optional.
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace madnet

#endif  // MADNET_UTIL_STATUS_H_
