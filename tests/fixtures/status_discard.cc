// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Must NOT compile under -Werror=unused-result: each statement below drops
// an error, and only the types carry [[nodiscard]]. Checked by the
// StatusDiscardIsACompileError ctest.

#include "util/status.h"

namespace {

madnet::Status Fail() { return madnet::Status::Internal("dropped"); }

madnet::StatusOr<int> Parse() { return 7; }

}  // namespace

void DropsEveryKindOfError() {
  Fail();
  Parse();
  const auto flush = [] { return madnet::Status::IoError("dropped"); };
  flush();
}
