#!/usr/bin/env bash
# One-stop local gate: madnet_lint + clang-tidy (when installed) + tier-1
# tests. Mirrors what CI runs, so a clean check.sh means a green PR.
#
# Usage: tools/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

echo "== build =="
cmake --build "${BUILD_DIR}" -j

echo "== doc links =="
./tools/check_doc_links.sh

echo "== madnet_lint =="
"./${BUILD_DIR}/tools/madnet_lint" --root .

if command -v run-clang-tidy >/dev/null 2>&1 && \
   command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  # shellcheck disable=SC2046
  run-clang-tidy -p "${BUILD_DIR}" -quiet $(git ls-files 'src/*.cc' 'tools/*.cc')
else
  echo "== clang-tidy: not installed, skipping (CI still runs it) =="
fi

echo "== tier-1 tests =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

echo "== scenario corpus (validate-only) =="
for cfg in scenarios/*.cfg; do
  "./${BUILD_DIR}/tools/madnet_run" --validate-only --config="${cfg}"
done

echo "== perf smoke =="
./tools/perf_smoke.sh "./${BUILD_DIR}/bench/throughput"

echo "check.sh: all gates passed"
