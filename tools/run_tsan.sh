#!/usr/bin/env bash
# Builds the repo with ThreadSanitizer and runs the concurrency-sensitive
# test binaries (the worker pool and the thread-safe engine).
#
# Usage: tools/run_tsan.sh [build-dir]
#   build-dir defaults to build-tsan (kept separate from the normal build
#   so the instrumented objects never mix with the release ones).
#
# XQP_THREADS is forced to 4 so the pool actually spawns workers even on
# single-core CI machines; TSan only sees races that threads exercise.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DXQP_SANITIZE=thread
cmake --build "$BUILD_DIR" --target test_parallel test_engine -j"$(nproc)"

export XQP_THREADS=4
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

"$BUILD_DIR/tests/test_parallel"
"$BUILD_DIR/tests/test_engine"

echo "TSan run clean."
