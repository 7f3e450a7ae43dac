#!/usr/bin/env bash
# The full CI gate: a Release build running the whole test suite, a
# ThreadSanitizer build of the concurrency-sensitive tests (everything
# carrying the `tsan` ctest label — the worker pool, the thread-safe engine
# front door and the lock-free metrics/profile subsystem), and an
# ASan+UBSan build of the suite that leans hardest on error paths and
# object lifetimes (the robustness/governance tests plus the fuzz smoke
# drivers).
#
# Usage: tools/run_ci.sh [release-build-dir] [tsan-build-dir] [asan-build-dir]
#   Defaults: build, build-tsan, build-asan. The trees are kept separate so
#   instrumented objects never mix with release ones.
#
# XQP_THREADS is forced to 4 for the TSan phase so the pool spawns workers
# even on single-core CI machines; TSan only sees races threads exercise.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
ASAN_DIR="${3:-build-asan}"

echo "=== Release build + full test suite ==="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

echo "=== Release bench smoke (ingest fast path + index access paths + vm + planner) ==="
# A short-min-time pass over the ingest, parse, index, vm, planner and
# storage benchmarks. It only proves that they still build and run; it
# writes no result files. EXPERIMENTS.md keeps the numbers that back a
# claim.
(cd "$BUILD_DIR" && \
  ./bench/bench_ingest --benchmark_min_time=0.1 && \
  ./bench/bench_parse --benchmark_min_time=0.1 \
    --benchmark_filter='BM_Parse_ToDocument|BM_PullParser_EventsOnly' && \
  ./bench/bench_index --benchmark_min_time=0.1 \
    --benchmark_filter='/100/' && \
  ./bench/bench_vm --benchmark_min_time=0.1 \
    --benchmark_filter='/10000' && \
  ./bench/bench_vm_paths --benchmark_min_time=0.1 && \
  ./bench/bench_vm_construct --benchmark_min_time=0.1 && \
  ./bench/bench_planner --benchmark_min_time=0.1 \
    --benchmark_filter='/(1|64)$' && \
  ./bench/bench_storage --benchmark_min_time=0.1 \
    --benchmark_filter='BM_ColdStart.*/50')

echo "=== ThreadSanitizer build + tsan-labelled tests ==="
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DXQP_SANITIZE=thread
cmake --build "$TSAN_DIR" \
  --target test_parallel test_metrics test_ingest test_index test_vm \
  test_planner test_storage \
  -j"$(nproc)"

export XQP_THREADS=4
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
ctest --test-dir "$TSAN_DIR" -L tsan --output-on-failure
unset XQP_THREADS

echo "=== ASan+UBSan build + robustness and fuzz-smoke tests ==="
# The governance/fault-injection suite unwinds iterator trees mid-stream
# and the smoke drivers feed the parsers hostile bytes; ASan proves the
# error paths leak and corrupt nothing, UBSan that the checked-arithmetic
# rewrites removed the last signed-overflow UB. The document, string-pool
# and differential tests cover the row-block subtree copy (index
# arithmetic on node tables, in-arena copies that read the table they
# grow) and the uninitialized string-pool chunk tails; the axis tests
# cover the tree-bounded following/preceding scans. The lazy tests reuse
# one pooled iterator tree across runs that fail, stop early inside
# recursive functions and drop their documents, so ASan checks that
# closing a tree touches only the live context and frees the run's items.
# The lexer, parser, optimizer and compile-golden tests cover the front
# end: the lexer's reused token ring, the operator-table parser's error
# paths, and the rewriter's in-place tree surgery (CSE hoisting, path
# collapse) with the node-at-a-time property refresh. The planner tests
# include the tag-posting slice (PostingSlice.*): cursors hold spans into
# the tag postings of cached DocumentIndexes that a re-registration drops
# from the engine. The structural-join and twig tests build TagIndex
# directly and run every join kernel over its posting lists. The
# xquery and extensions tests drive every materializing operator and
# try/catch through their error paths on all three backends: the shared
# ApplyOperator, the lazy OperatorIt's reused operand vectors, and the
# VM's kApply cell swap, with checked integer overflow for UBSan. The
# functions tests run every builtin through CallBuiltin, which reads the
# shared focus (position(), last() and its size check, the zero-argument
# string functions), on all three backends; the engine tests run queries
# with an initial context item and pull a result stream, whose lazy tree
# outlives the call that opened it. The XML parser tests and the query
# parser tests both decode entity and character references through the
# one shared DecodeReference, which now runs on the ingest path too.
cmake -B "$ASAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DXQP_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" \
  --target test_robustness test_ingest test_index test_vm test_planner \
  test_storage test_value_join test_xmark test_document test_string_pool \
  test_differential test_axes test_lazy test_lexer test_query_parser \
  test_optimizer test_compile_goldens test_xquery test_extensions \
  test_functions test_engine test_xml_parser test_structural_join \
  test_twig fuzz_pull_parser fuzz_query_parser fuzz_snapshot -j"$(nproc)"

export ASAN_OPTIONS="detect_leaks=1 halt_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
ctest --test-dir "$ASAN_DIR" --output-on-failure \
  -R 'test_robustness|test_ingest|test_index|test_vm|test_planner|test_storage|test_value_join|test_xmark|test_document|test_string_pool|test_differential|test_axes|test_lazy|test_lexer|test_query_parser|test_optimizer|test_compile_goldens|test_xquery|test_extensions|test_functions|test_engine|test_xml_parser|test_structural_join|test_twig|tool_fuzz_smoke'

echo "CI run clean."
