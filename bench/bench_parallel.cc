// Experiment E13 — the thread-safe engine front door: ExecuteBatchParallel
// runs a mixed query batch through the shared result cache split 1/2/4/8
// ways over XMark scales {0.05, 0.1, 0.5}. The second argument is
// EngineOptions::num_threads, the worker count the batch asks of the global
// pool (1 runs it serially); 0 would mean DefaultParallelism() and so
// repeat one of the other lanes. Splits above the machine's core count
// expose scheduling overhead; on a single-core host all of them should be
// roughly flat.

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"

namespace xqp {
namespace {

/// A mixed batch: path queries (cacheable, identical — exercises the
/// shared result cache under contention) plus per-iteration unique
/// variants (cache misses — exercises concurrent compile+execute).
void BM_ExecuteBatchParallel(benchmark::State& state) {
  const double scale = bench::ScaleFromArg(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  EngineOptions options;
  options.num_threads = threads;
  XQueryEngine engine(options);
  Status st = engine.RegisterDocument("xmark.xml", bench::XMarkDoc(scale));
  if (!st.ok()) std::abort();

  const std::vector<std::string> batch = {
      "doc('xmark.xml')//item//keyword",
      "doc('xmark.xml')//person/name",
      "count(doc('xmark.xml')//item)",
      "doc('xmark.xml')//open_auction//bidder",
      "doc('xmark.xml')//item//keyword",
      "doc('xmark.xml')//person/name",
      "count(doc('xmark.xml')//item)",
      "doc('xmark.xml')//open_auction//bidder",
  };
  std::vector<std::string_view> queries(batch.begin(), batch.end());

  for (auto _ : state) {
    auto results = engine.ExecuteBatchParallel(queries);
    for (const auto& r : results) {
      if (!r.ok()) std::abort();
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["hits"] = static_cast<double>(engine.cache_stats().hits);
}
BENCHMARK(BM_ExecuteBatchParallel)
    ->ArgsProduct({{50, 100, 500}, {1, 2, 4, 8}});

}  // namespace
}  // namespace xqp

XQP_BENCH_JSON_MAIN("BENCH_parallel.json")
