// Experiment E17 — path & value indexes vs structural joins: the same
// XMark queries answered (a) from the path synopsis / value index, (b) by
// the navigational engine with indexes disabled, and (c) by the holistic
// twig join forced as the access path. Index build cost is measured
// separately so the steady-state query numbers exclude it (the engine
// amortizes one build per document snapshot).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "index/document_indexes.h"
#include "index/index_manager.h"

namespace xqp {
namespace {

/// Rooted and descendant paths plus selective value predicates — the
/// query shapes the index subsystem claims (index/index_planner.h).
const char* IndexQueryText(int which) {
  switch (which) {
    case 0:
      return "doc('xmark.xml')/site/people/person/name";
    case 1:
      return "doc('xmark.xml')//item/name";
    case 2:
      return "doc('xmark.xml')//item[quantity < 2]";
    case 3:
      return "doc('xmark.xml')//person[@id = 'person0']";
    default:
      return "doc('xmark.xml')//open_auction/bidder/increase";
  }
}

std::unique_ptr<XQueryEngine> MakeEngine(
    double scale, bool indexes, AccessPath force = AccessPath::kAuto) {
  EngineOptions options;
  options.enable_indexes = indexes;
  options.force_access_path = force;
  auto engine = std::make_unique<XQueryEngine>(options);
  Status st = engine->RegisterDocument("xmark.xml", bench::XMarkDoc(scale));
  if (!st.ok()) std::abort();
  return engine;
}

void RunQueryLoop(benchmark::State& state, bool indexes,
                  AccessPath force = AccessPath::kAuto) {
  auto engine =
      MakeEngine(bench::ScaleFromArg(state.range(0)), indexes, force);
  auto compiled = bench::MustCompile(
      engine.get(), IndexQueryText(static_cast<int>(state.range(1))));
  // Warm engine-side caches (tag index / synopsis build) outside the
  // timed region.
  size_t items = compiled->Execute().ValueOrDie().size();
  for (auto _ : state) {
    auto result = compiled->Execute();
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.counters["items"] = static_cast<double>(items);
  state.SetLabel(IndexQueryText(static_cast<int>(state.range(1))));
}

void BM_IndexedExecute(benchmark::State& state) {
  RunQueryLoop(state, /*indexes=*/true);
}
BENCHMARK(BM_IndexedExecute)
    ->Args({100, 0})->Args({100, 1})->Args({100, 2})->Args({100, 3})
    ->Args({100, 4})->Args({500, 0})->Args({500, 2});

void BM_UnindexedExecute(benchmark::State& state) {
  RunQueryLoop(state, /*indexes=*/false);
}
BENCHMARK(BM_UnindexedExecute)
    ->Args({100, 0})->Args({100, 1})->Args({100, 2})->Args({100, 3})
    ->Args({100, 4})->Args({500, 0})->Args({500, 2});

/// The holistic twig join as the access path of every chain it can answer
/// (queries 0, 1, 4), with its caches warm: what the index answer has to
/// beat. Indexes stay on because the twig strategy consults the synopsis
/// and declines without it.
void BM_TwigJoinExecute(benchmark::State& state) {
  RunQueryLoop(state, /*indexes=*/true, AccessPath::kTwig);
}
BENCHMARK(BM_TwigJoinExecute)
    ->Args({100, 0})->Args({100, 1})->Args({100, 4})->Args({500, 0});

/// One-time cost the indexed lanes amortize: full synopsis + value-index
/// build over the document.
void BM_IndexBuild(benchmark::State& state) {
  auto doc = bench::XMarkDoc(bench::ScaleFromArg(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    auto idx = DocumentIndexes::Build(doc, kIndexValueAll);
    if (!idx.ok()) state.SkipWithError(idx.status().ToString().c_str());
    bytes = idx.value()->MemoryUsage();
    benchmark::DoNotOptimize(idx);
  }
  state.counters["index_bytes"] = static_cast<double>(bytes);
  state.counters["doc_nodes"] = static_cast<double>(doc->NumNodes());
}
BENCHMARK(BM_IndexBuild)->Arg(100)->Arg(500);

}  // namespace
}  // namespace xqp

XQP_BENCH_JSON_MAIN("BENCH_index.json")
