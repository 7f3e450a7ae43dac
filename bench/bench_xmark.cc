// Experiment E8 — the end-to-end XMark query suite: optimized lazy engine
// (the paper's XQRL/BEA configuration) vs. the unoptimized eager
// interpreter (the materializing, XSLT-processor-like baseline the paper
// compares against).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "xmark/queries.h"

namespace xqp {
namespace {

void RunXMarkQuery(benchmark::State& state, bool lazy, bool optimize) {
  double scale = bench::ScaleFromArg(state.range(0));
  int query_index = static_cast<int>(state.range(1));
  const XMarkQuery& q = XMarkQuerySet()[query_index];
  auto engine = bench::MakeXMarkEngine(scale);
  XQueryEngine::CompileOptions copts;
  copts.optimize = optimize;
  auto compiled = bench::MustCompile(engine.get(), q.text, copts);
  CompiledQuery::ExecOptions eopts;
  eopts.backend = lazy ? ExecBackend::kLazy : ExecBackend::kEager;
  size_t items = 0;
  for (auto _ : state) {
    auto result = compiled->Execute(eopts);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    items = result.ok() ? result.value().size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["items"] = static_cast<double>(items);
  state.SetLabel(q.id);
}

void BM_XMark_OptimizedLazy(benchmark::State& state) {
  RunXMarkQuery(state, /*lazy=*/true, /*optimize=*/true);
}

void BM_XMark_BaselineEager(benchmark::State& state) {
  RunXMarkQuery(state, /*lazy=*/false, /*optimize=*/false);
}

void RegisterAll() {
  // Q8/Q9/Q11/Q12 are quadratic joins; bench them at the small scale only.
  for (int q = 0; q < 20; ++q) {
    bool heavy = q == 7 || q == 8 || q == 10 || q == 11;
    long scale = heavy ? 20 : 50;
    benchmark::RegisterBenchmark("BM_XMark_OptimizedLazy",
                                 &BM_XMark_OptimizedLazy)
        ->Args({scale, q});
    benchmark::RegisterBenchmark("BM_XMark_BaselineEager",
                                 &BM_XMark_BaselineEager)
        ->Args({scale, q});
  }
}

}  // namespace
}  // namespace xqp

int main(int argc, char** argv) {
  xqp::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
