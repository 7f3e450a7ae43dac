// Experiment E2 — lazy evaluation: "compute results only if they are
// needed". Quantifiers, positional predicates, and emptiness tests should
// touch only a prefix of their input under the lazy engine, while the eager
// engine always pays for the whole sequence.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace xqp {
namespace {

std::unique_ptr<CompiledQuery> Compile(XQueryEngine* engine,
                                       const std::string& query) {
  return bench::MustCompile(engine, query);
}

void RunEngine(benchmark::State& state, const std::string& query, bool lazy) {
  XQueryEngine engine;
  auto compiled = Compile(&engine, query);
  CompiledQuery::ExecOptions options;
  options.backend = lazy ? ExecBackend::kLazy : ExecBackend::kEager;
  for (auto _ : state) {
    auto result = compiled->Execute(options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
}

/// (1 to N)[k]: the lazy engine pulls k items; the eager engine expands N.
void BM_PositionalPredicate_Lazy(benchmark::State& state) {
  RunEngine(state,
            "(1 to " + std::to_string(state.range(0)) + ")[5]", true);
}
BENCHMARK(BM_PositionalPredicate_Lazy)->Arg(1000)->Arg(100000)->Arg(10000000);

void BM_PositionalPredicate_Eager(benchmark::State& state) {
  RunEngine(state,
            "(1 to " + std::to_string(state.range(0)) + ")[5]", false);
}
BENCHMARK(BM_PositionalPredicate_Eager)->Arg(1000)->Arg(100000)->Arg(10000000);

/// some $x in (1 to N) satisfies $x eq K: early exit at the witness.
void BM_Quantifier_Lazy(benchmark::State& state) {
  RunEngine(state,
            "some $x in (1 to 10000000) satisfies $x eq " +
                std::to_string(state.range(0)),
            true);
}
BENCHMARK(BM_Quantifier_Lazy)->Arg(10)->Arg(10000)->Arg(10000000);

void BM_Quantifier_Eager(benchmark::State& state) {
  // The eager interpreter evaluates the domain fully before looping, so the
  // witness position matters less than the domain size.
  RunEngine(state,
            "some $x in (1 to 1000000) satisfies $x eq " +
                std::to_string(state.range(0)),
            false);
}
BENCHMARK(BM_Quantifier_Eager)->Arg(10)->Arg(10000)->Arg(1000000);

/// fn:empty / fn:exists pull at most one item when lazy.
void BM_Exists_Lazy(benchmark::State& state) {
  RunEngine(state, "exists(1 to 10000000)", true);
}
BENCHMARK(BM_Exists_Lazy);

void BM_Exists_Eager(benchmark::State& state) {
  RunEngine(state, "exists(1 to 1000000)", false);
}
BENCHMARK(BM_Exists_Eager);

/// Paper's endlessOnes(): only terminates under lazy evaluation, and should
/// do so in constant time.
void BM_EndlessOnes_Lazy(benchmark::State& state) {
  RunEngine(state,
            "declare function local:ones() { (1, local:ones()) }; "
            "some $x in local:ones() satisfies $x eq 1",
            true);
}
BENCHMARK(BM_EndlessOnes_Lazy);

/// Lazy wins on real data too: the first bidder of the first auction.
void BM_FirstBidder_Lazy(benchmark::State& state) {
  auto engine = bench::MakeXMarkEngine(0.1);
  auto compiled = Compile(
      engine.get(),
      "(doc('xmark.xml')/site/open_auctions/open_auction/bidder)[1]");
  CompiledQuery::ExecOptions options;
  for (auto _ : state) {
    auto result = compiled->Execute(options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FirstBidder_Lazy);

void BM_FirstBidder_Eager(benchmark::State& state) {
  auto engine = bench::MakeXMarkEngine(0.1);
  auto compiled = Compile(
      engine.get(),
      "(doc('xmark.xml')/site/open_auctions/open_auction/bidder)[1]");
  CompiledQuery::ExecOptions options;
  options.backend = ExecBackend::kEager;
  for (auto _ : state) {
    auto result = compiled->Execute(options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FirstBidder_Eager);

}  // namespace
}  // namespace xqp

XQP_BENCH_JSON_MAIN("BENCH_lazy.json")
