// E21 — compiled path navigation in the bytecode VM vs the lazy engine
// on XMark path shapes: pure child chains (kNavStep), descendant scans,
// predicate chains answered by the value index and joinable chains under
// the full strategy dispatch (both kAccessPath), and the E18
// aggregate now that its path domain compiles. Every shape runs on both
// backends from one CompiledQuery, so the sweep doubles as a
// parity-or-better check for the VM lowering.
//
//   bench_vm_paths                # human-readable
//   bench_vm_paths --json         # emit BENCH_vm_paths.json (CI lane)
//
// Arg(n): XMark permille scale.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "engine.h"

namespace xqp {
namespace {

using bench::MakeXMarkEngine;
using bench::MustCompile;
using bench::ScaleFromArg;

void RunPathShape(benchmark::State& state, const std::string& query,
                  ExecBackend backend) {
  auto engine = MakeXMarkEngine(ScaleFromArg(state.range(0)));
  auto compiled = MustCompile(engine.get(), query);
  CompiledQuery::ExecOptions exec;
  exec.backend = backend;
  // Warm the document indexes outside the timed region (both backends
  // probe the same engine-level cache).
  {
    auto warm = compiled->Execute(exec);
    if (!warm.ok()) state.SkipWithError(warm.status().ToString().c_str());
  }
  size_t items = 0;
  for (auto _ : state) {
    auto result = compiled->Execute(exec);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    items = result.value().size();
    benchmark::DoNotOptimize(result.value());
  }
  state.counters["items"] = static_cast<double>(items);
}

/// Pure child chain — every level is a kNavStep (or an index answer).
const char kChildChain[] = "doc('xmark.xml')/site/people/person/name";

/// Descendant scan with an aggregate shell.
const char kDescendantScan[] = "count(doc('xmark.xml')//keyword)";

/// Point predicate on an attribute — kAccessPath's value-index fast path.
const char kPointProbe[] =
    "doc('xmark.xml')/site/people/person[@id = 'person0']/name";

/// Value predicate over element content.
const char kValuePredicate[] =
    "count(doc('xmark.xml')//item[quantity = 1])";

/// The E18 aggregate: path domain + heavy per-tuple arithmetic, now
/// bailout-free end to end.
const char kAggregate[] =
    "sum(for $q in doc('xmark.xml')//quantity, $i in 1 to 60 "
    "return $q * $i + ($q idiv 2) - ($i mod 7))";

#define XQP_PATH_SHAPE(name, query)                       \
  void BM_##name##_Vm(benchmark::State& state) {          \
    RunPathShape(state, query, ExecBackend::kVm);         \
  }                                                       \
  void BM_##name##_Lazy(benchmark::State& state) {        \
    RunPathShape(state, query, ExecBackend::kLazy);       \
  }                                                       \
  BENCHMARK(BM_##name##_Vm)->Arg(20);                     \
  BENCHMARK(BM_##name##_Lazy)->Arg(20)

XQP_PATH_SHAPE(ChildChain, kChildChain);
XQP_PATH_SHAPE(DescendantScan, kDescendantScan);
XQP_PATH_SHAPE(PointProbe, kPointProbe);
XQP_PATH_SHAPE(ValuePredicate, kValuePredicate);
XQP_PATH_SHAPE(Aggregate, kAggregate);

#undef XQP_PATH_SHAPE

}  // namespace
}  // namespace xqp

XQP_BENCH_JSON_MAIN("BENCH_vm_paths.json")
