// E18 — bytecode VM backend vs the lazy and eager engines on the
// arithmetic/FLWOR-heavy shapes the VM targets (bailout-free inner loops),
// plus mixed XMark queries whose path domain lowers to the VM's path
// opcodes (kNavStep/kAccessPath) alongside per-tuple bytecode arithmetic.
// Path-shape sweeps proper are E21 (bench_vm_paths).
//
//   bench_vm                      # human-readable
//   bench_vm --json               # emit BENCH_vm.json (CI bench-smoke lane)
//
// Arg(n): loop trip count for the synthetic shapes; XMark permille scale
// for the document-backed shape.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "engine.h"

namespace xqp {
namespace {

using bench::MakeXMarkEngine;
using bench::MustCompile;
using bench::ScaleFromArg;

CompiledQuery::ExecOptions BackendExec(ExecBackend backend) {
  CompiledQuery::ExecOptions exec;
  exec.backend = backend;
  return exec;
}

void RunShape(benchmark::State& state, const std::string& query,
              ExecBackend backend) {
  XQueryEngine engine;
  auto compiled = MustCompile(&engine, query);
  CompiledQuery::ExecOptions exec = BackendExec(backend);
  size_t items = 0;
  for (auto _ : state) {
    auto result = compiled->Execute(exec);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    items = result.value().size();
    benchmark::DoNotOptimize(result.value());
  }
  state.counters["items"] = static_cast<double>(items);
}

/// Pure arithmetic FLWOR — every opcode stays in the dispatch loop.
std::string ArithQuery(int64_t n) {
  return "sum(for $i in 1 to " + std::to_string(n) +
         " return $i * 3 + 7 - ($i idiv 2))";
}

/// Filtered iteration: where-clause branches plus a comparison per tuple.
std::string FilterQuery(int64_t n) {
  return "count(for $i in 1 to " + std::to_string(n) +
         " where ($i mod 7) = 3 return $i)";
}

void BM_ArithFlwor_Vm(benchmark::State& state) {
  RunShape(state, ArithQuery(state.range(0)), ExecBackend::kVm);
}
void BM_ArithFlwor_Lazy(benchmark::State& state) {
  RunShape(state, ArithQuery(state.range(0)), ExecBackend::kLazy);
}
void BM_ArithFlwor_Eager(benchmark::State& state) {
  RunShape(state, ArithQuery(state.range(0)), ExecBackend::kEager);
}
BENCHMARK(BM_ArithFlwor_Vm)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ArithFlwor_Lazy)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ArithFlwor_Eager)->Arg(10000)->Arg(100000);

void BM_FilterFlwor_Vm(benchmark::State& state) {
  RunShape(state, FilterQuery(state.range(0)), ExecBackend::kVm);
}
void BM_FilterFlwor_Lazy(benchmark::State& state) {
  RunShape(state, FilterQuery(state.range(0)), ExecBackend::kLazy);
}
void BM_FilterFlwor_Eager(benchmark::State& state) {
  RunShape(state, FilterQuery(state.range(0)), ExecBackend::kEager);
}
BENCHMARK(BM_FilterFlwor_Vm)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FilterFlwor_Lazy)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FilterFlwor_Eager)->Arg(10000)->Arg(100000);

/// Mixed query over XMark: the //quantity domain lowers to path opcodes
/// and the per-tuple arithmetic compiles — measures the whole-query
/// bytecode contract on real document data.
void RunXMarkShape(benchmark::State& state, ExecBackend backend) {
  auto engine = MakeXMarkEngine(ScaleFromArg(state.range(0)));
  auto compiled = MustCompile(
      engine.get(),
      "for $q in doc('xmark.xml')//quantity return $q * 2 + 1");
  CompiledQuery::ExecOptions exec = BackendExec(backend);
  size_t items = 0;
  for (auto _ : state) {
    auto result = compiled->Execute(exec);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    items = result.value().size();
    benchmark::DoNotOptimize(result.value());
  }
  state.counters["items"] = static_cast<double>(items);
}

void BM_XMarkQuantity_Vm(benchmark::State& state) {
  RunXMarkShape(state, ExecBackend::kVm);
}
void BM_XMarkQuantity_Lazy(benchmark::State& state) {
  RunXMarkShape(state, ExecBackend::kLazy);
}
void BM_XMarkQuantity_Eager(benchmark::State& state) {
  RunXMarkShape(state, ExecBackend::kEager);
}
BENCHMARK(BM_XMarkQuantity_Vm)->Arg(20);
BENCHMARK(BM_XMarkQuantity_Lazy)->Arg(20);
BENCHMARK(BM_XMarkQuantity_Eager)->Arg(20);

/// FLWOR-heavy XMark aggregate: one //quantity scan (compiled path
/// opcodes), then a nested compiled loop doing 60 arithmetic ops per
/// matched node — the report-generation shape where per-tuple arithmetic
/// dominates the scan.
void RunXMarkAggregate(benchmark::State& state, ExecBackend backend) {
  auto engine = MakeXMarkEngine(ScaleFromArg(state.range(0)));
  auto compiled = MustCompile(
      engine.get(),
      "sum(for $q in doc('xmark.xml')//quantity, $i in 1 to 60 "
      "return $q * $i + ($q idiv 2) - ($i mod 7))");
  CompiledQuery::ExecOptions exec = BackendExec(backend);
  for (auto _ : state) {
    auto result = compiled->Execute(exec);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value());
  }
}

void BM_XMarkAggregate_Vm(benchmark::State& state) {
  RunXMarkAggregate(state, ExecBackend::kVm);
}
void BM_XMarkAggregate_Lazy(benchmark::State& state) {
  RunXMarkAggregate(state, ExecBackend::kLazy);
}
void BM_XMarkAggregate_Eager(benchmark::State& state) {
  RunXMarkAggregate(state, ExecBackend::kEager);
}
BENCHMARK(BM_XMarkAggregate_Vm)->Arg(20);
BENCHMARK(BM_XMarkAggregate_Lazy)->Arg(20);
BENCHMARK(BM_XMarkAggregate_Eager)->Arg(20);

}  // namespace
}  // namespace xqp

XQP_BENCH_JSON_MAIN("BENCH_vm.json")
