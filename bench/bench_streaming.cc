// Experiment E1 — streaming vs. materialized execution.
// Paper claims (technical-requirements slide): start computation before the
// entire input is consumed; minimize time-to-first-answer; minimize memory
// footprint. We compare the lazy streaming iterator engine against the
// eager materializing interpreter on XMark path queries, measuring both
// total time and time-to-first-item.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "exec/iterators.h"
#include "tokens/token_iterator.h"
#include "opt/properties.h"

namespace xqp {
namespace {

constexpr const char* kQuery =
    "doc('xmark.xml')/site/open_auctions/open_auction/bidder/increase";

void BM_TotalTime_Eager(benchmark::State& state) {
  auto engine = bench::MakeXMarkEngine(bench::ScaleFromArg(state.range(0)));
  auto query = bench::MustCompile(engine.get(), kQuery);
  CompiledQuery::ExecOptions options;
  options.backend = ExecBackend::kEager;
  for (auto _ : state) {
    auto result = query->Execute(options);
    benchmark::DoNotOptimize(result);
    state.counters["items"] = static_cast<double>(result.value().size());
  }
}
BENCHMARK(BM_TotalTime_Eager)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_TotalTime_Lazy(benchmark::State& state) {
  auto engine = bench::MakeXMarkEngine(bench::ScaleFromArg(state.range(0)));
  auto query = bench::MustCompile(engine.get(), kQuery);
  CompiledQuery::ExecOptions options;
  options.backend = ExecBackend::kLazy;
  for (auto _ : state) {
    auto result = query->Execute(options);
    benchmark::DoNotOptimize(result);
    state.counters["items"] = static_cast<double>(result.value().size());
  }
}
BENCHMARK(BM_TotalTime_Lazy)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

/// Time to first item: the streaming engine should produce the first result
/// in near-constant time regardless of document size; the eager engine pays
/// for the whole result first.
void BM_FirstItem_Lazy(benchmark::State& state) {
  double scale = bench::ScaleFromArg(state.range(0));
  auto engine = bench::MakeXMarkEngine(scale);
  auto query = bench::MustCompile(engine.get(), kQuery);
  const ParsedModule& module = query->module();
  for (auto _ : state) {
    DynamicContext ctx;
    ctx.module = &module;
    ctx.provider = engine.get();
    ctx.slots.assign(module.num_slots, nullptr);
    auto it = OpenLazy(module.body.get(), &ctx);
    Item item;
    auto got = it.value()->Next(&item);
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_FirstItem_Lazy)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_FirstItem_Eager(benchmark::State& state) {
  auto engine = bench::MakeXMarkEngine(bench::ScaleFromArg(state.range(0)));
  auto query = bench::MustCompile(engine.get(), kQuery);
  CompiledQuery::ExecOptions options;
  options.backend = ExecBackend::kEager;
  for (auto _ : state) {
    // The eager engine cannot yield early: first item costs a full run.
    auto result = query->Execute(options);
    benchmark::DoNotOptimize(result.value().front());
  }
}
BENCHMARK(BM_FirstItem_Eager)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

/// Streaming straight from unparsed text to first output byte: parse ->
/// token iterator -> serialize, stopping after the first matching subtree.
void BM_FirstAnswer_FromText(benchmark::State& state) {
  const std::string& xml = bench::XMarkXml(bench::ScaleFromArg(state.range(0)));
  for (auto _ : state) {
    ParserTokenIterator it(xml);
    (void)it.Open();
    // Scan to the first <increase> begin-element and serialize its subtree.
    std::string out;
    XmlTextSink sink(&out);
    while (true) {
      auto t = it.Next();
      if (!t.ok() || t.value() == nullptr) break;
      if (t.value()->kind == TokenKind::kStartElement &&
          it.name(*t.value()).local == "increase") {
        int depth = 1;
        (void)sink.StartElement(it.name(*t.value()));
        while (depth > 0) {
          auto inner = it.Next();
          if (!inner.ok() || inner.value() == nullptr) break;
          const Token& tok = *inner.value();
          if (tok.kind == TokenKind::kStartElement) {
            ++depth;
            (void)sink.StartElement(it.name(tok));
          } else if (tok.kind == TokenKind::kEndElement) {
            --depth;
            (void)sink.EndElement();
          } else if (tok.kind == TokenKind::kText) {
            (void)sink.Text(it.value(tok));
          }
        }
        break;
      }
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FirstAnswer_FromText)->Arg(50)->Arg(200);

}  // namespace
}  // namespace xqp

XQP_BENCH_JSON_MAIN("BENCH_streaming.json")
