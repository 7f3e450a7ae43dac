// Tests for the observability subsystem: striped counters and log2-bucket
// histograms (exact count/sum/min/max, bounded percentiles, correctness
// under concurrent recording from the thread pool), registry snapshots and
// deltas, EXPLAIN output stability, and the profile invariant that the plan
// root's item count equals the query's result cardinality on both engines.

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/metrics.h"
#include "base/parallel.h"
#include "engine.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace xqp {
namespace {

using metrics::Counter;
using metrics::Histogram;
using metrics::MetricsRegistry;
using metrics::MetricsSnapshot;

TEST(CounterTest, SingleThreadExact) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsMergeExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), uint64_t(kThreads) * kPerThread);
}

TEST(CounterTest, RecordingFromPoolWorkersIsExact) {
  // ParallelForChunks runs chunks on pool workers and the caller; every
  // increment must land regardless of which thread executed the chunk.
  Counter c;
  constexpr size_t kChunks = 64;
  constexpr uint64_t kPerChunk = 1000;
  ParallelForChunks(kChunks, [&c](size_t) {
    for (uint64_t i = 0; i < kPerChunk; ++i) c.Add(3);
  });
  EXPECT_EQ(c.Value(), kChunks * kPerChunk * 3);
}

TEST(HistogramTest, CountSumMinMaxExact) {
  Histogram h;
  auto empty = h.TakeSnapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.Percentile(50), 0u);
  EXPECT_EQ(empty.Mean(), 0.0);

  for (uint64_t v : {7u, 0u, 100u, 3u, 100000u}) h.Record(v);
  auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 7u + 0u + 100u + 3u + 100000u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 100000u);
  EXPECT_DOUBLE_EQ(s.Mean(), double(s.sum) / 5.0);
}

TEST(HistogramTest, PercentileBoundsAndEndpoints) {
  Histogram h;
  for (uint64_t v : {1u, 2u, 3u, 4u, 1000u}) h.Record(v);
  auto s = h.TakeSnapshot();
  // Endpoints are exact.
  EXPECT_EQ(s.Percentile(0), 1u);
  EXPECT_EQ(s.Percentile(100), 1000u);
  // Interior percentiles resolve to a bucket's inclusive upper bound: the
  // result is >= the true value and < 2x the true value (log2 buckets).
  // The median of {1,2,3,4,1000} is 3, whose bucket [2,3] tops out at 3.
  EXPECT_EQ(s.Percentile(50), 3u);
  // Rank floor(0.95 * 5) = 4 selects the value 4, bucket [4,7] -> bound 7.
  EXPECT_EQ(s.Percentile(95), 7u);
}

TEST(HistogramTest, SingleValueAllPercentilesEqual) {
  Histogram h;
  h.Record(42);
  auto s = h.TakeSnapshot();
  EXPECT_EQ(s.min, 42u);
  EXPECT_EQ(s.max, 42u);
  // Bucket bound for 42 is 63, clamped to max = 42.
  for (double p : {0.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    EXPECT_EQ(s.Percentile(p), 42u) << "p=" << p;
  }
}

TEST(HistogramTest, ConcurrentRecordingExactAggregates) {
  Histogram h;
  constexpr size_t kChunks = 32;
  constexpr uint64_t kPerChunk = 5000;
  ParallelForChunks(kChunks, [&h](size_t chunk) {
    for (uint64_t i = 0; i < kPerChunk; ++i) h.Record(chunk * kPerChunk + i);
  });
  auto s = h.TakeSnapshot();
  const uint64_t n = kChunks * kPerChunk;
  EXPECT_EQ(s.count, n);
  EXPECT_EQ(s.sum, n * (n - 1) / 2);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, n - 1);
}

TEST(ScopedTimerTest, NullHistogramIsNoOp) {
  metrics::ScopedTimer t(nullptr);  // Must not crash or record anything.
}

TEST(ScopedTimerTest, RecordsOneSample) {
  Histogram h;
  { metrics::ScopedTimer t(&h); }
  auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 1u);
}

TEST(RegistryTest, SameNameSameObject) {
  auto& reg = MetricsRegistry::Global();
  Counter* a = reg.counter("test.registry.same");
  Counter* b = reg.counter("test.registry.same");
  EXPECT_EQ(a, b);
  Histogram* ha = reg.histogram("test.registry.same_h");
  Histogram* hb = reg.histogram("test.registry.same_h");
  EXPECT_EQ(ha, hb);
}

TEST(RegistryTest, SnapshotDeltaIsPerRun) {
  auto& reg = MetricsRegistry::Global();
  Counter* c = reg.counter("test.registry.delta");
  Histogram* h = reg.histogram("test.registry.delta_h");
  c->Add(5);
  h->Record(10);
  MetricsSnapshot before = reg.Snapshot();
  c->Add(7);
  h->Record(20);
  h->Record(30);
  MetricsSnapshot delta = reg.Snapshot().Delta(before);
  EXPECT_EQ(delta.counters.at("test.registry.delta"), 7u);
  EXPECT_EQ(delta.histograms.at("test.registry.delta_h").count, 2u);
  EXPECT_EQ(delta.histograms.at("test.registry.delta_h").sum, 50u);
}

TEST(RegistryTest, OpMetricsRegistersTriple) {
  metrics::OpMetrics m("test.registry.op");
  auto& reg = MetricsRegistry::Global();
  EXPECT_EQ(m.calls, reg.counter("test.registry.op.calls"));
  EXPECT_EQ(m.items, reg.counter("test.registry.op.items"));
  EXPECT_EQ(m.wall_ns, reg.histogram("test.registry.op.wall_ns"));
}

TEST(RegistryTest, ConcurrentRegistrationAndSnapshot) {
  auto& reg = MetricsRegistry::Global();
  ParallelForChunks(16, [&reg](size_t chunk) {
    std::string name = "test.registry.concurrent." + std::to_string(chunk % 4);
    for (int i = 0; i < 1000; ++i) reg.counter(name)->Increment();
    (void)reg.Snapshot();  // Snapshots race with registration safely.
  });
  MetricsSnapshot s = reg.Snapshot();
  uint64_t total = 0;
  for (int k = 0; k < 4; ++k) {
    total += s.counters.at("test.registry.concurrent." + std::to_string(k));
  }
  EXPECT_EQ(total, 16u * 1000u);
}

// --- EXPLAIN / PROFILE on real queries ------------------------------------

std::unique_ptr<XQueryEngine> SmallXMarkEngine() {
  EngineOptions options;
  options.collect_stats = true;
  auto engine = std::make_unique<XQueryEngine>(options);
  XMarkOptions xmark;
  xmark.scale = 0.01;
  auto doc = engine->ParseAndRegister("xmark.xml", GenerateXMarkXml(xmark));
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return engine;
}

/// EXPLAIN output is part of the tool contract — golden strings so plan
/// rendering (or an optimizer change that alters these plans) fails loudly
/// here instead of silently changing `xqp --explain` output.
TEST(ExplainTest, CanonicalPlansAreStable) {
  auto engine = SmallXMarkEngine();

  auto path = engine->Compile(
      "doc('xmark.xml')/site/open_auctions/open_auction/bidder/increase");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path.value()->ExplainTree(),
            "path [index]\n"
            "  path [index]\n"
            "    path [index]\n"
            "      path [index]\n"
            "        path [index]\n"
            "          call doc\n"
            "            literal xmark.xml\n"
            "          step child::site\n"
            "        step child::open_auctions\n"
            "      step child::open_auction\n"
            "    step child::bidder\n"
            "  step child::increase\n");

  auto count = engine->Compile("count(doc('xmark.xml')//item)");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value()->ExplainTree(),
            "call count\n"
            "  path [index]\n"
            "    call doc\n"
            "      literal xmark.xml\n"
            "    step descendant::item\n");

  auto flwor = engine->Compile(
      "for $i in doc('xmark.xml')//item where $i/payment return $i/name");
  ASSERT_TRUE(flwor.ok()) << flwor.status().ToString();
  EXPECT_EQ(flwor.value()->ExplainTree(),
            "flwor\n"
            "  for $i in: path [index]\n"
            "    call doc\n"
            "      literal xmark.xml\n"
            "    step descendant::item\n"
            "  where: path [sort dedup]\n"
            "    var $i\n"
            "    step child::payment\n"
            "  return: path [sort dedup]\n"
            "    var $i\n"
            "    step child::name\n");
}

/// A forced strategy the planner declines (an existence predicate such as
/// [bidder] is outside its fragment) is marked on the chain's top path, so
/// EXPLAIN shows the navigation that runs; without a force nothing is.
TEST(ExplainTest, DeclinedForcedAccessPathIsMarked) {
  const std::string query = "doc('xmark.xml')//open_auction[bidder]/seller";
  const std::string body =
      "  path\n"
      "    call doc\n"
      "      literal xmark.xml\n"
      "    filter\n"
      "      step descendant::open_auction\n"
      "      predicate: step child::bidder\n"
      "  step child::seller\n";
  for (AccessPath force :
       {AccessPath::kSJoin, AccessPath::kTwig, AccessPath::kIndex}) {
    EngineOptions options;
    options.force_access_path = force;
    XQueryEngine engine(options);
    XMarkOptions xmark;
    xmark.scale = 0.01;
    ASSERT_TRUE(
        engine.ParseAndRegister("xmark.xml", GenerateXMarkXml(xmark)).ok());
    auto q = engine.Compile(query);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value()->ExplainTree(),
              std::string("path [sort] [access: nav, forced ") +
                  AccessPathName(force) + " declined]\n" + body);
  }
  // With indexes disabled no strategy but navigation can run, so every
  // forced one is declined.
  for (AccessPath force :
       {AccessPath::kSJoin, AccessPath::kTwig, AccessPath::kIndex}) {
    EngineOptions options;
    options.enable_indexes = false;
    options.force_access_path = force;
    XQueryEngine engine(options);
    auto q = engine.Compile(query);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value()->ExplainTree(),
              std::string("path [sort] [access: nav, forced ") +
                  AccessPathName(force) + " declined]\n" + body)
        << AccessPathName(force);
  }
  for (AccessPath force : {AccessPath::kAuto, AccessPath::kNav}) {
    EngineOptions options;
    options.force_access_path = force;
    XQueryEngine engine(options);
    auto q = engine.Compile(query);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value()->ExplainTree(), "path [sort]\n" + body)
        << AccessPathName(force);
  }
}

/// The value-join rule's annotation on the XMark Q8 (hash) and Q11 (range)
/// shapes, identical on every backend apart from the vm's root marker.
TEST(ExplainTest, ValueJoinPlansAreStable) {
  auto engine = SmallXMarkEngine();
  const std::string prefix =
      "flwor\n"
      "  let $xqp-cse-3 := path [index]\n"
      "    call doc\n"
      "      literal xmark.xml\n"
      "    step child::site\n"
      "  for $p in: path [sort]\n"
      "    path [sort dedup]\n"
      "      var $xqp-cse-3\n"
      "      step child::people\n"
      "    step child::person\n";
  const std::string q8 =
      prefix +
      "  return: element-ctor item\n"
      "    attribute-ctor person\n"
      "      call string\n"
      "        path [sort dedup]\n"
      "          var $p\n"
      "          step child::name\n"
      "    call count\n"
      "      flwor\n"
      "        for $t in: path [sort] [join: hash]\n"
      "          path [sort dedup]\n"
      "            var $xqp-cse-3\n"
      "            step child::closed_auctions\n"
      "          step child::closed_auction\n"
      "        where: compare =\n"
      "          path [sort]\n"
      "            path [sort dedup]\n"
      "              var $t\n"
      "              step child::buyer\n"
      "            step attribute::person\n"
      "          path [sort dedup]\n"
      "            var $p\n"
      "            step attribute::id\n"
      "        return: var $t\n";
  const std::string q11 =
      prefix +
      "  return: element-ctor items\n"
      "    attribute-ctor name\n"
      "      call string\n"
      "        path [sort dedup]\n"
      "          var $p\n"
      "          step child::name\n"
      "    call count\n"
      "      flwor\n"
      "        for $i in: path [sort] [join: range]\n"
      "          path [sort]\n"
      "            path [sort dedup]\n"
      "              var $xqp-cse-3\n"
      "              step child::open_auctions\n"
      "            step child::open_auction\n"
      "          step child::initial\n"
      "        where: compare >\n"
      "          path [sort]\n"
      "            path [sort dedup]\n"
      "              var $p\n"
      "              step child::profile\n"
      "            step attribute::income\n"
      "          arith *\n"
      "            literal 5000\n"
      "            var $i\n"
      "        return: var $i\n";
  for (const auto& [id, golden] : {std::pair{"Q8", q8}, {"Q11", q11}}) {
    auto q = engine->Compile(FindXMarkQuery(id)->text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value()->ExplainTree(), golden) << id;
    for (ExecBackend backend :
         {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
      CompiledQuery::ExecOptions exec;
      exec.backend = backend;
      std::string want = golden;
      if (backend == ExecBackend::kVm) want.insert(5, " [vm]");
      EXPECT_EQ(q.value()->ExplainTree(exec), want)
          << id << " " << ExecBackendName(backend);
    }
  }
}

/// The acceptance invariant: the plan root's profiled item count equals the
/// result cardinality, for both the lazy and the eager engine.
TEST(ProfileTest, RootItemsMatchCardinalityBothEngines) {
  auto engine = SmallXMarkEngine();
  const char* queries[] = {
      "doc('xmark.xml')/site/open_auctions/open_auction/bidder/increase",
      "count(doc('xmark.xml')//item)",
      "for $i in doc('xmark.xml')//item where $i/payment return $i/name",
      "for $i in doc('xmark.xml')//item order by $i/name return $i/name",
  };
  for (const char* q : queries) {
    auto compiled = engine->Compile(q);
    ASSERT_TRUE(compiled.ok()) << q << ": " << compiled.status().ToString();
    for (bool lazy : {true, false}) {
      CompiledQuery::ExecOptions exec;
      exec.backend = lazy ? ExecBackend::kLazy : ExecBackend::kEager;
      auto report = compiled.value()->Profile(exec);
      ASSERT_TRUE(report.ok()) << q << ": " << report.status().ToString();
      const OpStats* root = report.value().RootStats();
      ASSERT_NE(root, nullptr) << q;
      EXPECT_EQ(root->items, report.value().result.size())
          << q << " (lazy=" << lazy << ")";
      EXPECT_GE(root->next_calls, 1u) << q;
      // Profile must match plain execution.
      auto plain = compiled.value()->Execute(exec);
      ASSERT_TRUE(plain.ok());
      EXPECT_EQ(plain.value().size(), report.value().result.size()) << q;
    }
  }
}

/// Lazy order-by FLWORs run on the iterator tree, so Profile() sees every
/// operator under them: on the XMark Q19 shape the order key and the
/// return expression each yield one item per result item.
TEST(ProfileTest, LazyOrderByProfilesEveryOperator) {
  auto engine = SmallXMarkEngine();
  auto compiled = engine->Compile(FindXMarkQuery("Q19")->text);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  CompiledQuery::ExecOptions exec;
  exec.backend = ExecBackend::kLazy;
  auto report = compiled.value()->Profile(exec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const uint64_t results = report.value().result.size();
  ASSERT_GT(results, 0u);
  const Expr* root = compiled.value()->module().body.get();
  ASSERT_EQ(root->kind(), ExprKind::kFlwor);
  const auto* flwor = static_cast<const FlworExpr*>(root);
  const Expr* order_key = nullptr;
  for (size_t i = 0; i < flwor->NumClauses(); ++i) {
    if (flwor->clauses[i].type == FlworExpr::Clause::Type::kOrderSpec) {
      order_key = flwor->child(i);
    }
  }
  ASSERT_NE(order_key, nullptr);
  const OpStats* key = report.value().ops.Find(order_key);
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->items, results);
  const OpStats* ret = report.value().ops.Find(flwor->return_expr());
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(ret->items, results);
}

/// Every attribute constructor of `e`'s tree, in pre-order.
void CollectAttributeCtors(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind() == ExprKind::kAttributeCtor) out->push_back(e);
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    CollectAttributeCtors(e->child(i), out);
  }
}

/// Direct attributes are evaluated inline by their element, yet Profile()
/// still reports each attribute-ctor row: one call and one item per
/// element built, on the lazy and the eager engine.
TEST(ProfileTest, DirectAttributesKeepTheirRows) {
  XQueryEngine engine;
  auto compiled = engine.Compile(
      "for $i in 1 to 3 return <x a=\"{$i}\" b=\"c\">{attribute d {$i}}</x>");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::vector<const Expr*> attrs;
  CollectAttributeCtors(compiled.value()->module().body.get(), &attrs);
  ASSERT_EQ(attrs.size(), 3u);
  for (ExecBackend backend : {ExecBackend::kLazy, ExecBackend::kEager}) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    auto report = compiled.value()->Profile(exec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report.value().result.size(), 3u);
    for (const Expr* attr : attrs) {
      const OpStats* stats = report.value().ops.Find(attr);
      ASSERT_NE(stats, nullptr) << ExecBackendName(backend);
      EXPECT_GE(stats->next_calls, 3u) << ExecBackendName(backend);
      EXPECT_EQ(stats->items, 3u) << ExecBackendName(backend);
    }
  }
}

TEST(ProfileTest, ReportRendersTextAndJson) {
  auto engine = SmallXMarkEngine();
  auto compiled = engine->Compile("count(doc('xmark.xml')//item)");
  ASSERT_TRUE(compiled.ok());
  auto report = compiled.value()->Profile();
  ASSERT_TRUE(report.ok());
  std::string text = report.value().ToText();
  EXPECT_NE(text.find("call count"), std::string::npos);
  EXPECT_NE(text.find("step descendant::item"), std::string::npos);
  std::string json = report.value().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"result_items\":1"), std::string::npos);
  EXPECT_NE(json.find("\"plan\":"), std::string::npos);
}

TEST(ProfileTest, DisabledEngineLeavesRegistryOff) {
  // A default-constructed engine must not flip the global registry on, and
  // Profile() must restore the previous enabled state afterwards.
  MetricsRegistry::Global().set_enabled(false);
  XQueryEngine engine;
  XMarkOptions xmark;
  xmark.scale = 0.01;
  ASSERT_TRUE(
      engine.ParseAndRegister("xmark.xml", GenerateXMarkXml(xmark)).ok());
  EXPECT_FALSE(metrics::Enabled());
  auto compiled = engine.Compile("count(doc('xmark.xml')//item)");
  ASSERT_TRUE(compiled.ok());
  auto report = compiled.value()->Profile();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(metrics::Enabled());
  // The forced-on window still captured engine counters for the run.
  EXPECT_FALSE(report.value().engine_metrics.counters.empty());
}

/// construct.documents counts the construction arenas: one per execution
/// that constructs, none for one that does not. construct.nodes counts the
/// rows appended to them, copied rows included; a direct attribute is
/// written into its element's rows, not built on its own.
TEST(ConstructMetrics, OneArenaPerExecution) {
  std::string order = "<order><lines>";
  for (int i = 0; i < 200; ++i) {
    order += "<line sku=\"s" + std::to_string(i) + "\" qty=\"" +
             std::to_string(i % 7 + 1) + "\" price=\"2.5\"/>";
  }
  order += "</lines></order>";
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister("order.xml", order).ok());
  struct Case {
    const char* query;
    uint64_t documents;
    uint64_t nodes;
  };
  const Case cases[] = {
      {"for $i in 1 to 10 return <x a=\"{$i}\"/>", 1, 20},
      {"for $l in doc('order.xml')/order/lines/line return <line "
       "sku=\"{$l/@sku}\" amount=\"{$l/@qty * $l/@price}\"/>",
       1, 600},
      // 600 rows of lines, then <w> and a copy of each line.
      {"<w>{for $l in doc('order.xml')/order/lines/line return <line "
       "sku=\"{$l/@sku}\" amount=\"{$l/@qty * $l/@price}\"/>}</w>",
       1, 1201},
      {"count(doc('order.xml')/order/lines/line)", 0, 0},
  };
  for (const Case& c : cases) {
    auto compiled = engine.Compile(c.query);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    for (ExecBackend backend :
         {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
      CompiledQuery::ExecOptions exec;
      exec.backend = backend;
      auto report = compiled.value()->Profile(exec);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      auto& counters = report.value().engine_metrics.counters;
      EXPECT_EQ(counters["construct.documents"], c.documents)
          << c.query << " " << ExecBackendName(backend);
      EXPECT_EQ(counters["construct.nodes"], c.nodes)
          << c.query << " " << ExecBackendName(backend);
    }
  }
}

/// Turns the global registry on for one test and returns counter deltas
/// since construction (or the last Take).
class CounterWindow {
 public:
  CounterWindow() : was_enabled_(MetricsRegistry::Global().enabled()) {
    MetricsRegistry::Global().set_enabled(true);
    before_ = MetricsRegistry::Global().Snapshot();
  }
  ~CounterWindow() { MetricsRegistry::Global().set_enabled(was_enabled_); }

  std::map<std::string, uint64_t> Take() {
    MetricsSnapshot now = MetricsRegistry::Global().Snapshot();
    std::map<std::string, uint64_t> delta;
    for (const auto& [name, value] : now.Delta(before_).counters) {
      if (value != 0) delta[name] = value;
    }
    before_ = std::move(now);
    return delta;
  }

 private:
  bool was_enabled_;
  MetricsSnapshot before_;
};

/// lazy.plans.built counts iterator trees: one per CompiledQuery for its
/// unprofiled runs, reused from run to run.
TEST(LazyPlans, BuiltOncePerCompiledQuery) {
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister("d.xml", "<r><a id='1'/><a/></r>").ok());
  auto compiled = engine.Compile(
      "for $a in doc('d.xml')/r/a where $a/@id return string($a/@id)");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  CounterWindow window;
  for (int i = 0; i < 100; ++i) {
    auto result = compiled.value()->Execute();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().size(), 1u);
  }
  EXPECT_EQ(window.Take()["lazy.plans.built"], 1u);
}

TEST(LazyPlans, RecursiveBodiesBuiltInTheFirstRunOnly) {
  // Each recursion level's call site builds its body on its first call:
  // local:f(3) reaches four levels, so the first run builds the root tree
  // and four bodies however many tuples call it.
  XQueryEngine engine;
  auto compiled = engine.Compile(
      "declare function local:f($n as xs:integer) as xs:integer { "
      "if ($n le 0) then 0 else 1 + local:f($n - 1) }; "
      "for $i in 1 to 20 return local:f($i mod 4)");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  CounterWindow window;
  ASSERT_TRUE(compiled.value()->Execute().ok());
  EXPECT_EQ(window.Take()["lazy.plans.built"], 5u);
  auto second = compiled.value()->Execute();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(SerializeSequence(second.value()).value(),
            "1 2 3 0 1 2 3 0 1 2 3 0 1 2 3 0 1 2 3 0");
  EXPECT_EQ(window.Take()["lazy.plans.built"], 0u);
}

TEST(LazyPlans, ProfiledRunBuildsItsOwnTree) {
  XQueryEngine engine;
  auto compiled = engine.Compile("for $i in 1 to 3 return $i * 2");
  ASSERT_TRUE(compiled.ok());
  CounterWindow window;
  ASSERT_TRUE(compiled.value()->Execute().ok());
  EXPECT_EQ(window.Take()["lazy.plans.built"], 1u);
  auto report = compiled.value()->Profile();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().engine_metrics.counters["lazy.plans.built"], 1u);
  EXPECT_EQ(window.Take()["lazy.plans.built"], 1u);
  ASSERT_TRUE(compiled.value()->Execute().ok());
  EXPECT_EQ(window.Take()["lazy.plans.built"], 0u);
}

/// An `and`/`or` whose left operand decides it never touches its right
/// operand: no access-path choice, no index probe, on any backend.
TEST(LazyPlans, ShortCircuitSkipsRightOperandProbes) {
  XQueryEngine engine;
  ASSERT_TRUE(engine
                  .ParseAndRegister("d.xml",
                                    "<r><a id='1'/><a id='2'/><b/></r>")
                  .ok());
  const char* queries[] = {
      "exists(doc('d.xml')/r/a) or exists(doc('d.xml')//a[@id = '1'])",
      "for $i in 1 to 3 return "
      "($i > 0 or exists(doc('missing.xml')//a[@id = '1']))",
  };
  auto planner_and_index = [](const std::map<std::string, uint64_t>& all) {
    std::map<std::string, uint64_t> out;
    for (const auto& [name, value] : all) {
      if (name.rfind("planner.", 0) == 0 || name.rfind("index.", 0) == 0) {
        out[name] = value;
      }
    }
    return out;
  };
  for (const char* query : queries) {
    auto compiled = engine.Compile(query);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    CounterWindow window;
    std::map<std::string, uint64_t> reference;
    for (ExecBackend backend :
         {ExecBackend::kEager, ExecBackend::kLazy, ExecBackend::kVm}) {
      CompiledQuery::ExecOptions exec;
      exec.backend = backend;
      ASSERT_TRUE(compiled.value()->Execute(exec).ok());  // Warm the indexes.
      window.Take();
      auto result = compiled.value()->Execute(exec);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::map<std::string, uint64_t> delta = planner_and_index(window.Take());
      if (backend == ExecBackend::kEager) reference = delta;
      EXPECT_EQ(delta, reference) << query << " " << ExecBackendName(backend);
    }
  }
}

}  // namespace
}  // namespace xqp
