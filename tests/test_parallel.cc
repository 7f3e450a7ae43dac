// Tests for the morsel-driven parallel execution subsystem: the parallel
// join kernels must be bit-identical to their serial counterparts on every
// input shape, and XQueryEngine must stay consistent under concurrent
// ExecuteCached / ExecuteBatchParallel / GetTagIndex callers.

#include <atomic>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/metrics.h"
#include "base/parallel.h"
#include "engine.h"
#include "join/structural_join.h"
#include "join/tag_index.h"
#include "tests/test_util.h"
#include "xmark/generator.h"

namespace xqp {
namespace {

using testing_util::RandomXml;

// Force the parallel path regardless of input size or machine width: 4-way
// chunking with no serial fallback.
constexpr int kThreads = 4;
constexpr size_t kForce = 1;  // min_parallel: always partition.

std::shared_ptr<const Document> SmallXMark() {
  XMarkOptions options;
  options.scale = 0.02;
  return Document::Parse(GenerateXMarkXml(options)).ValueOrDie();
}

/// Serial/parallel identity on one (doc, ancestors, descendants) input,
/// both axis modes, all three kernels.
void ExpectJoinsIdentical(const Document& doc,
                          const std::vector<NodeIndex>& anc,
                          const std::vector<NodeIndex>& desc) {
  for (bool pc : {false, true}) {
    EXPECT_EQ(StackTreeDescParallel(doc, anc, desc, pc, kThreads, kForce),
              StackTreeDesc(doc, anc, desc, pc));
    EXPECT_EQ(JoinDescendantsParallel(doc, anc, desc, pc, kThreads, kForce),
              JoinDescendants(doc, anc, desc, pc));
    EXPECT_EQ(JoinAncestorsParallel(doc, anc, desc, pc, kThreads, kForce),
              JoinAncestors(doc, anc, desc, pc));
  }
}

TEST(ParallelPartition, SubtreeClosedAndExhaustive) {
  auto doc = Document::Parse(RandomXml(7, 2000, 3)).value();
  TagIndex index(doc);
  const auto* anc = index.Lookup("", "a");
  const auto* desc = index.Lookup("", "b");
  ASSERT_TRUE(anc != nullptr && desc != nullptr);
  auto chunks = ParallelJoinPartition(*doc, *anc, *desc, 8);
  ASSERT_FALSE(chunks.empty());
  // Chunks tile the ancestor list exactly.
  EXPECT_EQ(chunks.front().anc_begin, 0u);
  EXPECT_EQ(chunks.back().anc_end, anc->size());
  for (size_t c = 1; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c - 1].anc_end, chunks[c].anc_begin);
    // Subtree-closure: no region before the cut may reach past it.
    NodeIndex cut_start = (*anc)[chunks[c].anc_begin];
    for (size_t i = 0; i < chunks[c].anc_begin; ++i) {
      EXPECT_LT(doc->node((*anc)[i]).end, cut_start);
    }
  }
  // Candidate descendant windows are disjoint and ordered.
  for (size_t c = 1; c < chunks.size(); ++c) {
    EXPECT_LE(chunks[c - 1].desc_end, chunks[c].desc_begin);
  }
}

TEST(ParallelJoin, IdenticalOnXMark) {
  auto doc = SmallXMark();
  TagIndex index(doc);
  const char* anc_tags[] = {"item", "open_auction", "parlist"};
  const char* desc_tags[] = {"keyword", "text", "listitem"};
  for (const char* at : anc_tags) {
    for (const char* dt : desc_tags) {
      const auto* anc = index.Lookup("", at);
      const auto* desc = index.Lookup("", dt);
      ASSERT_TRUE(anc != nullptr && desc != nullptr) << at << "//" << dt;
      ExpectJoinsIdentical(*doc, *anc, *desc);
    }
  }
}

TEST(ParallelJoin, IdenticalOnRandomRecursiveDocs) {
  for (uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    auto doc = Document::Parse(RandomXml(seed, 1500, 4)).value();
    TagIndex index(doc);
    const auto* anc = index.Lookup("", "a");
    const auto* desc = index.Lookup("", "b");
    if (anc == nullptr || desc == nullptr) continue;
    ExpectJoinsIdentical(*doc, *anc, *desc);
    // Self-join on recursive data: ancestors == descendants.
    ExpectJoinsIdentical(*doc, *anc, *anc);
  }
}

TEST(ParallelJoin, AdversarialDeepNesting) {
  // One 3000-deep <a> chain: there is no subtree boundary to cut at, so
  // the partitioner must fall back to a single chunk and stay correct.
  std::string xml = "<root>";
  for (int i = 0; i < 3000; ++i) xml += "<a>";
  xml += "<b/>";
  for (int i = 0; i < 3000; ++i) xml += "</a>";
  xml += "</root>";
  auto doc = Document::Parse(xml).value();
  TagIndex index(doc);
  const auto* anc = index.Lookup("", "a");
  const auto* desc = index.Lookup("", "b");
  ASSERT_TRUE(anc != nullptr && desc != nullptr);
  auto chunks = ParallelJoinPartition(*doc, *anc, *desc, 8);
  EXPECT_EQ(chunks.size(), 1u);  // Nothing is cuttable inside one subtree.
  ExpectJoinsIdentical(*doc, *anc, *desc);
}

TEST(ParallelJoin, EmptyAndSingletonInputs) {
  auto doc = Document::Parse("<r><a><b/></a><a/><b/></r>").value();
  TagIndex index(doc);
  const auto* anc = index.Lookup("", "a");
  const auto* desc = index.Lookup("", "b");
  std::vector<NodeIndex> empty;
  EXPECT_TRUE(
      StackTreeDescParallel(*doc, empty, *desc, false, kThreads, kForce)
          .empty());
  EXPECT_TRUE(
      StackTreeDescParallel(*doc, *anc, empty, false, kThreads, kForce)
          .empty());
  EXPECT_TRUE(
      JoinDescendantsParallel(*doc, empty, empty, false, kThreads, kForce)
          .empty());
  // Single ancestor.
  std::vector<NodeIndex> one{anc->front()};
  ExpectJoinsIdentical(*doc, one, *desc);
  ExpectJoinsIdentical(*doc, *anc, *desc);
}

TEST(ParallelJoin, ManyDisjointSubtrees) {
  // Wide, shallow forest: maximal cutting opportunity — every top-level
  // <a> is its own subtree.
  std::string xml = "<root>";
  for (int i = 0; i < 4000; ++i) xml += "<a><b/></a>";
  xml += "</root>";
  auto doc = Document::Parse(xml).value();
  TagIndex index(doc);
  ExpectJoinsIdentical(*doc, *index.Lookup("", "a"), *index.Lookup("", "b"));
}

/// Runs fn with the metrics registry temporarily enabled and returns the
/// per-run counter delta.
metrics::MetricsSnapshot CountersDuring(const std::function<void()>& fn) {
  auto& reg = metrics::MetricsRegistry::Global();
  bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  metrics::MetricsSnapshot before = reg.Snapshot();
  fn();
  metrics::MetricsSnapshot delta = reg.Snapshot().Delta(before);
  reg.set_enabled(was_enabled);
  return delta;
}

TEST(ParallelJoin, BelowThresholdTakesSerialPath) {
  // XMark posting lists at scale 0.02 are far below the default
  // min_parallel (16384): the wrappers must not partition, and the
  // dispatch decision must be visible in the metrics.
  auto doc = SmallXMark();
  TagIndex index(doc);
  const auto* anc = index.Lookup("", "item");
  const auto* desc = index.Lookup("", "keyword");
  ASSERT_TRUE(anc != nullptr && desc != nullptr);
  std::vector<JoinPair> result;
  auto delta = CountersDuring([&] {
    result = StackTreeDescParallel(*doc, *anc, *desc, false, kThreads);
  });
  EXPECT_EQ(result, StackTreeDesc(*doc, *anc, *desc, false));
  EXPECT_EQ(delta.counters["join.parallel.serial_fallback"], 1u);
  EXPECT_EQ(delta.counters["join.parallel.dispatched"], 0u);
}

TEST(ParallelJoin, ForcedDispatchIsCountedAndIdentical) {
  auto doc = SmallXMark();
  TagIndex index(doc);
  const auto* anc = index.Lookup("", "item");
  const auto* desc = index.Lookup("", "keyword");
  ASSERT_TRUE(anc != nullptr && desc != nullptr);
  std::vector<JoinPair> result;
  auto delta = CountersDuring([&] {
    result = StackTreeDescParallel(*doc, *anc, *desc, false, kThreads, kForce);
  });
  EXPECT_EQ(result, StackTreeDesc(*doc, *anc, *desc, false));
  EXPECT_EQ(delta.counters["join.parallel.dispatched"], 1u);
  EXPECT_EQ(delta.counters["join.parallel.serial_fallback"], 0u);
}

TEST(ParallelJoin, GiantSubtreeNoCutPoints) {
  // The umbrella shape: every <a> and <b> lives inside one giant <a>
  // subtree, so no subtree-closed cut exists and the parallel path must
  // degrade gracefully to a single chunk.
  std::string xml = "<root><a>";
  for (int i = 0; i < 500; ++i) xml += "<a><x/></a>";
  for (int i = 0; i < 500; ++i) xml += "<b/>";
  xml += "</a></root>";
  auto doc = Document::Parse(xml).value();
  TagIndex index(doc);
  ExpectJoinsIdentical(*doc, *index.Lookup("", "a"), *index.Lookup("", "b"));
}

TEST(ParallelSort, MatchesSerialStableSort) {
  std::vector<int> v(40000);
  uint64_t s = 88172645463325252ULL;
  for (int& x : v) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    x = static_cast<int>(s % 1000);  // Many duplicates: stability matters.
  }
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end());
  ParallelStableSort(v.begin(), v.end(), std::less<int>(), 4, 1);
  EXPECT_EQ(v, expect);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  ParallelFor(hits.size(), 8, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------------------------------------------------------------------
// Engine concurrency.

constexpr char kXml[] =
    "<bib><book year='1998'><title>A</title></book>"
    "<book year='2000'><title>B</title></book></bib>";

TEST(EngineConcurrency, ParallelExecuteCachedIsConsistent) {
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister("bib.xml", kXml).ok());
  const std::vector<std::string> queries = {
      "count(doc('bib.xml')//book)",
      "doc('bib.xml')//book/title",
      "for $b in doc('bib.xml')//book where $b/@year = 1998 return $b/title",
      "<w>{count(doc('bib.xml')//title)}</w>",  // Uncacheable constructor.
  };
  // Serial reference results.
  std::vector<std::string> expected;
  for (const auto& q : queries) {
    expected.push_back(
        SerializeSequence(engine.Execute(q).value()).value());
  }

  constexpr int kHammerThreads = 8;
  constexpr int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kHammerThreads);
  for (int t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        size_t qi = static_cast<size_t>(t + i) % queries.size();
        auto result = engine.ExecuteCached(queries[qi]);
        if (!result.ok() ||
            SerializeSequence(result.value()).value() != expected[qi]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Every call is accounted for exactly once; the uncacheable query can
  // never hit.
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.uncacheable,
            static_cast<uint64_t>(kHammerThreads * kIters));
  EXPECT_EQ(stats.uncacheable,
            static_cast<uint64_t>(kHammerThreads * kIters / 4));
  // At least one miss per cacheable query; duplicated misses only from
  // racing first executions.
  EXPECT_GE(stats.misses, 3u);
  EXPECT_LE(stats.misses, static_cast<uint64_t>(3 * kHammerThreads));
}

// Constructing queries whose enclosing constructors copy trees that were
// built earlier in the same execution (in-arena copies).
constexpr const char* kNestedCopyQueries[] = {
    "<w>{for $b in doc('bib.xml')//book return "
    "<e y=\"{$b/@year}\">{$b/title}</e>}</w>",
    "let $t := <t>{doc('bib.xml')//title}</t> "
    "return <u>{$t, $t/title[2], text {count($t/title/following::node())}}</u>",
};

TEST(EngineConcurrency, ExecuteBatchParallelMatchesSerial) {
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister("bib.xml", kXml).ok());
  std::vector<std::string> storage;
  for (int i = 0; i < 32; ++i) {
    switch (i % 4) {
      case 0:
        storage.push_back("count(doc('bib.xml')//book)");
        break;
      case 1:
        storage.push_back("doc('bib.xml')//book[@year = 2000]/title");
        break;
      default:
        storage.push_back(kNestedCopyQueries[i % 4 - 2]);
        break;
    }
  }
  std::vector<std::string_view> queries(storage.begin(), storage.end());
  auto batch = engine.ExecuteBatchParallel(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    auto serial = engine.Execute(queries[i]).value();
    EXPECT_EQ(SerializeSequence(batch[i].value()).value(),
              SerializeSequence(serial).value());
  }
  // Errors are positional, not fatal to the batch.
  std::vector<std::string_view> bad{"count(doc('bib.xml')//book)", "1 +"};
  auto mixed = engine.ExecuteBatchParallel(bad);
  EXPECT_TRUE(mixed[0].ok());
  EXPECT_FALSE(mixed[1].ok());
}

// One constructing CompiledQuery executed from many threads at once: each
// execution appends to its own construction arena, so every result must
// equal the serial run's.
TEST(EngineConcurrency, OneConstructingQueryFromManyThreads) {
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister("bib.xml", kXml).ok());
  auto compiled = engine.Compile(
      "let $t := <t>{for $b in doc('bib.xml')//book return "
      "<e y=\"{$b/@year}\">{$b/title}</e>}</t> "
      "return (<u>{$t, $t/e[2]}</u>, count($t//title/following::node()))");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  for (ExecBackend backend :
       {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    const std::string expected =
        compiled.value()->ExecuteToXml(exec).ValueOrDie();
    constexpr int kThreads = 8;
    constexpr int kIters = 20;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kIters; ++i) {
          auto result = compiled.value()->Execute(exec);
          if (!result.ok() ||
              SerializeSequence(result.value()).value() != expected) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0) << ExecBackendName(backend);
  }
}

// One lazy CompiledQuery from many threads, each interleaving Execute
// (pooled trees), Profile (its own decorated tree) and Open plus a drain
// (the stream's own tree): every result must equal the serial run's.
TEST(EngineConcurrency, OneLazyQueryExecuteProfileOpenFromManyThreads) {
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister("bib.xml", kXml).ok());
  auto compiled = engine.Compile(
      "declare function local:down($n as xs:integer) { "
      "if ($n le 0) then () else ($n, local:down($n - 1)) }; "
      "(for $b in doc('bib.xml')//book order by $b/@year descending "
      "return <e y=\"{$b/@year}\">{$b/title/text()}</e>, "
      "exists(local:down(30)), count(local:down(12)), "
      "doc('bib.xml')//book[title = 'B']/@year/string())");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const CompiledQuery& q = *compiled.value();
  CompiledQuery::ExecOptions exec;
  exec.backend = ExecBackend::kLazy;
  const std::string expected = q.ExecuteToXml(exec).ValueOrDie();
  auto run = [&](int kind) -> Result<std::string> {
    Sequence items;
    if (kind == 0) {
      XQP_ASSIGN_OR_RETURN(items, q.Execute(exec));
    } else if (kind == 1) {
      XQP_ASSIGN_OR_RETURN(ProfileReport report, q.Profile(exec));
      items = std::move(report.result);
    } else {
      XQP_ASSIGN_OR_RETURN(std::unique_ptr<ResultStream> stream, q.Open(exec));
      Item item;
      while (true) {
        XQP_ASSIGN_OR_RETURN(bool got, stream->Next(&item));
        if (!got) break;
        items.push_back(item);
      }
    }
    return SerializeSequence(items);
  };
  constexpr int kThreads = 8;
  constexpr int kIters = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        Result<std::string> got = run((t + i) % 3);
        if (!got.ok() || got.value() != expected) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(EngineConcurrency, ExplainWhileExecutingFromManyThreads) {
  // ExplainTree() refreshes the access-path annotation of the shared plan;
  // with the indexes warm every refresh stores the same decision, so each
  // concurrent explain must read exactly the serial text.
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister(
                        "d.xml", "<r><a><b/><b/></a><a><b/></a><c/></r>")
                  .ok());
  ASSERT_TRUE(engine.GetDocumentIndexes("d.xml").ok());
  auto compiled = engine.Compile("doc('d.xml')/r/a/b");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const CompiledQuery& q = *compiled.value();
  CompiledQuery::ExecOptions vm;
  vm.backend = ExecBackend::kVm;
  const std::string explain = q.ExplainTree();
  const std::string explain_vm = q.ExplainTree(vm);
  ASSERT_NE(explain.find("[access: "), std::string::npos) << explain;
  const ExecBackend backends[] = {ExecBackend::kLazy, ExecBackend::kEager,
                                  ExecBackend::kVm};
  std::vector<std::string> expected;
  for (ExecBackend b : backends) {
    CompiledQuery::ExecOptions exec;
    exec.backend = b;
    expected.push_back(q.ExecuteToXml(exec).ValueOrDie());
  }
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int kind = (t + i) % 5;
        if (kind == 0) {
          if (q.ExplainTree() != explain) failures.fetch_add(1);
        } else if (kind == 1) {
          if (q.ExplainTree(vm) != explain_vm) failures.fetch_add(1);
        } else {
          CompiledQuery::ExecOptions exec;
          exec.backend = backends[kind - 2];
          Result<std::string> got = q.ExecuteToXml(exec);
          if (!got.ok() || got.value() != expected[kind - 2]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(EngineConcurrency, ConcurrentTagIndexAndRegistration) {
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister("d.xml", "<r><a/><b/></r>").ok());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto index = engine.GetTagIndex("d.xml");
        if (!index.ok() || index.value() == nullptr) failures.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.ParseAndRegister("d.xml", "<r><a/><b/><c/></r>").ok());
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace xqp
