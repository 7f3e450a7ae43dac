// Tests for the worker pool and the engine's thread-safety contract: the
// XQP_THREADS parser accepts only in-range integers, ParallelFor covers its
// range exactly once, and XQueryEngine stays consistent under concurrent
// ExecuteCached / ExecuteBatchParallel / Profile / ExplainTree /
// GetTagIndex callers.

#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "engine.h"
#include "tests/test_util.h"

namespace xqp {
namespace {

TEST(ThreadCount, ParsesOnlyIntegersInRange) {
  const struct {
    std::string value;
    std::optional<int> want;
  } kCases[] = {
      {"4", 4},
      {"1", 1},
      {std::to_string(kMaxThreadCount), kMaxThreadCount},
      {"abc", std::nullopt},
      {"4x", std::nullopt},
      {" 4", std::nullopt},
      {"+4", std::nullopt},
      {"0", std::nullopt},
      {"-1", std::nullopt},
      {std::to_string(kMaxThreadCount + 1), std::nullopt},
      {"99999999999", std::nullopt},
      {"", std::nullopt},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(ParseThreadCount(c.value), c.want) << '"' << c.value << '"';
  }
}

TEST(ThreadCount, EnvironmentOverridesAndEmptyMeansUnset) {
  const char* saved = std::getenv("XQP_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const unsigned hw = std::thread::hardware_concurrency();
  setenv("XQP_THREADS", "3", 1);
  EXPECT_EQ(DefaultParallelism(), 3);
  setenv("XQP_THREADS", "", 1);
  EXPECT_EQ(DefaultParallelism(), hw == 0 ? 1 : static_cast<int>(hw));
  setenv("XQP_THREADS", restore.c_str(), 1);  // Empty is the same as unset.
}

TEST(ThreadCountDeathTest, UnrecognizedValueExits2) {
  EXPECT_EXIT(
      {
        setenv("XQP_THREADS", "abc", 1);
        DefaultParallelism();
      },
      ::testing::ExitedWithCode(2),
      "XQP_THREADS: unrecognized value \"abc\" \\(expected an integer from "
      "1 to 256\\)");
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
