// Lazy-evaluation behaviour of the streaming iterator engine: demand-driven
// computation, early exit, shared buffers — the paper's "compute only when
// you need it, and only if you need it".

#include <gtest/gtest.h>

#include "exec/iterators.h"
#include "opt/properties.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace xqp {
namespace {

using testing_util::RunQuery;

/// Compiles and opens a query for streaming, returning the iterator plus
/// the context that owns its bindings.
struct OpenQuery {
  std::unique_ptr<ParsedModule> module;
  DynamicContext ctx;
  std::unique_ptr<ItemIterator> iterator;
};

std::unique_ptr<OpenQuery> Open(const std::string& query) {
  auto open = std::make_unique<OpenQuery>();
  auto module = ParseQuery(query);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  open->module = std::move(module).value();
  EXPECT_TRUE(NormalizeModule(open->module.get()).ok());
  AnalyzeExpr(open->module->body.get(), open->module.get());
  open->ctx.module = open->module.get();
  open->ctx.slots.assign(open->module->num_slots, nullptr);
  auto it = OpenLazy(open->module->body.get(), &open->ctx);
  EXPECT_TRUE(it.ok()) << it.status().ToString();
  open->iterator = std::move(it).value();
  return open;
}

TEST(Lazy, PositionalPredicateStopsEarly) {
  // (1 to 100000000)[3] must not expand the whole range.
  EXPECT_EQ(RunQuery("(1 to 100000000)[3]"), "3");
}

TEST(Lazy, ExistsStopsAfterFirstItem) {
  EXPECT_EQ(RunQuery("exists(1 to 100000000)"), "true");
  EXPECT_EQ(RunQuery("empty(1 to 100000000)"), "false");
}

TEST(Lazy, HeadOnHugeSequence) {
  EXPECT_EQ(RunQuery("head(1 to 100000000)"), "1");
}

TEST(Lazy, QuantifierShortCircuits) {
  // some over a huge domain where the witness is early.
  EXPECT_EQ(RunQuery("some $x in (1 to 100000000) satisfies $x eq 5"),
            "true");
  EXPECT_EQ(RunQuery("every $x in (1 to 100000000) satisfies $x lt 3"),
            "false");
}

TEST(Lazy, PaperEndlessOnesExample) {
  // declare function endlessOnes() { (1, endlessOnes()) };
  // some $x in endlessOnes() satisfies $x eq 1  =>  true.
  // Full laziness through recursive functions: the witness is found before
  // the recursion deepens.
  EXPECT_EQ(RunQuery("declare function local:endlessOnes() { (1, "
                     "local:endlessOnes()) }; some $x in "
                     "local:endlessOnes() satisfies $x eq 1"),
            "true");
}

TEST(Lazy, EffectiveBooleanOfInfiniteNodeFirstSequence) {
  // boolean() needs at most two items; a node first means true.
  EXPECT_EQ(RunQuery("declare function local:nodes() { (<a/>, "
                     "local:nodes()) }; boolean(local:nodes())"),
            "true");
}

TEST(Lazy, IfConditionPullsMinimum) {
  EXPECT_EQ(RunQuery("if (1 to 100000000) then 'y' else 'n'", "",
                     ExecBackend::kLazy, /*optimize=*/false),
            "ERROR: Type error: effective boolean value of a multi-item "
            "atomic sequence");
  EXPECT_EQ(RunQuery("if (exists(1 to 100000000)) then 'y' else 'n'"), "y");
}

TEST(Lazy, StreamingFirstItemWithoutDraining) {
  auto open = Open("for $i in (1 to 100000000) return $i * 2");
  Item item;
  auto got = open->iterator->Next(&item);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value());
  EXPECT_EQ(item.AsAtomic().AsInt(), 2);
  // Pull a few more; still cheap.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(open->iterator->Next(&item).value());
  }
  EXPECT_EQ(item.AsAtomic().AsInt(), 12);
}

TEST(Lazy, LetBindingSharedNotRecomputed) {
  // A let consumed by two count() calls: the shared LazySeq buffer means
  // both see the same items (correctness of the buffer-iterator factory).
  EXPECT_EQ(RunQuery("let $s := (1 to 1000) return count($s) + count($s)"),
            "2000");
}

TEST(Lazy, LetBindingUnusedNeverEvaluated) {
  // The let expression would raise if evaluated; laziness skips it.
  EXPECT_EQ(RunQuery("let $boom := error('never') return 42", "",
                     ExecBackend::kLazy, /*optimize=*/false),
            "42");
}

TEST(LazySeq, BufferGrowsOnDemand) {
  Sequence items;
  for (int i = 0; i < 100; ++i) items.push_back(Item(AtomicValue::Integer(i)));
  auto seq = LazySeq::FromVector(items);
  EXPECT_TRUE(seq->fully_materialized());
  EXPECT_EQ(seq->Size().value(), 100u);
}

TEST(LazySeq, MultipleConsumersShareBuffer) {
  // Two cursors over one LazySeq: interleaved pulls see consistent data.
  Sequence items;
  for (int i = 0; i < 10; ++i) items.push_back(Item(AtomicValue::Integer(i)));
  auto seq = LazySeq::FromVector(std::move(items));
  LazySeqIterator a(seq);
  LazySeqIterator b(seq);
  ASSERT_TRUE(a.Reset(nullptr).ok());
  ASSERT_TRUE(b.Reset(nullptr).ok());
  Item ia, ib;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.Next(&ia).value());
    if (i % 2 == 0) {
      ASSERT_TRUE(b.Next(&ib).value());
      EXPECT_EQ(ib.AsAtomic().AsInt(), i / 2);
    }
    EXPECT_EQ(ia.AsAtomic().AsInt(), i);
  }
}

TEST(Lazy, StreamingEbvPullsAtMostTwo) {
  auto open = Open("(1 to 100000000)");
  auto ebv = StreamingEbv(open->iterator.get());
  // Two atoms => type error, but crucially it returns (no hang).
  EXPECT_FALSE(ebv.ok());
}

TEST(Lazy, CountStreamsWithoutMaterializing) {
  EXPECT_EQ(RunQuery("count(1 to 2000000)"), "2000000");
}

TEST(Lazy, SubsequenceSkipsLazily) {
  EXPECT_EQ(RunQuery("string-join(for $x in subsequence(1 to 100000000, "
                     "5, 3) return string($x), ',')"),
            "5,6,7");
}

// ---------------------------------------------------------------------------
// Plan lifecycle: one CompiledQuery reuses its lazy iterator tree across
// executions (reset per run, closed after it). Each case runs on eager too,
// as the reference.
// ---------------------------------------------------------------------------

/// One execution, serialized; an error as its status text.
std::string RunOnce(const CompiledQuery& q, CompiledQuery::ExecOptions exec,
                    ExecBackend backend) {
  exec.backend = backend;
  auto result = q.ExecuteToXml(exec);
  return result.ok() ? result.value() : "ERROR: " + result.status().ToString();
}

CompiledQuery::ExecOptions WithContext(std::shared_ptr<const Document> doc) {
  CompiledQuery::ExecOptions exec;
  exec.has_context_item = true;
  exec.context_item = Item(Node(std::move(doc), 0));
  return exec;
}

constexpr char kDocA[] =
    "<r><a id='1'><b/></a><a id='2'/><a id='3'><b/><b/></a></r>";
constexpr char kDocB[] =
    "<r><a id='9'><b/><b/><b/></a><c/><a id='8'><b/></a><a id='7'/></r>";

TEST(LazyLifecycle, AlternatingContextDocumentsMatchFreshCompile) {
  const std::string query =
      "for $a in //a[b] order by $a/@id descending return "
      "<x n='{count($a/b)}'>{string($a/@id), (//a)[last()]/@id/string(), "
      "let $s := $a/b return count($s[position() < last()])}</x>";
  std::shared_ptr<const Document> docs[] = {
      Document::Parse(kDocA).ValueOrDie(), Document::Parse(kDocB).ValueOrDie()};
  XQueryEngine engine;
  auto once = engine.Compile(query);
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  for (int run = 0; run < 6; ++run) {
    CompiledQuery::ExecOptions exec = WithContext(docs[run % 2]);
    auto fresh = engine.Compile(query);
    ASSERT_TRUE(fresh.ok());
    const std::string expected =
        RunOnce(*fresh.value(), exec, ExecBackend::kEager);
    EXPECT_EQ(expected.find("ERROR"), std::string::npos) << expected;
    for (ExecBackend backend : {ExecBackend::kLazy, ExecBackend::kEager}) {
      EXPECT_EQ(RunOnce(*once.value(), exec, backend), expected)
          << "run " << run << " " << ExecBackendName(backend);
      EXPECT_EQ(RunOnce(*fresh.value(), exec, backend), expected)
          << "run " << run << " " << ExecBackendName(backend);
    }
  }
}

TEST(LazyLifecycle, RunAfterMidStreamFailureIsCorrect) {
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister("d.xml", kDocB).ok());
  // The second tuple fails after the first tuple's items were pulled.
  auto q = engine.Compile(
      "declare variable $k external; "
      "for $a at $i in doc('d.xml')//a return "
      "(string($a/@id), if ($i = 2) then $a/@id * $k else (), "
      "count($a/b))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  CompiledQuery::ExecOptions good, bad;
  good.variables["k"] = {Item(AtomicValue::Integer(2))};
  bad.variables["k"] = {Item(AtomicValue::String("x"))};
  const std::string expected = RunOnce(*q.value(), good, ExecBackend::kEager);
  EXPECT_EQ(expected, "9 3 8 16 1 7 0");
  const std::string failure = RunOnce(*q.value(), bad, ExecBackend::kEager);
  EXPECT_NE(failure.find("ERROR"), std::string::npos);
  for (ExecBackend backend : {ExecBackend::kLazy, ExecBackend::kEager}) {
    for (int round = 0; round < 3; ++round) {
      CompiledQuery::ExecOptions exec = bad;
      exec.backend = backend;
      auto r = q.value()->Execute(exec);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
      EXPECT_EQ("ERROR: " + r.status().ToString(), failure);
      EXPECT_EQ(RunOnce(*q.value(), good, backend), expected)
          << ExecBackendName(backend) << " round " << round;
    }
  }
}

TEST(LazyLifecycle, ExistsStoppingInsideRecursionRunsTwice) {
  // exists() and head() stop the recursive function's stream after its
  // first item, with a call-depth slot held. 5000 such calls in one run
  // exceed the depth limit unless every stopped call gives its slot back.
  XQueryEngine engine;
  auto q = engine.Compile(
      "declare function local:down($n as xs:integer) { "
      "if ($n le 0) then () else ($n, local:down($n - 1)) }; "
      "(exists(local:down(50)), head(local:down(7)), "
      "count(for $i in 1 to 5000 return exists(local:down($i mod 9))), "
      "count(local:down(40)))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  for (ExecBackend backend : {ExecBackend::kLazy, ExecBackend::kEager}) {
    for (int run = 0; run < 2; ++run) {
      EXPECT_EQ(RunOnce(*q.value(), {}, backend), "true 7 5000 40")
          << ExecBackendName(backend) << " run " << run;
    }
  }
}

TEST(LazyLifecycle, ExecuteReleasesTheRunsDocuments) {
  // Each query leaves items in an operator's buffers or a function frame
  // when its run ends; each holds a construct the VM declines, so the vm
  // backend runs it whole on the lazy engine.
  const char* queries[] = {
      "count((//a | //c)[@id])",
      "string-join(for $a in (//a | //c)[b] order by $a/@id "
      "return string(($a/b)[last()]/../@id), ',')",
      "declare function local:ids($s) { if (empty($s)) then () else "
      "(string($s[1]/@id), local:ids(subsequence($s, 2))) }; "
      "exists(local:ids(//a))",
      "let $w := <w>{//a}</w> return count($w/a[b] | $w/c)",
  };
  XQueryEngine engine;
  for (const char* query : queries) {
    auto q = engine.Compile(query);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    CompiledQuery::ExecOptions vm;
    vm.backend = ExecBackend::kVm;
    EXPECT_NE(q.value()->ExplainTree(vm).find("[bailout:"), std::string::npos)
        << query;
    std::string expected;
    for (ExecBackend backend :
         {ExecBackend::kEager, ExecBackend::kLazy, ExecBackend::kVm}) {
      for (int run = 0; run < 2; ++run) {
        std::weak_ptr<const Document> weak;
        {
          std::shared_ptr<const Document> doc =
              Document::Parse(kDocB).ValueOrDie();
          weak = doc;
          const std::string got =
              RunOnce(*q.value(), WithContext(std::move(doc)), backend);
          if (expected.empty()) expected = got;
          EXPECT_EQ(got, expected) << query << " " << ExecBackendName(backend);
        }
        EXPECT_TRUE(weak.expired())
            << query << " " << ExecBackendName(backend) << " run " << run;
      }
    }
  }
}

TEST(LazyLifecycle, DroppedConstructedResultFreesItsArena) {
  // The construction arena belongs to the run's result: once the caller
  // drops the result, no pooled tree keeps the arena's document.
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister("d.xml", kDocA).ok());
  auto q = engine.Compile("<r>{doc('d.xml')//a[b] | doc('d.xml')//c}</r>");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  for (ExecBackend backend : {ExecBackend::kLazy, ExecBackend::kVm}) {
    for (int run = 0; run < 2; ++run) {
      CompiledQuery::ExecOptions exec;
      exec.backend = backend;
      std::weak_ptr<const Document> arena;
      {
        auto result = q.value()->Execute(exec);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result.value().size(), 1u);
        arena = result.value()[0].AsNode().doc_ptr();
        EXPECT_EQ(SerializeSequence(result.value()).value(),
                  "<r><a id=\"1\"><b/></a><a id=\"3\"><b/><b/></a></r>");
      }
      EXPECT_TRUE(arena.expired()) << ExecBackendName(backend);
    }
  }
}

}  // namespace
}  // namespace xqp
