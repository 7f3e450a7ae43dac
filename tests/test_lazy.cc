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

}  // namespace
}  // namespace xqp
