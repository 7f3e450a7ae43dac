#include "engine.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace xqp {
namespace {

TEST(Engine, RegisterAndQueryDocument) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("a.xml", "<a><b/></a>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r, engine.Execute("count(doc('a.xml')//b)"));
  EXPECT_EQ(r[0].AsAtomic().AsInt(), 1);
}

TEST(Engine, MissingDocumentIsDynamicError) {
  XQueryEngine engine;
  auto r = engine.Execute("doc('nope.xml')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDynamicError);
}

TEST(Engine, CompileErrorsSurfaceAsStaticErrors) {
  XQueryEngine engine;
  auto r = engine.Compile("for $x in");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kStaticError);
}

TEST(Engine, ExternalVariables) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(
      auto q, engine.Compile("declare variable $n external; $n * 2"));
  CompiledQuery::ExecOptions options;
  options.variables["n"] = Sequence{Item(AtomicValue::Integer(21))};
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r, q->Execute(options));
  EXPECT_EQ(r[0].AsAtomic().AsInt(), 42);
  // Unbound external is a dynamic error.
  EXPECT_FALSE(q->Execute().ok());
}

TEST(Engine, ContextItem) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto doc,
                           engine.ParseAndRegister("d.xml", "<r><x/></r>"));
  XQP_ASSERT_OK_AND_ASSIGN(auto q, engine.Compile("count(//x)"));
  CompiledQuery::ExecOptions options;
  options.has_context_item = true;
  options.context_item = Item(Node(doc, 0));
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r, q->Execute(options));
  EXPECT_EQ(r[0].AsAtomic().AsInt(), 1);
  // Without a context item, '//' has nothing to anchor on.
  EXPECT_FALSE(q->Execute().ok());
}

TEST(Engine, CompiledQueryIsReusable) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><x/><x/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(auto q, engine.Compile("count(doc('d.xml')//x)"));
  for (int i = 0; i < 3; ++i) {
    XQP_ASSERT_OK_AND_ASSIGN(Sequence r, q->Execute());
    EXPECT_EQ(r[0].AsAtomic().AsInt(), 2);
  }
}

TEST(Engine, ExplainShowsOptimizedPlan) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto q, engine.Compile("1 + 2"));
  EXPECT_EQ(q->ExplainTree(), "literal 3\n");
  XQueryEngine::CompileOptions raw;
  raw.optimize = false;
  XQP_ASSERT_OK_AND_ASSIGN(auto q2, engine.Compile("1 + 2", raw));
  EXPECT_EQ(q2->ExplainTree(), "arith +\n  literal 1\n  literal 2\n");
}

TEST(Engine, RewriteStatsExposed) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto q,
                           engine.Compile("let $x := 1 return $x + 1"));
  EXPECT_FALSE(q->rewrite_stats().empty());
}

TEST(Engine, SerializeSequenceMixesNodesAndAtomics) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto q, engine.Compile("(1, 2, <a/>, 'x')"));
  XQP_ASSERT_OK_AND_ASSIGN(std::string xml, q->ExecuteToXml());
  EXPECT_EQ(xml, "1 2<a/>x");
}

TEST(Engine, DocumentsVisibleAcrossQueries) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("x.xml", "<x/>").status());
  XQP_ASSERT_OK(engine.ParseAndRegister("y.xml", "<y/>").status());
  XQP_ASSERT_OK_AND_ASSIGN(
      Sequence r,
      engine.Execute("count((doc('x.xml')/x, doc('y.xml')/y))"));
  EXPECT_EQ(r[0].AsAtomic().AsInt(), 2);
}

TEST(Engine, NullDocumentRejected) {
  XQueryEngine engine;
  EXPECT_FALSE(engine.RegisterDocument("z.xml", nullptr).ok());
}

TEST(Engine, ResultStreamPullsIncrementally) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><x>1</x><x>2</x><x>3</x></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(auto q,
                           engine.Compile("doc('d.xml')//x/string()"));
  XQP_ASSERT_OK_AND_ASSIGN(auto stream, q->Open());
  Item item;
  XQP_ASSERT_OK_AND_ASSIGN(bool got, stream->Next(&item));
  ASSERT_TRUE(got);
  EXPECT_EQ(item.AsAtomic().Lexical(), "1");
  // Remaining items pull through the same stream.
  Sequence rest;
  while (true) {
    XQP_ASSERT_OK_AND_ASSIGN(bool more, stream->Next(&item));
    if (!more) break;
    rest.push_back(item);
  }
  XQP_ASSERT_OK_AND_ASSIGN(std::string xml, SerializeSequence(rest));
  EXPECT_EQ(xml, "2 3");
}

TEST(Engine, ResultStreamOnHugeSequenceIsLazy) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto q, engine.Compile("1 to 100000000"));
  XQP_ASSERT_OK_AND_ASSIGN(auto stream, q->Open());
  Item item;
  for (int i = 1; i <= 3; ++i) {
    XQP_ASSERT_OK_AND_ASSIGN(bool got, stream->Next(&item));
    ASSERT_TRUE(got);
    EXPECT_EQ(item.AsAtomic().AsInt(), i);
  }
}

TEST(Engine, TagIndexCachedPerDocument) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><a/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(auto i1, engine.GetTagIndex("d.xml"));
  XQP_ASSERT_OK_AND_ASSIGN(auto i2, engine.GetTagIndex("d.xml"));
  EXPECT_EQ(i1.get(), i2.get());
  EXPECT_FALSE(engine.GetTagIndex("missing.xml").ok());
}

TEST(Engine, MemoizationCachesPureQueries) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><x/><x/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r1,
                           engine.ExecuteCached("count(doc('d.xml')//x)"));
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r2,
                           engine.ExecuteCached("count(doc('d.xml')//x)"));
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  EXPECT_TRUE(SequencesIdentical(r1, r2));
}

TEST(Engine, MemoizationInvalidatedByRegistration) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><x/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r1,
                           engine.ExecuteCached("count(doc('d.xml')//x)"));
  EXPECT_EQ(r1[0].AsAtomic().AsInt(), 1);
  // Re-register with different content: the cache must not serve stale data.
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><x/><x/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r2,
                           engine.ExecuteCached("count(doc('d.xml')//x)"));
  EXPECT_EQ(r2[0].AsAtomic().AsInt(), 2);
  EXPECT_GE(engine.cache_stats().invalidations, 1u);
}

TEST(Engine, MemoizationSkipsNodeConstructors) {
  XQueryEngine engine;
  // Two runs must yield distinct node identities, so constructor queries
  // are never cached.
  XQP_ASSERT_OK_AND_ASSIGN(Sequence a, engine.ExecuteCached("<a/>"));
  XQP_ASSERT_OK_AND_ASSIGN(Sequence b, engine.ExecuteCached("<a/>"));
  EXPECT_FALSE(a[0].AsNode().SameNode(b[0].AsNode()));
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().uncacheable, 2u);
}

TEST(Engine, BaseUriRecorded) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto doc, engine.ParseAndRegister("u.xml", "<u/>"));
  EXPECT_EQ(doc->base_uri(), "u.xml");
}

}  // namespace
}  // namespace xqp
