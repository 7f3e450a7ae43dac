// Path-synopsis / value-index subsystem tests: build correctness on edge
// documents, index-answered queries against the navigational reference,
// planner fallback behavior, cache lifecycle, and resource governance of
// index builds. The randomized indexed-vs-unindexed cross-check lives in
// test_differential.cc; these are the targeted cases.

#include "index/document_indexes.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault.h"
#include "engine.h"
#include "index/index_manager.h"
#include "index/index_planner.h"
#include "tests/test_util.h"
#include "xmark/generator.h"

namespace xqp {
namespace {

std::string XMarkXml() {
  XMarkOptions options;
  options.scale = 0.02;
  return GenerateXMarkXml(options);
}

/// Serialized result of `query` on `engine`, lazy or eager.
std::string RunOn(XQueryEngine& engine, const std::string& query,
                bool lazy = true) {
  auto compiled = engine.Compile(query);
  EXPECT_TRUE(compiled.ok()) << query << ": "
                             << compiled.status().ToString();
  if (!compiled.ok()) return "COMPILE-ERROR";
  CompiledQuery::ExecOptions exec;
  exec.backend = lazy ? ExecBackend::kLazy : ExecBackend::kEager;
  auto result = compiled.value()->ExecuteToXml(exec);
  EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
  return result.ok() ? result.value() : "ERROR";
}

/// Asserts `query` produces identical bytes on an indexed and an unindexed
/// engine (both lazy and eager), returning the common serialization.
std::string ExpectIndexedMatchesPlain(const std::string& xml,
                                      const std::string& query) {
  XQueryEngine indexed;
  EngineOptions plain_options;
  plain_options.enable_indexes = false;
  XQueryEngine plain(plain_options);
  EXPECT_TRUE(indexed.ParseAndRegister("doc.xml", xml).ok());
  EXPECT_TRUE(plain.ParseAndRegister("doc.xml", xml).ok());
  std::string want = RunOn(plain, query);
  EXPECT_EQ(RunOn(indexed, query, /*lazy=*/true), want) << query;
  EXPECT_EQ(RunOn(indexed, query, /*lazy=*/false), want) << query;
  return want;
}

// --- DocumentIndexes build ------------------------------------------------

TEST(DocumentIndexes, EmptyDocument) {
  XQP_ASSERT_OK_AND_ASSIGN(auto doc, Document::Parse("<r/>"));
  XQP_ASSERT_OK_AND_ASSIGN(auto idx,
                           DocumentIndexes::Build(doc, kIndexValueAll));
  // Synopsis: document node + one path ("/r").
  EXPECT_EQ(idx->NumSynopsisNodes(), 2u);
  int32_t r = idx->FindChild(0, NodeKind::kElement, doc->FindNameId("", "r"));
  ASSERT_GE(r, 0);
  EXPECT_EQ(idx->postings(r).size(), 1u);
  // <r/> has empty text content, indexed as the empty string.
  const auto* vp = idx->values(r);
  ASSERT_NE(vp, nullptr);
  EXPECT_TRUE(vp->indexable);
  ASSERT_EQ(vp->by_string.size(), 1u);
  EXPECT_EQ(vp->by_string[0].first, "");
}

TEST(DocumentIndexes, DuplicateLocalsInDifferentNamespacesStayDistinct) {
  const char* xml =
      "<r xmlns:a='urn:a' xmlns:b='urn:b'>"
      "<a:x>1</a:x><b:x>2</b:x><a:x>3</a:x></r>";
  XQP_ASSERT_OK_AND_ASSIGN(auto doc, Document::Parse(xml));
  XQP_ASSERT_OK_AND_ASSIGN(auto idx,
                           DocumentIndexes::Build(doc, kIndexValueAll));
  int32_t r = idx->FindChild(0, NodeKind::kElement, doc->FindNameId("", "r"));
  ASSERT_GE(r, 0);
  int32_t ax =
      idx->FindChild(r, NodeKind::kElement, doc->FindNameId("urn:a", "x"));
  int32_t bx =
      idx->FindChild(r, NodeKind::kElement, doc->FindNameId("urn:b", "x"));
  ASSERT_GE(ax, 0);
  ASSERT_GE(bx, 0);
  EXPECT_NE(ax, bx);
  EXPECT_EQ(idx->postings(ax).size(), 2u);
  EXPECT_EQ(idx->postings(bx).size(), 1u);
}

TEST(DocumentIndexes, ElementContentPoisonsValuePostings) {
  XQP_ASSERT_OK_AND_ASSIGN(auto doc,
                           Document::Parse("<r><a>1</a><a><b/>2</a></r>"));
  XQP_ASSERT_OK_AND_ASSIGN(auto idx,
                           DocumentIndexes::Build(doc, kIndexValueAll));
  int32_t r = idx->FindChild(0, NodeKind::kElement, doc->FindNameId("", "r"));
  int32_t a = idx->FindChild(r, NodeKind::kElement, doc->FindNameId("", "a"));
  ASSERT_GE(a, 0);
  const auto* vp = idx->values(a);
  ASSERT_NE(vp, nullptr);
  // The second <a> has an element child: the whole (path, tag) family is
  // unindexable, and the planner must fall back.
  EXPECT_FALSE(vp->indexable);
}

TEST(DocumentIndexes, MixedTypeValuesDisableNumericFamily) {
  XQP_ASSERT_OK_AND_ASSIGN(
      auto doc, Document::Parse("<r><v>10</v><v>abc</v><v>2</v></r>"));
  XQP_ASSERT_OK_AND_ASSIGN(auto idx,
                           DocumentIndexes::Build(doc, kIndexValueAll));
  int32_t r = idx->FindChild(0, NodeKind::kElement, doc->FindNameId("", "r"));
  int32_t v = idx->FindChild(r, NodeKind::kElement, doc->FindNameId("", "v"));
  ASSERT_GE(v, 0);
  const auto* vp = idx->values(v);
  ASSERT_NE(vp, nullptr);
  EXPECT_TRUE(vp->indexable);
  EXPECT_FALSE(vp->all_numeric);  // "abc" does not cast to xs:double.
  EXPECT_TRUE(vp->by_number.empty());
  EXPECT_EQ(vp->by_string.size(), 3u);  // String family still serves = / !=.
}

TEST(DocumentIndexes, BuildFailsUnderFaultInjection) {
  XQP_ASSERT_OK_AND_ASSIGN(auto doc, Document::Parse(XMarkXml()));
  fault::ScopedFault fault("alloc", 1);
  auto idx = DocumentIndexes::Build(doc, kIndexValueAll);
  ASSERT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kInternal);
}

// --- IndexManager lifecycle -----------------------------------------------

TEST(IndexManager, CachesPerUriAndInvalidatesOnNewSnapshot) {
  IndexManager manager;
  XQP_ASSERT_OK_AND_ASSIGN(auto doc1, Document::Parse("<r><a>1</a></r>"));
  XQP_ASSERT_OK_AND_ASSIGN(
      auto first, manager.GetOrBuild("d.xml", doc1, kIndexValueAll));
  XQP_ASSERT_OK_AND_ASSIGN(
      auto again, manager.GetOrBuild("d.xml", doc1, kIndexValueAll));
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(manager.NumCached(), 1u);

  // A new document snapshot under the same URI must rebuild.
  XQP_ASSERT_OK_AND_ASSIGN(auto doc2, Document::Parse("<r><a>2</a></r>"));
  XQP_ASSERT_OK_AND_ASSIGN(
      auto rebuilt, manager.GetOrBuild("d.xml", doc2, kIndexValueAll));
  EXPECT_NE(rebuilt.get(), first.get());
  EXPECT_EQ(rebuilt->doc_ptr().get(), doc2.get());

  manager.Invalidate();
  EXPECT_EQ(manager.NumCached(), 0u);
}

TEST(IndexManager, ConcurrentGetOrBuildConverges) {
  IndexManager manager;
  XQP_ASSERT_OK_AND_ASSIGN(auto doc, Document::Parse(XMarkXml()));
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const DocumentIndexes>> got(kThreads);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto idx = manager.GetOrBuild("x.xml", doc, kIndexValueAll);
        if (idx.ok()) {
          got[t] = idx.value();
        } else {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(manager.NumCached(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(got[t], nullptr);
    EXPECT_EQ(got[t]->doc_ptr().get(), doc.get());
  }
}

// --- Engine integration ---------------------------------------------------

TEST(EngineIndex, RootedPathAnsweredBySynopsis) {
  ExpectIndexedMatchesPlain(XMarkXml(),
                            "doc('doc.xml')/site/people/person/name");
}

TEST(EngineIndex, DescendantPathAnsweredBySynopsis) {
  ExpectIndexedMatchesPlain(XMarkXml(), "doc('doc.xml')//item/name");
}

TEST(EngineIndex, NumericPredicateAnsweredByValueIndex) {
  ExpectIndexedMatchesPlain(XMarkXml(), "doc('doc.xml')//item[quantity < 3]");
  ExpectIndexedMatchesPlain(XMarkXml(), "doc('doc.xml')//item[quantity = 1]");
}

TEST(EngineIndex, AttributePredicateAnsweredByValueIndex) {
  ExpectIndexedMatchesPlain(XMarkXml(),
                            "doc('doc.xml')//person[@id = 'person0']");
  ExpectIndexedMatchesPlain(XMarkXml(),
                            "doc('doc.xml')//person[@id != 'person1']/name");
}

TEST(EngineIndex, MixedTypeContentFallsBackAndAgrees) {
  // "abc" poisons the numeric family, but string-family equality on the
  // same (path, tag) stays index-answered; dot predicates are not
  // plannable, so both engines navigate and must agree.
  const std::string xml = "<r><v>10</v><v>abc</v><v>2</v><v>7</v></r>";
  ExpectIndexedMatchesPlain(xml, "doc('doc.xml')/r[v = '7']");
  ExpectIndexedMatchesPlain(xml, "doc('doc.xml')/r[v != '2']");
  ExpectIndexedMatchesPlain(xml, "count(doc('doc.xml')//v[. = '7'])");
}

TEST(EngineIndex, EmptyAndMissingNamesAgree) {
  ExpectIndexedMatchesPlain("<r/>", "count(doc('doc.xml')//nothing)");
  ExpectIndexedMatchesPlain("<r/>", "doc('doc.xml')/r");
  ExpectIndexedMatchesPlain(
      "<r xmlns:a='urn:a'><a:x>1</a:x></r>",
      "count(doc('doc.xml')//x)");  // Unprefixed test: no-namespace only.
}

TEST(EngineIndex, DisabledEngineCompilesUnmarkedPlans) {
  EngineOptions options;
  options.enable_indexes = false;
  XQueryEngine plain(options);
  XQP_ASSERT_OK(plain.ParseAndRegister("d.xml", "<r><a/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(auto q, plain.Compile("doc('d.xml')/r/a"));
  EXPECT_EQ(q->ExplainTree().find("[index]"), std::string::npos);

  XQueryEngine indexed;
  XQP_ASSERT_OK(indexed.ParseAndRegister("d.xml", "<r><a/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(auto qi, indexed.Compile("doc('d.xml')/r/a"));
  EXPECT_NE(qi->ExplainTree().find("[index]"), std::string::npos);
}

TEST(EngineIndex, ReRegistrationInvalidatesAndReindexes) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><a>1</a></r>").status());
  EXPECT_EQ(RunOn(engine, "count(doc('d.xml')/r/a)"), "1");
  // Re-register under the same URI; the synopsis must describe the new
  // snapshot, not the cached one.
  XQP_ASSERT_OK(
      engine.ParseAndRegister("d.xml", "<r><a>1</a><a>2</a></r>").status());
  EXPECT_EQ(RunOn(engine, "count(doc('d.xml')/r/a)"), "2");
  EXPECT_EQ(RunOn(engine, "doc('d.xml')/r/a[. = 2]"), "<a>2</a>");
}

TEST(EngineIndex, BuildFailureUnderFaultPropagates) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", XMarkXml()).status());
  // Armed after registration so the first "alloc" hit lands in the index
  // build, not document parsing.
  fault::ScopedFault fault("alloc", 1);
  auto r = engine.Execute("doc('d.xml')/site/people/person/name");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  // Disarmed: the same query now succeeds and is index-answered.
  fault::Disarm();
  XQP_ASSERT_OK(engine.Execute("doc('d.xml')/site/people/person/name")
                    .status());
}

TEST(EngineIndex, BuildChargesMemoryBudget) {
  EngineOptions options;
  options.default_limits.memory_budget_bytes = 64 * 1024;  // Too small.
  XQueryEngine engine(options);
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", XMarkXml()).status());
  auto r = engine.Execute("doc('d.xml')/site/people/person/name");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineIndex, ValueKindsKnobLimitsFamilies) {
  EngineOptions options;
  options.index_value_kinds = 0;  // Synopsis only.
  XQueryEngine engine(options);
  XQP_ASSERT_OK(engine.ParseAndRegister(
                    "d.xml", "<r><a>1</a><a>2</a></r>")
                    .status());
  // Value predicates fall back to navigation but still answer correctly.
  EXPECT_EQ(RunOn(engine, "count(doc('d.xml')/r/a[. = 2])"), "1");
  // Pure paths remain synopsis-answerable.
  EXPECT_EQ(RunOn(engine, "count(doc('d.xml')/r/a)"), "2");
}

}  // namespace
}  // namespace xqp
