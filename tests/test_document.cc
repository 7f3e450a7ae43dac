#include "xml/document.h"

#include <string>

#include <gtest/gtest.h>

#include "base/fault.h"
#include "base/limits.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xml/node.h"
#include "xml/serializer.h"

namespace xqp {
namespace {

using testing_util::RandomXml;

TEST(Document, BasicStructure) {
  auto doc = Document::Parse("<a x=\"1\"><b>t</b><c/></a>").value();
  // Rows: 0 doc, 1 a, 2 @x, 3 b, 4 text, 5 c.
  ASSERT_EQ(doc->NumNodes(), 6u);
  EXPECT_EQ(doc->node(0).kind, NodeKind::kDocument);
  EXPECT_EQ(doc->node(1).kind, NodeKind::kElement);
  EXPECT_EQ(doc->name(1).local, "a");
  EXPECT_EQ(doc->node(2).kind, NodeKind::kAttribute);
  EXPECT_EQ(doc->name(2).local, "x");
  EXPECT_EQ(doc->value(2), "1");
  EXPECT_EQ(doc->node(3).kind, NodeKind::kElement);
  EXPECT_EQ(doc->node(4).kind, NodeKind::kText);
  EXPECT_EQ(doc->value(4), "t");
  EXPECT_EQ(doc->node(5).kind, NodeKind::kElement);
  // Levels.
  EXPECT_EQ(doc->node(1).level, 1);
  EXPECT_EQ(doc->node(2).level, 2);
  EXPECT_EQ(doc->node(3).level, 2);
  EXPECT_EQ(doc->node(4).level, 3);
  // Region labels.
  EXPECT_EQ(doc->node(1).end, 5u);
  EXPECT_EQ(doc->node(3).end, 4u);
  EXPECT_EQ(doc->node(5).end, 5u);
  EXPECT_EQ(doc->node(0).end, 5u);
}

TEST(Document, SiblingAndChildLinks) {
  auto doc = Document::Parse("<a><b/><c/><d/></a>").value();
  const NodeRecord& a = doc->node(1);
  EXPECT_EQ(a.first_child, 2u);
  EXPECT_EQ(doc->node(2).next_sibling, 3u);
  EXPECT_EQ(doc->node(3).next_sibling, 4u);
  EXPECT_EQ(doc->node(4).next_sibling, kNullNode);
  EXPECT_EQ(doc->node(2).parent, 1u);
}

TEST(Document, AttributesChainSeparateFromChildren) {
  auto doc = Document::Parse("<a p=\"1\" q=\"2\"><b/></a>").value();
  const NodeRecord& a = doc->node(1);
  EXPECT_EQ(a.first_attr, 2u);
  EXPECT_EQ(doc->node(2).next_sibling, 3u);  // q.
  EXPECT_EQ(doc->node(3).next_sibling, kNullNode);
  EXPECT_EQ(a.first_child, 4u);  // b skips attributes.
}

TEST(Document, TextCoalescing) {
  // CDATA adjacent to text must merge into a single text node.
  auto doc = Document::Parse("<a>one<![CDATA[two]]>three</a>").value();
  ASSERT_EQ(doc->NumNodes(), 3u);
  EXPECT_EQ(doc->value(2), "onetwothree");
}

TEST(Document, StringValue) {
  auto doc = Document::Parse("<a>one<b>two<c>three</c></b>four</a>").value();
  EXPECT_EQ(doc->StringValue(1), "onetwothreefour");
  Node a(doc, 1);
  Node b = a.FirstChild().NextSibling();
  EXPECT_EQ(b.StringValue(), "twothree");
}

TEST(Document, TypedValueIsUntyped) {
  auto doc = Document::Parse("<a>42</a>").value();
  AtomicValue v = doc->TypedValue(1);
  EXPECT_EQ(v.type(), XsType::kUntypedAtomic);
  EXPECT_EQ(v.Lexical(), "42");
}

TEST(Document, RootElement) {
  auto doc = Document::Parse("<!-- c --><a/><?pi?>").value();
  EXPECT_EQ(doc->root_element(), 2u);
  EXPECT_EQ(doc->name(doc->root_element()).local, "a");
}

TEST(Document, FindNameId) {
  auto doc = Document::Parse("<a><b/><b/></a>").value();
  uint32_t b_id = doc->FindNameId("", "b");
  ASSERT_NE(b_id, kNoName);
  EXPECT_EQ(doc->node(2).name_id, b_id);
  EXPECT_EQ(doc->node(3).name_id, b_id);
  EXPECT_EQ(doc->FindNameId("", "zzz"), kNoName);
}

TEST(Document, UniqueIds) {
  auto d1 = Document::Parse("<a/>").value();
  auto d2 = Document::Parse("<a/>").value();
  EXPECT_NE(d1->id(), d2->id());
}

TEST(DocumentBuilder, CopySubtree) {
  auto src = Document::Parse("<a p=\"v\"><b>text</b><!--c--></a>").value();
  DocumentBuilder builder;
  XQP_ASSERT_OK(builder.BeginElement(QName("wrap")));
  XQP_ASSERT_OK(builder.CopySubtree(*src, 1));
  XQP_ASSERT_OK(builder.EndElement());
  auto copy = std::move(builder.Finish()).ValueOrDie();
  // wrap > a(p) > b > text, comment.
  EXPECT_EQ(copy->NumNodes(), 7u);
  EXPECT_EQ(copy->name(2).local, "a");
  EXPECT_EQ(copy->StringValue(1), "text");
}

/// The first difference between two node tables (kind, level, QName,
/// value and every link), or "" when they are equal.
std::string TableDiff(const Document& got, const Document& want) {
  if (got.NumNodes() != want.NumNodes()) {
    return "node count " + std::to_string(got.NumNodes()) + " vs " +
           std::to_string(want.NumNodes());
  }
  for (NodeIndex i = 0; i < got.NumNodes(); ++i) {
    const NodeRecord& g = got.node(i);
    const NodeRecord& w = want.node(i);
    const bool named = g.name_id != kNoName;
    const bool same =
        g.kind == w.kind && g.level == w.level && g.parent == w.parent &&
        g.next_sibling == w.next_sibling && g.first_attr == w.first_attr &&
        g.first_child == w.first_child && g.end == w.end &&
        named == (w.name_id != kNoName) &&
        (!named || (got.name(i).uri == want.name(i).uri &&
                    got.name(i).prefix == want.name(i).prefix &&
                    got.name(i).local == want.name(i).local)) &&
        got.value(i) == want.value(i);
    if (!same) return "row " + std::to_string(i);
  }
  return "";
}

/// Copies every element of `src` into a fresh builder and checks the copy
/// against Document::Parse of the element's serialization: the same node
/// table, the same serialization, and the source's namespace declarations.
void ExpectEveryElementCopiesExactly(const std::shared_ptr<Document>& src) {
  size_t elements = 0;
  for (NodeIndex e = 0; e < src->NumNodes(); ++e) {
    if (src->node(e).kind != NodeKind::kElement) continue;
    ++elements;
    DocumentBuilder builder;
    XQP_ASSERT_OK(builder.CopySubtree(*src, e));
    XQP_ASSERT_OK_AND_ASSIGN(std::shared_ptr<Document> copy,
                             builder.Finish());
    XQP_ASSERT_OK_AND_ASSIGN(std::string xml,
                             SerializeToString(Node(src, e)));
    XQP_ASSERT_OK_AND_ASSIGN(std::shared_ptr<Document> parsed,
                             Document::Parse(xml));
    ASSERT_EQ(TableDiff(*copy, *parsed), "") << "element row " << e;
    EXPECT_EQ(SerializeToString(Node(copy, 1)).ValueOrDie(), xml);
    EXPECT_EQ(SerializeToString(Node(parsed, 1)).ValueOrDie(), xml);
    for (NodeIndex i = 1; i < copy->NumNodes(); ++i) {
      const auto* want = src->NamespaceDecls(e + i - 1);
      const auto* got = copy->NamespaceDecls(i);
      ASSERT_EQ(got == nullptr, want == nullptr) << "row " << i;
      if (got == nullptr) continue;
      ASSERT_EQ(got->size(), want->size());
      for (size_t d = 0; d < got->size(); ++d) {
        EXPECT_EQ((*got)[d].prefix, (*want)[d].prefix);
        EXPECT_EQ((*got)[d].uri, (*want)[d].uri);
      }
    }
  }
  EXPECT_GT(elements, 0u);
}

/// The first difference between `n` rows of `got` from `got_base` and of
/// `want` from `want_base`, links compared relative to the bases (the
/// first row's parent is not compared), or "" when they are equal.
std::string RegionDiff(const Document& got, NodeIndex got_base,
                       const Document& want, NodeIndex want_base, size_t n) {
  auto rel = [](NodeIndex i, NodeIndex base) {
    return i == kNullNode ? kNullNode : i - base;
  };
  for (NodeIndex k = 0; k < n; ++k) {
    const NodeIndex gi = got_base + k, wi = want_base + k;
    const NodeRecord g = got.node(gi);
    const NodeRecord w = want.node(wi);
    const bool named = g.name_id != kNoName;
    const bool same =
        g.kind == w.kind && g.level == w.level &&
        (k == 0 || rel(g.parent, got_base) == rel(w.parent, want_base)) &&
        rel(g.next_sibling, got_base) == rel(w.next_sibling, want_base) &&
        rel(g.first_attr, got_base) == rel(w.first_attr, want_base) &&
        rel(g.first_child, got_base) == rel(w.first_child, want_base) &&
        rel(g.end, got_base) == rel(w.end, want_base) &&
        named == (w.name_id != kNoName) &&
        (!named || (got.name(gi) == want.name(wi) &&
                    got.name(gi).prefix == want.name(wi).prefix)) &&
        got.value(gi) == want.value(wi) &&
        (got.NamespaceDecls(gi) == nullptr) ==
            (want.NamespaceDecls(wi) == nullptr);
    if (!same) return "row " + std::to_string(k);
  }
  return "";
}

/// Copies every element of `src` into an arena tree, then copies that tree
/// again inside the arena (the in-place row move: no name map, no
/// re-interning) under a wrapper; the result must equal a wrapper built
/// by copying straight from `src`.
void ExpectInArenaCopiesMatch(const std::shared_ptr<Document>& src) {
  size_t elements = 0;
  DocumentBuilder arena;
  for (NodeIndex e = 0; e < src->NumNodes(); ++e) {
    if (src->node(e).kind != NodeKind::kElement) continue;
    ++elements;
    const size_t rows = src->node(e).end - e + 1;
    const NodeIndex first = static_cast<NodeIndex>(arena.NumNodes());
    XQP_ASSERT_OK(arena.CopySubtree(*src, e));
    XQP_ASSERT_OK(arena.EndTree(first));
    const NodeIndex second = static_cast<NodeIndex>(arena.NumNodes());
    XQP_ASSERT_OK(arena.BeginElement(QName("wrap")));
    XQP_ASSERT_OK(arena.CopySubtree(*arena.document(), first));
    XQP_ASSERT_OK(arena.EndElement());
    XQP_ASSERT_OK(arena.EndTree(second));

    DocumentBuilder reference;
    XQP_ASSERT_OK(reference.BeginElement(QName("wrap")));
    XQP_ASSERT_OK(reference.CopySubtree(*src, e));
    XQP_ASSERT_OK(reference.EndElement());
    XQP_ASSERT_OK_AND_ASSIGN(std::shared_ptr<Document> want,
                             reference.Finish());
    const Document& got = *arena.document();
    ASSERT_EQ(got.NumNodes(), size_t(second) + rows + 1);
    ASSERT_EQ(RegionDiff(got, second, *want, 1, rows + 1), "")
        << "element row " << e;
    EXPECT_EQ(got.node(second).parent, kNullNode);
    EXPECT_EQ(SerializeToString(Node(arena.document(), second)).ValueOrDie(),
              SerializeToString(Node(want, 1)).ValueOrDie());
  }
  EXPECT_GT(elements, 0u);
}

TEST(DocumentBuilder, InArenaCopyMatchesCopyFromSource) {
  ExpectInArenaCopiesMatch(
      Document::Parse(
          "<r xmlns=\"urn:d\" xmlns:p=\"urn:p\"><p:a p:x=\"1\" y=\"a&amp;b\">"
          "lead<b xmlns:q=\"urn:q\"><q:c q:z=\"\"/>t&lt;u</b><!--note-->"
          "<?proc some data?>tail</p:a><e xmlns=\"\"><f/></e>more<p:a/></r>")
          .ValueOrDie());
  XMarkOptions options;
  options.scale = 0.002;
  ExpectInArenaCopiesMatch(
      Document::Parse(GenerateXMarkXml(options)).ValueOrDie());
}

/// A failed tree leaves nothing behind: its rows and namespace
/// declarations go, and the next tree starts where it started.
TEST(DocumentBuilder, AbandonTreeDropsTheFailedTree) {
  DocumentBuilder arena;
  const NodeIndex kept = static_cast<NodeIndex>(arena.NumNodes());
  XQP_ASSERT_OK(arena.BeginElement(QName("k")));
  XQP_ASSERT_OK(arena.EndElement());
  XQP_ASSERT_OK(arena.EndTree(kept));
  const NodeIndex failed = static_cast<NodeIndex>(arena.NumNodes());
  XQP_ASSERT_OK(arena.BeginElement(QName("x")));
  XQP_ASSERT_OK(arena.NamespaceDecl("p", "urn:p"));
  XQP_ASSERT_OK(arena.Attribute(QName("a"), "1"));
  XQP_ASSERT_OK(arena.BeginElement(QName("y")));
  XQP_ASSERT_OK(arena.Attribute(QName("a"), "1"));
  EXPECT_FALSE(arena.Attribute(QName("a"), "2").ok());
  arena.AbandonTree(failed);
  EXPECT_EQ(arena.NumNodes(), size_t(failed));
  const NodeIndex next = static_cast<NodeIndex>(arena.NumNodes());
  EXPECT_EQ(next, failed);
  XQP_ASSERT_OK(arena.Text("t"));
  XQP_ASSERT_OK(arena.EndTree(next));
  const Document& doc = *arena.document();
  EXPECT_EQ(doc.NumNodes(), 3u);
  EXPECT_EQ(doc.NamespaceDecls(next), nullptr);
  EXPECT_EQ(doc.node(next).kind, NodeKind::kText);
  EXPECT_EQ(doc.node(next).parent, kNullNode);
  EXPECT_EQ(doc.node(kept).next_sibling, kNullNode);
  EXPECT_EQ(doc.node(0).first_child, kNullNode);
}

TEST(DocumentBuilder, CopySubtreeMatchesReparseOnXMark) {
  XMarkOptions options;
  options.scale = 0.01;
  ExpectEveryElementCopiesExactly(
      Document::Parse(GenerateXMarkXml(options)).ValueOrDie());
}

TEST(DocumentBuilder, CopySubtreeMatchesReparseOnNamespacedMixedContent) {
  ExpectEveryElementCopiesExactly(
      Document::Parse(
          "<r xmlns=\"urn:d\" xmlns:p=\"urn:p\"><p:a p:x=\"1\" y=\"a&amp;b\">"
          "lead<b xmlns:q=\"urn:q\"><q:c q:z=\"\"/>t&lt;u</b><!--note-->"
          "<?proc some data?>tail</p:a><e xmlns=\"\"><f/></e>more<p:a/></r>")
          .ValueOrDie());
}

TEST(DocumentBuilder, CopySubtreePastMaxDepthFails) {
  const uint32_t depth = QueryLimits::kDefaultMaxParseDepth;
  std::string xml;
  for (uint32_t i = 0; i < depth; ++i) xml += "<d>";
  for (uint32_t i = 0; i < depth; ++i) xml += "</d>";
  auto src = Document::Parse(xml).ValueOrDie();
  {
    DocumentBuilder builder;  // At the limit: fits exactly.
    XQP_ASSERT_OK(builder.CopySubtree(*src, 1));
    EXPECT_EQ(builder.NumNodes(), size_t(depth) + 1);
  }
  DocumentBuilder builder;
  XQP_ASSERT_OK(builder.BeginElement(QName("wrap")));
  Status st = builder.CopySubtree(*src, 1);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "element nesting exceeds maximum depth of " +
                              std::to_string(depth));
  EXPECT_EQ(builder.NumNodes(), 2u);  // The partial copy is dropped.
}

TEST(DocumentBuilder, CopySubtreeChargesEachRow) {
  // Rows a, @p, b, text, comment, pi: the "alloc" site fires on the nth
  // copied row for every n, and a copy needs exactly six charges.
  auto src =
      Document::Parse("<a p=\"1\"><b>t</b><!--c--><?pi d?></a>").ValueOrDie();
  for (uint64_t n = 1; n <= 7; ++n) {
    DocumentBuilder builder;
    XQP_ASSERT_OK(builder.BeginElement(QName("wrap")));
    fault::ScopedFault fault("alloc", n);
    Status st = builder.CopySubtree(*src, 1);
    if (n <= 6) {
      EXPECT_EQ(st.code(), StatusCode::kInternal) << n;
      EXPECT_EQ(builder.NumNodes(), 2u) << n;
    } else {
      XQP_ASSERT_OK(st);
      EXPECT_EQ(builder.NumNodes(), 8u);
    }
  }
}

TEST(DocumentBuilder, RejectsDuplicateAttributes) {
  DocumentBuilder builder;
  XQP_ASSERT_OK(builder.BeginElement(QName("a")));
  XQP_ASSERT_OK(builder.Attribute(QName("x"), "1"));
  EXPECT_FALSE(builder.Attribute(QName("x"), "2").ok());
}

TEST(DocumentBuilder, RejectsAttributeAfterContent) {
  DocumentBuilder builder;
  XQP_ASSERT_OK(builder.BeginElement(QName("a")));
  XQP_ASSERT_OK(builder.Text("t"));
  EXPECT_FALSE(builder.Attribute(QName("x"), "1").ok());
}

TEST(DocumentBuilder, RejectsUnclosedFinish) {
  DocumentBuilder builder;
  XQP_ASSERT_OK(builder.BeginElement(QName("a")));
  EXPECT_FALSE(builder.Finish().ok());
}

TEST(Node, NavigationAndIdentity) {
  auto doc = Document::Parse("<a><b/><c/></a>").value();
  Node a(doc, 1);
  Node b = a.FirstChild();
  Node c = b.NextSibling();
  EXPECT_EQ(b.name().local, "b");
  EXPECT_EQ(c.name().local, "c");
  EXPECT_TRUE(b.Parent().SameNode(a));
  EXPECT_FALSE(b.SameNode(c));
  EXPECT_LT(Node::CompareDocOrder(b, c), 0);
  EXPECT_GT(Node::CompareDocOrder(c, b), 0);
  EXPECT_EQ(Node::CompareDocOrder(b, b), 0);
  EXPECT_TRUE(a.IsAncestorOf(b));
  EXPECT_FALSE(b.IsAncestorOf(a));
  EXPECT_FALSE(b.IsAncestorOf(c));
}

/// Property: region labels must agree with the parent/child structure.
class RegionInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegionInvariantTest, LabelsConsistent) {
  auto doc = Document::Parse(RandomXml(GetParam(), 300)).value();
  for (NodeIndex i = 0; i < doc->NumNodes(); ++i) {
    const NodeRecord& n = doc->node(i);
    // end >= self, and within parent's region.
    EXPECT_GE(n.end, i);
    if (n.parent != kNullNode) {
      const NodeRecord& p = doc->node(n.parent);
      EXPECT_LT(n.parent, i);
      EXPECT_LE(n.end, p.end);
      EXPECT_EQ(n.level, p.level + 1);
    }
    // Children fall inside the region and chain consistently.
    for (NodeIndex c = n.first_child; c != kNullNode;
         c = doc->node(c).next_sibling) {
      EXPECT_EQ(doc->node(c).parent, i);
      EXPECT_GT(c, i);
      EXPECT_LE(doc->node(c).end, n.end);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionInvariantTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42, 99,
                                           1234));

TEST(Document, MemoryUsagePositive) {
  auto doc = Document::Parse(RandomXml(7, 500)).value();
  EXPECT_GT(doc->MemoryUsage(), doc->NumNodes() * sizeof(NodeRecord));
}

TEST(Document, PoolingOffIncreasesMemoryOnRepetitiveText) {
  std::string xml = "<r>";
  for (int i = 0; i < 200; ++i) xml += "<x>same repeated payload text</x>";
  xml += "</r>";
  ParseOptions pooled;
  ParseOptions unpooled;
  unpooled.pool_strings = false;
  auto d1 = Document::Parse(xml, pooled).value();
  auto d2 = Document::Parse(xml, unpooled).value();
  EXPECT_LT(d1->pool().MemoryUsage(), d2->pool().MemoryUsage());
}

}  // namespace
}  // namespace xqp
