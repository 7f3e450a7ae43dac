// Unit tests of the AxisCursor navigation substrate, including the XPath
// partition invariant: for any context node, {self, ancestors, descendants,
// following, preceding} partition all non-attribute nodes of the document.

#include "exec/axes.h"

#include <set>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace xqp {
namespace {

using testing_util::RandomXml;

std::vector<NodeIndex> Collect(const Node& origin, Axis axis) {
  NodeTest any;  // node()
  Sequence out;
  CollectAxis(origin, axis, any, &out);
  std::vector<NodeIndex> indexes;
  for (const Item& item : out) indexes.push_back(item.AsNode().index());
  return indexes;
}

TEST(Axes, ChildOrderAndContent) {
  auto doc = Document::Parse("<r><a/>text<b/><!--c--><d/></r>").value();
  Node r(doc, 1);
  auto kids = Collect(r, Axis::kChild);
  ASSERT_EQ(kids.size(), 5u);
  for (size_t i = 1; i < kids.size(); ++i) EXPECT_LT(kids[i - 1], kids[i]);
  EXPECT_EQ(doc->node(kids[0]).kind, NodeKind::kElement);
  EXPECT_EQ(doc->node(kids[1]).kind, NodeKind::kText);
  EXPECT_EQ(doc->node(kids[3]).kind, NodeKind::kComment);
}

TEST(Axes, AttributesNotChildrenNorDescendants) {
  auto doc = Document::Parse("<r a=\"1\"><x b=\"2\"/></r>").value();
  Node r(doc, 1);
  for (NodeIndex i : Collect(r, Axis::kChild)) {
    EXPECT_NE(doc->node(i).kind, NodeKind::kAttribute);
  }
  for (NodeIndex i : Collect(r, Axis::kDescendant)) {
    EXPECT_NE(doc->node(i).kind, NodeKind::kAttribute);
  }
  EXPECT_EQ(Collect(r, Axis::kAttribute).size(), 1u);
}

TEST(Axes, ReverseAxesDeliverReverseDocumentOrder) {
  auto doc =
      Document::Parse("<r><a/><b/><c><d/></c><e/><f/></r>").value();
  // Context: <e>.
  NodeIndex e_idx = doc->FindNameId("", "e");
  NodeIndex e_node = kNullNode;
  for (NodeIndex i = 0; i < doc->NumNodes(); ++i) {
    if (doc->node(i).kind == NodeKind::kElement &&
        doc->node(i).name_id == e_idx) {
      e_node = i;
    }
  }
  Node e(doc, e_node);
  auto preceding_sibling = Collect(e, Axis::kPrecedingSibling);
  ASSERT_EQ(preceding_sibling.size(), 3u);
  for (size_t i = 1; i < preceding_sibling.size(); ++i) {
    EXPECT_GT(preceding_sibling[i - 1], preceding_sibling[i]);
  }
  auto ancestors = Collect(e, Axis::kAncestor);
  for (size_t i = 1; i < ancestors.size(); ++i) {
    EXPECT_GT(ancestors[i - 1], ancestors[i]);
  }
  auto preceding = Collect(e, Axis::kPreceding);
  for (size_t i = 1; i < preceding.size(); ++i) {
    EXPECT_GT(preceding[i - 1], preceding[i]);
  }
}

TEST(Axes, PrecedingExcludesAncestors) {
  auto doc = Document::Parse("<r><a><b/><c/></a></r>").value();
  // Context: <c> (index of c = after b).
  NodeIndex c_node = 4;
  ASSERT_EQ(doc->name(c_node).local, "c");
  auto preceding = Collect(Node(doc, c_node), Axis::kPreceding);
  // Only <b>; <a> and <r> are ancestors, excluded.
  ASSERT_EQ(preceding.size(), 1u);
  EXPECT_EQ(doc->name(preceding[0]).local, "b");
}

/// Two parentless trees appended to one document, as a construction arena
/// holds them: following and preceding stop at the origin's tree.
TEST(Axes, FollowingAndPrecedingStayInTheOriginTree) {
  DocumentBuilder builder;
  auto add_tree = [&](const char* outer, const char* inner) {
    const NodeIndex root = static_cast<NodeIndex>(builder.NumNodes());
    EXPECT_TRUE(builder.BeginElement(QName(outer)).ok());
    EXPECT_TRUE(builder.BeginElement(QName(inner)).ok());
    EXPECT_TRUE(builder.EndElement().ok());
    EXPECT_TRUE(builder.Text("t").ok());
    EXPECT_TRUE(builder.EndElement().ok());
    EXPECT_TRUE(builder.EndTree(root).ok());
    return root;
  };
  const NodeIndex a = add_tree("a", "b");  // a(1) b(2) t(3)
  const NodeIndex c = add_tree("c", "d");  // c(4) d(5) t(6)
  std::shared_ptr<const Document> doc = builder.document();
  ASSERT_EQ(doc->NumNodes(), 7u);
  EXPECT_EQ(doc->node(a).parent, kNullNode);
  EXPECT_EQ(doc->node(c).parent, kNullNode);
  EXPECT_EQ(doc->node(a).next_sibling, kNullNode);
  EXPECT_EQ(Collect(Node(doc, a + 1), Axis::kFollowing),
            std::vector<NodeIndex>{a + 2});
  EXPECT_TRUE(Collect(Node(doc, a + 2), Axis::kFollowing).empty());
  EXPECT_TRUE(Collect(Node(doc, a), Axis::kFollowing).empty());
  EXPECT_TRUE(Collect(Node(doc, c + 1), Axis::kPreceding).empty());
  EXPECT_EQ(Collect(Node(doc, c + 2), Axis::kPreceding),
            std::vector<NodeIndex>{c + 1});
  EXPECT_TRUE(Collect(Node(doc, c), Axis::kPreceding).empty());
  EXPECT_TRUE(Collect(Node(doc, c), Axis::kPrecedingSibling).empty());
  EXPECT_TRUE(Collect(Node(doc, a), Axis::kFollowingSibling).empty());
}

TEST(Axes, SelfAndParent) {
  auto doc = Document::Parse("<r><a x=\"1\"/></r>").value();
  Node a(doc, 2);
  EXPECT_EQ(Collect(a, Axis::kSelf), std::vector<NodeIndex>{2u});
  EXPECT_EQ(Collect(a, Axis::kParent), std::vector<NodeIndex>{1u});
  // Attribute's parent is its element.
  Node attr(doc, 3);
  ASSERT_EQ(attr.kind(), NodeKind::kAttribute);
  EXPECT_EQ(Collect(attr, Axis::kParent), std::vector<NodeIndex>{2u});
  // Document node has no parent.
  EXPECT_TRUE(Collect(Node(doc, 0), Axis::kParent).empty());
}

TEST(Axes, NameTestFiltersDuringWalk) {
  auto doc = Document::Parse("<r><a/><b/><a><a/></a></r>").value();
  NodeTest test = NodeTest::Name("", "a");
  Sequence out;
  CollectAxis(Node(doc, 1), Axis::kDescendant, test, &out);
  EXPECT_EQ(out.size(), 3u);
}

/// Partition invariant over random documents and every context node.
class AxisPartitionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AxisPartitionTest, FiveAxesPartitionTheDocument) {
  auto doc = Document::Parse(RandomXml(GetParam(), 120)).value();
  // All non-attribute nodes.
  std::set<NodeIndex> everything;
  for (NodeIndex i = 0; i < doc->NumNodes(); ++i) {
    if (doc->node(i).kind != NodeKind::kAttribute) everything.insert(i);
  }
  for (NodeIndex origin = 0; origin < doc->NumNodes(); ++origin) {
    if (doc->node(origin).kind == NodeKind::kAttribute) continue;
    Node node(doc, origin);
    std::set<NodeIndex> seen;
    size_t total = 0;
    for (Axis axis : {Axis::kSelf, Axis::kAncestor, Axis::kDescendant,
                      Axis::kFollowing, Axis::kPreceding}) {
      for (NodeIndex i : Collect(node, axis)) {
        EXPECT_TRUE(seen.insert(i).second)
            << "node " << i << " in two axes from origin " << origin;
        ++total;
      }
    }
    EXPECT_EQ(total, everything.size()) << "origin " << origin;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AxisPartitionTest,
                         ::testing::Values(3, 7, 19, 41, 83));

TEST(Axes, FollowingSiblingPlusPrecedingSiblingPlusSelfEqualsChildren) {
  auto doc = Document::Parse(RandomXml(11, 100)).value();
  for (NodeIndex origin = 1; origin < doc->NumNodes(); ++origin) {
    const NodeRecord& n = doc->node(origin);
    if (n.kind == NodeKind::kAttribute || n.parent == kNullNode) continue;
    Node node(doc, origin);
    size_t sibs = Collect(node, Axis::kFollowingSibling).size() +
                  Collect(node, Axis::kPrecedingSibling).size() + 1;
    size_t children = Collect(Node(doc, n.parent), Axis::kChild).size();
    EXPECT_EQ(sibs, children) << "origin " << origin;
  }
}

}  // namespace
}  // namespace xqp
