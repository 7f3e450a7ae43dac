#include "join/structural_join.h"

#include <set>

#include <gtest/gtest.h>

#include "join/navigation.h"
#include "join/tag_index.h"
#include "tests/test_util.h"

namespace xqp {
namespace {

using testing_util::RandomXml;

uint64_t PairKey(NodeIndex a, NodeIndex d) {
  return (static_cast<uint64_t>(a) << 32) | d;
}

std::set<uint64_t> PairSet(const std::vector<JoinPair>& pairs) {
  std::set<uint64_t> out;
  for (const auto& p : pairs) out.insert(PairKey(p.ancestor, p.descendant));
  return out;
}

TEST(StructuralJoin, HandCheckedExample) {
  // a(1) contains b(2); a(3) nested in a(1) contains b(4).
  auto doc = Document::Parse("<r><a><b/><a><b/></a></a><b/></r>").value();
  TagIndex index(doc);
  auto pairs = StackTreeDesc(*doc, *index.Lookup("", "a"),
                             *index.Lookup("", "b"));
  // Pairs: (a1,b_first), (a1,b_inner), (a_inner,b_inner). Outer b excluded.
  EXPECT_EQ(pairs.size(), 3u);
}

TEST(StructuralJoin, ParentChildRestriction) {
  auto doc = Document::Parse("<r><a><b/><c><b/></c></a></r>").value();
  TagIndex index(doc);
  auto ad = StackTreeDesc(*doc, *index.Lookup("", "a"), *index.Lookup("", "b"),
                          /*parent_child=*/false);
  auto pc = StackTreeDesc(*doc, *index.Lookup("", "a"), *index.Lookup("", "b"),
                          /*parent_child=*/true);
  EXPECT_EQ(ad.size(), 2u);
  EXPECT_EQ(pc.size(), 1u);
}

TEST(StructuralJoin, StackTreeDescOutputSortedByDescendant) {
  auto doc = Document::Parse(RandomXml(17, 300)).value();
  TagIndex index(doc);
  const auto* a = index.Lookup("", "a");
  const auto* b = index.Lookup("", "b");
  ASSERT_TRUE(a != nullptr && b != nullptr);
  auto pairs = StackTreeDesc(*doc, *a, *b);
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LE(pairs[i - 1].descendant, pairs[i].descendant);
  }
}

TEST(StructuralJoin, StackTreeAncOutputSortedByAncestor) {
  auto doc = Document::Parse(RandomXml(18, 300)).value();
  TagIndex index(doc);
  const auto* a = index.Lookup("", "a");
  const auto* b = index.Lookup("", "b");
  ASSERT_TRUE(a != nullptr && b != nullptr);
  auto pairs = StackTreeAnc(*doc, *a, *b);
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LE(pairs[i - 1].ancestor, pairs[i].ancestor);
  }
}

TEST(StructuralJoin, SelfJoinExcludesIdentity) {
  // //a//a on recursive data: a node never pairs with itself.
  auto doc = Document::Parse("<r><a><a><a/></a></a></r>").value();
  TagIndex index(doc);
  auto pairs = StackTreeDesc(*doc, *index.Lookup("", "a"),
                             *index.Lookup("", "a"));
  EXPECT_EQ(pairs.size(), 3u);  // (a1,a2),(a1,a3),(a2,a3).
  for (const auto& p : pairs) EXPECT_NE(p.ancestor, p.descendant);
}

TEST(StructuralJoin, EmptyInputs) {
  auto doc = Document::Parse("<r><a/></r>").value();
  TagIndex index(doc);
  std::vector<NodeIndex> empty;
  EXPECT_TRUE(StackTreeDesc(*doc, empty, *index.Lookup("", "a")).empty());
  EXPECT_TRUE(StackTreeDesc(*doc, *index.Lookup("", "a"), empty).empty());
  EXPECT_TRUE(JoinDescendants(*doc, empty, empty).empty());
}

/// Property: all four pair algorithms and navigation agree on random
/// recursive documents (both axis modes).
struct JoinParam {
  uint64_t seed;
  bool parent_child;
};

class JoinEquivalenceTest
    : public ::testing::TestWithParam<JoinParam> {};

TEST_P(JoinEquivalenceTest, AllAlgorithmsAgree) {
  auto [seed, parent_child] = GetParam();
  auto doc = Document::Parse(RandomXml(seed, 400, 3)).value();
  TagIndex index(doc);
  const auto* a = index.Lookup("", "a");
  const auto* b = index.Lookup("", "b");
  if (a == nullptr || b == nullptr) GTEST_SKIP();

  auto std_pairs = StackTreeDesc(*doc, *a, *b, parent_child);
  auto reference = PairSet(std_pairs);
  EXPECT_EQ(PairSet(StackTreeAnc(*doc, *a, *b, parent_child)), reference);
  EXPECT_EQ(PairSet(MpmgJoin(*doc, *a, *b, parent_child)), reference);
  EXPECT_EQ(PairSet(NestedLoopJoin(*doc, *a, *b, parent_child)), reference);

  std::set<uint64_t> nav;
  for (auto [x, y] : NavigatePairs(*doc, "", "a", "", "b", parent_child)) {
    nav.insert(PairKey(x, y));
  }
  EXPECT_EQ(nav, reference);

  // Semi-join projections agree with navigation.
  EXPECT_EQ(JoinDescendants(*doc, *a, *b, parent_child),
            NavigateDescendants(*doc, "", "a", "", "b", parent_child));
  EXPECT_EQ(JoinAncestors(*doc, *a, *b, parent_child),
            NavigateAncestors(*doc, "", "a", "", "b", parent_child));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, JoinEquivalenceTest,
    ::testing::Values(JoinParam{1, false}, JoinParam{2, false},
                      JoinParam{3, false}, JoinParam{4, false},
                      JoinParam{5, false}, JoinParam{101, true},
                      JoinParam{102, true}, JoinParam{103, true},
                      JoinParam{104, true}, JoinParam{105, true}));

TEST(TagIndex, PostingsSortedAndComplete) {
  auto doc = Document::Parse(RandomXml(9, 200)).value();
  TagIndex index(doc);
  size_t total = 0;
  for (char tag = 'a'; tag <= 'd'; ++tag) {
    const auto* list = index.Lookup("", std::string(1, tag));
    if (list == nullptr) continue;
    total += list->size();
    for (size_t i = 1; i < list->size(); ++i) {
      EXPECT_LT((*list)[i - 1], (*list)[i]);
    }
    for (NodeIndex n : *list) {
      EXPECT_EQ(doc->node(n).kind, NodeKind::kElement);
      EXPECT_EQ(doc->name(n).local, std::string(1, tag));
    }
  }
  size_t elements = 0;
  for (NodeIndex i = 0; i < doc->NumNodes(); ++i) {
    elements += doc->node(i).kind == NodeKind::kElement;
  }
  EXPECT_EQ(total + index.Lookup("", "r")->size(), elements);
}

TEST(TagIndex, MissingTag) {
  auto doc = Document::Parse("<r/>").value();
  TagIndex index(doc);
  EXPECT_EQ(index.Lookup("", "nope"), nullptr);
}

}  // namespace
}  // namespace xqp
