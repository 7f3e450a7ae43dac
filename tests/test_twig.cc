#include "join/twig.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace xqp {
namespace {

using testing_util::RandomXml;

TwigPattern PathAB() {
  TwigPattern p;
  p.Add("a");
  p.output = p.Add("b", 0, false);
  return p;
}

TEST(TwigPattern, Shape) {
  TwigPattern p;
  p.Add("a");
  p.Add("b", 0, false);
  int c = p.Add("c", 0, true);
  p.output = c;
  EXPECT_FALSE(p.IsPath());
  EXPECT_EQ(p.ToString(), "//a[//b][/c*]");
  EXPECT_TRUE(PathAB().IsPath());
}

TEST(PathStack, SimplePath) {
  auto doc = Document::Parse("<r><a><b/><c><b/></c></a><b/></r>").value();
  TagIndex index(doc);
  auto result = std::move(PathStackMatch(index, PathAB())).ValueOrDie();
  EXPECT_EQ(result.size(), 2u);  // Both b's under a; outer b excluded.
}

TEST(PathStack, ChildEdgeRestricts) {
  auto doc = Document::Parse("<r><a><b/><c><b/></c></a></r>").value();
  TagIndex index(doc);
  TwigPattern p;
  p.Add("a");
  p.output = p.Add("b", 0, /*child_edge=*/true);
  auto result = std::move(PathStackMatch(index, p)).ValueOrDie();
  EXPECT_EQ(result.size(), 1u);
}

TEST(PathStack, OutputAtInnerLevel) {
  // //a//b with output = a: ancestors that contain a b.
  auto doc =
      Document::Parse("<r><a><b/></a><a><c/></a><a><x><b/></x></a></r>")
          .value();
  TagIndex index(doc);
  TwigPattern p;
  int a = p.Add("a");
  p.Add("b", a, false);
  p.output = a;
  auto result = std::move(PathStackMatch(index, p)).ValueOrDie();
  EXPECT_EQ(result.size(), 2u);
}

TEST(TwigStack, BranchingPattern) {
  // //a[b][c] output a.
  auto doc = Document::Parse(
                 "<r><a><b/><c/></a><a><b/></a><a><c/></a>"
                 "<a><x><b/></x><c/></a></r>")
                 .value();
  TagIndex index(doc);
  TwigPattern p;
  int a = p.Add("a");
  p.Add("b", a, false);
  p.Add("c", a, false);
  p.output = a;
  auto result = std::move(TwigStackMatch(index, p)).ValueOrDie();
  EXPECT_EQ(result.size(), 2u);  // First and last a.
}

TEST(TwigStack, SingleNodePattern) {
  auto doc = Document::Parse("<r><a/><a/></r>").value();
  TagIndex index(doc);
  TwigPattern p;
  p.Add("a");
  auto result = std::move(TwigStackMatch(index, p)).ValueOrDie();
  EXPECT_EQ(result.size(), 2u);
}

TEST(TwigStack, MissingTagYieldsEmpty) {
  auto doc = Document::Parse("<r><a/></r>").value();
  TagIndex index(doc);
  TwigPattern p;
  p.Add("a");
  p.output = p.Add("zzz", 0, false);
  auto result = std::move(TwigStackMatch(index, p)).ValueOrDie();
  EXPECT_TRUE(result.empty());
}

/// Property: holistic, binary-join, and navigation matchers agree on random
/// documents across a set of pattern shapes.
struct TwigParam {
  uint64_t seed;
  int pattern;  // 0 = //a//b, 1 = //a/b, 2 = //a[b]//c, 3 = //a[/b][//c]//d
};

TwigPattern MakePattern(int which) {
  TwigPattern p;
  switch (which) {
    case 0: {
      p.Add("a");
      p.output = p.Add("b", 0, false);
      break;
    }
    case 1: {
      p.Add("a");
      p.output = p.Add("b", 0, true);
      break;
    }
    case 2: {
      int a = p.Add("a");
      p.Add("b", a, false);
      p.output = p.Add("c", a, false);
      break;
    }
    default: {
      int a = p.Add("a");
      p.Add("b", a, true);
      p.Add("c", a, false);
      p.output = p.Add("d", a, false);
      break;
    }
  }
  return p;
}

class TwigEquivalenceTest : public ::testing::TestWithParam<TwigParam> {};

TEST_P(TwigEquivalenceTest, MatchersAgree) {
  auto [seed, pattern_id] = GetParam();
  auto doc = Document::Parse(RandomXml(seed, 400, 4)).value();
  TagIndex index(doc);
  TwigPattern pattern = MakePattern(pattern_id);

  TwigStats tw_stats{};
  TwigStats bj_stats{};
  auto tw = TwigStackMatch(index, pattern, &tw_stats);
  auto bj = BinaryJoinMatch(index, pattern, &bj_stats);
  auto nav = NavigationMatch(*doc, pattern);
  ASSERT_TRUE(tw.ok()) << tw.status().ToString();
  ASSERT_TRUE(bj.ok()) << bj.status().ToString();
  ASSERT_TRUE(nav.ok()) << nav.status().ToString();
  EXPECT_EQ(*tw, *nav) << pattern.ToString();
  EXPECT_EQ(*bj, *nav) << pattern.ToString();
  // The holistic claim: never more intermediate pairs than the binary plan.
  EXPECT_LE(tw_stats.intermediate_pairs, bj_stats.intermediate_pairs);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPatterns, TwigEquivalenceTest,
    ::testing::Values(TwigParam{1, 0}, TwigParam{2, 0}, TwigParam{3, 1},
                      TwigParam{4, 1}, TwigParam{5, 2}, TwigParam{6, 2},
                      TwigParam{7, 3}, TwigParam{8, 3}, TwigParam{9, 2},
                      TwigParam{10, 3}, TwigParam{11, 0}, TwigParam{12, 1}));

/// Fully randomized twig patterns (shape, edges, output node) against
/// random documents: the three matchers must always agree.
class RandomTwigTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTwigTest, MatchersAgreeOnRandomPatterns) {
  SplitMix64 rng(GetParam());
  auto doc = Document::Parse(RandomXml(GetParam() * 17 + 3, 350, 4)).value();
  TagIndex index(doc);
  for (int trial = 0; trial < 8; ++trial) {
    TwigPattern pattern;
    auto tag = [&] {
      return std::string(1, static_cast<char>('a' + rng.Below(4)));
    };
    int nodes = 2 + static_cast<int>(rng.Below(4));
    pattern.Add(tag());
    for (int n = 1; n < nodes; ++n) {
      int parent = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
      pattern.Add(tag(), parent, rng.Below(2) == 0);
    }
    pattern.output = static_cast<int>(rng.Below(pattern.nodes.size()));

    auto tw = TwigStackMatch(index, pattern);
    auto bj = BinaryJoinMatch(index, pattern);
    auto nav = NavigationMatch(*doc, pattern);
    ASSERT_TRUE(tw.ok() && bj.ok() && nav.ok()) << pattern.ToString();
    EXPECT_EQ(*tw, *nav) << pattern.ToString();
    EXPECT_EQ(*bj, *nav) << pattern.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTwigTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28, 29,
                                           30, 31, 32, 33, 34, 35, 36));

}  // namespace
}  // namespace xqp
