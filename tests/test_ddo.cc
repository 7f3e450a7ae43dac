// Tests of the document-order / duplicate-elimination elision analysis —
// the paper's "How can we deal with path expressions?" slide:
//   $document/a/b/c     ordered, distinct
//   $document/a//b      ordered, distinct
//   $document//a/b      NOT ordered... (in our lattice: ordered after
//                       sorting //a; distinct always)
//   $document//a//b     nothing guaranteed

#include <gtest/gtest.h>

#include "opt/rewriter.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace xqp {
namespace {

using testing_util::RunQuery;

/// Optimizes `query` and collects the (needs_sort, needs_dedup) flags of
/// every PathExpr, leftmost-innermost first.
std::vector<std::pair<bool, bool>> PathFlags(const std::string& query) {
  auto module = ParseQuery(
      "declare variable $document as document-node() external; " + query);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  EXPECT_TRUE(NormalizeModule(module->get()).ok());
  EXPECT_TRUE(OptimizeModule(module->get()).ok());
  std::vector<std::pair<bool, bool>> flags;
  std::function<void(const Expr*)> walk = [&](const Expr* e) {
    for (size_t i = 0; i < e->NumChildren(); ++i) walk(e->child(i));
    if (e->kind() == ExprKind::kPath) {
      const auto* p = static_cast<const PathExpr*>(e);
      flags.emplace_back(p->needs_sort, p->needs_dedup);
    }
  };
  walk((*module)->body.get());
  return flags;
}

bool AnySort(const std::vector<std::pair<bool, bool>>& flags) {
  for (auto& [s, d] : flags) {
    if (s) return true;
  }
  return false;
}
bool AnyDedup(const std::vector<std::pair<bool, bool>>& flags) {
  for (auto& [s, d] : flags) {
    if (d) return true;
  }
  return false;
}

TEST(DdoElision, ChildChainNeedsNothing) {
  auto flags = PathFlags("$document/a/b/c");
  EXPECT_FALSE(AnySort(flags));
  EXPECT_FALSE(AnyDedup(flags));
}

TEST(DdoElision, ChildThenDescendantNeedsNothing) {
  // $document/a//b: descendant step from sibling-disjoint nodes.
  auto flags = PathFlags("$document/a//b");
  EXPECT_FALSE(AnySort(flags));
  EXPECT_FALSE(AnyDedup(flags));
}

TEST(DdoElision, DescendantThenChildNeedsSortOnly) {
  // $document//a/b: children of (possibly nested) a's — duplicates are
  // impossible but document order is not guaranteed.
  auto flags = PathFlags("$document//a/b");
  EXPECT_TRUE(AnySort(flags));
  // The final child step must not require dedup.
  EXPECT_FALSE(flags.back().second);
}

TEST(DdoElision, DoubleDescendantNeedsEverything) {
  auto flags = PathFlags("$document//a//b");
  EXPECT_TRUE(flags.back().first || flags.back().second);
  EXPECT_TRUE(AnyDedup(flags));
}

TEST(DdoElision, AttributeStepKeepsGuarantees) {
  auto flags = PathFlags("$document/a/b/@id");
  EXPECT_FALSE(AnySort(flags));
  EXPECT_FALSE(AnyDedup(flags));
}

TEST(DdoElision, ParentStepKeepsDdo) {
  auto flags = PathFlags("$document/a/b/..");
  // Parent of multiple siblings duplicates; dedup must stay on.
  EXPECT_TRUE(flags.back().second || flags.back().first);
}

TEST(DdoElision, FilterPreservesGuarantees) {
  auto flags = PathFlags("$document/a[@id]/b[2]/c");
  EXPECT_FALSE(AnySort(flags));
  EXPECT_FALSE(AnyDedup(flags));
}

TEST(DdoElision, DisabledByOption) {
  auto module =
      ParseQuery("declare variable $document external; $document/a/b");
  ASSERT_TRUE(module.ok());
  ASSERT_TRUE(NormalizeModule(module->get()).ok());
  RewriterOptions options;
  options.ddo_elision = false;
  ASSERT_TRUE(OptimizeModule(module->get(), options).ok());
  const auto* path = static_cast<const PathExpr*>((*module)->body.get());
  EXPECT_TRUE(path->needs_sort);
  EXPECT_TRUE(path->needs_dedup);
}

/// The elision must never change results. Nested document with recursive
/// tags — the adversarial case for ordering bugs.
constexpr const char* kNested =
    "<r><a><b>1</b><a><b>2</b><b>3</b></a></a><b>4</b>"
    "<a><c><b>5</b></c></a></r>";

struct DdoCase {
  const char* label;
  const char* query;
};

class DdoSemanticsTest : public ::testing::TestWithParam<DdoCase> {};

TEST_P(DdoSemanticsTest, OptimizedEqualsUnoptimized) {
  std::string query = GetParam().query;
  std::string reference =
      RunQuery(query, kNested, ExecBackend::kEager, false);
  ASSERT_EQ(reference.find("ERROR"), std::string::npos) << reference;
  EXPECT_EQ(RunQuery(query, kNested, ExecBackend::kEager, true), reference);
  EXPECT_EQ(RunQuery(query, kNested, ExecBackend::kLazy, true), reference);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, DdoSemanticsTest,
    ::testing::Values(
        DdoCase{"child_chain", "string-join(doc('doc.xml')/r/a/b, '')"},
        DdoCase{"child_desc", "string-join(doc('doc.xml')/r//b, '')"},
        DdoCase{"desc_child", "string-join(doc('doc.xml')//a/b, '')"},
        DdoCase{"desc_desc", "string-join(doc('doc.xml')//a//b, '')"},
        DdoCase{"desc_desc_count", "count(doc('doc.xml')//a//b)"},
        DdoCase{"parent_hop", "string-join(doc('doc.xml')//b/../b, '')"},
        DdoCase{"attr", "count(doc('doc.xml')//a/@*)"}),
    [](const ::testing::TestParamInfo<DdoCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace xqp
