#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace xqp {
namespace {

using testing_util::RunAllWays;

/// All queries run against this document, registered as doc("doc.xml").
constexpr const char* kDoc = R"(<site>
<a id="1"><b>x</b><b>y</b><c><b>z</b></c></a>
<a id="2"><c><d/></c></a>
<b>top</b>
<mixed>one <em>two</em> three<!--note--><?pi data?></mixed>
</site>)";

struct QueryCase {
  const char* label;
  const char* query;
  const char* expect;
};

class XPathTest : public ::testing::TestWithParam<QueryCase> {};

TEST_P(XPathTest, AllEnginesAgreeOnExpected) {
  EXPECT_EQ(RunAllWays(GetParam().query, kDoc), GetParam().expect);
}

INSTANTIATE_TEST_SUITE_P(
    Axes, XPathTest,
    ::testing::Values(
        QueryCase{"child", "count(doc('doc.xml')/site/a)", "2"},
        QueryCase{"descendant_all", "count(doc('doc.xml')//b)", "4"},
        QueryCase{"descendant_scoped", "count(doc('doc.xml')/site/a//b)", "3"},
        QueryCase{"attribute", "string(doc('doc.xml')/site/a[1]/@id)", "1"},
        QueryCase{"attribute_wild", "count(doc('doc.xml')//@*)", "2"},
        QueryCase{"parent",
                  "string(doc('doc.xml')//d/../../@id)", "2"},
        QueryCase{"self", "count(doc('doc.xml')//b/self::b)", "4"},
        QueryCase{"self_mismatch", "count(doc('doc.xml')//b/self::c)", "0"},
        QueryCase{"ancestor", "count(doc('doc.xml')//d/ancestor::*)", "3"},
        QueryCase{"ancestor_or_self",
                  "count(doc('doc.xml')//d/ancestor-or-self::*)", "4"},
        QueryCase{"descendant_axis",
                  "count(doc('doc.xml')/site/descendant::b)", "4"},
        QueryCase{"descendant_or_self_axis",
                  "count(doc('doc.xml')/site/descendant-or-self::*)", "12"},
        QueryCase{"following_sibling",
                  "count(doc('doc.xml')/site/a[1]/following-sibling::*)", "3"},
        QueryCase{"preceding_sibling",
                  "count(doc('doc.xml')/site/mixed/preceding-sibling::*)",
                  "3"},
        QueryCase{"following",
                  "count(doc('doc.xml')//c[1]/following::b)", "1"},
        QueryCase{"preceding",
                  "count(doc('doc.xml')/site/b/preceding::b)", "3"},
        QueryCase{"text_nodes", "string-join(doc('doc.xml')//a//text(), '|')",
                  "x|y|z"},
        QueryCase{"comment_node", "string(doc('doc.xml')//comment())",
                  "note"},
        QueryCase{"pi_node", "string(doc('doc.xml')//processing-instruction())",
                  "data"},
        QueryCase{"pi_named",
                  "count(doc('doc.xml')//processing-instruction('pi'))", "1"},
        QueryCase{"node_test", "count(doc('doc.xml')/site/mixed/node())",
                  "5"},
        QueryCase{"wildcard", "count(doc('doc.xml')/site/*)", "4"}),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      return info.param.label;
    });

INSTANTIATE_TEST_SUITE_P(
    Predicates, XPathTest,
    ::testing::Values(
        QueryCase{"positional_first",
                  "string-join(doc('doc.xml')//b[1], '|')", "x|z|top"},
        QueryCase{"positional_on_path",
                  "string-join(doc('doc.xml')/site/a/b[1], '|')", "x"},
        QueryCase{"parenthesized_position",
                  "string((doc('doc.xml')//b)[2])", "y"},
        QueryCase{"last_predicate",
                  "string(doc('doc.xml')/site/a[1]/b[last()])", "y"},
        QueryCase{"position_function",
                  "string-join(doc('doc.xml')/site/a[1]/b[position() ge 2], "
                  "'|')",
                  "y"},
        QueryCase{"value_predicate",
                  "count(doc('doc.xml')/site/a[@id = \"1\"])", "1"},
        QueryCase{"exist_predicate", "count(doc('doc.xml')//a[c])", "2"},
        QueryCase{"nested_predicate", "count(doc('doc.xml')//a[c[d]])", "1"},
        QueryCase{"chained_predicates",
                  "count(doc('doc.xml')//b[text()][1])", "3"},
        QueryCase{"boolean_numeric_mix",
                  "string-join(doc('doc.xml')//b[position() = (1, 3)], '|')",
                  "x|z|top"},
        QueryCase{"range_predicate",
                  "count((doc('doc.xml')//b)[position() = 1 to 3])", "3"},
        QueryCase{"empty_result", "count(doc('doc.xml')//nothing)", "0"}),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      return info.param.label;
    });

INSTANTIATE_TEST_SUITE_P(
    PathSemantics, XPathTest,
    ::testing::Values(
        // Document order and duplicate elimination on multi-origin paths.
        QueryCase{"doc_order",
                  "string-join(for $n in doc('doc.xml')//b return "
                  "string($n), '|')",
                  "x|y|z|top"},
        QueryCase{"union_sorts_dedups",
                  "count(doc('doc.xml')//b union doc('doc.xml')//b)", "4"},
        QueryCase{"union_mixed",
                  "count(doc('doc.xml')//c union doc('doc.xml')//b)", "6"},
        QueryCase{"intersect",
                  "count(doc('doc.xml')//a//b intersect doc('doc.xml')//b)",
                  "3"},
        QueryCase{"except",
                  "string(doc('doc.xml')//b except doc('doc.xml')//a//b)",
                  "top"},
        // Duplicate nodes in both operands: every set operation answers in
        // document order without duplicates.
        QueryCase{"union_duplicates",
                  "string-join((doc('doc.xml')//c/b, doc('doc.xml')//b) union "
                  "(doc('doc.xml')//b, doc('doc.xml')//c/b), '|')",
                  "x|y|z|top"},
        QueryCase{"intersect_duplicates",
                  "string-join((doc('doc.xml')//b, doc('doc.xml')//b) "
                  "intersect (doc('doc.xml')//a//b, doc('doc.xml')//a//b), "
                  "'|')",
                  "x|y|z"},
        QueryCase{"except_duplicates",
                  "string-join((doc('doc.xml')//b, doc('doc.xml')//b) except "
                  "(doc('doc.xml')//a//b, doc('doc.xml')//a//b), '|')",
                  "top"},
        QueryCase{"parent_dedup",
                  "count(doc('doc.xml')/site/a[1]/b/..)", "1"},
        QueryCase{"double_slash_then_child",
                  "count(doc('doc.xml')//c/b)", "1"},
        QueryCase{"atomic_path_tail",
                  "string-join(doc('doc.xml')/site/a/string(@id), '|')",
                  "1|2"}),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      return info.param.label;
    });

TEST(XPathErrors, MixedNodeAtomicPathFails) {
  std::string r = testing_util::RunQuery(
      "doc('doc.xml')/site/a/(if (@id = '1') then 1 else c)", kDoc);
  EXPECT_NE(r.find("ERROR"), std::string::npos);
}

TEST(XPathErrors, StepOnAtomicFails) {
  std::string r = testing_util::RunQuery("(1,2)/a", kDoc);
  EXPECT_NE(r.find("ERROR"), std::string::npos);
}

}  // namespace
}  // namespace xqp
