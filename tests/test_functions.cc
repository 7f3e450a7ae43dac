#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace xqp {
namespace {

using testing_util::RunAllWays;
using testing_util::RunQuery;

struct FnCase {
  const char* label;
  const char* query;
  const char* expect;
  const char* doc = "";  // Registered as doc.xml when non-empty.
};

class FunctionsTest : public ::testing::TestWithParam<FnCase> {};

TEST_P(FunctionsTest, Expected) {
  EXPECT_EQ(RunAllWays(GetParam().query, GetParam().doc), GetParam().expect);
}

INSTANTIATE_TEST_SUITE_P(
    Aggregates, FunctionsTest,
    ::testing::Values(
        FnCase{"count", "count((1, 'a', <x/>))", "3"},
        FnCase{"count_empty", "count(())", "0"},
        FnCase{"sum", "sum((1, 2, 3))", "6"},
        FnCase{"sum_empty", "sum(())", "0"},
        FnCase{"sum_with_zero", "sum((), 100)", "100"},
        FnCase{"sum_doubles", "sum((1.5, 2.5))", "4"},
        FnCase{"sum_untyped", "sum((<a>1</a>, <a>2</a>))", "3"},
        FnCase{"avg", "avg((2, 4, 6))", "4"},
        FnCase{"avg_empty", "count(avg(()))", "0"},
        FnCase{"min", "min((5, 2, 9))", "2"},
        FnCase{"max", "max((5, 2, 9))", "9"},
        FnCase{"min_strings", "min(('pear', 'apple'))", "apple"},
        FnCase{"max_untyped_numeric", "max((<a>10</a>, <a>9</a>))", "10"}),
    [](const ::testing::TestParamInfo<FnCase>& info) {
      return info.param.label;
    });

INSTANTIATE_TEST_SUITE_P(
    Strings, FunctionsTest,
    ::testing::Values(
        FnCase{"concat", "concat('a', 1, 'b', ())", "a1b"},
        FnCase{"contains", "contains('banana', 'nan')", "true"},
        FnCase{"contains_empty_needle", "contains('x', '')", "true"},
        FnCase{"starts_with", "starts-with('banana', 'ban')", "true"},
        FnCase{"ends_with", "ends-with('banana', 'ana')", "true"},
        FnCase{"substring2", "substring('12345', 2)", "2345"},
        FnCase{"substring3", "substring('12345', 2, 3)", "234"},
        FnCase{"substring_rounding", "substring('12345', 1.5, 2.6)", "234"},
        FnCase{"substring_before", "substring-before('a=b', '=')", "a"},
        FnCase{"substring_after", "substring-after('a=b', '=')", "b"},
        FnCase{"substring_after_missing", "substring-after('ab', 'z')", ""},
        FnCase{"string_length", "string-length('hello')", "5"},
        FnCase{"string_length_empty_seq", "string-length(())", "0"},
        FnCase{"normalize_space", "normalize-space('  a   b ')", "a b"},
        FnCase{"upper", "upper-case('mIx')", "MIX"},
        FnCase{"lower", "lower-case('mIx')", "mix"},
        FnCase{"translate", "translate('abcabc', 'abc', 'AB')", "ABAB"},
        FnCase{"string_join", "string-join(('a','b','c'), '-')", "a-b-c"},
        FnCase{"string_of_node", "string(<a>hi<b>!</b></a>)", "hi!"},
        FnCase{"string_empty", "string(())", ""}),
    [](const ::testing::TestParamInfo<FnCase>& info) {
      return info.param.label;
    });

// The string functions count characters (code points), not UTF-8 bytes:
// U+00E9 is two bytes, U+20AC three and U+1F600 four.
INSTANTIATE_TEST_SUITE_P(
    Characters, FunctionsTest,
    ::testing::Values(
        FnCase{"string_length_two_byte", "string-length('&#233;')", "1"},
        FnCase{"string_length_mixed", "string-length('a&#x20AC;&#x1F600;b')",
               "4"},
        FnCase{"substring_two_byte", "substring('&#233;a', 1, 1)", "\xC3\xA9"},
        FnCase{"substring_after_multibyte", "substring('&#x20AC;&#x1F600;b', 2)",
               "\xF0\x9F\x98\x80" "b"},
        FnCase{"substring_middle", "substring('a&#233;&#x20AC;b', 2, 2)",
               "\xC3\xA9\xE2\x82\xAC"},
        FnCase{"translate_two_byte", "translate('&#233;', '&#233;', 'ab')",
               "a"},
        FnCase{"translate_into_multibyte", "translate('abc', 'b', '&#x20AC;')",
               "a\xE2\x82\xAC" "c"},
        FnCase{"translate_swaps_multibyte",
               "translate('&#233;&#x20AC;', '&#x20AC;&#233;', 'ab')", "ba"},
        FnCase{"translate_drops_multibyte",
               "translate('&#x1F600;&#233;', '&#233;&#x1F600;', '&#x20AC;')",
               "\xE2\x82\xAC"},
        FnCase{"parsed_string_length", "string-length(doc('doc.xml')/a)", "1",
               "<a>&#233;</a>"},
        FnCase{"parsed_substring", "substring(doc('doc.xml')/a, 2, 1)",
               "\xC3\xA9", "<a>x&#233;y</a>"},
        FnCase{"parsed_translate", "translate(doc('doc.xml')/a, '&#233;x', 'EX')",
               "XEy", "<a>x&#233;y</a>"}),
    [](const ::testing::TestParamInfo<FnCase>& info) {
      return info.param.label;
    });

INSTANTIATE_TEST_SUITE_P(
    Sequences, FunctionsTest,
    ::testing::Values(
        FnCase{"empty_true", "empty(())", "true"},
        FnCase{"empty_false", "empty((1))", "false"},
        FnCase{"exists", "exists((1))", "true"},
        FnCase{"distinct_values", "count(distinct-values((1, 2, 1, 2.0, 'x')))",
               "3"},
        FnCase{"distinct_untyped",
               "count(distinct-values((<a>q</a>, 'q')))", "1"},
        FnCase{"reverse", "string-join(reverse(('a','b','c')), '')", "cba"},
        FnCase{"subsequence2", "string-join(subsequence(('a','b','c'), 2), '')",
               "bc"},
        FnCase{"subsequence3",
               "string-join(subsequence(('a','b','c','d'), 2, 2), '')", "bc"},
        FnCase{"index_of", "string-join(for $i in index-of((3,1,3), 3) "
                           "return string($i), ',')",
               "1,3"},
        FnCase{"insert_before",
               "string-join(insert-before(('a','b'), 2, 'X'), '')", "aXb"},
        FnCase{"insert_at_end",
               "string-join(insert-before(('a','b'), 9, 'X'), '')", "abX"},
        FnCase{"remove", "string-join(remove(('a','b','c'), 2), '')", "ac"},
        FnCase{"head", "head((7,8,9))", "7"},
        FnCase{"tail", "string-join(for $t in tail((7,8,9)) return "
                       "string($t), ',')",
               "8,9"},
        FnCase{"zero_or_one_ok", "zero-or-one(())", ""},
        FnCase{"exactly_one", "exactly-one(5)", "5"},
        FnCase{"one_or_more", "count(one-or-more((1,2)))", "2"}),
    [](const ::testing::TestParamInfo<FnCase>& info) {
      return info.param.label;
    });

INSTANTIATE_TEST_SUITE_P(
    BooleansAndNumbers, FunctionsTest,
    ::testing::Values(
        FnCase{"not", "not(0)", "true"},
        FnCase{"boolean_string", "boolean('x')", "true"},
        FnCase{"boolean_empty_string", "boolean('')", "false"},
        FnCase{"true_false", "(true(), false())", "true false"},
        FnCase{"number", "number('3.5') + 0.5", "4"},
        FnCase{"number_invalid_nan", "string(number('zz'))", "NaN"},
        FnCase{"floor", "floor(2.7)", "2"},
        FnCase{"ceiling", "ceiling(2.1)", "3"},
        FnCase{"round_half_up", "round(2.5)", "3"},
        FnCase{"round_negative", "round(-2.5)", "-2"},
        FnCase{"abs", "abs(-4)", "4"},
        FnCase{"floor_integer_stays_integer", "floor(5) instance of "
                                              "xs:integer",
               "true"}),
    [](const ::testing::TestParamInfo<FnCase>& info) {
      return info.param.label;
    });

INSTANTIATE_TEST_SUITE_P(
    NodeFunctions, FunctionsTest,
    ::testing::Values(
        FnCase{"name", "name(<z:a xmlns:z=\"urn:z\"/>)", "z:a"},
        FnCase{"local_name", "local-name(<z:a xmlns:z=\"urn:z\"/>)", "a"},
        FnCase{"namespace_uri", "namespace-uri(<z:a xmlns:z=\"urn:z\"/>)",
               "urn:z"},
        FnCase{"name_of_text", "name(<a>t</a>/text())", ""},
        FnCase{"node_kind_fn", "node-kind(<a/>)", "element"},
        // A constructed element is the root of its own (parentless) tree.
        FnCase{"root_fn", "count(root(<a><b/></a>/b)/b)", "1"},
        FnCase{"data_fn", "data(<a>42</a>) + 1", "43"}),
    [](const ::testing::TestParamInfo<FnCase>& info) {
      return info.param.label;
    });

TEST(Functions, ErrorRaises) {
  std::string r = testing_util::RunQuery("error('boom')");
  EXPECT_NE(r.find("boom"), std::string::npos) << r;
}

TEST(Functions, DocAndCollection) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("a.xml", "<a/>").status());
  XQP_ASSERT_OK(engine.ParseAndRegister("b.xml", "<b/>").status());
  Sequence coll;
  {
    XQP_ASSERT_OK_AND_ASSIGN(auto da, engine.GetDocument("a.xml"));
    XQP_ASSERT_OK_AND_ASSIGN(auto db, engine.GetDocument("b.xml"));
    coll.push_back(Item(Node(da, 0)));
    coll.push_back(Item(Node(db, 0)));
  }
  XQP_ASSERT_OK(engine.RegisterCollection("all", std::move(coll)));
  XQP_ASSERT_OK_AND_ASSIGN(auto q,
                           engine.Compile("count(collection('all')/*)"));
  XQP_ASSERT_OK_AND_ASSIGN(Sequence result, q->Execute());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].AsAtomic().AsInt(), 2);
  // Missing document is a dynamic error.
  XQP_ASSERT_OK_AND_ASSIGN(auto q2, engine.Compile("doc('missing.xml')"));
  EXPECT_FALSE(q2->Execute().ok());
}

TEST(Functions, PositionAndLastInPredicates) {
  EXPECT_EQ(RunAllWays("string-join(('a','b','c')[position() > 1], '')"),
            "bc");
  EXPECT_EQ(RunAllWays("('a','b','c')[last()]"), "c");
  EXPECT_EQ(RunAllWays("('a','b','c')[last() - 1]"), "b");
}

TEST(Functions, TraceIsIdentity) {
  EXPECT_EQ(RunQuery("trace((1,2), 'label')"), "1 2");
}

}  // namespace
}  // namespace xqp
