#include <span>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace xqp {
namespace {

using testing_util::RunAllWays;
using testing_util::RunQuery;

constexpr const char* kBib = R"(<bib>
<book year="1994"><title>TCP/IP Illustrated</title><author>Stevens</author><price>65.95</price></book>
<book year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><author>Suciu</author><price>39.95</price></book>
<book year="1999"><title>The Economics of Technology</title><author>Wilikens</author><price>129.95</price></book>
</bib>)";

struct QueryCase {
  const char* label;
  const char* query;
  const char* expect;
};

class XQueryTest : public ::testing::TestWithParam<QueryCase> {};

TEST_P(XQueryTest, AllEnginesAgreeOnExpected) {
  EXPECT_EQ(RunAllWays(GetParam().query, kBib), GetParam().expect);
}

INSTANTIATE_TEST_SUITE_P(
    Flwor, XQueryTest,
    ::testing::Values(
        QueryCase{"selection",
                  "for $b in doc('doc.xml')//book where $b/price < 50 "
                  "return string($b/title)",
                  "Data on the Web"},
        QueryCase{"let_binding",
                  "for $b in doc('doc.xml')//book let $a := $b/author "
                  "where count($a) > 1 return count($a)",
                  "3"},
        QueryCase{"positional_var",
                  "string-join(for $b at $i in doc('doc.xml')//book "
                  "return concat($i, ':', $b/@year), ' ')",
                  "1:1994 2:2000 3:1999"},
        QueryCase{"multiple_for_join",
                  "count(for $x in (1,2), $y in (10,20,30) return $x * $y)",
                  "6"},
        QueryCase{"where_filters_tuples",
                  "string-join(for $x in (1,2,3,4) where $x mod 2 = 0 "
                  "return string($x), ',')",
                  "2,4"},
        QueryCase{"order_by_string",
                  "string-join(for $b in doc('doc.xml')//book "
                  "order by string($b/title) return string($b/@year), ' ')",
                  "2000 1994 1999"},
        QueryCase{"order_by_numeric",
                  "string-join(for $b in doc('doc.xml')//book "
                  "order by xs:double($b/price) descending "
                  "return string($b/@year), ' ')",
                  "1999 1994 2000"},
        QueryCase{"order_by_two_keys",
                  "string-join(for $p in (3,1,2,1) order by $p, $p return "
                  "string($p), '')",
                  "1123"},
        QueryCase{"order_stable",
                  "string-join(for $p at $i in ('b','a','c','a') "
                  "order by $p return string($i), '')",
                  "2413"},
        QueryCase{"order_empty_least",
                  "string-join(for $p in (2, 1) let $k := (if ($p = 1) "
                  "then () else $p) order by $k return string($p), '')",
                  "12"},
        QueryCase{"order_empty_greatest",
                  "string-join(for $p in (2, 1) let $k := (if ($p = 1) "
                  "then () else $p) order by $k empty greatest "
                  "return string($p), '')",
                  "21"},
        QueryCase{"nested_flwor",
                  "count(for $x in (1,2) return for $y in (1,2,3) "
                  "return $x+$y)",
                  "6"}),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      return info.param.label;
    });

INSTANTIATE_TEST_SUITE_P(
    ConstructorsAndControl, XQueryTest,
    ::testing::Values(
        QueryCase{"element_ctor",
                  "<res n=\"{count(doc('doc.xml')//book)}\"/>",
                  "<res n=\"3\"/>"},
        QueryCase{"nested_ctor", "<o><i>{1+1}</i></o>", "<o><i>2</i></o>"},
        QueryCase{"sequence_in_content", "<s>{1, 2, 3}</s>",
                  "<s>1 2 3</s>"},
        QueryCase{"adjacent_enclosed", "<s>{1}{2}</s>", "<s>12</s>"},
        QueryCase{"copy_semantics",
                  "count(let $x := <a><b/></a> return ($x, $x)/b)",
                  "1"},  // Same node twice => dedup to one.
        QueryCase{"computed_element", "element z { attribute q {5}, 'body' }",
                  "<z q=\"5\">body</z>"},
        QueryCase{"computed_dynamic_name",
                  "element {concat('a','b')} {}", "<ab/>"},
        QueryCase{"text_ctor", "<w>{text {40+2}}</w>", "<w>42</w>"},
        QueryCase{"comment_ctor", "comment {'hello'}", "<!--hello-->"},
        QueryCase{"pi_ctor", "processing-instruction tgt {'d'}", "<?tgt d?>"},
        QueryCase{"document_ctor", "count(document {<a/>}/a)", "1"},
        QueryCase{"if_branches",
                  "if (count(doc('doc.xml')//book) > 2) then 'many' "
                  "else 'few'",
                  "many"},
        QueryCase{"if_only_taken_branch_errors",
                  "if (true()) then 1 else 1 idiv 0", "1"},
        QueryCase{"typeswitch_int",
                  "typeswitch (42) case xs:string return 's' "
                  "case xs:integer return 'i' default return 'd'",
                  "i"},
        QueryCase{"typeswitch_var",
                  "typeswitch ((1,2)) case $v as xs:integer+ return "
                  "count($v) default return 0",
                  "2"},
        QueryCase{"typeswitch_node",
                  "typeswitch (<a/>) case element() return 'e' "
                  "default return 'o'",
                  "e"}),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      return info.param.label;
    });

INSTANTIATE_TEST_SUITE_P(
    OperatorsAndTypes, XQueryTest,
    ::testing::Values(
        QueryCase{"arith_promotion", "1 + 2.5", "3.5"},
        QueryCase{"div_integers", "7 div 2", "3.5"},
        QueryCase{"idiv", "7 idiv 2", "3"},
        QueryCase{"mod", "7 mod 2", "1"},
        QueryCase{"unary", "-(3 - 5)", "2"},
        QueryCase{"empty_arith", "() + 1", ""},
        QueryCase{"range", "string-join(for $i in 1 to 4 return string($i), "
                           "'')",
                  "1234"},
        QueryCase{"range_empty", "count(3 to 1)", "0"},
        QueryCase{"instance_of", "(1,2) instance of xs:integer*", "true"},
        QueryCase{"instance_of_occurrence", "(1,2) instance of xs:integer?",
                  "false"},
        QueryCase{"instance_integer_is_decimal", "1 instance of xs:decimal",
                  "true"},
        QueryCase{"castable", "'12' castable as xs:integer", "true"},
        QueryCase{"not_castable", "'x' castable as xs:integer", "false"},
        QueryCase{"cast", "xs:integer('7') + 1", "8"},
        QueryCase{"treat_ok", "count((1,2) treat as xs:integer+)", "2"},
        QueryCase{"quantified_some", "some $x in (1,2,3) satisfies $x > 2",
                  "true"},
        QueryCase{"quantified_every", "every $x in (1,2,3) satisfies $x > 0",
                  "true"},
        QueryCase{"quantified_empty_some",
                  "some $x in () satisfies $x", "false"},
        QueryCase{"quantified_empty_every",
                  "every $x in () satisfies $x", "true"}),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      return info.param.label;
    });

INSTANTIATE_TEST_SUITE_P(
    UserFunctions, XQueryTest,
    ::testing::Values(
        QueryCase{"simple_function",
                  "declare function local:inc($x) { $x + 1 }; local:inc(41)",
                  "42"},
        QueryCase{"typed_params",
                  "declare function local:add($x as xs:integer, $y as "
                  "xs:integer) as xs:integer { $x + $y }; local:add(20, 22)",
                  "42"},
        QueryCase{"recursion",
                  "declare function local:fib($n) { if ($n < 2) then $n "
                  "else local:fib($n - 1) + local:fib($n - 2) }; "
                  "local:fib(12)",
                  "144"},
        QueryCase{"mutual_recursion",
                  "declare function local:even($n) { if ($n eq 0) then "
                  "true() else local:odd($n - 1) }; declare function "
                  "local:odd($n) { if ($n eq 0) then false() else "
                  "local:even($n - 1) }; local:even(10)",
                  "true"},
        QueryCase{"function_on_nodes",
                  "declare function local:titles($d) { $d//title }; "
                  "count(local:titles(doc('doc.xml')))",
                  "3"},
        QueryCase{"globals",
                  "declare variable $limit := 50; "
                  "count(doc('doc.xml')//book[price < $limit])",
                  "1"},
        QueryCase{"global_uses_global",
                  "declare variable $a := 10; declare variable $b := $a * 2; "
                  "$b",
                  "20"}),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      return info.param.label;
    });

TEST(XQueryErrors, TreatFailureIsTypeError) {
  std::string r = RunQuery("(1,2) treat as xs:integer", kBib);
  EXPECT_NE(r.find("Type error"), std::string::npos) << r;
}

TEST(XQueryErrors, TreatMessagesMatchOnEveryBackend) {
  // One shared check raises these on the eager, lazy and vm backends.
  EXPECT_EQ(RunAllWays("(1,2) treat as xs:integer", kBib),
            "ERROR: Type error: treat as xs:integer: more than one item");
  EXPECT_EQ(RunAllWays("doc('doc.xml')//none treat as xs:integer", kBib),
            "ERROR: Type error: treat as xs:integer: empty sequence");
  EXPECT_EQ(RunAllWays("('a', 1) treat as xs:integer+", kBib),
            "ERROR: Type error: treat as xs:integer+: item type mismatch");
  EXPECT_EQ(RunAllWays("(1, 2)[. > 1] treat as empty-sequence()", kBib),
            "ERROR: Type error: treat as empty-sequence(): non-empty input");
}

TEST(XQueryErrors, OperatorResultsMatchOnEveryBackend) {
  // Ranges, casts, type tests, set operations, checked integer arithmetic
  // and node constructors: the exact result or error string, identical on
  // lazy, eager and vm, optimized and unoptimized.
  const QueryCase cases[] = {
      {"range_non_singleton", "(1, 2) to 3",
       "ERROR: Type error: range operands must be singletons"},
      {"range_uncastable_bound", "'a' to 3",
       "ERROR: Type error: cannot cast \"a\" to xs:integer"},
      {"range_empty_bound", "count(() to 3)", "0"},
      {"range_from_variables",
       "for $n in (2, 3) return string-join(for $i in $n to $n + 2 "
       "return string($i), '')",
       "234 345"},
      {"cast_empty", "() cast as xs:integer",
       "ERROR: Type error: cast of empty sequence to non-optional type"},
      {"cast_empty_optional", "count(() cast as xs:integer?)", "0"},
      {"cast_two_items", "(1, 2) cast as xs:integer",
       "ERROR: Type error: cast requires a singleton"},
      {"cast_bad_lexical", "'abc' cast as xs:integer",
       "ERROR: Type error: cannot cast \"abc\" to xs:integer"},
      {"cast_node", "doc('doc.xml')//book[1]/@year cast as xs:integer + 1",
       "1995"},
      {"castable",
       "(() castable as xs:integer, () castable as xs:integer?, "
       "'1' castable as xs:integer, (1, 2) castable as xs:integer, "
       "'x' castable as xs:integer)",
       "false true true false false"},
      {"instance_of",
       "(() instance of xs:integer, () instance of xs:integer?, "
       "1 instance of xs:integer, (1, 2) instance of xs:integer, "
       "(1, 2) instance of xs:integer+)",
       "false true true false true"},
      {"union_atomic_operand", "<a/> union 1",
       "ERROR: Type error: path/union result contains an atomic value; "
       "expected nodes only"},
      {"add_overflow", "9223372036854775807 + 1",
       "ERROR: Dynamic error: err:FOAR0002: integer overflow in addition"},
      {"add_overflow_variable",
       "for $x in (1, 9223372036854775807) return $x + 1",
       "ERROR: Dynamic error: err:FOAR0002: integer overflow in addition"},
      {"sub_overflow",
       "for $x in (0 - 9223372036854775807) return $x - 2",
       "ERROR: Dynamic error: err:FOAR0002: integer overflow in subtraction"},
      {"mul_overflow", "9223372036854775807 * 2",
       "ERROR: Dynamic error: err:FOAR0002: integer overflow in "
       "multiplication"},
      {"idiv_min_by_minus_one", "(-9223372036854775807 - 1) idiv -1",
       "ERROR: Dynamic error: err:FOAR0002: integer overflow in idiv"},
      {"mod_by_zero", "for $x in (5, 0) return 5 mod $x",
       "ERROR: Dynamic error: modulus by zero"},
      {"idiv_by_zero", "for $x in (5, 0) return 5 idiv $x",
       "ERROR: Dynamic error: integer division by zero"},
      {"duplicate_attribute", "<a x='1'>{attribute x {2}}</a>",
       "ERROR: Dynamic error: duplicate attribute: x"},
      {"attribute_after_content", "<a>t{attribute x {1}}</a>",
       "ERROR: Dynamic error: attribute \"x\" constructed after "
       "non-attribute content of element"},
      {"bad_element_name", "element {'1bad'} {}",
       "ERROR: Type error: invalid computed name: 1bad"},
      {"bad_attribute_name", "attribute {'a b'} {'v'}",
       "ERROR: Type error: invalid computed name: a b"},
      {"pi_bad_target", "processing-instruction {'t'} {'v'}",
       "COMPILE-ERROR: Static error: 1:25: expected processing-instruction "
       "target"},
      {"pi_target_xml", "processing-instruction xml {'x'}",
       "ERROR: Dynamic error: err:XQDY0064: processing-instruction target "
       "may not be 'xml'"},
      {"pi_target_xml_mixed_case", "<a>{processing-instruction XmL {'x'}}</a>",
       "ERROR: Dynamic error: err:XQDY0064: processing-instruction target "
       "may not be 'xml'"},
      {"direct_pi_target_xml", "<a><?xml version='1.0'?></a>",
       "COMPILE-ERROR: Static error: 1:9: err:XPST0003: "
       "processing-instruction target may not be 'xml'"},
  };
  for (const QueryCase& c : cases) {
    EXPECT_EQ(RunAllWays(c.query, kBib), c.expect) << c.label;
  }
}

// The focus (context item, position, size) and user-function calls, with
// and without an initial context item (the document node of kFocusDoc):
// the main body and global initializers see the initial context item, a
// function body sees no focus, whether it is inlined or not, and a call
// evaluates all of its arguments before it checks anything. Each case pins
// the exact result or error string on lazy, eager and vm, optimized and
// unoptimized.
constexpr const char* kFocusDoc = "<r><x>1</x><x>2</x></r>";

struct FocusCase {
  const char* label;
  const char* query;
  const char* without_context;
  const char* with_context;
};

void ExpectFocusCases(std::span<const FocusCase> cases) {
  for (const FocusCase& c : cases) {
    EXPECT_EQ(RunAllWays(c.query, kFocusDoc, false), c.without_context)
        << c.label;
    EXPECT_EQ(RunAllWays(c.query, kFocusDoc, true), c.with_context)
        << c.label << " (context item)";
  }
}

constexpr const char* kNoContextItem =
    "ERROR: Dynamic error: context item is not defined";

TEST(XQueryFocus, TopLevelSeesTheInitialContextItem) {
  const FocusCase cases[] = {
      {"dot", ".", kNoContextItem, "<r><x>1</x><x>2</x></r>"},
      {"position", "position()",
       "ERROR: Dynamic error: position() requires a context item", "1"},
      {"last", "last()",
       "ERROR: Dynamic error: last() requires a context item", "1"},
      {"name", "name()",
       "ERROR: Dynamic error: fn:name with no argument requires a context "
       "item",
       ""},
      {"string_length", "string-length()",
       "ERROR: Dynamic error: fn:string-length with no argument requires a "
       "context item",
       "2"},
      {"root", "/", kNoContextItem, "<r><x>1</x><x>2</x></r>"},
      {"child_step", "count(*)", kNoContextItem, "1"},
      {"predicate_focus", "(10, 20, 30)[position() = last()]", "30", "30"},
      {"global_initializer", "declare variable $v := count(.); $v",
       kNoContextItem, "1"},
  };
  ExpectFocusCases(cases);
}

TEST(XQueryFocus, FunctionBodiesSeeNoFocus) {
  const FocusCase cases[] = {
      {"dot", "declare function local:f() { . }; local:f()", kNoContextItem,
       kNoContextItem},
      {"dot_in_predicate",
       "declare function local:f() { . }; (10, 20)[local:f() = 20]",
       kNoContextItem, kNoContextItem},
      {"position", "declare function local:f() { position() }; local:f()",
       "ERROR: Dynamic error: position() requires a context item",
       "ERROR: Dynamic error: position() requires a context item"},
      {"position_in_predicate",
       "declare function local:f() { position() }; "
       "(10, 20)[local:f() = 2]",
       "ERROR: Dynamic error: position() requires a context item",
       "ERROR: Dynamic error: position() requires a context item"},
      {"name", "declare function local:f() { name() }; local:f()",
       "ERROR: Dynamic error: fn:name with no argument requires a context "
       "item",
       "ERROR: Dynamic error: fn:name with no argument requires a context "
       "item"},
      {"name_in_predicate",
       "declare function local:f() { name() }; (<a/>, <b/>)[local:f() = 'b']",
       "ERROR: Dynamic error: fn:name with no argument requires a context "
       "item",
       "ERROR: Dynamic error: fn:name with no argument requires a context "
       "item"},
      {"root_path", "declare function local:f() { //x }; local:f()",
       kNoContextItem, kNoContextItem},
      {"root_path_in_predicate",
       "declare function local:f() { //x }; "
       "(10, 20)[count(local:f()) = 2]",
       kNoContextItem, kNoContextItem},
      // A predicate inside the body binds its own focus.
      {"own_predicate",
       "declare function local:f($s) { $s[. > 1] }; local:f((1, 2, 3))",
       "2 3", "2 3"},
  };
  ExpectFocusCases(cases);
}

TEST(XQueryFocus, CallsEvaluateEveryArgumentFirst) {
  const FocusCase cases[] = {
      {"external_failing_argument",
       "declare function local:ext($x) external; "
       "local:ext(for $i in (5, 0) return 5 idiv $i)",
       "ERROR: Dynamic error: integer division by zero",
       "ERROR: Dynamic error: integer division by zero"},
      {"recursive_wrong_type_then_failing_argument",
       "declare function local:r($n as xs:integer, $s) { "
       "if ($n le 0) then $s else local:r($n - 1, $s) }; "
       "local:r('x', for $i in (5, 0) return 5 idiv $i)",
       "ERROR: Dynamic error: integer division by zero",
       "ERROR: Dynamic error: integer division by zero"},
      {"recursive_wrong_type",
       "declare function local:r($n as xs:integer, $s) { "
       "if ($n le 0) then $s else local:r($n - 1, $s) }; local:r('x', 1)",
       "ERROR: Type error: argument 1 of local:r does not match xs:integer",
       "ERROR: Type error: argument 1 of local:r does not match xs:integer"},
      {"recursive_ok",
       "declare function local:r($n as xs:integer, $s) { "
       "if ($n le 0) then $s else local:r($n - 1, $s) }; local:r(3, 'done')",
       "done", "done"},
  };
  ExpectFocusCases(cases);
}

TEST(XQuery, RangeEndingAtIntegerMaxStops) {
  // The last value of the range is INT64_MAX: stepping past it would
  // overflow instead of ending the range.
  EXPECT_EQ(RunAllWays("count(9223372036854775806 to 9223372036854775807)"),
            "2");
  EXPECT_EQ(RunAllWays("string-join(for $i in 9223372036854775807 to "
                       "9223372036854775807 return string($i), ',')"),
            "9223372036854775807");
}

TEST(XQueryErrors, DivisionByZero) {
  std::string r = RunQuery("1 idiv 0", kBib);
  EXPECT_NE(r.find("Dynamic error"), std::string::npos) << r;
}

TEST(XQueryErrors, RecursionDepthBounded) {
  std::string r = RunQuery(
      "declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)",
      kBib);
  EXPECT_NE(r.find("recursion depth"), std::string::npos) << r;
}

TEST(XQueryErrors, ParamTypeMismatch) {
  std::string r = RunQuery(
      "declare function local:f($x as xs:integer) { $x }; local:f('s')",
      kBib);
  EXPECT_NE(r.find("ERROR"), std::string::npos) << r;
}

TEST(XQuery, ConstructedNodesHaveFreshIdentity) {
  // Two evaluations of the same constructor create distinct nodes.
  EXPECT_EQ(RunAllWays("let $f := <a/> let $g := <a/> return $f is $g"),
            "false");
  EXPECT_EQ(RunAllWays("let $f := <a/> return $f is $f"), "true");
}

TEST(XQuery, DeepEqualVsIdentity) {
  EXPECT_EQ(RunAllWays("deep-equal(<a x=\"1\">t</a>, <a x=\"1\">t</a>)"),
            "true");
  EXPECT_EQ(RunAllWays("deep-equal(<a/>, <b/>)"), "false");
}

}  // namespace
}  // namespace xqp
