#include "query/parser.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine.h"
#include "query/normalize.h"

namespace xqp {
namespace {

/// Parses and normalizes, returning the body's s-expression dump. The free
/// variables used by the path tests are predeclared as externals.
std::string ParseDump(const std::string& query) {
  std::string prolog =
      "declare variable $x external; declare variable $a external; "
      "declare variable $b external; ";
  auto module = ParseQuery(query.find('$') != std::string::npos &&
                                   query.find("declare") == std::string::npos &&
                                   query.find("for") != 0 &&
                                   query.find("let") != 0 &&
                                   query.find("some") != 0 &&
                                   query.find("every") != 0
                               ? prolog + query
                               : query);
  if (!module.ok()) return "PARSE-ERROR: " + module.status().ToString();
  Status st = NormalizeModule(module->get());
  if (!st.ok()) return "NORMALIZE-ERROR: " + st.ToString();
  return (*module)->body->ToString();
}

TEST(QueryParser, Precedence) {
  EXPECT_EQ(ParseDump("1 + 2 * 3"), "(+ 1 (* 2 3))");
  EXPECT_EQ(ParseDump("(1 + 2) * 3"), "(* (+ 1 2) 3)");
  EXPECT_EQ(ParseDump("1 = 2 or 3 = 4 and 5 = 6"),
            "(or (= 1 2) (and (= 3 4) (= 5 6)))");
  EXPECT_EQ(ParseDump("1 to 2 + 3"), "(to 1 (+ 2 3))");
  EXPECT_EQ(ParseDump("-1 + 2"), "(+ (neg 1) 2)");
}

TEST(QueryParser, Comparisons) {
  EXPECT_EQ(ParseDump("1 eq 2"), "(eq 1 2)");
  EXPECT_EQ(ParseDump("1 < 2"), "(< 1 2)");
  EXPECT_EQ(ParseDump("1 << 2"), "(<< 1 2)");
  EXPECT_EQ(ParseDump("1 is 2"), "(is 1 2)");
}

TEST(QueryParser, Paths) {
  EXPECT_EQ(ParseDump("$x/a/b"),
            "(path/sort/dedup (path/sort/dedup $x child::a) child::b)");
  EXPECT_EQ(ParseDump("$x//a"),
            "(path/sort/dedup (path/sort/dedup $x "
            "descendant-or-self::node()) child::a)");
  EXPECT_EQ(ParseDump("$x/@y"), "(path/sort/dedup $x attribute::y)");
  EXPECT_EQ(ParseDump("$x/.."), "(path/sort/dedup $x parent::node())");
  EXPECT_EQ(ParseDump("$x/ancestor::a"),
            "(path/sort/dedup $x ancestor::a)");
  EXPECT_EQ(ParseDump("$x/child::text()"),
            "(path/sort/dedup $x child::text())");
}

TEST(QueryParser, PredicatesBindTighterThanSlash) {
  // The classic XPath mistake from the paper: $x/a/b[1] is $x/a/(b[1]).
  EXPECT_EQ(ParseDump("$x/a/b[1]"),
            "(path/sort/dedup (path/sort/dedup $x child::a) "
            "(filter child::b 1))");
  EXPECT_EQ(ParseDump("($x/a/b)[1]"),
            "(filter (path/sort/dedup (path/sort/dedup $x child::a) "
            "child::b) 1)");
}

TEST(QueryParser, Flwor) {
  EXPECT_EQ(ParseDump("for $x in (1,2) return $x"),
            "(flwor for $x in (seq 1 2) return $x)");
  EXPECT_EQ(ParseDump("for $x at $i in (1,2) return $i"),
            "(flwor for $x at $i in (seq 1 2) return $i)");
  EXPECT_EQ(ParseDump("let $y := 3 return $y"),
            "(flwor let $y := 3 return $y)");
  EXPECT_EQ(
      ParseDump("for $x in (1,2) where $x eq 1 order by $x descending "
                "return $x"),
      "(flwor for $x in (seq 1 2) where (eq $x 1) order-by $x descending "
      "return $x)");
}

TEST(QueryParser, Quantified) {
  EXPECT_EQ(ParseDump("some $x in (1,2) satisfies $x eq 1"),
            "(some $x in (seq 1 2) satisfies (eq $x 1))");
  EXPECT_EQ(ParseDump("every $x in (1,2), $y in (3,4) satisfies $x lt $y"),
            "(every $x in (seq 1 2) $y in (seq 3 4) satisfies (lt $x $y))");
}

TEST(QueryParser, IfAndTypeswitch) {
  EXPECT_EQ(ParseDump("if (1) then 2 else 3"), "(if 1 2 3)");
  EXPECT_EQ(ParseDump(
                "typeswitch (1) case xs:integer return 'i' default return 'o'"),
            "(typeswitch 1 case xs:integer return \"i\" default \"o\")");
}

TEST(QueryParser, TypesOperators) {
  EXPECT_EQ(ParseDump("1 instance of xs:integer"),
            "(instance-of 1 xs:integer)");
  EXPECT_EQ(ParseDump("'5' cast as xs:integer"),
            "(cast-as \"5\" xs:integer)");
  EXPECT_EQ(ParseDump("'x' castable as xs:double?"),
            "(castable-as \"x\" xs:double?)");
  EXPECT_EQ(ParseDump("(1,2) treat as item()+"),
            "(treat-as (seq 1 2) item()+)");
}

TEST(QueryParser, SetOperators) {
  EXPECT_EQ(ParseDump("$a union $b"), "(union $a $b)");
  EXPECT_EQ(ParseDump("$a | $b"), "(union $a $b)");
  EXPECT_EQ(ParseDump("$a intersect $b"), "(intersect $a $b)");
  EXPECT_EQ(ParseDump("$a except $b"), "(except $a $b)");
}

TEST(QueryParser, FunctionCallsResolve) {
  EXPECT_EQ(ParseDump("count((1,2))"), "(count (seq 1 2))");
  EXPECT_EQ(ParseDump("fn:count((1,2))"), "(fn:count (seq 1 2))");
  EXPECT_EQ(ParseDump("xf:empty(())"), "(xf:empty (seq))");
  // xs constructor becomes a cast.
  EXPECT_EQ(ParseDump("xs:integer('4')"), "(cast-as \"4\" xs:integer?)");
}

TEST(QueryParser, UnknownFunctionIsStaticError) {
  EXPECT_NE(ParseDump("nosuchfn(1)").find("NORMALIZE-ERROR"),
            std::string::npos);
  EXPECT_NE(ParseDump("count(1,2,3)").find("wrong number of arguments"),
            std::string::npos);
}

TEST(QueryParser, UndefinedVariableIsStaticError) {
  EXPECT_NE(ParseDump("$nope").find("undefined variable"), std::string::npos);
}

TEST(QueryParser, DirectConstructors) {
  EXPECT_EQ(ParseDump("<a/>"), "(element a)");
  EXPECT_EQ(ParseDump("<a x=\"1\">t</a>"),
            "(element a (attribute x \"1\") (text \"t\"))");
  EXPECT_EQ(ParseDump("<a>{1 + 2}</a>"), "(element a (+ 1 2))");
  EXPECT_EQ(ParseDump("<a x=\"v{1}w\"/>"),
            "(element a (attribute x \"v\" 1 \"w\"))");
  EXPECT_EQ(ParseDump("<a><b/>{2}</a>"), "(element a (element b) 2)");
  EXPECT_EQ(ParseDump("<a>{{literal}}</a>"),
            "(element a (text \"{literal}\"))");
}

TEST(QueryParser, DirectConstructorNamespaces) {
  auto module = ParseQuery("<p:a xmlns:p=\"urn:p\"><p:b/></p:a>");
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  const auto* ctor = static_cast<const ElementCtorExpr*>((*module)->body.get());
  EXPECT_EQ(ctor->name.uri, "urn:p");
  ASSERT_EQ(ctor->NumChildren(), 1u);
  const auto* inner = static_cast<const ElementCtorExpr*>(ctor->child(0));
  EXPECT_EQ(inner->name.uri, "urn:p");
}

TEST(QueryParser, ComputedConstructors) {
  EXPECT_EQ(ParseDump("element foo {1}"), "(element foo 1)");
  EXPECT_EQ(ParseDump("attribute bar {2}"), "(attribute bar 2)");
  EXPECT_EQ(ParseDump("text {3}"), "(text 3)");
  EXPECT_EQ(ParseDump("comment {'c'}"), "(comment-ctor \"c\")");
  EXPECT_EQ(ParseDump("document {<a/>}"), "(document (element a))");
  EXPECT_EQ(ParseDump("element {'dyn'} {}"),
            "(element <computed> \"dyn\" (seq))");
}

TEST(QueryParser, PrologNamespaces) {
  auto module = ParseQuery(
      "declare namespace my = \"urn:my\"; count(//my:item)");
  ASSERT_TRUE(module.ok()) << module.status().ToString();
}

TEST(QueryParser, PrologFunctionAndVariable) {
  auto module = ParseQuery(
      "declare variable $size := 10; "
      "declare function local:twice($n) { 2 * $n }; "
      "local:twice($size)");
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  ASSERT_TRUE(NormalizeModule(module->get()).ok());
  EXPECT_EQ((*module)->functions.size(), 1u);
  EXPECT_EQ((*module)->globals.size(), 1u);
  EXPECT_FALSE((*module)->functions[0].recursive);
}

TEST(QueryParser, RecursionDetection) {
  auto module = ParseQuery(
      "declare function local:f($n) { if ($n le 0) then 0 else "
      "local:f($n - 1) }; local:f(3)");
  ASSERT_TRUE(module.ok());
  ASSERT_TRUE(NormalizeModule(module->get()).ok());
  EXPECT_TRUE((*module)->functions[0].recursive);
}

TEST(QueryParser, MutualRecursionDetection) {
  auto module = ParseQuery(
      "declare function local:even($n) { if ($n eq 0) then true() else "
      "local:odd($n - 1) }; "
      "declare function local:odd($n) { if ($n eq 0) then false() else "
      "local:even($n - 1) }; "
      "local:even(4)");
  ASSERT_TRUE(module.ok());
  ASSERT_TRUE(NormalizeModule(module->get()).ok());
  EXPECT_TRUE((*module)->functions[0].recursive);
  EXPECT_TRUE((*module)->functions[1].recursive);
}

/// The parsed body's s-expression dump, before normalization (so unbound
/// variables and unknown functions still parse), or the parse error.
std::string RawDump(const std::string& query) {
  auto module = ParseQuery(query);
  if (!module.ok()) return "PARSE-ERROR: " + module.status().ToString();
  return (*module)->body->ToString();
}

/// One operator of the expression grammar's 13 precedence levels, loosest
/// (1, `or`) to tightest (13, unary sign). Binary operators are written
/// between two operands, postfix type operators after one.
struct PrecOp {
  int level;
  enum Form { kLeft, kNonAssoc, kPostfix } form;
  const char* text;  // Binary: the operator; postfix: the whole suffix.
  const char* tag;   // Binary: the dump's head; postfix: the dump's tail.
  const char* head;  // Postfix: the dump's head.
};

const std::vector<PrecOp>& PrecOps() {
  static const std::vector<PrecOp> ops = {
      {1, PrecOp::kLeft, "or", "or", ""},
      {2, PrecOp::kLeft, "and", "and", ""},
      {3, PrecOp::kNonAssoc, "=", "=", ""},
      {3, PrecOp::kNonAssoc, "!=", "!=", ""},
      {3, PrecOp::kNonAssoc, "<", "<", ""},
      {3, PrecOp::kNonAssoc, "<=", "<=", ""},
      {3, PrecOp::kNonAssoc, ">", ">", ""},
      {3, PrecOp::kNonAssoc, ">=", ">=", ""},
      {3, PrecOp::kNonAssoc, "<<", "<<", ""},
      {3, PrecOp::kNonAssoc, ">>", ">>", ""},
      {3, PrecOp::kNonAssoc, "eq", "eq", ""},
      {3, PrecOp::kNonAssoc, "ne", "ne", ""},
      {3, PrecOp::kNonAssoc, "lt", "lt", ""},
      {3, PrecOp::kNonAssoc, "le", "le", ""},
      {3, PrecOp::kNonAssoc, "gt", "gt", ""},
      {3, PrecOp::kNonAssoc, "ge", "ge", ""},
      {3, PrecOp::kNonAssoc, "is", "is", ""},
      {3, PrecOp::kNonAssoc, "isnot", "isnot", ""},
      {4, PrecOp::kNonAssoc, "to", "to", ""},
      {5, PrecOp::kLeft, "+", "+", ""},
      {5, PrecOp::kLeft, "-", "-", ""},
      {6, PrecOp::kLeft, "*", "*", ""},
      {6, PrecOp::kLeft, "div", "div", ""},
      {6, PrecOp::kLeft, "idiv", "idiv", ""},
      {6, PrecOp::kLeft, "mod", "mod", ""},
      {7, PrecOp::kLeft, "union", "union", ""},
      {7, PrecOp::kLeft, "|", "union", ""},
      {8, PrecOp::kLeft, "intersect", "intersect", ""},
      {8, PrecOp::kLeft, "except", "except", ""},
      {9, PrecOp::kPostfix, "instance of xs:integer", "xs:integer",
       "instance-of"},
      {10, PrecOp::kPostfix, "treat as xs:integer", "xs:integer", "treat-as"},
      {11, PrecOp::kPostfix, "castable as xs:integer", "xs:integer",
       "castable-as"},
      {12, PrecOp::kPostfix, "cast as xs:integer", "xs:integer", "cast-as"},
  };
  return ops;
}

std::string Bin(const PrecOp& op, const std::string& l, const std::string& r) {
  return std::string("(") + op.tag + " " + l + " " + r + ")";
}

std::string Post(const PrecOp& op, const std::string& e) {
  return std::string("(") + op.head + " " + e + " " + op.tag + ")";
}

bool IsErrorWith(const std::string& dump, const std::string& message) {
  return dump.rfind("PARSE-ERROR: ", 0) == 0 &&
         dump.find(message) != std::string::npos;
}

TEST(QueryParser, EveryPairOfPrecedenceLevelsInBothOrders) {
  const std::string trailing = "unexpected trailing content after query";
  int checked = 0;
  for (const PrecOp& a : PrecOps()) {
    for (const PrecOp& b : PrecOps()) {
      std::string q;
      std::string want;
      const bool a_post = a.form == PrecOp::kPostfix;
      const bool b_post = b.form == PrecOp::kPostfix;
      if (!a_post && !b_post) {
        q = std::string("1 ") + a.text + " 2 " + b.text + " 3";
        if (a.level > b.level ||
            (a.level == b.level && a.form == PrecOp::kLeft)) {
          want = Bin(b, Bin(a, "1", "2"), "3");
        } else if (a.level < b.level) {
          want = Bin(a, "1", Bin(b, "2", "3"));
        }
      } else if (!a_post && b_post) {
        q = std::string("1 ") + a.text + " 2 " + b.text;
        want = Bin(a, "1", Post(b, "2"));
      } else if (a_post && !b_post) {
        q = std::string("1 ") + a.text + " " + b.text + " 2";
        // A sequence type (instance of, treat as) reads a following `+` or
        // `*` as its occurrence indicator, leaving "2" unparsed.
        bool occurrence = a.level <= 10 && (std::string(b.text) == "+" ||
                                            std::string(b.text) == "*");
        if (!occurrence) want = Bin(b, Post(a, "1"), "2");
      } else {
        q = std::string("1 ") + a.text + " " + b.text;
        // Each type operator applies at most once, tighter ones first.
        if (a.level > b.level) want = Post(b, Post(a, "1"));
      }
      std::string got = RawDump(q);
      if (want.empty()) {
        EXPECT_TRUE(IsErrorWith(got, trailing)) << q << " => " << got;
      } else {
        EXPECT_EQ(got, want) << q;
      }
      ++checked;
    }
    // The unary sign (level 13) binds tighter than every other level.
    std::string neg = a.form == PrecOp::kPostfix
                          ? Post(a, "(neg 1)")
                          : Bin(a, "(neg 1)", "2");
    std::string q = a.form == PrecOp::kPostfix
                        ? std::string("- 1 ") + a.text
                        : std::string("- 1 ") + a.text + " 2";
    EXPECT_EQ(RawDump(q), neg) << q;
    if (a.form != PrecOp::kPostfix) {
      q = std::string("1 ") + a.text + " - 2";
      EXPECT_EQ(RawDump(q), Bin(a, "1", "(neg 2)")) << q;
    }
  }
  EXPECT_EQ(checked, 33 * 33);
}

TEST(QueryParser, LeftAssociativeLevels) {
  EXPECT_EQ(RawDump("1 or 2 or 3 or 4"), "(or (or (or 1 2) 3) 4)");
  EXPECT_EQ(RawDump("1 and 2 and 3"), "(and (and 1 2) 3)");
  EXPECT_EQ(RawDump("1 - 2 + 3 - 4"), "(- (+ (- 1 2) 3) 4)");
  EXPECT_EQ(RawDump("1 div 2 * 3 idiv 4 mod 5"),
            "(mod (idiv (* (div 1 2) 3) 4) 5)");
  EXPECT_EQ(RawDump("$a union $b | $c"), "(union (union $a $b) $c)");
  EXPECT_EQ(RawDump("$a intersect $b except $c intersect $d"),
            "(intersect (except (intersect $a $b) $c) $d)");
}

TEST(QueryParser, NonAssociativeLevelsAndDanglingOperators) {
  EXPECT_EQ(RawDump("1 = 2 = 3"),
            "PARSE-ERROR: Static error: 1:8: unexpected trailing content "
            "after query");
  EXPECT_EQ(RawDump("1 to 2 to 3"),
            "PARSE-ERROR: Static error: 1:10: unexpected trailing content "
            "after query");
  EXPECT_EQ(RawDump("1 +"),
            "PARSE-ERROR: Static error: 1:4: unexpected token in expression");
  EXPECT_EQ(RawDump("1 = "),
            "PARSE-ERROR: Static error: 1:5: unexpected token in expression");
  EXPECT_EQ(RawDump("1 or"),
            "PARSE-ERROR: Static error: 1:5: unexpected token in expression");
  EXPECT_EQ(RawDump("1 cast as"),
            "PARSE-ERROR: Static error: 1:10: expected a name");
  EXPECT_EQ(RawDump("1 instance of xs:integer instance of xs:integer"),
            "PARSE-ERROR: Static error: 1:34: unexpected trailing content "
            "after query");
  EXPECT_EQ(RawDump("1 instance xs:integer"),
            "PARSE-ERROR: Static error: 1:14: unexpected trailing content "
            "after query");
}

TEST(QueryParser, KeywordsUsedAsNames) {
  EXPECT_EQ(RawDump("/div/mod"),
            "(path/sort/dedup (path/sort/dedup (root) child::div) "
            "child::mod)");
  EXPECT_EQ(RawDump("div div div"), "(div child::div child::div)");
  EXPECT_EQ(RawDump("mod mod mod"), "(mod child::mod child::mod)");
  EXPECT_EQ(RawDump("$to to $to"), "(to $to $to)");
  EXPECT_EQ(RawDump("for $to in 1 to 2 return $to"),
            "(flwor for $to in (to 1 2) return $to)");
  EXPECT_EQ(RawDump("for/let/eq"),
            "(path/sort/dedup (path/sort/dedup child::for child::let) "
            "child::eq)");
  EXPECT_EQ(RawDump("$x/for/let/eq"),
            "(path/sort/dedup (path/sort/dedup (path/sort/dedup $x "
            "child::for) child::let) child::eq)");
  EXPECT_EQ(RawDump("eq eq eq"), "(eq child::eq child::eq)");
  EXPECT_EQ(RawDump("instance instance of element()"),
            "(instance-of child::instance element())");
  EXPECT_EQ(RawDump("cast cast as xs:string"),
            "(cast-as child::cast xs:string)");
}

TEST(QueryParser, StackedUnarySigns) {
  EXPECT_EQ(RawDump("- - + 1"), "(pos 1)");
  EXPECT_EQ(RawDump("- + - - 1"), "(neg 1)");
  EXPECT_EQ(RawDump("+1"), "(pos 1)");
  EXPECT_EQ(RawDump("1 - -2"), "(- 1 (neg 2))");
}

TEST(QueryParser, TreatThenInstanceOf) {
  EXPECT_EQ(RawDump("1 treat as xs:integer instance of xs:integer"),
            "(instance-of (treat-as 1 xs:integer) xs:integer)");
  EXPECT_EQ(RawDump("$x cast as xs:string castable as xs:integer treat as "
                    "xs:boolean instance of item()*"),
            "(instance-of (treat-as (castable-as (cast-as $x xs:string) "
            "xs:integer) xs:boolean) item()*)");
}

// Entity and character references decode the same way in string literals,
// attribute values and element content, and the same way the XML parser
// decodes them: the five predefined entities, decimal or hex digits that run
// to the ';', code points 1 to 0x10FFFF, UTF-8 of up to four bytes. `want`
// is the string value of the result, or the expected error text.
struct ReferenceCase {
  const char* query;
  const char* want;
  bool error;
};

TEST(QueryParser, CharacterReferencesDecodeLikeTheXmlParser) {
  const ReferenceCase kCases[] = {
      {"'&amp;&lt;&gt;&quot;&apos;'", "&<>\"'", false},
      {"string(<a>&amp;&lt;&gt;&quot;&apos;</a>)", "&<>\"'", false},
      {"string(<a b='&amp;&lt;&gt;&quot;&apos;'/>/@b)", "&<>\"'", false},
      {"'&#65;&#x42;'", "AB", false},
      {"string(<a>&#65;&#x42;</a>)", "AB", false},
      {"string(<a b='&#65;&#x42;'/>/@b)", "AB", false},
      {"'&#233;'", "\xC3\xA9", false},
      {"string(<a>&#233;</a>)", "\xC3\xA9", false},
      {"string(<a b='&#233;'/>/@b)", "\xC3\xA9", false},
      {"'&#x20AC;'", "\xE2\x82\xAC", false},
      {"string(<a>&#x20AC;</a>)", "\xE2\x82\xAC", false},
      {"string(<a b='&#x20AC;'/>/@b)", "\xE2\x82\xAC", false},
      {"'&#x1F600;'", "\xF0\x9F\x98\x80", false},
      {"string(<a>&#x1F600;</a>)", "\xF0\x9F\x98\x80", false},
      {"string(<a b='&#x1F600;'/>/@b)", "\xF0\x9F\x98\x80", false},
      {"'&#12abc;'", "bad character reference", true},
      {"<a>&#12abc;</a>", "bad character reference", true},
      {"<a b='&#12abc;'/>", "bad character reference", true},
      {"'&#xZZ;'", "bad character reference", true},
      {"<a>&#xZZ;</a>", "bad character reference", true},
      {"<a b='&#xZZ;'/>", "bad character reference", true},
      {"'&#0;'", "character reference out of range", true},
      {"<a>&#1114112;</a>", "character reference out of range", true},
      {"<a b='&#x110000;'/>", "character reference out of range", true},
      {"'&nope;'", "unknown entity: &nope;", true},
      {"<a>&nope;</a>", "unknown entity: &nope;", true},
      {"<a b='&nope;'/>", "unknown entity: &nope;", true},
  };
  XQueryEngine engine;
  for (const ReferenceCase& c : kCases) {
    Result<Sequence> r = engine.Execute(c.query);
    if (c.error) {
      if (r.ok()) {
        ADD_FAILURE() << c.query << ": expected an error";
        continue;
      }
      EXPECT_NE(r.status().message().find(c.want), std::string::npos)
          << c.query << ": " << r.status().ToString();
      continue;
    }
    if (!r.ok()) {
      ADD_FAILURE() << c.query << ": " << r.status().ToString();
      continue;
    }
    ASSERT_EQ(r.value().size(), 1u) << c.query;
    EXPECT_EQ(r.value()[0].AsAtomic().Lexical(), c.want) << c.query;
  }
}

struct BadQuery {
  const char* label;
  const char* query;
};

class BadQueryTest : public ::testing::TestWithParam<BadQuery> {};

TEST_P(BadQueryTest, Rejected) {
  auto module = ParseQuery(GetParam().query);
  if (module.ok()) {
    EXPECT_FALSE(NormalizeModule(module->get()).ok()) << GetParam().label;
  } else {
    EXPECT_EQ(module.status().code(), StatusCode::kStaticError)
        << GetParam().label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadQueryTest,
    ::testing::Values(
        BadQuery{"unclosed_paren", "(1, 2"},
        BadQuery{"missing_return", "for $x in (1,2) $x"},
        BadQuery{"bad_step", "$x/!"},
        BadQuery{"trailing", "1 1"},
        BadQuery{"unknown_axis", "$x/sideways::a"},
        BadQuery{"unclosed_ctor", "<a>"},
        BadQuery{"ctor_mismatch", "<a></b>"},
        BadQuery{"unclosed_brace", "<a>{1</a>"},
        BadQuery{"dup_function",
                 "declare function local:f() {1}; "
                 "declare function local:f() {2}; 1"},
        BadQuery{"validate", "validate { <a/> }"},
        BadQuery{"import", "import schema \"x\"; 1"}),
    [](const ::testing::TestParamInfo<BadQuery>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace xqp
