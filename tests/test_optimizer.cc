#include "opt/rewriter.h"

#include <gtest/gtest.h>

#include "engine.h"
#include "opt/properties.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace xqp {
namespace {

using testing_util::RunQuery;

/// Compiles with the given rewriter options and returns (stats, dump).
std::pair<RewriteStats, std::string> Optimize(const std::string& query,
                                              const RewriterOptions& options) {
  auto module = ParseQuery(query);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  EXPECT_TRUE(NormalizeModule(module->get()).ok());
  auto stats = OptimizeModule(module->get(), options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return {std::move(stats).value(), (*module)->body->ToString()};
}

int RuleCount(const RewriteStats& stats, const std::string& rule) {
  auto it = stats.find(rule);
  return it == stats.end() ? 0 : it->second;
}

TEST(ConstantFolding, FoldsArithmetic) {
  auto [stats, dump] = Optimize("1 + 2 * 3", {});
  EXPECT_EQ(dump, "7");
  EXPECT_GE(RuleCount(stats, "constant-folding"), 1);
}

TEST(ConstantFolding, FoldsComparisonsAndLogic) {
  auto [stats, dump] = Optimize("if (1 < 2 and 3 = 3) then 'y' else 'n'", {});
  EXPECT_EQ(dump, "\"y\"");
}

TEST(ConstantFolding, FoldsPureFunctions) {
  auto [stats, dump] = Optimize("upper-case(concat('a', 'b'))", {});
  EXPECT_EQ(dump, "\"AB\"");
}

TEST(ConstantFolding, LeavesErrorsForRuntime) {
  auto [stats, dump] = Optimize("1 idiv 0", {});
  EXPECT_EQ(dump, "(idiv 1 0)");  // Folding declines; error stays dynamic.
}

TEST(ConstantFolding, DisabledByOption) {
  RewriterOptions options = RewriterOptions::AllOff();
  auto [stats, dump] = Optimize("1 + 2", options);
  EXPECT_EQ(dump, "(+ 1 2)");
  EXPECT_EQ(RuleCount(stats, "constant-folding"), 0);
}

TEST(BooleanSimplification, ShortCircuitsLiterals) {
  RewriterOptions options = RewriterOptions::AllOff();
  options.constant_folding = true;
  options.boolean_simplification = true;
  auto [stats, dump] =
      Optimize("declare variable $x external; false() and $x", options);
  EXPECT_EQ(dump, "false");
  EXPECT_GE(RuleCount(stats, "boolean-shortcircuit"), 1);
}

TEST(BooleanSimplification, NeutralElementDropped) {
  RewriterOptions options = RewriterOptions::AllOff();
  options.constant_folding = true;
  options.boolean_simplification = true;
  auto [stats, dump] =
      Optimize("declare variable $x external; true() and $x", options);
  EXPECT_EQ(dump, "(fn:boolean $x)");
  EXPECT_GE(RuleCount(stats, "boolean-neutral"), 1);
}

TEST(BooleanSimplification, IfPruning) {
  auto [stats, dump] = Optimize("if (1 = 1) then 'a' else 'b'", {});
  EXPECT_EQ(dump, "\"a\"");
}

TEST(LetFolding, InlinesSingleUse) {
  auto [stats, dump] =
      Optimize("declare variable $d external; "
               "for $b in $d let $t := $b/title where $t = 'x' return $b",
               {});
  EXPECT_GE(RuleCount(stats, "let-folding"), 1);
  EXPECT_EQ(dump.find("let"), std::string::npos) << dump;
}

TEST(LetFolding, PaperExample) {
  // let $x := 3 return $x + 2 folds to 5.
  auto [stats, dump] = Optimize("let $x := 3 return $x + 2", {});
  EXPECT_EQ(dump, "5");
}

TEST(LetFolding, KeepsNodeCtorUsedTwice) {
  // The paper's counterexample: let $x := <a/> return ($x, $x) must NOT
  // fold (two constructions would create two distinct nodes).
  auto [stats, dump] = Optimize("let $x := <a/> return ($x, $x)", {});
  EXPECT_NE(dump.find("let"), std::string::npos) << dump;
  EXPECT_EQ(RunQuery("let $x := <a/> return count(($x, $x)/self::a)"), "1");
}

TEST(LetFolding, DeadLetRemoved) {
  auto [stats, dump] =
      Optimize("for $b in (1,2) let $unused := $b * 100 return $b", {});
  EXPECT_GE(RuleCount(stats, "dead-let-elimination"), 1);
  EXPECT_EQ(dump.find("unused"), std::string::npos);
}

TEST(FlworCollapse, LetOnlyFlworBecomesBody) {
  auto [stats, dump] = Optimize("let $x := 3 return $x", {});
  EXPECT_EQ(dump, "3");
  EXPECT_GE(RuleCount(stats, "flwor-collapse"), 1);
}

TEST(FunctionInlining, InlinesNonRecursive) {
  auto [stats, dump] = Optimize(
      "declare function local:inc($x) { $x + 1 }; local:inc(41)", {});
  EXPECT_GE(RuleCount(stats, "function-inlining"), 1);
  EXPECT_EQ(dump, "42");  // Inlined, then folded.
}

TEST(FunctionInlining, SkipsRecursive) {
  auto [stats, dump] = Optimize(
      "declare function local:f($n) { if ($n le 0) then 0 else "
      "local:f($n - 1) }; local:f(3)",
      {});
  EXPECT_EQ(RuleCount(stats, "function-inlining"), 0);
  EXPECT_NE(dump.find("local:f"), std::string::npos);
}

TEST(FunctionInlining, RespectsSizeLimit) {
  RewriterOptions options;
  options.inline_size_limit = 1;
  auto [stats, dump] = Optimize(
      "declare function local:g($x) { $x + $x + $x }; local:g(1)", options);
  EXPECT_EQ(RuleCount(stats, "function-inlining"), 0);
}

TEST(FunctionInlining, KeepsParameterTypeCheck) {
  // Inlining must not drop declared parameter types.
  std::string r = RunQuery(
      "declare function local:f($x as xs:integer) { $x }; local:f('s')");
  EXPECT_NE(r.find("ERROR"), std::string::npos) << r;
}

TEST(FlworUnnesting, ForOverFlworSplices) {
  RewriterOptions options = RewriterOptions::AllOff();
  options.flwor_unnesting = true;
  auto [stats, dump] = Optimize(
      "declare variable $d external; "
      "for $x in (for $y in $d where $y = 3 return $y) return $x",
      options);
  EXPECT_GE(RuleCount(stats, "for-unnesting"), 1);
  EXPECT_EQ(dump.find("for $x in (flwor"), std::string::npos) << dump;
}

TEST(FlworUnnesting, ReturnFlworMerges) {
  RewriterOptions options = RewriterOptions::AllOff();
  options.flwor_unnesting = true;
  auto [stats, dump] = Optimize(
      "declare variable $d external; "
      "for $x in $d return for $y in $x return $y",
      options);
  EXPECT_GE(RuleCount(stats, "return-unnesting"), 1);
}

TEST(FlworUnnesting, PreservesSemantics) {
  std::string q =
      "for $x in (for $y in (1,2,3) where $y >= 2 return $y * 10) "
      "where $x < 25 return $x";
  EXPECT_EQ(RunQuery(q, "", ExecBackend::kLazy, true), "20");
  EXPECT_EQ(RunQuery(q, "", ExecBackend::kLazy, false), "20");
}

TEST(ForMinimization, ForReturnVarCollapses) {
  RewriterOptions options = RewriterOptions::AllOff();
  options.for_to_path = true;
  auto [stats, dump] = Optimize(
      "declare variable $d external; for $x in ($d//a) return $x", options);
  EXPECT_GE(RuleCount(stats, "for-minimization"), 1);
  EXPECT_EQ(dump.find("flwor"), std::string::npos) << dump;
}

TEST(Cse, FactorsRepeatedSubexpression) {
  auto [stats, dump] = Optimize(
      "declare variable $d external; "
      "for $x in (1 to 10) "
      "where count($d/long/path/one) > 0 "
      "return count($d/long/path/one) + $x",
      {});
  EXPECT_GE(RuleCount(stats, "cse-factorization"), 1);
  EXPECT_NE(dump.find("xqp-cse"), std::string::npos) << dump;
}

TEST(Cse, SkipsLoopDependentExpressions) {
  auto [stats, dump] = Optimize(
      "declare variable $d external; "
      "for $x in $d/things/thing "
      "where count($x/parts/part) > 1 "
      "return count($x/parts/part)",
      {});
  // Candidate references $x (bound by this FLWOR) — must not hoist.
  EXPECT_EQ(RuleCount(stats, "cse-factorization"), 0);
}

/// Every rewrite must preserve semantics: run a battery of queries fully
/// optimized on both engines and compare with unoptimized output.
struct AblationCase {
  const char* label;
  const char* query;
};

class AblationTest : public ::testing::TestWithParam<AblationCase> {};

TEST_P(AblationTest, SemanticsPreserved) {
  const char* doc =
      "<r><a><b>1</b><b>2</b></a><a><b>3</b></a><c><b>9</b></c></r>";
  std::string query = GetParam().query;
  std::string reference =
      RunQuery(query, doc, ExecBackend::kEager, /*optimize=*/false);
  ASSERT_EQ(reference.find("ERROR"), std::string::npos) << reference;
  EXPECT_EQ(RunQuery(query, doc, ExecBackend::kEager, true), reference);
  EXPECT_EQ(RunQuery(query, doc, ExecBackend::kLazy, true), reference);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, AblationTest,
    ::testing::Values(
        AblationCase{"paths", "count(doc('doc.xml')//b)"},
        AblationCase{"path_values", "string-join(doc('doc.xml')//a/b, '')"},
        AblationCase{"flwor_let",
                     "for $a in doc('doc.xml')//a let $n := count($a/b) "
                     "where $n > 1 return $n"},
        AblationCase{"nested_flwor",
                     "for $x in (for $a in doc('doc.xml')//a return $a/b) "
                     "return string($x)"},
        AblationCase{"functions",
                     "declare function local:f($s) { concat('[', $s, ']') }; "
                     "string-join(for $b in doc('doc.xml')//b return "
                     "local:f(string($b)), '')"},
        AblationCase{"constants", "(1 + 2, 3 * 4, 'a' < 'b')"},
        AblationCase{"cse_query",
                     "for $i in (1 to 3) return count(doc('doc.xml')//b) "
                     "+ count(doc('doc.xml')//b)"},
        AblationCase{"order_by",
                     "for $b in doc('doc.xml')//b order by string($b) "
                     "descending return string($b)"}),
    [](const ::testing::TestParamInfo<AblationCase>& info) {
      return info.param.label;
    });

TEST(Properties, AnalysisFillsFlags) {
  auto module = ParseQuery("declare variable $d external; $d/a/b");
  ASSERT_TRUE(module.ok());
  ASSERT_TRUE(NormalizeModule(module->get()).ok());
  AnalyzeExpr((*module)->body.get(), module->get());
  const Expr* body = (*module)->body.get();
  EXPECT_TRUE(body->props.analyzed);
  EXPECT_TRUE(body->props.nodes_only);
}

TEST(Properties, VarUseCounting) {
  auto module = ParseQuery(
      "for $x in (1,2) let $y := $x + 1 return $y + $x + $x");
  ASSERT_TRUE(module.ok());
  ASSERT_TRUE(NormalizeModule(module->get()).ok());
  auto* flwor = static_cast<FlworExpr*>((*module)->body.get());
  int x_slot = flwor->clauses[0].var_slot;
  int y_slot = flwor->clauses[1].var_slot;
  bool in_loop = false;
  EXPECT_EQ(CountVarUses(flwor->return_expr(), x_slot, &in_loop), 2);
  EXPECT_EQ(CountVarUses(flwor->return_expr(), y_slot, &in_loop), 1);
}

// ---------------------------------------------------------------------------
// EXPLAIN goldens for the cost-based access-path selector.  Each test locks
// down the "[access: <strategy>, est=N]" annotation ExplainTree renders for a
// canonical query shape against a small fixed document whose cardinalities
// are known by inspection:
//
//   <r>
//     <a><b>x</b><b>y</b><c k="1">z</c></a>
//     <a><b>x</b></a>
//     <d><e><f>1</f></e><e><f>2</f></e></d>
//   </r>
//
// so count(//b)=3, count(/r/a)=2, count(//e/f)=2, count(//c[@k='1'])=1.
// ---------------------------------------------------------------------------

constexpr char kExplainDoc[] =
    "<r><a><b>x</b><b>y</b><c k=\"1\">z</c></a><a><b>x</b></a>"
    "<d><e><f>1</f></e><e><f>2</f></e></d></r>";

/// Registers kExplainDoc as doc('d.xml'), warms its indexes so EXPLAIN's
/// peek-only annotation sees the decision execution would make, and returns
/// the rendered tree.
std::string ExplainWarm(XQueryEngine& engine, const std::string& query) {
  auto compiled = engine.Compile(query);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return "";
  return compiled.value()->ExplainTree();
}

class AccessPathExplain : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.ParseAndRegister("d.xml", kExplainDoc).ok());
    ASSERT_TRUE(engine_.GetDocumentIndexes("d.xml").ok());
  }
  XQueryEngine engine_;
};

TEST_F(AccessPathExplain, DescendantSingleStep) {
  EXPECT_NE(ExplainWarm(engine_, "doc('d.xml')//b")
                .find("path [index] [access: index, est=3]"),
            std::string::npos);
}

TEST_F(AccessPathExplain, ChildChainAnnotatesEveryPrefix) {
  std::string tree = ExplainWarm(engine_, "doc('d.xml')/r/a/b");
  // Every doc()-anchored prefix is itself a candidate and carries its own
  // exact synopsis count: /r -> 1, /r/a -> 2, /r/a/b -> 3.
  EXPECT_NE(tree.find("[access: index, est=3]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("[access: index, est=2]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("[access: index, est=1]"), std::string::npos) << tree;
}

TEST_F(AccessPathExplain, MixedDescendantChildChain) {
  EXPECT_NE(ExplainWarm(engine_, "doc('d.xml')//e/f")
                .find("[access: index, est=2]"),
            std::string::npos);
}

TEST_F(AccessPathExplain, AttributeValuePredicate) {
  EXPECT_NE(ExplainWarm(engine_, "doc('d.xml')//c[@k = '1']")
                .find("[access: index, est=1]"),
            std::string::npos);
}

TEST_F(AccessPathExplain, PositionalPredicate) {
  // //b[2] normalizes to a per-parent positional filter; the synopsis-based
  // estimate halves the per-parent population for position > 1.
  EXPECT_NE(ExplainWarm(engine_, "doc('d.xml')//b[2]")
                .find("[access: index, est=1]"),
            std::string::npos);
}

TEST_F(AccessPathExplain, AbsentTagEstimatesZero) {
  EXPECT_NE(ExplainWarm(engine_, "doc('d.xml')//zzz")
                .find("[access: index, est=0]"),
            std::string::npos);
}

TEST_F(AccessPathExplain, TrailingAttributeStep) {
  EXPECT_NE(ExplainWarm(engine_, "doc('d.xml')//c/@k")
                .find("[access: index, est="),
            std::string::npos);
}

TEST(AccessPathExplainForced, ForcedStrategyWinsAnnotation) {
  EngineOptions options;
  options.force_access_path = AccessPath::kSJoin;
  XQueryEngine engine(options);
  ASSERT_TRUE(engine.ParseAndRegister("d.xml", kExplainDoc).ok());
  ASSERT_TRUE(engine.GetDocumentIndexes("d.xml").ok());
  EXPECT_NE(ExplainWarm(engine, "doc('d.xml')//b").find("[access: sjoin"),
            std::string::npos);
}

TEST(AccessPathExplainForced, ForcedNavAnnotates) {
  EngineOptions options;
  options.force_access_path = AccessPath::kNav;
  XQueryEngine engine(options);
  ASSERT_TRUE(engine.ParseAndRegister("d.xml", kExplainDoc).ok());
  ASSERT_TRUE(engine.GetDocumentIndexes("d.xml").ok());
  EXPECT_NE(ExplainWarm(engine, "doc('d.xml')//b").find("[access: nav"),
            std::string::npos);
}

TEST(AccessPathExplainForced, ColdCacheRendersNoDecision) {
  // Annotation only peeks at already-built indexes; before the first
  // execution or GetDocumentIndexes call there is nothing to cost against.
  XQueryEngine engine;
  ASSERT_TRUE(engine.ParseAndRegister("d.xml", kExplainDoc).ok());
  auto compiled = engine.Compile("doc('d.xml')//b");
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled.value()->ExplainTree().find("[access:"),
            std::string::npos);
}

TEST(AccessPathExplainForced, DisabledIndexesRenderNoDecision) {
  EngineOptions options;
  options.enable_indexes = false;
  XQueryEngine engine(options);
  ASSERT_TRUE(engine.ParseAndRegister("d.xml", kExplainDoc).ok());
  auto compiled = engine.Compile("doc('d.xml')//b");
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled.value()->ExplainTree().find("[access:"),
            std::string::npos);
}

}  // namespace
}  // namespace xqp
