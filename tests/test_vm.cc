// Bytecode VM backend: opcode-level semantics, the path opcodes
// (kNavStep/kAccessPath across axes, name tests, and forced
// access-path strategies), focus loops (filters, general paths and bare
// steps), declined plans (a plan with any construct outside the ISA runs
// whole on the lazy engine with identical results), governor trips at
// loop back-edges, fault-injected compiles, metrics, the XQP_BACKEND
// knob, and concurrent execution of one shared Program (the tsan lane
// re-runs this binary under ThreadSanitizer).

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault.h"
#include "base/metrics.h"
#include "engine.h"
#include "opt/access_path.h"
#include "tests/test_util.h"
#include "vm/bytecode.h"
#include "vm/compiler.h"

namespace xqp {
namespace {

using testing_util::RunQuery;

CompiledQuery::ExecOptions VmExec() {
  CompiledQuery::ExecOptions exec;
  exec.backend = ExecBackend::kVm;
  return exec;
}

/// Runs `query` on the lazy engine and the vm backend and asserts the
/// serialized results (or error statuses) are identical; returns the
/// common serialization.
std::string RunBoth(const std::string& query, const std::string& doc_xml = "") {
  XQueryEngine engine;
  if (!doc_xml.empty()) {
    auto doc = engine.ParseAndRegister("doc.xml", doc_xml);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  }
  auto compiled = engine.Compile(query);
  EXPECT_TRUE(compiled.ok()) << query << ": " << compiled.status().ToString();
  if (!compiled.ok()) return "COMPILE-ERROR";
  auto lazy = compiled.value()->ExecuteToXml();
  auto vm = compiled.value()->ExecuteToXml(VmExec());
  EXPECT_EQ(lazy.ok(), vm.ok()) << query;
  if (!lazy.ok()) {
    EXPECT_EQ(vm.status().code(), lazy.status().code()) << query;
    EXPECT_EQ(vm.status().message(), lazy.status().message()) << query;
    return "ERROR: " + std::string(lazy.status().message());
  }
  EXPECT_EQ(vm.value(), lazy.value()) << query;
  return lazy.value();
}

// --- Opcode-level semantics ------------------------------------------------

TEST(VmOpcodes, LiteralsAndArithmetic) {
  // Constant folding collapses pure-literal trees; mix in a FLWOR
  // variable so the arithmetic actually executes as bytecode.
  EXPECT_EQ(RunBoth("for $i in (5) return $i + 2"), "7");
  EXPECT_EQ(RunBoth("for $i in (7) return $i - 10"), "-3");
  EXPECT_EQ(RunBoth("for $i in (6) return $i * 7"), "42");
  EXPECT_EQ(RunBoth("for $i in (7) return $i idiv 2"), "3");
  EXPECT_EQ(RunBoth("for $i in (7) return $i mod 3"), "1");
  EXPECT_EQ(RunBoth("for $i in (7.5) return $i + 0.25"), "7.75");
  EXPECT_EQ(RunBoth("for $i in (1) return $i div 4"), "0.25");
  EXPECT_EQ(RunBoth("for $i in (5) return -$i"), "-5");
  EXPECT_EQ(RunBoth("for $i in (()) return $i + 1"), "");
}

TEST(VmOpcodes, ArithmeticErrors) {
  EXPECT_EQ(RunBoth("for $i in (1) return $i idiv 0"),
            "ERROR: integer division by zero");
  EXPECT_EQ(RunBoth("for $i in (1) return $i mod 0"),
            "ERROR: modulus by zero");
  EXPECT_EQ(RunBoth("for $i in (9223372036854775807) return $i + 1"),
            "ERROR: err:FOAR0002: integer overflow in addition");
  EXPECT_EQ(RunBoth("for $i in (9223372036854775807) return $i * 2"),
            "ERROR: err:FOAR0002: integer overflow in multiplication");
  EXPECT_EQ(RunBoth("for $i in (-9223372036854775807) return ($i - 1) - 1"),
            "ERROR: err:FOAR0002: integer overflow in subtraction");
}

TEST(VmOpcodes, Comparisons) {
  EXPECT_EQ(RunBoth("for $i in (5) return $i eq 5"), "true");
  EXPECT_EQ(RunBoth("for $i in (5) return $i lt 5"), "false");
  EXPECT_EQ(RunBoth("for $i in (5) return $i le 5"), "true");
  EXPECT_EQ(RunBoth("for $i in (5) return $i ne 4"), "true");
  EXPECT_EQ(RunBoth("for $i in (()) return $i eq 5"), "");
  EXPECT_EQ(RunBoth("for $i in (3) return ($i, 9) = 9"), "true");
  EXPECT_EQ(RunBoth("for $i in (3) return ($i, 9) > 10"), "false");
  EXPECT_EQ(RunBoth("for $i in ('b') return $i > 'a'"), "true");
}

TEST(VmOpcodes, BooleanLogicAndIf) {
  EXPECT_EQ(RunBoth("for $i in (1) return $i = 1 and $i < 2"), "true");
  EXPECT_EQ(RunBoth("for $i in (1) return $i = 2 or $i = 1"), "true");
  EXPECT_EQ(RunBoth("for $i in (1) return if ($i > 0) then 'p' else 'n'"),
            "p");
  EXPECT_EQ(RunBoth("for $i in (-1) return if ($i > 0) then 'p' else 'n'"),
            "n");
  // Short-circuit: the right operand would raise if evaluated.
  EXPECT_EQ(RunBoth("for $i in (0) return $i != 0 and (1 idiv $i) = 1"),
            "false");
}

TEST(VmOpcodes, RangeAndSequence) {
  EXPECT_EQ(RunBoth("for $i in (3) return (1 to $i, 10)"), "1 2 3 10");
  EXPECT_EQ(RunBoth("for $i in (3) return ($i to 1)"), "");
  EXPECT_EQ(RunBoth("for $i in (4) return count(1 to $i)"), "4");
  EXPECT_EQ(RunBoth("let $x := (1,2) return ($x to 3)"),
            "ERROR: range operands must be singletons");
}

TEST(VmOpcodes, FlworShapes) {
  EXPECT_EQ(RunBoth("for $i in 1 to 5 return $i * $i"), "1 4 9 16 25");
  EXPECT_EQ(RunBoth("for $i in 1 to 10 where ($i mod 3) = 0 return $i"),
            "3 6 9");
  EXPECT_EQ(RunBoth("for $i in 1 to 3, $j in 1 to $i return 10 * $i + $j"),
            "11 21 22 31 32 33");
  EXPECT_EQ(RunBoth("for $i at $p in ('a','b','c') return $p"), "1 2 3");
  EXPECT_EQ(RunBoth("for $i in 1 to 3 let $d := $i * 2 return $d"), "2 4 6");
  EXPECT_EQ(RunBoth("let $x := 5 let $y := $x + 1 return $x * $y"), "30");
  EXPECT_EQ(RunBoth("sum(for $i in 1 to 100 return $i)"), "5050");
}

TEST(VmOpcodes, Quantified) {
  EXPECT_EQ(RunBoth("every $x in 1 to 9 satisfies $x < 10"), "true");
  EXPECT_EQ(RunBoth("every $x in 1 to 9 satisfies $x < 5"), "false");
  EXPECT_EQ(RunBoth("some $x in 1 to 9 satisfies $x = 7"), "true");
  EXPECT_EQ(RunBoth("some $x in () satisfies $x = 1"), "false");
  EXPECT_EQ(RunBoth("every $x in () satisfies $x = 1"), "true");
  EXPECT_EQ(RunBoth("some $x in 1 to 3, $y in 1 to 3 satisfies $x + $y = 6"),
            "true");
}

TEST(VmOpcodes, BuiltinsAndContextItem) {
  EXPECT_EQ(RunBoth("for $s in ('hello') return string-length($s)"), "5");
  EXPECT_EQ(RunBoth("for $s in ('a') return concat($s, 'b', 'c')"), "abc");
  EXPECT_EQ(RunBoth("for $i in (2) return abs(-3 * $i)"), "6");
  // Context item without a binding is a dynamic error on both backends.
  EXPECT_EQ(RunBoth("for $i in (1) return $i + ."),
            "ERROR: context item is not defined");
}

TEST(VmOpcodes, ContextItemBound) {
  XQueryEngine engine;
  auto compiled = engine.Compile("for $i in (1) return $i + .");
  XQP_ASSERT_OK(compiled.status());
  CompiledQuery::ExecOptions exec = VmExec();
  exec.has_context_item = true;
  exec.context_item = Item(AtomicValue::Integer(41));
  XQP_ASSERT_OK_AND_ASSIGN(std::string got,
                           compiled.value()->ExecuteToXml(exec));
  EXPECT_EQ(got, "42");
}

TEST(VmOpcodes, ExternalVariablesUseGlobalSlots) {
  XQueryEngine engine;
  auto compiled = engine.Compile(
      "declare variable $n external; for $i in 1 to 3 return $i * $n");
  XQP_ASSERT_OK(compiled.status());
  CompiledQuery::ExecOptions exec = VmExec();
  exec.variables["n"] = Sequence{Item(AtomicValue::Integer(10))};
  XQP_ASSERT_OK_AND_ASSIGN(std::string got,
                           compiled.value()->ExecuteToXml(exec));
  EXPECT_EQ(got, "10 20 30");
}

// --- Declined plans --------------------------------------------------------

/// Runs `compiled` once on the vm backend with the metrics registry on and
/// returns how often the run fell back to the lazy engine (vm.fallbacks).
uint64_t VmFallbacks(const CompiledQuery& compiled) {
  auto& registry = metrics::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  metrics::Counter* fallbacks = registry.counter("vm.fallbacks");
  const uint64_t before = fallbacks->Value();
  (void)compiled.Execute(VmExec());
  registry.set_enabled(was_enabled);
  return fallbacks->Value() - before;
}

// A plan holding any construct outside the ISA is declined whole: the
// program carries one thunk naming the construct and no code, the run
// falls back to the lazy engine once (with lazy's exact output or error),
// and EXPLAIN marks that subtree and shows no [vm] root.
TEST(VmDeclines, UncompilableConstructsRunWholeOnLazy) {
  const std::string doc = "<r><a>1</a><a>2</a><b>3</b></r>";
  struct Case {
    const char* query;
    const char* reason;
  };
  const Case cases[] = {
      {"(1, typeswitch (42) case xs:string return 's' default return 'd')",
       "typeswitch"},
      {"for $i in (1, 'a') return $i instance of xs:integer", "instance of"},
      {"for $i in (5, 6) return ($i treat as xs:integer) + 1", "treat as"},
      {"(1,2) treat as xs:integer", "treat as"},
      {"for $s in ('42', '7') return xs:integer($s) + 1", "cast"},
      {"for $s in ('42', 'x') return $s castable as xs:integer", "castable"},
      {"count(doc('doc.xml')//a union doc('doc.xml')//b) * 1", "union"},
      {"count(doc('doc.xml')//a/(b | c))", "union"},
      {"count(doc('doc.xml')//* intersect doc('doc.xml')//a) * 1",
       "intersect/except"},
      {"doc('doc.xml')//a except doc('doc.xml')//a[1]", "intersect/except"},
      {"(1, try { 1 idiv 0 } catch { 'saved' })", "try/catch"},
      // Recursive user functions are never inlined.
      {"declare function local:fact($n as xs:integer) as xs:integer { "
       "if ($n le 1) then 1 else $n * local:fact($n - 1) }; "
       "local:fact(5) + 0",
       "user function call"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query);
    RunBoth(c.query, doc);
    XQueryEngine engine;
    XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", doc).status());
    auto compiled = engine.Compile(c.query);
    XQP_ASSERT_OK(compiled.status());
    XQP_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const vm::Program> program,
                             vm::CompileProgram(compiled.value()->module()));
    ASSERT_EQ(program->thunks.size(), 1u);
    EXPECT_EQ(program->thunks[0].reason, c.reason);
    EXPECT_TRUE(program->code.empty());
    EXPECT_EQ(VmFallbacks(*compiled.value()), 1u);
    std::string tree = compiled.value()->ExplainTree(VmExec());
    EXPECT_NE(tree.find(std::string(" [bailout: ") + c.reason + "]"),
              std::string::npos)
        << tree;
    EXPECT_EQ(tree.find(" [vm]"), std::string::npos) << tree;
  }
}

TEST(VmDeclines, ExplainMarksCompiledRoot) {
  XQueryEngine engine;
  XQP_ASSERT_OK(
      engine.ParseAndRegister("doc.xml", "<r><a/></r>").status());
  // Paths, filters, constructors, and order-by lower to their own
  // opcodes: the plan carries the [vm] root marker and no bailout
  // annotation anywhere.
  for (const char* q : {"doc('doc.xml')//a", "1 + count(doc('doc.xml')//a)",
                        "1 + count(for $i in 1 to 2 return <a/>)",
                        "for $x in (2,1) order by $x return <v>{$x}</v>",
                        "count((1,2,3)[. > 1]) + 0",
                        "for $n in doc('doc.xml')//a[. = '2'][1] return 1"}) {
    auto compiled = engine.Compile(q);
    XQP_ASSERT_OK(compiled.status());
    std::string tree = compiled.value()->ExplainTree(VmExec());
    EXPECT_NE(tree.find(" [vm]"), std::string::npos) << tree;
    EXPECT_EQ(tree.find(" [bailout: "), std::string::npos) << tree;
    // The default rendering is unannotated (golden stability).
    std::string plain = compiled.value()->ExplainTree();
    EXPECT_EQ(plain.find(" [vm]"), std::string::npos) << plain;
  }
}

// --- Path opcodes (kNavStep / kAccessPath) ---------------------------------

/// Compiles `query`, runs it on the vm backend under Profile, asserts the
/// plan ran as compiled code (zero vm.fallbacks), and asserts the result
/// is bit-identical to the lazy and eager engines. Returns the common
/// serialization.
std::string RunCompiledPath(XQueryEngine& engine, const std::string& query) {
  auto compiled = engine.Compile(query);
  EXPECT_TRUE(compiled.ok()) << query << ": " << compiled.status().ToString();
  if (!compiled.ok()) return "COMPILE-ERROR";
  auto report = compiled.value()->Profile(VmExec());
  EXPECT_TRUE(report.ok()) << query << ": " << report.status().ToString();
  if (!report.ok()) return "RUN-ERROR";
  EXPECT_EQ(report.value().backend, ExecBackend::kVm) << query;
  EXPECT_EQ(report.value().engine_metrics.counters["vm.fallbacks"], 0u)
      << query;
  std::string vm_xml = SerializeSequence(report.value().result).ValueOrDie();
  for (ExecBackend backend : {ExecBackend::kLazy, ExecBackend::kEager}) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    auto other = compiled.value()->ExecuteToXml(exec);
    EXPECT_TRUE(other.ok()) << query << ": " << other.status().ToString();
    if (other.ok()) {
      EXPECT_EQ(vm_xml, other.value())
          << query << " vs " << ExecBackendName(backend);
    }
  }
  return vm_xml;
}

constexpr char kPathDoc[] =
    "<r><a id='1'><b>x</b><b>y</b></a>"
    "<a id='2'><c>z</c></a><b>top</b></r>";

TEST(VmPaths, AxisAndNameTestMatrix) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", kPathDoc).status());
  // Forward axes with name tests, wildcards, and kind tests; reverse
  // axes (needs_sort paths); attribute steps. Every query must lower to
  // kNavStep / probe opcodes — zero fallbacks — and match lazy exactly.
  EXPECT_EQ(RunCompiledPath(engine, "doc('doc.xml')/r/a"),
            "<a id=\"1\"><b>x</b><b>y</b></a><a id=\"2\"><c>z</c></a>");
  EXPECT_EQ(RunCompiledPath(engine, "count(doc('doc.xml')/r/*)"), "3");
  EXPECT_EQ(RunCompiledPath(engine, "count(doc('doc.xml')//b)"), "3");
  EXPECT_EQ(RunCompiledPath(engine, "string-join(doc('doc.xml')//text(), '')"),
            "xyztop");
  EXPECT_EQ(RunCompiledPath(engine, "count(doc('doc.xml')/r/node())"), "3");
  EXPECT_EQ(RunCompiledPath(engine, "doc('doc.xml')//a/@id"),
            "id=\"1\"id=\"2\"");
  EXPECT_EQ(RunCompiledPath(engine, "count(doc('doc.xml')//b/parent::a)"),
            "1");
  EXPECT_EQ(RunCompiledPath(engine,
                            "count(doc('doc.xml')//c/ancestor-or-self::*)"),
            "3");
  EXPECT_EQ(RunCompiledPath(engine, "count(doc('doc.xml')//b/self::b)"), "3");
  EXPECT_EQ(RunCompiledPath(
                engine, "count(doc('doc.xml')//b/following-sibling::*)"),
            "1");
  EXPECT_EQ(RunCompiledPath(
                engine, "count(doc('doc.xml')//b/preceding-sibling::*)"),
            "3");
  EXPECT_EQ(RunCompiledPath(engine, "count(doc('doc.xml')//c/following::*)"),
            "1");
  EXPECT_EQ(RunCompiledPath(engine, "count(doc('doc.xml')//c/preceding::*)"),
            "3");
  EXPECT_EQ(RunCompiledPath(engine, "doc('doc.xml')//b/ancestor::r/b"),
            "<b>top</b>");
}

TEST(VmPaths, ForcedStrategiesAreBitIdentical) {
  // Every access-path force must execute through the vm's probe/exec
  // opcodes with zero fallbacks and stay bit-identical to lazy.
  for (AccessPath force : {AccessPath::kAuto, AccessPath::kNav,
                           AccessPath::kSJoin, AccessPath::kTwig,
                           AccessPath::kIndex}) {
    SCOPED_TRACE(AccessPathName(force));
    EngineOptions options;
    options.force_access_path = force;
    XQueryEngine engine(options);
    XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", kPathDoc).status());
    EXPECT_EQ(RunCompiledPath(engine, "count(doc('doc.xml')/r/a/b)"), "2");
    EXPECT_EQ(RunCompiledPath(engine, "string(doc('doc.xml')//a/c)"), "z");
    EXPECT_EQ(RunCompiledPath(engine, "doc('doc.xml')/r/b"), "<b>top</b>");
  }
}

TEST(VmPaths, PredicateChainCompilesToIndexProbe) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", kPathDoc).status());
  // A value-predicate chain lowers to kAccessPath with the navigation
  // twin behind it; either edge must produce the lazy result.
  EXPECT_EQ(RunCompiledPath(engine, "doc('doc.xml')/r/a[@id = '2']"),
            "<a id=\"2\"><c>z</c></a>");
  EXPECT_EQ(RunCompiledPath(engine, "count(doc('doc.xml')/r/a[b = 'y'])"),
            "1");

  // Compiler shape: the predicate chain's program carries a probe opcode.
  auto compiled = engine.Compile("doc('doc.xml')/r/a[@id = '2']");
  XQP_ASSERT_OK(compiled.status());
  XQP_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const vm::Program> program,
                           vm::CompileProgram(compiled.value()->module()));
  bool has_probe = false;
  for (const vm::Insn& insn : program->code) {
    if (insn.op == vm::Op::kAccessPath) {
      has_probe = true;
    }
  }
  EXPECT_TRUE(has_probe);
  EXPECT_TRUE(program->thunks.empty());
}

TEST(VmPaths, FilteredChainStillCompiles) {
  // A marked filtered chain keeps its probe, with the compiled focus loop
  // behind it for when the probe declines. Zero fallbacks, identical
  // results, under every forced access path.
  for (AccessPath force : {AccessPath::kAuto, AccessPath::kNav,
                           AccessPath::kSJoin, AccessPath::kTwig,
                           AccessPath::kIndex}) {
    SCOPED_TRACE(AccessPathName(force));
    EngineOptions options;
    options.force_access_path = force;
    XQueryEngine engine(options);
    XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", kPathDoc).status());
    EXPECT_EQ(RunCompiledPath(engine, "doc('doc.xml')//a[1]/b"),
              "<b>x</b><b>y</b>");
    EXPECT_EQ(RunCompiledPath(engine, "doc('doc.xml')//a[c]/@id"),
              "id=\"2\"");
  }
}

// --- Focus loops (filters, general paths, bare steps) ----------------------

TEST(VmFocus, PredicatesSeeLoopVariables) {
  // Filters compile, so the predicate reads the FLWOR binding straight
  // from its register.
  XQueryEngine engine;
  EXPECT_EQ(RunCompiledPath(engine, "for $i in 1 to 3 return (10,20,30)[$i]"),
            "10 20 30");
  EXPECT_EQ(RunCompiledPath(
                engine, "for $i at $p in ('a','b') return ('x','y','z')[$p]"),
            "x y");
  EXPECT_EQ(RunCompiledPath(engine, "let $x := 2 return ((5,6,7)[$x], $x)"),
            "6 2");
}

TEST(VmFocus, PositionLastAndNestedFocus) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", kPathDoc).status());
  // The inner b[1] loop ends by restoring the outer focus (the a), so the
  // @id test and the path tail read the a again.
  EXPECT_EQ(RunCompiledPath(engine,
                            "for $d in doc('doc.xml') "
                            "return $d//a[b[1] and @id = '1']/@id"),
            "id=\"1\"");
  EXPECT_EQ(RunCompiledPath(engine,
                            "for $d in doc('doc.xml') return $d//a[b[1]]"),
            "<a id=\"1\"><b>x</b><b>y</b></a>");
  EXPECT_EQ(RunCompiledPath(engine,
                            "for $d in doc('doc.xml') return $d//b[last()]"),
            "<b>y</b><b>top</b>");
  EXPECT_EQ(RunCompiledPath(
                engine,
                "for $d in doc('doc.xml') return name($d//c/ancestor::*[1])"),
            "a");
  EXPECT_EQ(RunCompiledPath(engine, "(1,2,3)[position() = last()]"), "3");
  // A numeric literal predicate stops its loop at that position.
  EXPECT_EQ(RunCompiledPath(engine,
                            "for $n in (3) return ((1 to $n)[2], "
                            "(1 to $n)[0], (1 to $n)[1.5], (1 to $n)[4], "
                            "(1 to $n)[3.0], (1 to $n)[-1])"),
            "2 3");
  EXPECT_EQ(RunCompiledPath(engine,
                            "for $d in doc('doc.xml') return "
                            "count($d//*[position() > 1])"),
            "3");
}

TEST(VmFocus, GeneralPathsAndBareSteps) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", kPathDoc).status());
  // A/E with an atomic rhs keeps origin order; a bare step walks from the
  // focus item.
  EXPECT_EQ(RunCompiledPath(engine,
                            "for $x in doc('doc.xml')//b return $x/string(.)"),
            "x y top");
  EXPECT_EQ(RunCompiledPath(engine,
                            "string-join(doc('doc.xml')//a/string(@id), '|')"),
            "1|2");
  EXPECT_EQ(RunCompiledPath(engine,
                            "for $a in doc('doc.xml')//a return "
                            "count($a/(b, c))"),
            "2 1");
}

TEST(VmFocus, ErrorsMatchLazy) {
  EXPECT_EQ(RunBoth("(<a/>, 1)/."),
            "ERROR: path result mixes nodes and atomic values");
  EXPECT_EQ(RunBoth("(1,2)[('a','b')]"),
            "ERROR: effective boolean value of a multi-item atomic sequence");
  EXPECT_EQ(RunBoth("for $i in (1, 2) return $i/a"),
            "ERROR: axis step requires a node context item");
}

TEST(VmFocus, CancelTripsInsidePredicateLoop) {
  // The predicate loop's focus-next is the first governor poll the
  // program reaches.
  XQueryEngine engine;
  auto compiled = engine.Compile("count((1,2,3)[. > 1])");
  XQP_ASSERT_OK(compiled.status());
  for (ExecBackend backend :
       {ExecBackend::kVm, ExecBackend::kLazy, ExecBackend::kEager}) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    exec.limits.cancel = std::make_shared<CancelToken>();
    exec.limits.cancel->Cancel();
    auto result = compiled.value()->Execute(exec);
    ASSERT_FALSE(result.ok()) << ExecBackendName(backend);
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << ExecBackendName(backend);
  }
}

TEST(VmPaths, ResultCapParity) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", kPathDoc).status());
  auto compiled = engine.Compile("doc('doc.xml')//b");
  XQP_ASSERT_OK(compiled.status());
  CompiledQuery::ExecOptions vm = VmExec();
  vm.limits.max_result_items = 1;
  CompiledQuery::ExecOptions lazy;
  lazy.limits.max_result_items = 1;
  auto vm_r = compiled.value()->Execute(vm);
  auto lazy_r = compiled.value()->Execute(lazy);
  ASSERT_FALSE(vm_r.ok());
  ASSERT_FALSE(lazy_r.ok());
  EXPECT_EQ(vm_r.status().code(), lazy_r.status().code());
  EXPECT_EQ(vm_r.status().code(), StatusCode::kResourceExhausted);
}

TEST(VmPaths, IndexBuildFaultMatchesLazy) {
  // An allocation fault inside the index build triggered by the probe
  // opcode must surface the same status on both backends. Fresh engine
  // per run: the build is what hits the fault site.
  auto run = [](CompiledQuery::ExecOptions exec) {
    EngineOptions options;
    options.force_access_path = AccessPath::kIndex;
    XQueryEngine engine(options);
    auto doc = engine.ParseAndRegister("doc.xml", kPathDoc);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    auto compiled = engine.Compile("doc('doc.xml')/r/a/b");
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    fault::ScopedFault fault("alloc", 1);
    return compiled.value()->Execute(exec);
  };
  auto lazy_r = run(CompiledQuery::ExecOptions());
  auto vm_r = run(VmExec());
  ASSERT_FALSE(lazy_r.ok());
  ASSERT_FALSE(vm_r.ok());
  EXPECT_EQ(vm_r.status().code(), lazy_r.status().code());
  EXPECT_EQ(vm_r.status().message(), lazy_r.status().message());
}

// --- Construct & order-by opcodes ------------------------------------------

TEST(VmConstruct, DirectConstructorsCompileWithZeroBailouts) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", kPathDoc).status());
  EXPECT_EQ(RunCompiledPath(engine,
                            "for $i in 1 to 2 return <v n=\"{$i}\">{$i * 10}"
                            "</v>"),
            "<v n=\"1\">10</v><v n=\"2\">20</v>");
  // Nested constructors and constructor content pulling from a compiled
  // path chain (adjacent atomics join with spaces; nodes deep-copy).
  EXPECT_EQ(RunCompiledPath(engine,
                            "<r c=\"{count(doc('doc.xml')//b)}\">{"
                            "for $i in 1 to 2 return <x>{$i, $i * 2}</x>"
                            "}</r>"),
            "<r c=\"3\"><x>1 2</x><x>2 4</x></r>");
  EXPECT_EQ(RunCompiledPath(engine,
                            "<ns xmlns:p=\"urn:x\"><p:q/></ns>"),
            "<ns xmlns:p=\"urn:x\"><p:q/></ns>");
  EXPECT_EQ(RunCompiledPath(engine, "<out>{doc('doc.xml')//c}</out>"),
            "<out><c>z</c></out>");
}

TEST(VmConstruct, ComputedConstructorsCompileWithZeroBailouts) {
  XQueryEngine engine;
  EXPECT_EQ(RunCompiledPath(engine,
                            "for $i in (1) return element {concat('e', $i)} "
                            "{attribute {concat('a', $i)} {$i}, 'body'}"),
            "<e1 a1=\"1\">body</e1>");
  EXPECT_EQ(RunCompiledPath(engine,
                            "for $i in (1) return (text {concat('t', $i)}, "
                            "comment {'c'}, processing-instruction tgt "
                            "{'pi'})"),
            "t1<!--c--><?tgt pi?>");
  EXPECT_EQ(RunCompiledPath(engine,
                            "count(document {<a/>, <b/>}/*)"),
            "2");
}

TEST(VmConstruct, ConstructorErrorStringsMatchLazy) {
  // The shared construct:: path means the error strings are the lazy
  // engine's own; RunBoth asserts code and message equality.
  EXPECT_EQ(RunBoth("for $i in (1) return element {'1bad'} {$i}"),
            "ERROR: invalid computed name: 1bad");
  EXPECT_EQ(RunBoth("for $i in (1,2) return element {('a','b')} {$i}"),
            "ERROR: computed constructor name must be a single item");
  EXPECT_EQ(RunBoth("for $i in (1) return comment {'a--b'}"),
            "ERROR: comment content may not contain \"--\"");
  EXPECT_EQ(RunBoth(
                "for $i in (1) return <v>{attribute a {$i}, 'x'}</v>",
                "<r/>"),
            "<v a=\"1\">x</v>");
  EXPECT_EQ(RunBoth("for $i in (1) return <v>{'x', attribute a {$i}}</v>"),
            "ERROR: attribute \"a\" constructed after non-attribute content "
            "of element");
}

TEST(VmConstruct, MemoryBudgetTripsIdentically) {
  // DocumentBuilder::ChargeNode runs under the same thread-local governor
  // in every backend, so a budget that dies mid-construction dies with the
  // same status on both.
  XQueryEngine engine;
  auto compiled = engine.Compile(
      "count(for $i in 1 to 100000 return <v a=\"{$i}\">{$i}</v>)");
  XQP_ASSERT_OK(compiled.status());
  CompiledQuery::ExecOptions vm = VmExec();
  vm.limits.memory_budget_bytes = 64 * 1024;
  CompiledQuery::ExecOptions lazy;
  lazy.limits.memory_budget_bytes = 64 * 1024;
  auto vm_r = compiled.value()->Execute(vm);
  auto lazy_r = compiled.value()->Execute(lazy);
  ASSERT_FALSE(vm_r.ok());
  ASSERT_FALSE(lazy_r.ok());
  EXPECT_EQ(vm_r.status().code(), lazy_r.status().code());
  EXPECT_EQ(vm_r.status().code(), StatusCode::kResourceExhausted);
}

TEST(VmOrderBy, SingleAndMultiKeySortsCompile) {
  XQueryEngine engine;
  EXPECT_EQ(RunCompiledPath(engine, "for $x in (3,1,2) order by $x return $x"),
            "1 2 3");
  EXPECT_EQ(RunCompiledPath(
                engine, "for $x in (3,1,2) order by $x descending return $x"),
            "3 2 1");
  // Multi-key: primary descending, secondary ascending breaks ties; the
  // sort is stable for fully-equal keys.
  EXPECT_EQ(RunCompiledPath(engine,
                       "for $x in (1,2,3,4,5,6) order by $x mod 2 "
                       "descending, $x idiv 3 return $x"),
            "1 3 5 2 4 6");
  // Nested order-by FLWORs stack sort buffers.
  EXPECT_EQ(RunCompiledPath(engine,
                       "for $a in (2,1) order by $a return "
                       "(for $b in (20,10) order by $b return $a + $b)"),
            "11 21 12 22");
  // Where gates run at clause position; filtered tuples never buffer.
  EXPECT_EQ(RunCompiledPath(engine,
                       "for $x in (5,3,4,1,2) where $x mod 2 = 1 "
                       "order by $x descending return $x"),
            "5 3 1");
}

TEST(VmOrderBy, EmptyAndUntypedKeyRules) {
  XQueryEngine engine;
  // empty least (default) vs. empty greatest.
  EXPECT_EQ(RunCompiledPath(engine,
                       "for $x in (2, 0, 1) order by "
                       "(if ($x = 0) then () else $x) return $x"),
            "0 1 2");
  EXPECT_EQ(RunCompiledPath(engine,
                       "for $x in (2, 0, 1) order by "
                       "(if ($x = 0) then () else $x) empty greatest "
                       "return $x"),
            "1 2 0");
  EXPECT_EQ(RunCompiledPath(engine,
                       "for $x in (2, 0, 1) order by "
                       "(if ($x = 0) then () else $x) descending "
                       "empty least return $x"),
            "2 1 0");
  // Untyped node keys cast to xs:string: "10" < "2" < "9".
  XQP_ASSERT_OK(engine
                    .ParseAndRegister("nums.xml",
                                      "<r><n>9</n><n>10</n><n>2</n></r>")
                    .status());
  EXPECT_EQ(RunCompiledPath(engine,
                       "for $n in doc('nums.xml')//n order by "
                       "string($n) return string($n)"),
            "10 2 9");
  // number() keys compare numerically instead.
  EXPECT_EQ(RunCompiledPath(engine,
                       "for $n in doc('nums.xml')//n order by "
                       "number($n) return string($n)"),
            "2 9 10");
}

TEST(VmOrderBy, KeyErrorsMatchLazy) {
  // RunBoth compares vm with lazy; the eager interpreter must agree too.
  auto eager_error = [](const std::string& query) {
    XQueryEngine engine;
    CompiledQuery::ExecOptions eager;
    eager.backend = ExecBackend::kEager;
    auto result = engine.Compile(query).value()->ExecuteToXml(eager);
    return result.ok() ? result.value()
                       : "ERROR: " + std::string(result.status().message());
  };
  const std::string multi_item = "for $x in (1,2) order by ($x, $x) return $x";
  EXPECT_EQ(RunBoth(multi_item),
            "ERROR: order-by key must be () or a single item");
  EXPECT_EQ(eager_error(multi_item), RunBoth(multi_item));
  // Incomparable key types across tuples surface the comparator's error
  // after the sort finishes — the interpreter's historical behavior.
  const std::string mixed = "for $x in (1, 'a') order by $x return $x";
  EXPECT_EQ(eager_error(mixed), RunBoth(mixed));
  // Order-by under a cancelled governor trips at the first poll instead
  // of buffering 1e8 tuples.
  XQueryEngine engine;
  auto compiled = engine.Compile(
      "for $i in 1 to 100000000 order by -$i return $i");
  XQP_ASSERT_OK(compiled.status());
  for (ExecBackend backend : {ExecBackend::kVm, ExecBackend::kLazy}) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    exec.limits.cancel = std::make_shared<CancelToken>();
    exec.limits.cancel->Cancel();
    auto result = compiled.value()->Execute(exec);
    ASSERT_FALSE(result.ok()) << ExecBackendName(backend);
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << ExecBackendName(backend);
  }
  // A deadline passing while the lazy tuple machine buffers the sort
  // trips its per-tuple poll.
  CompiledQuery::ExecOptions timed;
  timed.backend = ExecBackend::kLazy;
  timed.limits.timeout = std::chrono::milliseconds(20);
  auto result = compiled.value()->Execute(timed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos);
}

TEST(VmRootStep, RootAnchoredPathsCompile) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", kPathDoc).status());
  // A '/'-anchored relative path compiles through kPushRoot + kNavStep
  // when a context item is bound.
  auto compiled = engine.Compile("count(/r/a/b)");
  XQP_ASSERT_OK(compiled.status());
  XQP_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const vm::Program> program,
                           vm::CompileProgram(compiled.value()->module()));
  EXPECT_TRUE(program->thunks.empty());
  bool has_root = false;
  for (const vm::Insn& insn : program->code) {
    if (insn.op == vm::Op::kPushRoot) has_root = true;
  }
  EXPECT_TRUE(has_root);

  XQP_ASSERT_OK_AND_ASSIGN(Sequence doc_seq,
                           engine.Compile("doc('doc.xml')//c")
                               .value()
                               ->Execute(CompiledQuery::ExecOptions()));
  ASSERT_EQ(doc_seq.size(), 1u);
  CompiledQuery::ExecOptions vm = VmExec();
  vm.has_context_item = true;
  vm.context_item = doc_seq[0];  // Any node: '/' rebases to its root.
  CompiledQuery::ExecOptions lazy;
  lazy.has_context_item = true;
  lazy.context_item = doc_seq[0];
  XQP_ASSERT_OK_AND_ASSIGN(std::string vm_xml,
                           compiled.value()->ExecuteToXml(vm));
  XQP_ASSERT_OK_AND_ASSIGN(std::string lazy_xml,
                           compiled.value()->ExecuteToXml(lazy));
  EXPECT_EQ(vm_xml, lazy_xml);
  EXPECT_EQ(vm_xml, "2");

  // Error strings match the interpreter's exactly.
  EXPECT_EQ(RunBoth("count(/r)"), "ERROR: context item is not defined");
  XQueryEngine engine2;
  auto rooted = engine2.Compile("count(/r)");
  XQP_ASSERT_OK(rooted.status());
  for (ExecBackend backend : {ExecBackend::kLazy, ExecBackend::kVm}) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    exec.has_context_item = true;
    exec.context_item = Item(AtomicValue::Integer(1));
    auto result = rooted.value()->Execute(exec);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(),
              "leading '/' requires a node context item");
  }
}

// --- Governor --------------------------------------------------------------

TEST(VmGovernor, CancelTripsAtBackEdge) {
  XQueryEngine engine;
  auto compiled =
      engine.Compile("sum(for $i in 1 to 100000000 return $i mod 7)");
  XQP_ASSERT_OK(compiled.status());
  CompiledQuery::ExecOptions exec = VmExec();
  exec.limits.cancel = std::make_shared<CancelToken>();
  exec.limits.cancel->Cancel();
  auto result = compiled.value()->Execute(exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(VmGovernor, ResultCapMatchesLazy) {
  XQueryEngine engine;
  auto compiled = engine.Compile("for $i in 1 to 100 return $i");
  XQP_ASSERT_OK(compiled.status());
  CompiledQuery::ExecOptions vm = VmExec();
  vm.limits.max_result_items = 10;
  CompiledQuery::ExecOptions lazy;
  lazy.limits.max_result_items = 10;
  auto vm_r = compiled.value()->Execute(vm);
  auto lazy_r = compiled.value()->Execute(lazy);
  ASSERT_FALSE(vm_r.ok());
  ASSERT_FALSE(lazy_r.ok());
  EXPECT_EQ(vm_r.status().code(), lazy_r.status().code());
  EXPECT_EQ(vm_r.status().code(), StatusCode::kResourceExhausted);
}

TEST(VmGovernor, PoolBytesCharged) {
  XQueryEngine engine;
  auto compiled = engine.Compile("for $i in (1) return $i + 123456");
  XQP_ASSERT_OK(compiled.status());
  CompiledQuery::ExecOptions exec = VmExec();
  exec.limits.memory_budget_bytes = 1;  // Pool charge must trip it.
  auto result = compiled.value()->Execute(exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// --- Fault injection -------------------------------------------------------

TEST(VmFault, CompileFaultFallsBackToLazy) {
  XQueryEngine engine;
  auto compiled = engine.Compile("sum(for $i in 1 to 50 return $i)");
  XQP_ASSERT_OK(compiled.status());
  {
    fault::ScopedFault f("vm.compile", 1);
    XQP_ASSERT_OK_AND_ASSIGN(std::string got,
                             compiled.value()->ExecuteToXml(VmExec()));
    EXPECT_EQ(got, "1275");
  }
  // The failed compile is cached: later runs keep falling back (and keep
  // producing correct results) without re-hitting the fault site.
  XQP_ASSERT_OK_AND_ASSIGN(std::string again,
                           compiled.value()->ExecuteToXml(VmExec()));
  EXPECT_EQ(again, "1275");
}

// --- Metrics ---------------------------------------------------------------

TEST(VmMetrics, CountersAdvance) {
  XQueryEngine engine;
  auto compiled =
      engine.Compile("sum(for $i in 1 to 10 where $i > 2 return $i * 2)");
  XQP_ASSERT_OK(compiled.status());
  CompiledQuery::ExecOptions exec = VmExec();
  XQP_ASSERT_OK_AND_ASSIGN(ProfileReport report,
                           compiled.value()->Profile(exec));
  EXPECT_EQ(report.backend, ExecBackend::kVm);
  EXPECT_GE(report.engine_metrics.counters["vm.compiles"], 1u);
  EXPECT_GT(report.engine_metrics.counters["vm.instructions"], 10u);
  EXPECT_EQ(SerializeSequence(report.result).ValueOrDie(), "104");
  // Root accounting holds under the vm backend (xqp --check).
  const OpStats* root = report.RootStats();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->items, report.result.size());

  // Filters, constructors, order-by and paths all run as compiled code:
  // zero fallbacks to the lazy engine.
  for (const char* q :
       {"1 + count(for $i in 1 to 3 return ($i to 5)[2])",
        "for $i in (3,1,2) order by $i descending return <v>{$i}</v>"}) {
    auto other = engine.Compile(q);
    XQP_ASSERT_OK(other.status());
    XQP_ASSERT_OK_AND_ASSIGN(ProfileReport other_report,
                             other.value()->Profile(exec));
    EXPECT_EQ(other_report.engine_metrics.counters["vm.fallbacks"], 0u) << q;
    EXPECT_GT(other_report.engine_metrics.counters["vm.instructions"], 0u)
        << q;
  }
}

TEST(VmMetrics, DeclinedPlanCountsOneFallbackAndNoInstructions) {
  XQueryEngine engine;
  auto compiled = engine.Compile(
      "declare function local:f($n as xs:integer) as xs:integer { "
      "if ($n le 1) then 1 else $n * local:f($n - 1) }; "
      "local:f(4) + 0");
  XQP_ASSERT_OK(compiled.status());
  XQP_ASSERT_OK_AND_ASSIGN(ProfileReport report,
                           compiled.value()->Profile(VmExec()));
  EXPECT_EQ(report.engine_metrics.counters["vm.fallbacks"], 1u);
  EXPECT_EQ(report.engine_metrics.counters["vm.instructions"], 0u);
  EXPECT_EQ(SerializeSequence(report.result).ValueOrDie(), "24");
  // The lazy engine ran the plan, so its operators are profiled.
  const OpStats* root = report.RootStats();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->items, 1u);
}

// --- Backend selection -----------------------------------------------------

TEST(VmBackend, EnvKnobSelectsVm) {
  ::setenv("XQP_BACKEND", "vm", 1);
  XQueryEngine engine;
  ::unsetenv("XQP_BACKEND");
  EXPECT_EQ(engine.options().backend, ExecBackend::kVm);
  auto compiled = engine.Compile("sum(for $i in 1 to 10 return $i)");
  XQP_ASSERT_OK(compiled.status());
  // Default ExecOptions now resolve to the vm backend.
  EXPECT_EQ(compiled.value()->ResolvedBackend(CompiledQuery::ExecOptions()),
            ExecBackend::kVm);
  XQP_ASSERT_OK_AND_ASSIGN(ProfileReport report, compiled.value()->Profile());
  EXPECT_EQ(report.backend, ExecBackend::kVm);
  EXPECT_NE(report.ToText().find("engine: vm (bytecode)"), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"engine\":\"vm\""), std::string::npos);
}

TEST(VmBackend, PerCallOverrideWinsOverEngineDefault) {
  EngineOptions options;
  options.backend = ExecBackend::kVm;
  XQueryEngine engine(options);
  auto compiled = engine.Compile("1 + 1");
  XQP_ASSERT_OK(compiled.status());
  CompiledQuery::ExecOptions eager;
  eager.backend = ExecBackend::kEager;
  EXPECT_EQ(compiled.value()->ResolvedBackend(eager), ExecBackend::kEager);
  EXPECT_EQ(compiled.value()->ResolvedBackend(CompiledQuery::ExecOptions()),
            ExecBackend::kVm);
}

// --- Compiler-level checks -------------------------------------------------

TEST(VmCompiler, ProgramShape) {
  XQueryEngine engine;
  auto compiled =
      engine.Compile("sum(for $i in 1 to 10 where $i > 2 return $i * 2)");
  XQP_ASSERT_OK(compiled.status());
  XQP_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const vm::Program> program,
                           vm::CompileProgram(compiled.value()->module()));
  EXPECT_TRUE(program->thunks.empty());
  EXPECT_GT(program->code.size(), 5u);
  EXPECT_EQ(program->code.back().op, vm::Op::kHalt);
  EXPECT_GT(program->max_stack, 0);
  EXPECT_GT(program->num_iters, 0);
  // Pool entries 0/1 are the canonical booleans.
  ASSERT_GE(program->const_pool.size(), 2u);
  EXPECT_GT(program->const_pool_bytes, 0u);
}

// --- Concurrency (tsan lane) -----------------------------------------------

TEST(VmConcurrency, SharedProgramRunsFromManyThreads) {
  XQueryEngine engine;
  auto compiled = engine.Compile(
      "sum(for $i in 1 to 2000 return $i * 3 + ($i mod 5))");
  XQP_ASSERT_OK(compiled.status());
  XQP_ASSERT_OK_AND_ASSIGN(std::string want,
                           compiled.value()->ExecuteToXml());
  const CompiledQuery* query = compiled.value().get();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([query, &want] {
      for (int i = 0; i < 8; ++i) {
        auto got = query->ExecuteToXml(VmExec());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.value(), want);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace xqp
