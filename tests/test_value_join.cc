// Semantics table for value joins (exec/value_join.h): every case runs on
// the lazy, eager and vm backends and must reproduce the eager backend's
// answer on the unoptimized plan — the nested loop — result for result and
// error for error. Each case also asserts from EXPLAIN whether the
// value-join rule planned the inner for clause.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "base/metrics.h"
#include "engine.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace xqp {
namespace {

/// `o` elements carry the outer keys, `i` elements the inner ones: item a
/// has three `k` keys (two equal), d has none, and the `v` values mix
/// numbers, NaN and a non-number.
constexpr const char* kDoc =
    "<r>"
    "<o k='1' n='2.5' bad='abc'/>"
    "<o k='2' j='3' n='NaN'/>"
    "<o k='9' n='10'/>"
    "<i id='a'><k>1</k><k>2</k><k>2</k><v>1</v></i>"
    "<i id='b'><k>3</k><v>abc</v></i>"
    "<i id='c'><k>2</k><k>9</k><v>5</v></i>"
    "<i id='d'><v>NaN</v></i>"
    "</r>";

struct Case {
  const char* name;
  const char* query;
  bool planned;
  /// The executor must decline at least once on the way to its answer.
  bool declines = false;
};

const Case kCases[] = {
    // --- planned --------------------------------------------------------
    {"SeveralMatchingKeysYieldTheItemOnceInDomainOrder",
     "let $is := doc('d.xml')//i, $ks := doc('d.xml')//o/@k "
     "for $x in (1, 2) return string-join(for $i in $is "
     "where $i/k = $ks return string($i/@id), ',')",
     true},
    {"DuplicateAndMultiValuedOuterKeys",
     "for $o in doc('d.xml')//o return string-join(for $i in "
     "doc('d.xml')//i where $i/k = ($o/@k, $o/@k, $o/@j) "
     "return string($i/@id), ',')",
     true},
    {"EmptyOuterKey",
     "for $o in doc('d.xml')//o return count(for $i in doc('d.xml')//i "
     "where $i/k = $o/@missing return $i)",
     true},
    {"EmptyDomainNeverEvaluatesTheOuterKey",
     "for $o in doc('d.xml')//o return count(for $i in "
     "doc('d.xml')//nothing where $i/k = count($o/@k) idiv 0 return $i)",
     true},
    {"OuterKeyErrorIsTheNestedLoopError",
     "for $o in doc('d.xml')//o return count(for $i in doc('d.xml')//i "
     "where $i/k = count($o/@k) idiv 0 return $i)",
     true},
    {"UntypedAgainstNumericDeclines",
     "for $o in doc('d.xml')//o return string-join(for $i in "
     "doc('d.xml')//i where $i/k = number($o/@k) return string($i/@id), "
     "',')",
     true, /*declines=*/true},
    {"RestConjunctStillFilters",
     "for $o in doc('d.xml')//o return string-join(for $i in "
     "doc('d.xml')//i where $i/k = $o/@k and number($i/v) > 1 "
     "return string($i/@id), ',')",
     true},
    {"LeftNestedConjunctsAreReassociated",
     "for $o in doc('d.xml')//o return string-join(for $i in "
     "doc('d.xml')//i where $i/k = $o/@k and number($i/v) > 0 "
     "and $i/@id != 'c' return string($i/@id), ',')",
     true},
    {"RepeatedDomainItemsKeepEveryPosition",
     "let $is := doc('d.xml')//i for $o in doc('d.xml')//o "
     "return string-join(for $i in ($is, $is) where $i/k = $o/@k "
     "return string($i/@id), ',')",
     true},
    {"ThetaJoinWithNaNKeys",
     "for $o in doc('d.xml')//o return string-join(for $i in "
     "doc('d.xml')//i where number($i/v) < $o/@n return string($i/@id), "
     "',')",
     true},
    {"ThetaJoinWithTheKeyOnTheRight",
     "for $o in doc('d.xml')//o return string-join(for $i in "
     "doc('d.xml')//i where $o/@n >= number($i/v) return string($i/@id), "
     "',')",
     true},
    {"ThetaJoinUncastableOuterKeyIsTheNestedLoopError",
     "for $o in doc('d.xml')//o return count(for $i in doc('d.xml')//i "
     "where number($i/v) > $o/@bad return $i)",
     true, /*declines=*/true},
    // --- not planned ----------------------------------------------------
    {"PositionalVariable",
     "for $o in doc('d.xml')//o return string-join(for $i at $n in "
     "doc('d.xml')//i where $i/k = $o/@k return string($n), ',')",
     false},
    {"DomainConstructsNodes",
     "for $o in doc('d.xml')//o return count(for $i in (<i><k>1</k></i>, "
     "<i><k>2</k></i>) where $i/k = $o/@k return $i)",
     false},
    {"DomainReadsAnEnclosingForVariable",
     "for $o in doc('d.xml')//o return count(for $i in $o/../i "
     "where $i/k = $o/@k return $i)",
     false},
    {"NotInsideALoop",
     "count(for $i in doc('d.xml')//i where $i/k >= 2 return $i)",
     false},
};

/// The serialized result, or the error as "<code>: <message>".
std::string Outcome(const CompiledQuery& q, ExecBackend backend) {
  CompiledQuery::ExecOptions exec;
  exec.backend = backend;
  Result<std::string> out = q.ExecuteToXml(exec);
  if (out.ok()) return out.value();
  return "error " + out.status().ToString();
}

class ValueJoinTest : public ::testing::TestWithParam<Case> {};

TEST_P(ValueJoinTest, MatchesTheNestedLoopOnEveryBackend) {
  const Case& c = GetParam();
  EngineOptions options;
  options.collect_stats = true;
  XQueryEngine engine(options);
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", kDoc).status());

  XQueryEngine::CompileOptions no_opt;
  no_opt.optimize = false;
  auto reference = engine.Compile(c.query, no_opt);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string want = Outcome(*reference.value(), ExecBackend::kEager);

  auto optimized = engine.Compile(c.query);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  const std::string explain = optimized.value()->ExplainTree();
  EXPECT_EQ(explain.find("[join:") != std::string::npos, c.planned)
      << explain;

  metrics::Counter* declined =
      metrics::MetricsRegistry::Global().counter("join.value.declined");
  for (ExecBackend backend :
       {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
    const uint64_t before = declined->Value();
    EXPECT_EQ(Outcome(*optimized.value(), backend), want)
        << ExecBackendName(backend);
    if (c.declines) {
      EXPECT_GT(declined->Value(), before) << ExecBackendName(backend);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ValueJoinTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

/// The rule's two strategies on the XMark shapes they were built for, and
/// the executor's counters: one build per execution, one probe per outer
/// tuple.
TEST(ValueJoinXMark, Q8AndQ11BuildOncePerExecution) {
  EngineOptions options;
  options.collect_stats = true;
  XQueryEngine engine(options);
  XMarkOptions xmark;
  xmark.scale = 0.01;
  XQP_ASSERT_OK(
      engine.ParseAndRegister("xmark.xml", GenerateXMarkXml(xmark)).status());
  auto& registry = metrics::MetricsRegistry::Global();
  for (const char* id : {"Q8", "Q11"}) {
    auto q = engine.Compile(FindXMarkQuery(id)->text);
    ASSERT_TRUE(q.ok());
    auto persons = engine.Execute(
        "count(doc('xmark.xml')/site/people/person)");
    ASSERT_TRUE(persons.ok());
    const int64_t outer = persons.value()[0].AsAtomic().AsInt();
    for (ExecBackend backend :
         {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
      const uint64_t builds = registry.counter("join.value.builds")->Value();
      const uint64_t probes = registry.counter("join.value.probes")->Value();
      CompiledQuery::ExecOptions exec;
      exec.backend = backend;
      ASSERT_TRUE(q.value()->Execute(exec).ok());
      EXPECT_EQ(registry.counter("join.value.builds")->Value() - builds, 1u)
          << id << " " << ExecBackendName(backend);
      EXPECT_EQ(registry.counter("join.value.probes")->Value() - probes,
                uint64_t(outer))
          << id << " " << ExecBackendName(backend);
    }
  }
}

}  // namespace
}  // namespace xqp
