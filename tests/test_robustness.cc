// Robustness suite: resource governance (cancellation, deadlines, memory /
// depth / result budgets), integer-overflow semantics, deep-input handling,
// and deterministic fault injection. Error-path behavior is pinned down as
// exact StatusCodes plus a message substring, on both execution engines.

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault.h"
#include "base/limits.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "engine.h"
#include "tests/test_util.h"

namespace xqp {
namespace {

using testing_util::RunAllWays;

constexpr const char* kDoc =
    "<site><items>"
    "<item><name>broom</name><price>12</price></item>"
    "<item><name>kettle</name><price>30</price></item>"
    "<item><name>lamp</name><price>7</price></item>"
    "<item><name>mirror</name><price>55</price></item>"
    "<item><name>stool</name><price>19</price></item>"
    "</items></site>";

/// Compiles and runs `query` on one engine, returning the first failure
/// status (compile or execute), or OK.
Status RunStatus(XQueryEngine& engine, std::string_view query, bool use_lazy,
           const QueryLimits& limits = {}) {
  auto compiled = engine.Compile(query);
  if (!compiled.ok()) return compiled.status();
  CompiledQuery::ExecOptions options;
  options.backend = use_lazy ? ExecBackend::kLazy : ExecBackend::kEager;
  options.limits = limits;
  return (*compiled)->Execute(options).status();
}

void ExpectFailure(const Status& s, StatusCode code, std::string_view sub,
                   const std::string& label) {
  ASSERT_FALSE(s.ok()) << label;
  EXPECT_EQ(s.code(), code) << label << ": " << s.ToString();
  EXPECT_NE(s.message().find(sub), std::string::npos)
      << label << ": message was \"" << s.message() << "\"";
}

// ---------------------------------------------------------------------------
// Table-driven status goldens: each case must fail with the exact code and
// carry the substring, identically on the lazy and eager engines.
// ---------------------------------------------------------------------------

struct ErrorCase {
  const char* name;
  const char* query;
  StatusCode code;
  const char* substring;
};

constexpr ErrorCase kQueryErrorCases[] = {
    // Static (syntax) errors.
    {"dangling_operator", "1 +", StatusCode::kStaticError,
     "unexpected token"},
    {"unbalanced_paren", "(1, 2", StatusCode::kStaticError, "expected ')'"},
    {"incomplete_flwor", "for $x in", StatusCode::kStaticError,
     "unexpected token"},
    // Integer overflow is err:FOAR0002, not a trap (INT64_MIN is spelled
    // as an expression: the literal -9223372036854775808 would itself
    // overflow during parsing).
    {"idiv_min_by_minus_one", "(-9223372036854775807 - 1) idiv -1",
     StatusCode::kDynamicError, "FOAR0002"},
    {"add_overflow", "9223372036854775807 + 1", StatusCode::kDynamicError,
     "FOAR0002"},
    {"sub_overflow", "(-9223372036854775807 - 1) - 1",
     StatusCode::kDynamicError, "FOAR0002"},
    {"mul_overflow", "9223372036854775807 * 2", StatusCode::kDynamicError,
     "FOAR0002"},
    {"unary_negate_min", "-(-9223372036854775807 - 1)",
     StatusCode::kDynamicError, "FOAR0002"},
    {"idiv_by_zero", "1 idiv 0", StatusCode::kDynamicError,
     "division by zero"},
    {"mod_by_zero", "1 mod 0", StatusCode::kDynamicError, "modulus by zero"},
};

TEST(Robustness, QueryErrorTable) {
  XQueryEngine engine;
  for (const ErrorCase& c : kQueryErrorCases) {
    for (bool lazy : {true, false}) {
      Status s = RunStatus(engine, c.query, lazy);
      ExpectFailure(s, c.code, c.substring,
                    std::string(c.name) + (lazy ? "/lazy" : "/eager"));
    }
  }
}

TEST(Robustness, OverflowEdgeValuesStillComputable) {
  // The guarded paths must not reject legal edge arithmetic.
  EXPECT_EQ(RunAllWays("(-9223372036854775807 - 1) mod -1", ""), "0");
  EXPECT_EQ(RunAllWays("(-9223372036854775807 - 1) idiv 1", ""),
            "-9223372036854775808");
  EXPECT_EQ(RunAllWays("9223372036854775806 + 1", ""), "9223372036854775807");
}

struct XmlErrorCase {
  const char* name;
  const char* xml;
  const char* substring;
};

constexpr XmlErrorCase kXmlErrorCases[] = {
    {"unclosed_element", "<a><b></a>", "mismatched end tag"},
    {"truncated_document", "<a><b>", "unclosed"},
    {"stray_end_tag", "<a/></b>", "unexpected end tag"},
    {"text_outside_root", "hello", "outside the root"},
    {"missing_attr_value", "<a x></a>", "expected '='"},
    {"unknown_entity", "<a>&nope;</a>", "unknown entity"},
    {"multiple_roots", "<a/><b/>", "multiple root"},
    {"unterminated_comment", "<a><!-- fin</a>", "unterminated comment"},
};

TEST(Robustness, MalformedXmlTable) {
  XQueryEngine engine;
  for (const XmlErrorCase& c : kXmlErrorCases) {
    Status s = engine.ParseAndRegister("bad.xml", c.xml).status();
    ExpectFailure(s, StatusCode::kParseError, c.substring, c.name);
  }
}

// ---------------------------------------------------------------------------
// Depth budgets and deep inputs.
// ---------------------------------------------------------------------------

std::string NestedXml(size_t depth) {
  std::string xml;
  xml.reserve(depth * 7 + 16);
  for (size_t i = 0; i < depth; ++i) xml += "<a>";
  xml += "1";
  for (size_t i = 0; i < depth; ++i) xml += "</a>";
  return xml;
}

TEST(Robustness, ParseDepthDefaultCeiling) {
  XQueryEngine engine;
  // Just under the default ceiling parses...
  XQP_ASSERT_OK(
      engine.ParseAndRegister("deep-ok.xml", NestedXml(4000)).status());
  // ...past it fails cleanly with kParseError.
  Status s = engine.ParseAndRegister("deep.xml", NestedXml(5000)).status();
  ExpectFailure(s, StatusCode::kParseError, "nesting exceeds maximum depth",
                "default parse depth");
}

TEST(Robustness, HundredThousandDeepDocumentDoesNotSmashStack) {
  // 100k nested opens (never closed): the iterative parser must reject
  // this at the depth ceiling rather than recurse into oblivion.
  std::string xml;
  for (int i = 0; i < 100000; ++i) xml += "<a>";
  Status s = Document::Parse(xml).status();
  ExpectFailure(s, StatusCode::kParseError, "maximum depth", "100k deep doc");
}

TEST(Robustness, ParseDepthPerCallOverride) {
  XQueryEngine engine;
  ParseOptions options;
  options.max_parse_depth = 5;
  Status s =
      engine.ParseAndRegister("shallow.xml", NestedXml(10), options).status();
  ExpectFailure(s, StatusCode::kParseError, "maximum depth of 5",
                "per-call parse depth");
  XQP_ASSERT_OK(
      engine.ParseAndRegister("shallow.xml", NestedXml(4), options).status());
}

TEST(Robustness, ConstructedDocumentDepthIsGoverned) {
  // Node constructors bypass the pull parser; DocumentBuilder enforces the
  // ceiling itself.
  ParseOptions options;
  options.max_parse_depth = 3;
  DocumentBuilder builder(options);
  QName a("a");
  Status s = Status::OK();
  for (int i = 0; i < 10 && s.ok(); ++i) s = builder.BeginElement(a);
  ExpectFailure(s, StatusCode::kParseError, "maximum depth",
                "builder depth guard");
}

TEST(Robustness, ExprDepthDefaultCeiling) {
  // 100k nested parens: the parser's depth guard must fire (kStaticError)
  // long before the recursive descent could overflow the stack, and the
  // partially built Expr tree must destruct iteratively.
  std::string query(100000, '(');
  query += "1";
  query += std::string(100000, ')');
  XQueryEngine engine;
  for (bool lazy : {true, false}) {
    Status s = RunStatus(engine, query, lazy);
    ExpectFailure(s, StatusCode::kStaticError, "nesting exceeds maximum depth",
                  "deep parens");
  }
}

TEST(Robustness, ExprDepthEngineOverride) {
  EngineOptions options;
  options.default_limits.max_expr_depth = 10;
  XQueryEngine engine(options);
  std::string deep = std::string(40, '(') + "1" + std::string(40, ')');
  Status s = RunStatus(engine, deep, /*use_lazy=*/true);
  ExpectFailure(s, StatusCode::kStaticError, "maximum depth of 10",
                "expr depth override");
  // Shallow queries still compile under the tightened limit.
  XQP_ASSERT_OK(RunStatus(engine, "1 + 2", /*use_lazy=*/true));
}

TEST(Robustness, DeepButLegalQueryExecutes) {
  // Below the ceiling everything works, and the deep Expr/iterator trees
  // are destroyed without recursion (this test is the stack-smash canary).
  std::string query = std::string(100, '(') + "42" + std::string(100, ')');
  EXPECT_EQ(RunAllWays(query, ""), "42");
}

// ---------------------------------------------------------------------------
// Cancellation, deadlines, and budgets.
// ---------------------------------------------------------------------------

TEST(Robustness, PreCancelledTokenFailsBothEngines) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", kDoc).status());
  QueryLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  limits.cancel->Cancel();
  for (bool lazy : {true, false}) {
    Status s = RunStatus(engine, "doc('d.xml')//item/name", lazy, limits);
    ExpectFailure(s, StatusCode::kCancelled, "cancelled",
                  lazy ? "pre-cancelled/lazy" : "pre-cancelled/eager");
  }
  // The token only affects runs that carry it.
  XQP_ASSERT_OK(RunStatus(engine, "doc('d.xml')//item/name", /*use_lazy=*/true));
}

TEST(Robustness, CancelAllStopsInFlightQuery) {
  XQueryEngine engine;
  // A cross product this large never finishes on its own; cancellation is
  // the only way out.
  constexpr const char* kEternal =
      "for $i in 1 to 100000000, $j in 1 to 100000000 "
      "where $i + $j = 0 return 1";
  std::atomic<bool> started{false};
  Status result = Status::OK();
  std::thread runner([&] {
    started.store(true);
    result = RunStatus(engine, kEternal, /*use_lazy=*/true);
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.CancelAll();
  runner.join();
  ExpectFailure(result, StatusCode::kCancelled, "cancelled", "CancelAll");
  // A fresh token was installed: the engine serves new queries normally.
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r, engine.Execute("1 + 1"));
  EXPECT_EQ(r[0].AsAtomic().AsInt(), 2);
}

TEST(Robustness, DeadlineExpiryBothEngines) {
  XQueryEngine engine;
  // Big enough to outlive a 5ms deadline by orders of magnitude, small
  // enough to terminate eventually if the governor were broken.
  constexpr const char* kSlow =
      "for $i in 1 to 4000, $j in 1 to 4000 where $i + $j = 0 return 1";
  QueryLimits limits;
  limits.timeout = std::chrono::milliseconds(5);
  for (bool lazy : {true, false}) {
    Status s = RunStatus(engine, kSlow, lazy, limits);
    ExpectFailure(s, StatusCode::kCancelled, "deadline",
                  lazy ? "deadline/lazy" : "deadline/eager");
  }
}

TEST(Robustness, DeadlineStopsALongRangeOnEveryBackend) {
  // Only the range itself can poll: count() streams it on lazy and
  // nothing else runs long enough to reach a check site.
  XQueryEngine engine;
  auto compiled = engine.Compile("count(1 to 300000000)");
  XQP_ASSERT_OK(compiled.status());
  for (ExecBackend backend :
       {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
    CompiledQuery::ExecOptions options;
    options.backend = backend;
    options.limits.timeout = std::chrono::milliseconds(50);
    ExpectFailure((*compiled)->Execute(options).status(),
                  StatusCode::kCancelled, "deadline",
                  std::string("range deadline/") + ExecBackendName(backend));
  }
}

TEST(Robustness, MemoryBudgetTripsOnConstruction) {
  XQueryEngine engine;
  QueryLimits limits;
  limits.memory_budget_bytes = 64 * 1024;
  // Constructs ~100k nodes; the per-node ChargeBytes must trip the budget.
  constexpr const char* kHungry =
      "for $i in 1 to 100000 return <x>{$i}</x>";
  for (bool lazy : {true, false}) {
    Status s = RunStatus(engine, kHungry, lazy, limits);
    ExpectFailure(s, StatusCode::kResourceExhausted, "memory budget",
                  lazy ? "membudget/lazy" : "membudget/eager");
  }
  // The same query fits in a roomier budget.
  limits.memory_budget_bytes = 1024 * 1024 * 1024;
  XQP_ASSERT_OK(
      RunStatus(engine, "for $i in 1 to 10 return <x>{$i}</x>", true, limits));
}

TEST(Robustness, ResultItemCapBothEngines) {
  XQueryEngine engine;
  QueryLimits limits;
  limits.max_result_items = 5;
  for (bool lazy : {true, false}) {
    Status s = RunStatus(engine, "1 to 100", lazy, limits);
    ExpectFailure(s, StatusCode::kResourceExhausted, "result cap",
                  lazy ? "itemcap/lazy" : "itemcap/eager");
  }
  // At the cap exactly: fine.
  XQP_ASSERT_OK(RunStatus(engine, "1 to 5", /*use_lazy=*/true, limits));
}

// Profile runs the plan Execute runs, so on every backend the two agree on
// success and on the error code — including the result cap the eager
// backend enforces after evaluation and the VM's whole-plan fallback
// (try/catch and typeswitch roots do not compile to bytecode).
/// The XMark Q8 shape (a correlated nested FLWOR the value-join rule turns
/// into a hash join) under governor limits: the executor's index build
/// polls the governor and charges its bytes, a trip makes it decline, and
/// the sticky trip then fails the nested loop — with the same status on
/// every backend.
TEST(Robustness, ValueJoinBuildHonorsGovernorOnEveryBackend) {
  // 2000 inner items with ~400-byte keys: an index of ~1 MB.
  const std::string pad(400, 'x');
  std::string doc = "<r>";
  for (int i = 0; i < 3; ++i) {
    doc += "<p id='k" + std::to_string(i * 7) + pad + "'/>";
  }
  for (int i = 0; i < 2000; ++i) {
    doc += "<t><b>k" + std::to_string(i) + pad + "</b></t>";
  }
  doc += "</r>";
  constexpr const char* kQ8Shape =
      "for $p in doc('d.xml')/r/p return count(for $t in doc('d.xml')/r/t "
      "where $t/b = $p/@id return $t)";
  EngineOptions options;
  options.collect_stats = true;
  options.enable_indexes = false;  // Only the join's index is charged.
  XQueryEngine engine(options);
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", doc).status());
  XQP_ASSERT_OK_AND_ASSIGN(std::unique_ptr<CompiledQuery> q,
                           engine.Compile(kQ8Shape));
  ASSERT_NE(q->ExplainTree().find("[join: hash]"), std::string::npos);

  QueryLimits tight;
  tight.memory_budget_bytes = 512 * 1024;
  QueryLimits cancelled;
  cancelled.cancel = std::make_shared<CancelToken>();
  cancelled.cancel->Cancel();
  metrics::Counter* declined =
      metrics::MetricsRegistry::Global().counter("join.value.declined");
  for (const auto& [limits, code, message] :
       {std::tuple{tight, StatusCode::kResourceExhausted,
                   "query memory budget of 524288 bytes exceeded"},
        std::tuple{cancelled, StatusCode::kCancelled, "query cancelled"}}) {
    for (ExecBackend backend :
         {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
      CompiledQuery::ExecOptions exec;
      exec.backend = backend;
      exec.limits = limits;
      const uint64_t before = declined->Value();
      Status s = q->Execute(exec).status();
      const std::string label = std::string(message) + " on " +
                                ExecBackendName(backend);
      EXPECT_EQ(s.code(), code) << label << ": " << s.ToString();
      EXPECT_EQ(s.message(), message) << label;
      if (code == StatusCode::kResourceExhausted) {
        EXPECT_GT(declined->Value(), before) << label;  // Tripped in build.
      }
    }
  }
  // With room for the index every backend answers.
  for (ExecBackend backend :
       {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    exec.limits.memory_budget_bytes = 64 * 1024 * 1024;
    XQP_ASSERT_OK_AND_ASSIGN(std::string out, q->ExecuteToXml(exec));
    EXPECT_EQ(out, "1 1 1") << ExecBackendName(backend);
  }
}

TEST(Robustness, ProfileAgreesWithExecuteOnEveryBackend) {
  struct ParityCase {
    const char* query;
    uint64_t max_result_items;
  };
  constexpr ParityCase kCases[] = {
      {"(1, 2, 3)", 1},
      {"(1, 2, 3)", 3},
      {"try { (1, 2) } catch * { 3 }", 1},
      {"typeswitch (1) case xs:string return 1 default return (2, 3)", 1},
      {"typeswitch (1) case xs:string return 1 default return (2, 3)", 0},
  };
  XQueryEngine engine;
  for (const ParityCase& c : kCases) {
    XQP_ASSERT_OK_AND_ASSIGN(std::unique_ptr<CompiledQuery> q,
                             engine.Compile(c.query));
    for (ExecBackend backend :
         {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
      CompiledQuery::ExecOptions options;
      options.backend = backend;
      options.limits.max_result_items = c.max_result_items;
      const std::string label = std::string(c.query) + " cap=" +
                                std::to_string(c.max_result_items) + " on " +
                                ExecBackendName(backend);
      Result<Sequence> executed = q->Execute(options);
      Result<ProfileReport> profiled = q->Profile(options);
      ASSERT_EQ(executed.ok(), profiled.ok()) << label;
      if (!executed.ok()) {
        EXPECT_EQ(executed.status().code(), profiled.status().code())
            << label;
      }
    }
  }

  // The VM's whole-plan fallback is an engine event Profile must report.
  XQP_ASSERT_OK_AND_ASSIGN(std::unique_ptr<CompiledQuery> q,
                           engine.Compile("try { 1 } catch * { 2 }"));
  CompiledQuery::ExecOptions vm;
  vm.backend = ExecBackend::kVm;
  XQP_ASSERT_OK_AND_ASSIGN(ProfileReport report, q->Profile(vm));
  const auto& counters = report.engine_metrics.counters;
  auto fallbacks = counters.find("vm.fallbacks");
  ASSERT_NE(fallbacks, counters.end());
  EXPECT_EQ(fallbacks->second, 1u);
}

TEST(Robustness, TripsAreRecordedInMetrics) {
  // Trip counters register unconditionally (trips are rare), so they show
  // up in PROFILE registry deltas even on engines with stats off.
  metrics::Counter* cancelled =
      metrics::MetricsRegistry::Global().counter("governor.cancelled");
  metrics::Counter* budget_trips =
      metrics::MetricsRegistry::Global().counter("governor.budget_trips");
  uint64_t cancelled_before = cancelled->Value();
  uint64_t budget_before = budget_trips->Value();

  XQueryEngine engine;
  QueryLimits limits;
  limits.cancel = std::make_shared<CancelToken>();
  limits.cancel->Cancel();
  EXPECT_EQ(RunStatus(engine, "1 to 10", true, limits).code(),
            StatusCode::kCancelled);
  QueryLimits cap;
  cap.max_result_items = 2;
  EXPECT_EQ(RunStatus(engine, "1 to 10", true, cap).code(),
            StatusCode::kResourceExhausted);

  EXPECT_GT(cancelled->Value(), cancelled_before);
  EXPECT_GT(budget_trips->Value(), budget_before);
}

TEST(Robustness, EngineDefaultLimitsApply) {
  EngineOptions options;
  options.default_limits.max_result_items = 3;
  XQueryEngine engine(options);
  Status s = RunStatus(engine, "1 to 10", /*use_lazy=*/true);
  ExpectFailure(s, StatusCode::kResourceExhausted, "result cap",
                "engine default limits");
  // Per-call limits override field-by-field.
  QueryLimits roomy;
  roomy.max_result_items = 100;
  XQP_ASSERT_OK(RunStatus(engine, "1 to 10", /*use_lazy=*/true, roomy));
}

TEST(Robustness, ResultStreamHonorsGovernor) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(std::unique_ptr<CompiledQuery> q,
                           engine.Compile("1 to 1000"));
  CompiledQuery::ExecOptions options;
  auto token = std::make_shared<CancelToken>();
  options.limits.cancel = token;
  XQP_ASSERT_OK_AND_ASSIGN(std::unique_ptr<ResultStream> stream,
                           q->Open(options));
  Item item;
  XQP_ASSERT_OK_AND_ASSIGN(bool got, stream->Next(&item));
  EXPECT_TRUE(got);
  token->Cancel();
  Status s = stream->Next(&item).status();
  ExpectFailure(s, StatusCode::kCancelled, "cancelled", "stream cancel");
  // The trip latch is sticky: later pulls report the same verdict.
  s = stream->Next(&item).status();
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

// A stream drained to the end and the materializing lazy Execute pull
// through the same governed step, so the result cap trips both with the
// same code and message.
TEST(Robustness, ResultStreamCapMatchesExecute) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(std::unique_ptr<CompiledQuery> q,
                           engine.Compile("for $i in 1 to 10 return $i * 2"));
  CompiledQuery::ExecOptions options;
  options.backend = ExecBackend::kLazy;
  options.limits.max_result_items = 4;
  XQP_ASSERT_OK_AND_ASSIGN(std::unique_ptr<ResultStream> stream,
                           q->Open(options));
  Item item;
  Status streamed;
  size_t pulled = 0;
  while (true) {
    Result<bool> got = stream->Next(&item);
    if (!got.ok()) {
      streamed = got.status();
      break;
    }
    if (!got.value()) break;
    ++pulled;
  }
  EXPECT_EQ(pulled, 4u);
  Status executed = q->Execute(options).status();
  ExpectFailure(executed, StatusCode::kResourceExhausted, "result cap",
                "execute cap");
  EXPECT_EQ(streamed.code(), executed.code());
  EXPECT_EQ(streamed.message(), executed.message());
}

TEST(Robustness, BatchParallelObservesCancelAll) {
  XQueryEngine engine;
  engine.CancelAll();  // Swapping tokens with no queries in flight is a no-op
  std::vector<std::string_view> queries = {"1+1", "2+2", "3+3"};
  std::vector<Result<Sequence>> results = engine.ExecuteBatchParallel(queries);
  ASSERT_EQ(results.size(), 3u);
  for (auto& r : results) XQP_ASSERT_OK(r.status());
}

// ---------------------------------------------------------------------------
// Deterministic fault injection.
// ---------------------------------------------------------------------------

TEST(Robustness, FaultAtIteratorsNextCancelsMidStreamBothEngines) {
  // The acceptance scenario: a differential-suite style query is cancelled
  // mid-stream via the "iterators.next" site, fails with kCancelled on
  // both engines, and the engine then serves the identical query again.
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("site.xml", kDoc).status());
  constexpr const char* kQuery =
      "for $i in doc('site.xml')//item where $i/price > 10 return $i/name";
  for (bool lazy : {true, false}) {
    {
      fault::ScopedFault f("iterators.next", 3, StatusCode::kCancelled);
      Status s = RunStatus(engine, kQuery, lazy);
      ExpectFailure(s, StatusCode::kCancelled, "injected fault",
                    lazy ? "fault-cancel/lazy" : "fault-cancel/eager");
    }
    // Fault fired once and disarmed; the same engine, same query, works.
    Status ok = RunStatus(engine, kQuery, lazy);
    XQP_ASSERT_OK(ok);
  }
  // And the two engines still agree on the answer.
  EXPECT_EQ(RunAllWays("for $i in doc('doc.xml')//item "
                       "where $i/price > 10 return $i/name",
                       kDoc),
            "<name>broom</name><name>kettle</name>"
            "<name>mirror</name><name>stool</name>");
}

TEST(Robustness, FaultAtParseNext) {
  fault::ScopedFault f("parse.next", 2, StatusCode::kIoError);
  Status s = Document::Parse("<a><b/><c/></a>").status();
  ExpectFailure(s, StatusCode::kIoError, "injected fault", "parse.next");
  // Disarmed after firing: parsing recovers process-wide.
  XQP_ASSERT_OK(Document::Parse("<a><b/><c/></a>").status());
}

TEST(Robustness, FaultAtAllocFailsConstructionCleanly) {
  XQueryEngine engine;
  fault::ScopedFault f("alloc", 5, StatusCode::kResourceExhausted);
  Status s =
      RunStatus(engine, "for $i in 1 to 100 return <x>{$i}</x>", /*use_lazy=*/true);
  ExpectFailure(s, StatusCode::kResourceExhausted, "injected fault", "alloc");
}

TEST(Robustness, FaultAtPoolSubmitDegradesToInlineRun) {
  // A refused pool enqueue must not deadlock or change results: the task
  // runs inline on the submitting thread. A 4-query batch split 4 ways
  // submits helper tasks whenever the global pool has workers.
  EngineOptions options;
  options.num_threads = 4;
  XQueryEngine engine(options);
  XQP_ASSERT_OK(engine.ParseAndRegister("site.xml", kDoc).status());
  const std::vector<std::string_view> queries = {
      "count(doc('site.xml')//name)", "doc('site.xml')//item[price > 20]",
      "sum(doc('site.xml')//price)", "doc('site.xml')//name[. = 'lamp']"};
  std::vector<std::string> expected;
  for (std::string_view q : queries) {
    XQP_ASSERT_OK_AND_ASSIGN(Sequence r, engine.Execute(q));
    XQP_ASSERT_OK_AND_ASSIGN(std::string xml, SerializeSequence(r));
    expected.push_back(std::move(xml));
  }
  std::vector<Result<Sequence>> batch;
  {
    fault::ScopedFault f("pool.submit", 1, StatusCode::kInternal);
    batch = engine.ExecuteBatchParallel(queries);
    if (ThreadPool::Global().num_threads() > 0) {
      EXPECT_FALSE(fault::Armed()) << "pool.submit never fired";
    }
  }
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << queries[i] << ": "
                               << batch[i].status().ToString();
    XQP_ASSERT_OK_AND_ASSIGN(std::string xml,
                             SerializeSequence(batch[i].value()));
    EXPECT_EQ(xml, expected[i]) << queries[i];
  }
}

TEST(Robustness, FaultNthCountingIsExact) {
  // nth = 1 means the very first hit; the fault then disarms itself.
  fault::ScopedFault f("parse.next", 1);
  EXPECT_TRUE(fault::Armed());
  Status s = Document::Parse("<a/>").status();
  ExpectFailure(s, StatusCode::kInternal, "injected fault", "nth=1");
  EXPECT_FALSE(fault::Armed());
}

}  // namespace
}  // namespace xqp
