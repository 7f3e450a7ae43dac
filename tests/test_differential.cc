// Randomized differential testing: generated path/FLWOR queries over random
// documents must produce identical results on the eager interpreter, the
// lazy streaming engine and the vm, optimized and not. The XMark suite
// below adds ExecuteBatchParallel to the cross-check and asserts the
// profile invariant (plan-root item count == result cardinality) on every
// generated query. The constructor tables at the end pin fixed
// construction queries, errors included, across all three backends.

#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault.h"
#include "engine.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"
#include "xmark/generator.h"

namespace xqp {
namespace {

using testing_util::RandomXml;
using testing_util::RunAllWays;

/// Generates a random query from a small grammar over tags a..d.
std::string RandomQuery(SplitMix64* rng) {
  auto tag = [&] {
    return std::string(1, static_cast<char>('a' + rng->Below(4)));
  };
  auto step = [&]() -> std::string {
    switch (rng->Below(11)) {
      case 0:
        return "/" + tag();
      case 1:
        return "//" + tag();
      case 2:
        return "/" + tag() + "[" + std::to_string(1 + rng->Below(3)) + "]";
      case 3:
        return "/" + tag() + "[" + tag() + "]";
      case 4:
        return "/*";
      // Focus-sensitive predicates: last(), position(), reverse-axis
      // positions, and a nested predicate whose focus must be restored.
      case 5:
        return "/" + tag() + "[last()]";
      case 6:
        return "/" + tag() + "[position() > 1]";
      case 7:
        return "/ancestor::*[1]";
      case 8:
        return "/preceding-sibling::*[last()]";
      case 9:
        return "/" + tag() + "[" + tag() + "[1]]";
      default:
        return "/" + tag() + "[@k]";
    }
  };
  std::string path = "doc('doc.xml')";
  size_t steps = 1 + rng->Below(4);
  for (size_t i = 0; i < steps; ++i) path += step();

  switch (rng->Below(12)) {
    case 0:
      return "count(" + path + ")";
    case 1:
      return "string-join(for $n in " + path + " return name($n), ',')";
    case 2:
      return "for $n in " + path + " where count($n/*) > 0 return name($n)";
    case 3:
      return "count(" + path + " union doc('doc.xml')//" + tag() + ")";
    case 4:
      return "let $s := " + path +
             " return count($s) + count($s[@k]) * 100";
    case 5:
      return "some $n in " + path + " satisfies count($n/*) > 1";
    case 6:
      return "every $n in " + path + " satisfies exists($n/@k) or "
             "count($n/ancestor::*) > 0";
    case 7:
      return "sum(for $n in " + path + " return string-length(name($n)))";
    case 8:
      // Direct constructor with an attribute value template — the vm's
      // kConstructElem path, serialized as the result.
      return "for $n in " + path +
             " return <v n=\"{name($n)}\">{count($n/*)}</v>";
    case 9:
      // Computed element + attribute constructors with computed names.
      return "for $n in " + path + " return element {concat(name($n), '-', "
             "count($n/*) mod 3)} {attribute k {string($n/@k)}, name($n)}";
    case 10:
      // Multi-key order-by with modifiers (kSortOpen/kSortKey/kSortTuples):
      // possibly-empty first key exercises empty greatest/least.
      return "string-join(for $n in " + path +
             " order by $n/@k empty greatest, "
             "count($n/*) descending, name($n) return name($n), ',')";
    default:
      return "string-join(for $n in " + path +
             " order by string($n/@k) return name($n), '')";
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, EnginesAndOptimizerAgree) {
  SplitMix64 rng(GetParam());
  std::string doc = RandomXml(GetParam() * 31 + 7, 250, 4);
  for (int i = 0; i < 20; ++i) {
    std::string query = RandomQuery(&rng);
    std::string reference = RunAllWays(query, doc);
    ASSERT_EQ(reference.find("COMPILE-ERROR"), std::string::npos)
        << query << " -> " << reference;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15));

// --- XMark differential suite ---------------------------------------------

/// One XMark scale-0.02 document parsed once and shared by every test
/// instance (parsing dominates the suite's runtime otherwise).
std::shared_ptr<const Document> SharedXMarkDoc() {
  static auto* doc = new std::shared_ptr<const Document>([] {
    XMarkOptions options;
    options.scale = 0.02;
    return Document::Parse(GenerateXMarkXml(options)).ValueOrDie();
  }());
  return *doc;
}

/// The shared XMark document frozen through the storage subsystem, indexes
/// included — the snapshot twin below reopens it via mmap, so every
/// generated query also cross-checks parsed-vs-snapshot-loaded execution.
const std::string& SharedXMarkSnapshotPath() {
  static auto* path = new std::string([] {
    std::string p = ::testing::TempDir() + "/xqp_diff_xmark.xqps";
    std::shared_ptr<const Document> doc = SharedXMarkDoc();
    auto indexes = DocumentIndexes::Build(doc, kIndexValueAll).ValueOrDie();
    storage::SnapshotInput input;
    input.doc = doc.get();
    input.indexes = indexes.get();
    Status st = storage::WriteSnapshotFile(p, input);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return p;
  }());
  return *path;
}

/// Random queries over the real XMark vocabulary: anchored descendant
/// paths with positional / existence / twig predicates, wrapped in the
/// aggregate and FLWOR shapes the engines treat differently (streaming vs
/// materializing, rewritten vs not).
std::string RandomXMarkQuery(SplitMix64* rng) {
  static constexpr const char* kTags[] = {
      "item",     "name",     "keyword",  "bidder",   "increase",
      "seller",   "open_auction", "description", "mailbox", "date",
      "price",    "payment",  "category", "location", "quantity",
      "person",   "emph",     "listitem", "bold",     "text"};
  auto tag = [&] {
    return std::string(kTags[rng->Below(std::size(kTags))]);
  };
  // Value predicates over typed XMark content — the shapes the value index
  // answers (index/index_planner.h), so indexed and unindexed plans get
  // cross-checked on numeric ranges, attribute equality, and string
  // comparisons alike.
  auto value_pred = [&]() -> std::string {
    switch (rng->Below(5)) {
      case 0:
        return "[quantity < " + std::to_string(1 + rng->Below(6)) + "]";
      case 1:
        return "[quantity = " + std::to_string(1 + rng->Below(6)) + "]";
      case 2:
        return "[@id = 'person" + std::to_string(rng->Below(40)) + "']";
      case 3:
        return "[price >= " + std::to_string(10 * rng->Below(12)) + "]";
      default:
        return "[date != '01/01/2000']";
    }
  };
  auto step = [&](bool first) -> std::string {
    switch (rng->Below(10)) {
      case 0:
        return "//" + tag();
      case 1:
        return (first ? "//" : "/") + tag();
      case 2:
        return "//" + tag() + "[" + std::to_string(1 + rng->Below(3)) + "]";
      case 3:
        return "//" + tag() + "[" + tag() + "]";
      case 4:
        return first ? "//" + tag() : "/*";
      case 5:
        return "//item" + value_pred();
      case 6:
        return "//" + tag() + value_pred();
      case 7:
        // Pure child segments lower to the vm's kNavStep fast path.
        return (first ? "/site/" : "/") + tag();
      case 8:
        return first ? "//item/@id" : "/@id";
      default:
        return "//" + tag() + "[.//" + tag() + "]";
    }
  };
  // Correlated nested FLWORs over the XMark id references: the value-join
  // rule plans the inner for (a hash join on =, a range join on the
  // ordering operators), which the unoptimized reference runs as the
  // nested loop.
  auto correlated = [&]() -> std::string {
    static constexpr const char* kThetaOps[] = {"<", "<=", ">", ">="};
    const std::string op = kThetaOps[rng->Below(std::size(kThetaOps))];
    const std::string k = std::to_string(100 * (1 + rng->Below(60)));
    switch (rng->Below(4)) {
      case 0:
        // Multi-valued inner keys plus a rest conjunct.
        return "for $p in doc('xmark.xml')/site/people/person "
               "return count(for $t in doc('xmark.xml')/site/open_auctions/"
               "open_auction where $t/bidder/personref/@person = $p/@id "
               "and count($t/bidder) > " + std::to_string(rng->Below(4)) +
               " return $t)";
      case 1:
        return rng->Below(2) == 0
                   ? "for $p in doc('xmark.xml')/site/people/person "
                     "return count(for $t in doc('xmark.xml')/site/"
                     "closed_auctions/closed_auction where "
                     "$t/buyer/@person = $p/@id return $t)"
                   : "for $t in doc('xmark.xml')/site/closed_auctions/"
                     "closed_auction return <a>{for $i in doc('xmark.xml')/"
                     "site/regions//item where $t/itemref/@item = $i/@id "
                     "return string($i/name)}</a>";
      case 2:
        return "for $p in doc('xmark.xml')/site/people/person "
               "return count(for $i in doc('xmark.xml')/site/open_auctions/"
               "open_auction/initial where $p/profile/@income " + op + " " +
               k + " * $i return $i)";
      default:
        return "for $p in doc('xmark.xml')/site/people/person "
               "return <n>{for $i in doc('xmark.xml')/site/open_auctions/"
               "open_auction/initial where $i * " + k + " " + op +
               " $p/profile/@income return string($i)}</n>";
    }
  };

  std::string path = "doc('xmark.xml')";
  size_t steps = 1 + rng->Below(3);
  for (size_t i = 0; i < steps; ++i) path += step(i == 0);

  switch (rng->Below(13)) {
    case 0:
      return "count(" + path + ")";
    case 1:
      return "string-join(for $n in " + path + " return name($n), ',')";
    case 2:
      return "for $n in " + path + " where count($n/*) > 2 return name($n)";
    case 3:
      return "let $s := " + path +
             " return count($s) * 10 + count($s[.//keyword])";
    case 4:
      return "some $n in " + path + " satisfies count($n/*) > 3";
    case 5:
      return "sum(for $n in " + path + " return string-length(name($n)))";
    case 6:
      return "for $n in " + path +
             " order by string($n/name[1]) return name($n)";
    case 7:
      // Direct constructor return clause — the XMark Q13-style transform
      // the vm now compiles via kConstructElem.
      return "for $n in " + path +
             " return <hit tag=\"{name($n)}\">{string-length($n)}</hit>";
    case 8:
      // Computed element/attribute/text constructors with a computed name.
      return "for $n in " + path + " return element {concat('e', "
             "string-length(name($n)) mod 4)} {attribute src {name($n)}, "
             "text {count($n/*)}}";
    case 9:
      // Multi-key order-by with modifiers; the @id key is empty for
      // attribute-valued $n, exercising empty least.
      return "string-join(for $n in " + path +
             " order by string-length(name($n)) descending, "
             "$n/@id empty least return name($n), '.')";
    case 10:
    case 11:
      return correlated();
    default:
      return "count(" + path + " union doc('xmark.xml')//keyword)";
  }
}

class XMarkDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XMarkDifferentialTest, EnginesBatchAndProfileAgree) {
  SplitMix64 rng(GetParam() * 7919 + 13);
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.RegisterDocument("xmark.xml", SharedXMarkDoc()));

  // Twin engine with the index subsystem off: optimized plans here carry no
  // index marks, so comparing its output pins indexed execution to the
  // join/navigation plans byte for byte.
  EngineOptions unindexed_options;
  unindexed_options.enable_indexes = false;
  XQueryEngine unindexed(unindexed_options);
  XQP_ASSERT_OK(unindexed.RegisterDocument("xmark.xml", SharedXMarkDoc()));

  // Snapshot twin: the same document persisted and reopened through the
  // storage subsystem — zero-copy mmap'd node table, adopted
  // snapshot-resident indexes. Results must be bit-identical to the
  // parsed original on every backend.
  XQueryEngine snapped;
  XQP_ASSERT_OK(
      snapped.LoadDocumentSnapshot("xmark.xml", SharedXMarkSnapshotPath())
          .status());
  ASSERT_NE(snapped.PeekDocumentIndexes("xmark.xml"), nullptr);

  XQueryEngine::CompileOptions no_opt;
  no_opt.optimize = false;
  CompiledQuery::ExecOptions eager;
  eager.backend = ExecBackend::kEager;
  CompiledQuery::ExecOptions lazy;
  lazy.backend = ExecBackend::kLazy;
  CompiledQuery::ExecOptions vmexec;
  vmexec.backend = ExecBackend::kVm;

  std::vector<std::string> queries;
  std::vector<std::string> expected;
  for (int i = 0; i < 8; ++i) {
    std::string query = RandomXMarkQuery(&rng);

    // Reference: eager interpreter on the unoptimized plan.
    auto reference = engine.Compile(query, no_opt);
    ASSERT_TRUE(reference.ok()) << query << ": "
                                << reference.status().ToString();
    XQP_ASSERT_OK_AND_ASSIGN(std::string want,
                             reference.value()->ExecuteToXml(eager));
    EXPECT_EQ(reference.value()->ExecuteToXml(lazy).ValueOrDie(), want)
        << query;

    // Optimized plan, all three backends. The vm twin pins the bytecode
    // compiler + VM (and its per-subtree bailouts) bit-identical to lazy.
    auto optimized = engine.Compile(query);
    ASSERT_TRUE(optimized.ok()) << query;
    EXPECT_EQ(optimized.value()->ExecuteToXml(eager).ValueOrDie(), want)
        << query;
    EXPECT_EQ(optimized.value()->ExecuteToXml(lazy).ValueOrDie(), want)
        << query;
    EXPECT_EQ(optimized.value()->ExecuteToXml(vmexec).ValueOrDie(), want)
        << query;

    // Fault injection at the bytecode compiler: the query must fall back
    // to the lazy engine transparently, still bit-identical.
    {
      fault::ScopedFault vm_fault("vm.compile", 1);
      auto faulted = engine.Compile(query);
      ASSERT_TRUE(faulted.ok()) << query;
      EXPECT_EQ(faulted.value()->ExecuteToXml(vmexec).ValueOrDie(), want)
          << query << " (vm.compile fault)";
    }

    // Resource-limit parity: with a tight result cap the vm backend trips
    // the same governor error as lazy, or both succeed with equal results.
    {
      CompiledQuery::ExecOptions capped_lazy = lazy;
      capped_lazy.limits.max_result_items = 3;
      CompiledQuery::ExecOptions capped_vm = vmexec;
      capped_vm.limits.max_result_items = 3;
      auto lazy_r = optimized.value()->Execute(capped_lazy);
      auto vm_r = optimized.value()->Execute(capped_vm);
      ASSERT_EQ(lazy_r.ok(), vm_r.ok()) << query;
      if (lazy_r.ok()) {
        EXPECT_EQ(SerializeSequence(vm_r.value()).ValueOrDie(),
                  SerializeSequence(lazy_r.value()).ValueOrDie())
            << query;
      } else {
        EXPECT_EQ(vm_r.status().code(), lazy_r.status().code()) << query;
      }
    }

    // Optimized plan with indexes disabled engine-wide.
    auto plain = unindexed.Compile(query);
    ASSERT_TRUE(plain.ok()) << query;
    EXPECT_EQ(plain.value()->ExecuteToXml(lazy).ValueOrDie(), want) << query;

    // Snapshot twin, all three backends.
    auto snap = snapped.Compile(query);
    ASSERT_TRUE(snap.ok()) << query;
    EXPECT_EQ(snap.value()->ExecuteToXml(lazy).ValueOrDie(), want)
        << query << " (snapshot twin, lazy)";
    EXPECT_EQ(snap.value()->ExecuteToXml(eager).ValueOrDie(), want)
        << query << " (snapshot twin, eager)";
    EXPECT_EQ(snap.value()->ExecuteToXml(vmexec).ValueOrDie(), want)
        << query << " (snapshot twin, vm)";

    // Profile invariant on the optimized plan, both engines: the root
    // operator's item count is the result cardinality and the profiled
    // result is the reference result.
    for (const auto& exec : {lazy, eager, vmexec}) {
      auto report = optimized.value()->Profile(exec);
      ASSERT_TRUE(report.ok()) << query << ": "
                               << report.status().ToString();
      const OpStats* root = report.value().RootStats();
      ASSERT_NE(root, nullptr) << query;
      EXPECT_EQ(root->items, report.value().result.size())
          << query << " (" << ExecBackendName(*exec.backend) << ")";
      EXPECT_EQ(SerializeSequence(report.value().result).ValueOrDie(), want)
          << query;
    }

    queries.push_back(std::move(query));
    expected.push_back(std::move(want));
  }

  // The whole batch fanned across the thread pool must be positionally
  // identical to the serial reference runs.
  std::vector<std::string_view> views(queries.begin(), queries.end());
  auto batch = engine.ExecuteBatchParallel(views);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok())
        << queries[i] << ": " << batch[i].status().ToString();
    EXPECT_EQ(SerializeSequence(batch[i].value()).ValueOrDie(), expected[i])
        << queries[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XMarkDifferentialTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// --- Constructor tables ------------------------------------------------------

constexpr char kCtorDocXml[] = "<r><c>1</c><c>2</c></r>";

/// kCtorDocXml frozen through the storage subsystem, for the snapshot twin
/// of the constructor tables.
const std::string& CtorDocSnapshotPath() {
  static auto* path = new std::string([] {
    std::string p = ::testing::TempDir() + "/xqp_diff_ctor_doc.xqps";
    auto doc = Document::Parse(kCtorDocXml).ValueOrDie();
    storage::SnapshotInput input;
    input.doc = doc.get();
    Status st = storage::WriteSnapshotFile(p, input);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return p;
  }());
  return *path;
}

/// Runs `query` on the unoptimized eager reference, then on lazy
/// (unoptimized), lazy, eager and vm (optimized), and lazy, eager and vm
/// against a snapshot-loaded twin of the document, each with `limits`:
/// every run must produce the reference serialization, or fail with the
/// reference's code and exact message. Returns the serialization or
/// "ERROR: <message>".
std::string RunEveryBackend(const std::string& query,
                            const QueryLimits& limits = {}) {
  XQueryEngine engine;
  auto doc = engine.ParseAndRegister("doc.xml", kCtorDocXml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  XQueryEngine snapped;
  auto loaded = snapped.LoadDocumentSnapshot("doc.xml", CtorDocSnapshotPath());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  XQueryEngine::CompileOptions no_opt;
  no_opt.optimize = false;
  auto reference = engine.Compile(query, no_opt);
  auto optimized = engine.Compile(query);
  auto twin = snapped.Compile(query);
  if (!reference.ok() || !optimized.ok() || !twin.ok()) {
    ADD_FAILURE() << query << ": "
                  << (!reference.ok() ? reference
                      : !optimized.ok() ? optimized
                                        : twin)
                         .status()
                         .ToString();
    return "COMPILE-ERROR";
  }
  auto run = [&](const CompiledQuery& q, ExecBackend backend) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    exec.limits = limits;
    return q.ExecuteToXml(exec);
  };
  const Result<std::string> want = run(*reference.value(), ExecBackend::kEager);
  auto check = [&](const Result<std::string>& got, const char* what) {
    ASSERT_EQ(got.ok(), want.ok())
        << query << " (" << what << "): "
        << (got.ok() ? got.value() : got.status().ToString());
    if (want.ok()) {
      EXPECT_EQ(got.value(), want.value()) << query << " (" << what << ")";
    } else {
      EXPECT_EQ(got.status().code(), want.status().code())
          << query << " (" << what << ")";
      EXPECT_EQ(got.status().message(), want.status().message())
          << query << " (" << what << ")";
    }
  };
  check(run(*reference.value(), ExecBackend::kLazy), "lazy, unoptimized");
  check(run(*optimized.value(), ExecBackend::kLazy), "lazy");
  check(run(*optimized.value(), ExecBackend::kEager), "eager");
  check(run(*optimized.value(), ExecBackend::kVm), "vm");
  check(run(*twin.value(), ExecBackend::kLazy), "snapshot twin, lazy");
  check(run(*twin.value(), ExecBackend::kEager), "snapshot twin, eager");
  check(run(*twin.value(), ExecBackend::kVm), "snapshot twin, vm");
  return want.ok() ? want.value()
                   : "ERROR: " + std::string(want.status().message());
}

struct CtorCase {
  const char* query;
  const char* want;
};

/// Trees built by element, attribute, text, comment and PI constructors
/// are parentless: the constructed node is the root, so '/' below it is
/// err:XPDY0050. Document constructors root their tree at the document.
TEST(ConstructorDifferential, ConstructedTreesAreParentless) {
  const CtorCase cases[] = {
      {"let $x := <a><b/></a> return (count($x/..), name(root($x/b)), "
       "count($x/b/ancestor::node()))",
       "0 a 1"},
      {"let $x := <a><b/></a> return count($x/b/(/))",
       "ERROR: leading '/' requires the context node's tree to be rooted "
       "at a document node"},
      {"let $x := <a><b/><c/></a> return (count($x/c/preceding::node()), "
       "count($x/b/following::node()), count($x/preceding-sibling::node()))",
       "1 1 0"},
      {"(count(attribute b {1}/..), count(text {'t'}/..), "
       "count(comment {'c'}/..), count(processing-instruction p {'d'}/..))",
       "0 0 0 0"},
      {"let $t := text {'t'} return (root($t) is $t, "
       "count(root(<a>{$t}</a>/text())/a))",
       "true 0"},
      {"let $d := document {<a><b/></a>} return (count($d/a/b/(/)), "
       "count($d/a/..), name(root($d/a/b)/*))",
       "1 1 a"},
      {"let $x := <a><b/></a> return count(<c>{$x}</c>/a/b/ancestor::node())",
       "2"},
      {"count(doc('doc.xml')//c[1]/(/))", "1"},
  };
  for (const CtorCase& c : cases) {
    EXPECT_EQ(RunEveryBackend(c.query), c.want) << c.query;
  }
}

/// Direct attributes are written straight into their element's builder;
/// duplicates, ordering, value joining and errors stay those of the
/// attribute-node path.
TEST(ConstructorDifferential, DirectAttributes) {
  const CtorCase cases[] = {
      {"<a b=\"1\">{attribute b {2}}</a>", "ERROR: duplicate attribute: b"},
      {"<a b=\"1\">{attribute {'b'} {2}}</a>",
       "ERROR: duplicate attribute: b"},
      {"<a>x{attribute b {1}}</a>",
       "ERROR: attribute \"b\" constructed after non-attribute content of "
       "element"},
      {"<a b=\"{()}\" c=\"x{()}y\"/>", "<a b=\"\" c=\"xy\"/>"},
      {"<a b=\"[{doc('doc.xml')//c}]\" n=\"{(1, 'two', 3.5)}\"/>",
       "<a b=\"[1 2]\" n=\"1 two 3.5\"/>"},
      // Value parts evaluate in order, so the first error wins.
      {"for $i in (0, 1) return <a b=\"{1 div $i}\" c=\"{'x' + $i}\"/>",
       "ERROR: decimal division by zero"},
      {"for $i in (0, 1) return <a b=\"{$i}\" c=\"{'x' + $i}\" "
       "d=\"{1 div $i}\"/>",
       "ERROR: arithmetic on non-numeric operand (xs:string)"},
      {"<p:a xmlns:p=\"urn:p\" xmlns=\"urn:d\" p:b=\"1\" "
       "c=\"{1 + 1}\"><d e=\"{'f'}\"/></p:a>",
       "<p:a xmlns:p=\"urn:p\" xmlns=\"urn:d\" p:b=\"1\" c=\"2\">"
       "<d e=\"f\"/></p:a>"},
      {"<a>{attribute {concat('b', 'c')} {1}}</a>", "<a bc=\"1\"/>"},
      {"element a {attribute {'x'} {1}, attribute y {2}}",
       "<a x=\"1\" y=\"2\"/>"},
      {"for $i in 1 to 2 return <v n=\"{$i}\" m=\"{$i * 2}\">{"
       "attribute k {$i}, $i}</v>",
       "<v n=\"1\" m=\"2\" k=\"1\">1</v><v n=\"2\" m=\"4\" k=\"2\">2</v>"},
  };
  for (const CtorCase& c : cases) {
    EXPECT_EQ(RunEveryBackend(c.query), c.want) << c.query;
  }
}

/// A memory budget that runs out inside a construction loop trips with the
/// same code and message on every backend.
TEST(ConstructorDifferential, MemoryBudgetTripsIdentically) {
  QueryLimits limits;
  limits.memory_budget_bytes = 64 * 1024;
  EXPECT_EQ(RunEveryBackend("count(for $i in 1 to 100000 return "
                            "<v a=\"{$i}\" b=\"x{$i}\">{$i}</v>)",
                            limits),
            "ERROR: query memory budget of 65536 bytes exceeded");
}

/// Every element, attribute, text, comment and PI constructor of one
/// execution appends its tree to one construction arena. Identity, order
/// and the axes must still see one tree per constructed node.
TEST(ConstructorDifferential, SharedArena) {
  const CtorCase cases[] = {
      {"<a/> is <a/>", "false"},
      {"let $a := <a/> return ($a is $a, $a << <b/>, <c/> >> $a)",
       "true true true"},
      // A node copied twice into one parent: two distinct copies.
      {"let $b := <b n=\"1\"><i/></b> let $a := <a>{$b, $b}</a> return "
       "(count($a/b), $a/b[1] is $a/b[2], count($a/b | $a/b), "
       "count($a//i), $a/b[1] is $b)",
       "2 false 2 2 false"},
      // Constructed trees order by construction under '/'-union, copies
      // after their sources, and a document constructor between the
      // trees built before and after it. (A sequence fixes the
      // construction order; the optimizer may inline single-use lets.)
      {"let $s := (<x/>, <y/>, <z/>) return "
       "string-join(for $n in ($s[3] | $s[1] | $s[2]) return name($n), ' ')",
       "x y z"},
      {"let $a := <a/>, $b := <b>{$a}</b> return "
       "for $n in ($b/a | $a) return $n is $a",
       "true false"},
      {"let $s := (<x/>, document {<d/>}, <y/>) return "
       "string-join(for $n in ($s[3] | $s[2]/d | $s[1]) return name($n), "
       "' ')",
       "x d y"},
      {"let $n := (<a/>, attribute b {1}, text {'t'}, comment {'c'}, "
       "processing-instruction p {'d'}) return "
       "(count($n | ()), count($n[1]/following::node()), "
       "count($n[5]/preceding::node()))",
       "5 0 0"},
      // following/preceding stay inside the origin's tree.
      {"let $a := <a><b/></a>, $c := <c/> return "
       "(count($a/b/following::node()), count($c/preceding::node()))",
       "0 0"},
      {"let $a := <a><b/><c><d/></c></a>, $e := <e><f/></e>, $g := <g/> "
       "return (count($a/b/following::node()), "
       "count($e/f/preceding::node()), count($a/c/d/preceding::node()), "
       "count(<h>{$a}</h>/a/b/following::*))",
       "2 0 1 2"},
      // In-arena copies keep names, values and namespaces.
      {"let $p := <p:a xmlns:p=\"urn:p\" k=\"v\">t<p:b/></p:a> "
       "return (<w>{$p/@*, $p, $p/text()}</w>, namespace-uri(<w>{$p}</w>/*))",
       "<w k=\"v\"><p:a xmlns:p=\"urn:p\" k=\"v\">t<p:b/></p:a>t</w>"
       "urn:p"},
      // A failed constructor leaves no rows behind for later trees.
      {"let $x := <x><y/></x> return (try { <a>{attribute b {1}, 'x', "
       "attribute c {2}}</a> } catch * { 'caught' }, <z>{$x}</z>, "
       "count(<q/>/preceding::node()), count($x/y/following::node()))",
       "caught<z><x><y/></x></z>0 0"},
  };
  for (const CtorCase& c : cases) {
    EXPECT_EQ(RunEveryBackend(c.query), c.want) << c.query;
  }
}

/// A run that builds more than Arena::kSealRows rows spans several arena
/// documents: copies across the boundary, identity, order and the
/// tree-bounded axes read the same as inside one document.
TEST(ConstructorDifferential, SealedArenaDocumentsKeepOrderAndCopies) {
  EXPECT_EQ(RunEveryBackend("let $s := for $i in 1 to 40000 return "
                            "<a n=\"{$i}\"><b/></a> return "
                            "(count(<w>{$s}</w>//b), "
                            "<w>{$s[1], $s[40000]}</w>, "
                            "($s[40000] | $s[1])[1] is $s[1], "
                            "$s[32768] << $s[32769], "
                            "count($s[1]/b/following::node()), "
                            "count($s[40000]/b/preceding::node()))"),
            "40000<w><a n=\"1\"><b/></a><a n=\"40000\"><b/></a></w>"
            "true true 0 0");
}

/// A memory budget that runs out while an in-arena copy is appending its
/// rows trips with the same code and message on every backend.
TEST(ConstructorDifferential, MemoryBudgetTripsInsideInArenaCopy) {
  QueryLimits limits;
  limits.memory_budget_bytes = 96 * 1024;
  EXPECT_EQ(RunEveryBackend("let $v := <v>{for $i in 1 to 600 return "
                            "<w a=\"{$i}\">{$i}</w>}</v> return "
                            "count(for $i in 1 to 10 return <c>{$v}</c>)",
                            limits),
            "ERROR: query memory budget of 98304 bytes exceeded");
}

/// Results point into the execution's arena document, which outlives the
/// arena, the compiled query and the engine.
TEST(ConstructorDifferential, ResultsOutliveEngine) {
  for (ExecBackend backend :
       {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
    Sequence result;
    {
      XQueryEngine engine;
      auto compiled = engine.Compile(
          "let $a := <a k=\"1\"><b>x</b></a> return "
          "(<c>{$a}</c>, $a/b, $a/@k, text {'t'})");
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      CompiledQuery::ExecOptions exec;
      exec.backend = backend;
      XQP_ASSERT_OK_AND_ASSIGN(result, compiled.value()->Execute(exec));
    }
    ASSERT_EQ(result.size(), 4u);
    EXPECT_EQ(SerializeSequence({result[0], result[1], result[3]}).ValueOrDie(),
              "<c><a k=\"1\"><b>x</b></a></c><b>x</b>t")
        << ExecBackendName(backend);
    EXPECT_EQ(result[2].AsNode().value(), "1") << ExecBackendName(backend);
    EXPECT_TRUE(result[1].AsNode().Root().SameNode(
        result[2].AsNode().Parent()))
        << ExecBackendName(backend);
  }
}

/// Items pulled from an Open() stream stay readable while later
/// constructors of the same execution append to the arena.
TEST(ConstructorDifferential, StreamedItemsSurviveLaterAppends) {
  XQueryEngine engine;
  auto compiled = engine.Compile(
      "for $i in 1 to 300 return <a n=\"{$i}\"><b>{$i}</b></a>");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  XQP_ASSERT_OK_AND_ASSIGN(std::unique_ptr<ResultStream> stream,
                           compiled.value()->Open());
  Sequence items;
  Item item;
  while (true) {
    XQP_ASSERT_OK_AND_ASSIGN(bool more, stream->Next(&item));
    if (!more) break;
    items.push_back(item);
  }
  ASSERT_EQ(items.size(), 300u);
  EXPECT_EQ(SerializeSequence({items[0]}).ValueOrDie(),
            "<a n=\"1\"><b>1</b></a>");
  stream.reset();
  EXPECT_EQ(SerializeSequence({items[299]}).ValueOrDie(),
            "<a n=\"300\"><b>300</b></a>");
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(Node::CompareDocOrder(items[i - 1].AsNode(), items[i].AsNode()),
              0);
    EXPECT_TRUE(items[i].AsNode().Parent().IsNull());
  }
}

/// An open stream seals its arena document once it is full, so a long
/// constructing stream does not keep every tree it built: the first
/// document is freed once the caller drops the items into it.
TEST(ConstructorDifferential, LongStreamsReleaseSealedArenaDocuments) {
  XQueryEngine engine;
  auto compiled = engine.Compile(
      "for $i in 1 to 50000 return <r><b>{$i}</b></r>");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  XQP_ASSERT_OK_AND_ASSIGN(std::unique_ptr<ResultStream> stream,
                           compiled.value()->Open());
  std::weak_ptr<const Document> first;
  std::set<uint64_t> documents;
  size_t pulled = 0;
  Item item;
  while (true) {
    XQP_ASSERT_OK_AND_ASSIGN(bool more, stream->Next(&item));
    if (!more) break;
    const Node& node = item.AsNode();
    if (pulled == 0) first = node.doc_ptr();
    documents.insert(node.doc().id());
    ++pulled;
    if (pulled == 1000) {
      EXPECT_EQ(SerializeSequence({item}).ValueOrDie(), "<r><b>1000</b></r>");
    }
  }
  EXPECT_EQ(pulled, 50000u);
  // Each item appends 5 rows (<b> and its text, then <r> with a copy of
  // them): about 250000 rows, more than three documents' worth.
  EXPECT_GE(documents.size(), 3u);
  EXPECT_TRUE(first.expired());
}

}  // namespace
}  // namespace xqp
