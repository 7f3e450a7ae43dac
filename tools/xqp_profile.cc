// xqp_profile — per-operator EXPLAIN/PROFILE for XMark (or ad-hoc) queries.
//
//   xqp_profile --query Q06 --scale 20
//   xqp_profile --query Q06 --scale 20 --json
//   xqp_profile --text 'count(doc("xmark.xml")//item)' --scale 10
//
// options:
//   --query ID        run an XMark benchmark query by id (Q1/Q06/6 all
//                     name the same query)
//   --text QUERY      run an arbitrary query against the generated XMark
//                     document (registered as doc('xmark.xml'))
//   --scale N         XMark scale in permille: N=20 generates scale 0.02,
//                     matching the benchmark suite's Arg(n) convention
//                     (default 20)
//   --json            emit the profile as one JSON object instead of text
//   --explain-only    print the optimized operator tree (annotated for the
//                     selected backend) and exit (no run)
//   --eager           profile the eager reference interpreter instead of
//                     the lazy streaming engine (same as --backend eager)
//   --backend B       execution backend: lazy, eager, or vm (overrides
//                     XQP_BACKEND; default lazy)
//   --threads N       worker threads for parallel kernels (0 = default)
//   --snapshot DIR    persist/reuse the XMark document as a snapshot in
//                     DIR (EngineOptions::snapshot_dir): the first run
//                     parses and saves, later runs mmap the snapshot —
//                     profiles then measure pure query cost over the
//                     storage-loaded document
//   --check           exit non-zero unless the plan root's item count
//                     equals the result cardinality (CI self-test)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "engine.h"
#include "index/index_planner.h"
#include "opt/access_path.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace {

/// Pre-order scan for the outermost index-answerable path in the plan.
const xqp::PathExpr* FindIndexedPath(const xqp::Expr& e) {
  if (e.kind() == xqp::ExprKind::kPath) {
    const auto& p = static_cast<const xqp::PathExpr&>(e);
    if (p.index_candidate) return &p;
  }
  for (size_t i = 0; i < e.NumChildren(); ++i) {
    if (const xqp::PathExpr* hit = FindIndexedPath(*e.child(i))) return hit;
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: xqp_profile (--query ID | --text QUERY) [--scale N]\n"
               "                   [--json] [--explain-only] [--eager]\n"
               "                   [--backend lazy|eager|vm] [--threads N]\n"
               "                   [--snapshot DIR] [--check]\n");
  return 2;
}

/// Accepts "Q06", "q6", or "6" for the query set's "Q6".
std::string NormalizeQueryId(const std::string& raw) {
  size_t i = 0;
  if (i < raw.size() && (raw[i] == 'Q' || raw[i] == 'q')) ++i;
  while (i + 1 < raw.size() && raw[i] == '0') ++i;
  return "Q" + raw.substr(i);
}

}  // namespace

int main(int argc, char** argv) {
  std::string query_id;
  std::string query_text;
  int scale_permille = 20;
  bool json = false;
  bool explain_only = false;
  bool check = false;
  int threads = 0;
  std::string snapshot_dir;
  std::optional<xqp::ExecBackend> backend;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--query" && i + 1 < argc) {
      query_id = argv[++i];
    } else if (arg == "--text" && i + 1 < argc) {
      query_text = argv[++i];
    } else if (arg == "--scale" && i + 1 < argc) {
      scale_permille = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--snapshot" && i + 1 < argc) {
      snapshot_dir = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--explain-only") {
      explain_only = true;
    } else if (arg == "--eager") {
      backend = xqp::ExecBackend::kEager;
    } else if (arg == "--backend" && i + 1 < argc) {
      backend = xqp::ParseExecBackend(argv[++i]);
      if (!backend.has_value()) return Usage();
    } else if (arg == "--check") {
      check = true;
    } else {
      return Usage();
    }
  }
  if (query_id.empty() == query_text.empty()) return Usage();  // Exactly one.
  if (scale_permille <= 0) return Usage();

  if (!query_id.empty()) {
    const xqp::XMarkQuery* q = xqp::FindXMarkQuery(NormalizeQueryId(query_id));
    if (q == nullptr) {
      std::fprintf(stderr, "unknown XMark query: %s\n", query_id.c_str());
      return 2;
    }
    query_text = q->text;
  }

  xqp::EngineOptions options;
  options.collect_stats = true;
  options.num_threads = threads;
  options.snapshot_dir = snapshot_dir;
  xqp::XQueryEngine engine(options);

  xqp::XMarkOptions xmark;
  xmark.scale = scale_permille / 1000.0;
  auto doc = engine.ParseAndRegister("xmark.xml", GenerateXMarkXml(xmark));
  if (!doc.ok()) {
    std::fprintf(stderr, "xmark generation failed: %s\n",
                 doc.status().ToString().c_str());
    return 1;
  }

  auto compiled = engine.Compile(query_text);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }

  xqp::CompiledQuery::ExecOptions exec;
  exec.backend = backend;

  if (explain_only) {
    std::printf("backend: %s\n", xqp::ExecBackendName(
                                     compiled.value()->ResolvedBackend(exec)));
    // Warm the document's indexes first: EXPLAIN's access-path annotation
    // peeks at already-built indexes only, so the rendering below shows
    // the decision execution would make.
    auto indexes = engine.GetDocumentIndexes("xmark.xml");
    std::fputs(compiled.value()->ExplainTree(exec).c_str(), stdout);
    const xqp::Expr* body = compiled.value()->module().body.get();
    const xqp::PathExpr* marked =
        body == nullptr ? nullptr : FindIndexedPath(*body);
    std::optional<xqp::IndexQuery> plan;
    if (marked != nullptr) plan = xqp::PlanIndexPath(*marked);
    if (plan.has_value()) {
      std::printf("access path: %s on doc('%s')\n",
                  plan->HasPredicates() ? "value index" : "path synopsis",
                  plan->doc_uri.c_str());
      if (indexes.ok() && indexes.value() != nullptr) {
        xqp::AccessPathDecision d = xqp::ChooseAccessPath(
            *indexes.value(), *plan, engine.options().force_access_path);
        std::printf("chosen strategy: %s%s, est=%llu rows%s\n",
                    xqp::AccessPathName(d.chosen),
                    d.forced ? " (forced)" : "",
                    static_cast<unsigned long long>(d.card.rows),
                    d.card.exact ? " (exact)" : "");
      }
    } else {
      std::fputs("access path: twig / navigation fallback\n", stdout);
    }
    return 0;
  }

  auto report = compiled.value()->Profile(exec);
  if (!report.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  if (json) {
    std::fputs(report.value().ToJson().c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    std::fputs(report.value().ToText().c_str(), stdout);
  }

  if (check) {
    const xqp::OpStats* root = report.value().RootStats();
    if (root == nullptr || root->items != report.value().result.size()) {
      std::fprintf(stderr,
                   "check failed: root items %llu != result cardinality %zu\n",
                   root == nullptr
                       ? 0ULL
                       : static_cast<unsigned long long>(root->items),
                   report.value().result.size());
      return 1;
    }
  }
  return 0;
}
