// xqp — command-line XQuery runner, EXPLAIN and per-operator PROFILE over
// the xqp engine.
//
//   xqp [options] <query>
//   xqp [options] -f query.xq
//   xqp [options] --query ID
//
// options:
//   --doc uri=path    register an XML file under a doc('uri') name
//                     (repeatable); the first one also becomes the context
//                     item unless --no-context is given
//   --xmark scale     generate an XMark document and register it as
//                     doc('xmark.xml')
//   --query ID        run an XMark benchmark query by id (Q1/Q06/6 all
//                     name the same query); generates the XMark document
//                     at scale 0.02 unless --xmark is given
//   --backend B       execution backend: lazy, eager, or vm (overrides
//                     XQP_BACKEND; default lazy)
//   --snapshot DIR    persist/reuse every registered document as a
//                     snapshot in DIR (EngineOptions::snapshot_dir): the
//                     first run parses and saves, later runs mmap it
//   --no-optimize     skip the rewrite-rule optimizer
//   --no-context      don't bind a context item
//   --explain         print the backend, the optimized operator tree
//                     annotated for that backend, the access path of the
//                     outermost index-answerable path, and the rewrite
//                     statistics on stdout, then exit without running
//   --profile         run under the per-operator profiler and print the
//                     annotated plan with items/calls/time per operator
//                     instead of the result
//   --json            print the profile as one JSON object (implies
//                     --profile)
//   --check           exit non-zero unless the plan root's profiled item
//                     count equals the result cardinality (implies
//                     --profile; a CI self-test)
//   --indent          pretty-print XML output
//   --time            report compile/execute wall-clock times (on stderr)
//
// examples:
//   xqp --xmark 0.1 'count(doc("xmark.xml")//item)'
//   xqp --query Q06 --profile
//   xqp --query Q08 --backend vm --explain
//   xqp --doc bib=books.xml --explain 'for $b in doc("bib")//book ...'

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine.h"
#include "index/index_planner.h"
#include "opt/access_path.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

using namespace xqp;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xqp [--doc uri=path]... [--xmark scale]\n"
               "           [--backend lazy|eager|vm] [--snapshot DIR]\n"
               "           [--no-optimize] [--no-context] [--explain]\n"
               "           [--profile] [--json] [--check] [--indent] [--time]\n"
               "           (<query> | -f query.xq | --query ID)\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Accepts "Q06", "q6", or "6" for the query set's "Q6".
std::string NormalizeQueryId(const std::string& raw) {
  size_t i = 0;
  if (i < raw.size() && (raw[i] == 'Q' || raw[i] == 'q')) ++i;
  while (i + 1 < raw.size() && raw[i] == '0') ++i;
  return "Q" + raw.substr(i);
}

/// Pre-order scan for the outermost index-answerable path in the plan.
const PathExpr* FindIndexedPath(const Expr& e) {
  if (e.kind() == ExprKind::kPath) {
    const auto& p = static_cast<const PathExpr&>(e);
    if (p.index_candidate) return &p;
  }
  for (size_t i = 0; i < e.NumChildren(); ++i) {
    if (const PathExpr* hit = FindIndexedPath(*e.child(i))) return hit;
  }
  return nullptr;
}

/// The --explain output. The caller has built the registered documents'
/// indexes, so the tree shows the decision execution would make.
void Explain(XQueryEngine& engine, const CompiledQuery& compiled,
             const CompiledQuery::ExecOptions& exec) {
  std::printf("backend: %s\n",
              ExecBackendName(compiled.ResolvedBackend(exec)));
  std::fputs(compiled.ExplainTree(exec).c_str(), stdout);
  const Expr* body = compiled.module().body.get();
  const PathExpr* marked = body == nullptr ? nullptr : FindIndexedPath(*body);
  std::optional<IndexQuery> plan;
  if (marked != nullptr) plan = PlanIndexPath(*marked);
  if (plan.has_value()) {
    std::printf("access path: %s on doc('%s')\n",
                plan->HasPredicates() ? "value index" : "path synopsis",
                plan->doc_uri.c_str());
    std::shared_ptr<const DocumentIndexes> indexes =
        engine.PeekDocumentIndexes(plan->doc_uri);
    if (indexes != nullptr) {
      AccessPathDecision d = ChooseAccessPath(
          *indexes, *plan, engine.options().force_access_path);
      std::printf("chosen strategy: %s%s, est=%llu rows%s\n",
                  AccessPathName(d.chosen), d.forced ? " (forced)" : "",
                  static_cast<unsigned long long>(d.card.rows),
                  d.card.exact ? " (exact)" : "");
    }
  } else {
    std::fputs("access path: navigation\n", stdout);
  }
  for (const auto& [rule, count] : compiled.rewrite_stats()) {
    std::printf("rewrite: %s x%d\n", rule.c_str(), count);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<std::string, std::string>> docs;  // (uri, path).
  double xmark_scale = -1;
  std::string query_id;
  std::optional<ExecBackend> backend;
  std::string snapshot_dir;
  bool optimize = true;
  bool bind_context = true;
  bool explain = false;
  bool profile = false;
  bool json = false;
  bool check = false;
  bool indent = false;
  bool timing = false;
  std::string query;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--doc") {
      const char* value = next();
      if (value == nullptr) return Usage();
      const char* eq = std::strchr(value, '=');
      if (eq == nullptr) return Usage();
      docs.emplace_back(std::string(value, eq), std::string(eq + 1));
    } else if (arg == "--xmark") {
      const char* value = next();
      if (value == nullptr) return Usage();
      xmark_scale = std::atof(value);
      if (xmark_scale <= 0) return Usage();
    } else if (arg == "--query") {
      const char* value = next();
      if (value == nullptr) return Usage();
      query_id = value;
    } else if (arg == "--backend") {
      const char* value = next();
      if (value == nullptr) return Usage();
      backend = ParseExecBackend(value);
      if (!backend.has_value()) return Usage();
    } else if (arg == "--snapshot") {
      const char* value = next();
      if (value == nullptr) return Usage();
      snapshot_dir = value;
    } else if (arg == "--no-optimize") {
      optimize = false;
    } else if (arg == "--no-context") {
      bind_context = false;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--json") {
      profile = json = true;
    } else if (arg == "--check") {
      profile = check = true;
    } else if (arg == "--indent") {
      indent = true;
    } else if (arg == "--time") {
      timing = true;
    } else if (arg == "-f") {
      const char* path = next();
      if (path == nullptr) return Usage();
      if (!ReadFile(path, &query)) {
        std::fprintf(stderr, "xqp: cannot read %s\n", path);
        return 1;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "xqp: unknown option %s\n", arg.c_str());
      return Usage();
    } else {
      query = arg;
    }
  }
  if (!query_id.empty()) {
    if (!query.empty()) return Usage();  // Exactly one query source.
    const XMarkQuery* q = FindXMarkQuery(NormalizeQueryId(query_id));
    if (q == nullptr) {
      std::fprintf(stderr, "xqp: unknown XMark query: %s\n",
                   query_id.c_str());
      return 2;
    }
    query = q->text;
    if (xmark_scale <= 0) xmark_scale = 0.02;
  }
  if (query.empty()) return Usage();

  EngineOptions options;
  options.collect_stats = profile;
  options.snapshot_dir = snapshot_dir;
  XQueryEngine engine(options);
  std::vector<std::string> uris;
  std::shared_ptr<const Document> context_doc;
  for (const auto& [uri, path] : docs) {
    std::string xml;
    if (!ReadFile(path, &xml)) {
      std::fprintf(stderr, "xqp: cannot read %s\n", path.c_str());
      return 1;
    }
    auto doc = engine.ParseAndRegister(uri, xml);
    if (!doc.ok()) {
      std::fprintf(stderr, "xqp: %s: %s\n", path.c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    uris.push_back(uri);
    if (context_doc == nullptr) context_doc = *doc;
  }
  if (xmark_scale > 0) {
    XMarkOptions xmark;
    xmark.scale = xmark_scale;
    auto doc = engine.ParseAndRegister("xmark.xml", GenerateXMarkXml(xmark));
    if (!doc.ok()) {
      std::fprintf(stderr, "xqp: xmark: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    uris.push_back("xmark.xml");
    if (context_doc == nullptr) context_doc = *doc;
  }

  // Build each document's indexes up front, as a serving engine does:
  // EXPLAIN's annotation peeks at built indexes only, and variable-anchored
  // descendant steps read their tag postings but never build them.
  for (const std::string& uri : uris) (void)engine.GetDocumentIndexes(uri);

  auto t0 = std::chrono::steady_clock::now();
  XQueryEngine::CompileOptions copts;
  copts.optimize = optimize;
  auto compiled = engine.Compile(query, copts);
  if (!compiled.ok()) {
    std::fprintf(stderr, "xqp: %s\n", compiled.status().ToString().c_str());
    return 1;
  }
  double compile_ms = MillisSince(t0);

  CompiledQuery::ExecOptions eopts;
  eopts.backend = backend;
  if (explain) {
    Explain(engine, **compiled, eopts);
    return 0;
  }
  if (bind_context && context_doc != nullptr) {
    eopts.has_context_item = true;
    eopts.context_item = Item(Node(context_doc, 0));
  }

  t0 = std::chrono::steady_clock::now();
  Sequence result;
  if (profile) {
    auto report = (*compiled)->Profile(eopts);
    if (!report.ok()) {
      std::fprintf(stderr, "xqp: %s\n", report.status().ToString().c_str());
      return 1;
    }
    const std::string rendered =
        json ? report->ToJson() + "\n" : report->ToText();
    std::fputs(rendered.c_str(), stdout);
    const OpStats* root = report->RootStats();
    if (check && (root == nullptr || root->items != report->result.size())) {
      std::fprintf(stderr,
                   "xqp: check failed: root items %llu != result "
                   "cardinality %zu\n",
                   root == nullptr
                       ? 0ULL
                       : static_cast<unsigned long long>(root->items),
                   report->result.size());
      return 1;
    }
    result = std::move(report->result);
  } else {
    auto executed = (*compiled)->Execute(eopts);
    if (!executed.ok()) {
      std::fprintf(stderr, "xqp: %s\n",
                   executed.status().ToString().c_str());
      return 1;
    }
    result = std::move(*executed);
  }
  double exec_ms = MillisSince(t0);
  if (!profile) {
    SerializeOptions sopts;
    sopts.indent = indent;
    auto xml = SerializeSequence(result, sopts);
    if (!xml.ok()) {
      std::fprintf(stderr, "xqp: %s\n", xml.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", xml->c_str());
  }
  if (timing) {
    std::fprintf(stderr, "compile: %.2f ms, execute: %.2f ms, items: %zu\n",
                 compile_ms, exec_ms, result.size());
  }
  return 0;
}
