// xqp — command-line XQuery runner over the xqp engine.
//
//   xqp [options] <query>
//   xqp [options] -f query.xq
//
// options:
//   --doc uri=path    register an XML file under a doc('uri') name
//                     (repeatable); the first one also becomes the context
//                     item unless --no-context is given
//   --xmark scale     generate an XMark document and register it as
//                     doc('xmark.xml')
//   --eager           run the eager reference interpreter instead of the
//                     lazy streaming engine
//   --no-optimize     skip the rewrite-rule optimizer
//   --no-context      don't bind a context item
//   --explain         print the optimized operator tree and rewrite
//                     statistics (on stderr)
//   --indent          pretty-print XML output
//   --time            report compile/execute wall-clock times
//
// examples:
//   xqp --xmark 0.1 'count(doc("xmark.xml")//item)'
//   xqp --doc bib=books.xml --explain 'for $b in doc("bib")//book ...'

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine.h"
#include "xmark/generator.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xqp [--doc uri=path]... [--xmark scale] [--eager]\n"
               "           [--no-optimize] [--no-context] [--explain]\n"
               "           [--indent] [--time] (<query> | -f query.xq)\n");
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

}  // namespace

int main(int argc, char** argv) {
  using namespace xqp;

  std::vector<std::pair<std::string, std::string>> docs;  // (uri, path).
  double xmark_scale = -1;
  bool eager = false;
  bool optimize = true;
  bool bind_context = true;
  bool explain = false;
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
    } else if (arg == "--eager") {
      eager = true;
    } else if (arg == "--no-optimize") {
      optimize = false;
    } else if (arg == "--no-context") {
      bind_context = false;
    } else if (arg == "--explain") {
      explain = true;
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
  if (query.empty()) return Usage();

  XQueryEngine engine;
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
    if (context_doc == nullptr) context_doc = *doc;
  }
  if (xmark_scale > 0) {
    XMarkOptions options;
    options.scale = xmark_scale;
    auto doc = engine.ParseAndRegister("xmark.xml", GenerateXMarkXml(options));
    if (!doc.ok()) {
      std::fprintf(stderr, "xqp: xmark: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    if (context_doc == nullptr) context_doc = *doc;
  }

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
  if (eager) eopts.backend = ExecBackend::kEager;
  if (explain) {
    std::fprintf(stderr, "plan:\n%s",
                 (*compiled)->ExplainTree(eopts).c_str());
    for (const auto& [rule, count] : (*compiled)->rewrite_stats()) {
      std::fprintf(stderr, "  %-24s x%d\n", rule.c_str(), count);
    }
  }

  if (bind_context && context_doc != nullptr) {
    eopts.has_context_item = true;
    eopts.context_item = Item(Node(context_doc, 0));
  }
  t0 = std::chrono::steady_clock::now();
  auto result = (*compiled)->Execute(eopts);
  double exec_ms = MillisSince(t0);
  if (!result.ok()) {
    std::fprintf(stderr, "xqp: %s\n", result.status().ToString().c_str());
    return 1;
  }
  SerializeOptions sopts;
  sopts.indent = indent;
  auto xml = SerializeSequence(*result, sopts);
  if (!xml.ok()) {
    std::fprintf(stderr, "xqp: %s\n", xml.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", xml->c_str());
  if (timing) {
    std::fprintf(stderr, "compile: %.2f ms, execute: %.2f ms, items: %zu\n",
                 compile_ms, exec_ms, result->size());
  }
  return 0;
}
