// Quickstart: parse XML, compile an XQuery, execute it on both engines,
// and inspect the optimized plan.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "engine.h"

namespace {

constexpr const char* kBibliography = R"(<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <publisher>Morgan Kaufmann</publisher>
    <price>39.95</price>
  </book>
  <book year="1999">
    <title>The Economics of Technology for Digital TV</title>
    <author><last>Gerbarg</last><first>Darcy</first></author>
    <publisher>Kluwer</publisher>
    <price>129.95</price>
  </book>
</bib>)";

}  // namespace

int main() {
  using namespace xqp;

  // 1. An engine holds documents and compiles queries.
  XQueryEngine engine;
  auto doc = engine.ParseAndRegister("bib.xml", kBibliography);
  if (!doc.ok()) {
    std::fprintf(stderr, "parse error: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  std::printf("parsed bib.xml: %zu data-model nodes\n\n",
              (*doc)->NumNodes());

  // 2. Compile once, execute many times. The compiler parses, resolves
  //    names, and runs the rewrite-rule optimizer.
  const char* query =
      "for $b in doc('bib.xml')//book "
      "where $b/price < 100 "
      "order by xs:double($b/price) "
      "return <cheap year=\"{$b/@year}\">{string($b/title)}</cheap>";
  auto compiled = engine.Compile(query);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }

  std::printf("optimized plan:\n%s\n", (*compiled)->ExplainTree().c_str());
  std::printf("rewrites applied:\n");
  for (const auto& [rule, count] : (*compiled)->rewrite_stats()) {
    std::printf("  %-24s x%d\n", rule.c_str(), count);
  }

  // 3. Execute on the lazy streaming engine (default)...
  auto result = (*compiled)->ExecuteToXml();
  if (!result.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nlazy streaming engine:\n  %s\n", result->c_str());

  // ...and on the eager reference interpreter — same answer.
  CompiledQuery::ExecOptions eager;
  eager.backend = ExecBackend::kEager;
  auto reference = (*compiled)->ExecuteToXml(eager);
  std::printf("eager reference engine:\n  %s\n", reference->c_str());
  std::printf("\nengines agree: %s\n",
              *result == *reference ? "yes" : "NO (bug!)");

  // 4. External variables parameterize compiled queries.
  auto param_query = engine.Compile(
      "declare variable $max external; "
      "count(doc('bib.xml')//book[price < $max])");
  CompiledQuery::ExecOptions options;
  for (double max : {50.0, 100.0, 200.0}) {
    options.variables["max"] = Sequence{Item(AtomicValue::Double(max))};
    auto count = (*param_query)->Execute(options);
    std::printf("books under %.0f: %s\n", max,
                count.value()[0].AsAtomic().Lexical().c_str());
  }
  return 0;
}
