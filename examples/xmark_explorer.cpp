// XMark explorer: generates an auction document, runs the adapted XMark
// suite on both engines, and demonstrates the structural-join machinery on
// twig-shaped queries.
//
// Usage: xmark_explorer [scale]   (default 0.05)

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "engine.h"
#include "join/tag_index.h"
#include "join/twig.h"
#include "join/twig_planner.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xqp;
  XMarkOptions options;
  options.scale = argc > 1 ? std::atof(argv[1]) : 0.05;

  auto t0 = std::chrono::steady_clock::now();
  std::string xml = GenerateXMarkXml(options);
  double gen_ms = MillisSince(t0);

  XQueryEngine engine;
  t0 = std::chrono::steady_clock::now();
  auto doc = engine.ParseAndRegister("xmark.xml", xml);
  if (!doc.ok()) {
    std::fprintf(stderr, "parse: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  double parse_ms = MillisSince(t0);
  std::printf(
      "xmark scale %.3f: %zu KiB xml (generated in %.1f ms), "
      "%zu nodes (parsed in %.1f ms), %zu KiB node table\n\n",
      options.scale, xml.size() / 1024, gen_ms, (*doc)->NumNodes(), parse_ms,
      (*doc)->MemoryUsage() / 1024);

  std::printf("%-4s %-45s %9s %9s %7s\n", "id", "title", "lazy(ms)",
              "eager(ms)", "items");
  for (const XMarkQuery& q : XMarkQuerySet()) {
    auto compiled = engine.Compile(q.text);
    if (!compiled.ok()) {
      std::printf("%-4s compile error: %s\n", q.id,
                  compiled.status().ToString().c_str());
      continue;
    }
    CompiledQuery::ExecOptions lazy;
    CompiledQuery::ExecOptions eager;
    eager.backend = ExecBackend::kEager;

    t0 = std::chrono::steady_clock::now();
    auto lazy_result = (*compiled)->Execute(lazy);
    double lazy_ms = MillisSince(t0);

    t0 = std::chrono::steady_clock::now();
    auto eager_result = (*compiled)->Execute(eager);
    double eager_ms = MillisSince(t0);

    if (!lazy_result.ok()) {
      std::printf("%-4s error: %s\n", q.id,
                  lazy_result.status().ToString().c_str());
      continue;
    }
    std::printf("%-4s %-45.45s %9.2f %9.2f %7zu\n", q.id, q.title, lazy_ms,
                eager_ms, lazy_result->size());
  }

  // Twig-join demonstration: compile a path query to a twig pattern and run
  // it through the three executors.
  std::printf("\n--- structural/twig joins ---\n");
  const char* twig_query = "//open_auction[bidder]/seller";
  auto compiled = engine.Compile(twig_query);
  auto pattern = TwigPlanner::Compile(*(*compiled)->module().body);
  if (!pattern.ok()) {
    std::fprintf(stderr, "twig planner: %s\n",
                 pattern.status().ToString().c_str());
    return 1;
  }
  std::printf("query %s compiles to twig %s\n", twig_query,
              pattern->ToString().c_str());

  TagIndex index(*doc);
  struct Algo {
    const char* name;
    Result<std::vector<NodeIndex>> (*run)(const TagIndex&, const TwigPattern&,
                                          TwigStats*);
  };
  for (const auto& [name, run] :
       {std::pair{"TwigStack", &TwigStackMatch},
        std::pair{"BinaryJoins", &BinaryJoinMatch}}) {
    TwigStats stats{};
    t0 = std::chrono::steady_clock::now();
    auto matches = run(index, *pattern, &stats);
    double ms = MillisSince(t0);
    std::printf("  %-12s %5zu matches, %6llu intermediate pairs, %7.2f ms\n",
                name, matches.value().size(),
                static_cast<unsigned long long>(stats.intermediate_pairs), ms);
  }
  {
    TwigStats stats{};
    t0 = std::chrono::steady_clock::now();
    auto matches = NavigationMatch(**doc, *pattern, &stats);
    std::printf("  %-12s %5zu matches, %25s %7.2f ms\n", "Navigation",
                matches.value().size(), "", MillisSince(t0));
  }
  return 0;
}
