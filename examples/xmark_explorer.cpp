// XMark explorer: generates an auction document, runs the adapted XMark
// suite on both engines, and runs twig-shaped queries under each forced
// access path (navigation, structural joins, TwigStack).
//
// Usage: xmark_explorer [scale]   (default 0.05)

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "engine.h"
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

  // Structural-join demonstration: twig-shaped queries under each forced
  // access path. EXPLAIN shows which executor the plan took (the first
  // query's existence predicate keeps navigation; the second is a chain
  // the joins answer), and every run must produce the same result.
  std::printf("\n--- forced access paths ---\n");
  for (const char* twig_query :
       {"doc('xmark.xml')//open_auction[bidder]/seller",
        "doc('xmark.xml')//open_auction//bidder/increase"}) {
    std::printf("%s\n", twig_query);
    std::string reference;
    for (AccessPath force :
         {AccessPath::kNav, AccessPath::kSJoin, AccessPath::kTwig}) {
      EngineOptions forced;
      forced.force_access_path = force;
      XQueryEngine forced_engine(forced);
      Status registered = forced_engine.RegisterDocument("xmark.xml", *doc);
      auto query = forced_engine.Compile(twig_query);
      if (!registered.ok() || !query.ok()) {
        std::fprintf(stderr, "%s: setup failed\n", AccessPathName(force));
        return 1;
      }
      t0 = std::chrono::steady_clock::now();
      auto result = (*query)->ExecuteToXml();
      double ms = MillisSince(t0);
      if (!result.ok()) {
        std::fprintf(stderr, "%s: %s\n", AccessPathName(force),
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf("force=%s: %zu bytes of result in %.2f ms\n%s",
                  AccessPathName(force), result->size(), ms,
                  (*query)->ExplainTree().c_str());
      if (force == AccessPath::kNav) {
        reference = *result;
      } else if (*result != reference) {
        std::fprintf(stderr, "%s: result differs from nav\n",
                     AccessPathName(force));
        return 1;
      }
    }
  }
  return 0;
}
