#ifndef XQP_BENCH_BENCH_UTIL_H_
#define XQP_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "engine.h"
#include "xmark/generator.h"

namespace xqp {
namespace bench {

/// main() body for bench targets that support a `--json` convenience flag:
/// `--json` (or `--json=FILE`) is rewritten into google-benchmark's
/// `--benchmark_out=FILE --benchmark_out_format=json` pair so a run can
/// emit machine-readable results (BENCH_*.json) without remembering the
/// native flag spelling. All other arguments pass through untouched.
inline int JsonAwareMain(int argc, char** argv, const char* default_json_file) {
  std::vector<char*> args(argv, argv + argc);
  static std::string out_flag;
  static std::string fmt_flag = "--benchmark_out_format=json";
  for (auto it = args.begin(); it != args.end();) {
    if (std::strcmp(*it, "--json") == 0) {
      out_flag = std::string("--benchmark_out=") + default_json_file;
      it = args.erase(it);
    } else if (std::strncmp(*it, "--json=", 7) == 0) {
      out_flag = std::string("--benchmark_out=") + (*it + 7);
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  args.resize(static_cast<size_t>(new_argc));
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#define XQP_BENCH_JSON_MAIN(default_json_file)                    \
  int main(int argc, char** argv) {                               \
    return xqp::bench::JsonAwareMain(argc, argv, default_json_file); \
  }

/// Scale arguments are passed to benchmarks as integer permille of XMark
/// scale 1.0 (e.g. Arg(50) = scale 0.05).
inline double ScaleFromArg(int64_t arg) { return static_cast<double>(arg) / 1000.0; }

/// Cached XMark XML text per scale (generation is deterministic). The
/// mutex makes the lazy cache safe for multi-threaded benchmarks; map
/// entries are never erased, so returned references stay valid after the
/// lock is released. The one-time generation cost is recorded into the
/// metrics registry ("bench.xmark.generate_ns") instead of silently
/// landing inside whichever benchmark iteration faulted the cache in.
inline const std::string& XMarkXml(double scale) {
  static auto* mu = new std::mutex();
  static auto* cache = new std::map<double, std::string>();
  std::lock_guard<std::mutex> lock(*mu);
  auto it = cache->find(scale);
  if (it == cache->end()) {
    metrics::ScopedTimer timer(
        metrics::MetricsRegistry::Global().histogram("bench.xmark.generate_ns"));
    XMarkOptions options;
    options.scale = scale;
    it = cache->emplace(scale, GenerateXMarkXml(options)).first;
  }
  return it->second;
}

/// Cached parsed XMark document per scale (same locking discipline; the
/// one-time parse cost is recorded as "bench.xmark.parse_ns").
inline std::shared_ptr<const Document> XMarkDoc(double scale) {
  static auto* mu = new std::mutex();
  static auto* cache =
      new std::map<double, std::shared_ptr<const Document>>();
  const std::string& xml = XMarkXml(scale);
  std::lock_guard<std::mutex> lock(*mu);
  auto it = cache->find(scale);
  if (it == cache->end()) {
    metrics::ScopedTimer timer(
        metrics::MetricsRegistry::Global().histogram("bench.xmark.parse_ns"));
    auto doc = Document::Parse(xml);
    it = cache->emplace(scale, std::move(doc).ValueOrDie()).first;
  }
  return it->second;
}

/// An engine with the XMark document registered as "xmark.xml".
inline std::unique_ptr<XQueryEngine> MakeXMarkEngine(double scale) {
  auto engine = std::make_unique<XQueryEngine>();
  Status st = engine->RegisterDocument("xmark.xml", XMarkDoc(scale));
  if (!st.ok()) std::abort();
  return engine;
}

/// Compiles or dies (benchmark setup).
inline std::unique_ptr<CompiledQuery> MustCompile(
    XQueryEngine* engine, const std::string& query,
    const XQueryEngine::CompileOptions& options = {}) {
  auto compiled = engine->Compile(query, options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n  %s\n",
                 compiled.status().ToString().c_str(), query.c_str());
    std::abort();
  }
  return std::move(compiled).value();
}

/// Builds a synthetic recursive document: `width` chains, each nesting
/// <a> `depth` deep with a <b> leaf; plus `noise` unrelated siblings.
/// Knobs for the structural-join selectivity sweeps.
inline std::string RecursiveXml(int width, int depth, int noise) {
  std::string xml = "<root>";
  for (int w = 0; w < width; ++w) {
    for (int d = 0; d < depth; ++d) xml += "<a>";
    xml += "<b/>";
    for (int d = 0; d < depth; ++d) xml += "</a>";
    for (int n = 0; n < noise; ++n) xml += "<x/>";
  }
  xml += "</root>";
  return xml;
}

/// The MPMGJN adversary (Al-Khalifa et al., figure 6 shape): one umbrella
/// <a> containing `closed` small closed <a> subtrees followed by `tail`
/// <b> descendants. The merge join rescans every closed <a> for each <b>
/// (its cursor cannot advance past the still-open umbrella), O(closed *
/// tail); the stack join pops each closed <a> exactly once.
inline std::string UmbrellaXml(int closed, int tail) {
  std::string xml = "<root><a>";
  for (int i = 0; i < closed; ++i) xml += "<a><x/></a>";
  for (int i = 0; i < tail; ++i) xml += "<b/>";
  xml += "</a></root>";
  return xml;
}

}  // namespace bench
}  // namespace xqp

#endif  // XQP_BENCH_BENCH_UTIL_H_
