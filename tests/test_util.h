#ifndef XQP_TESTS_TEST_UTIL_H_
#define XQP_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "base/string_util.h"
#include "engine.h"
#include "xml/document.h"

namespace xqp {
namespace testing_util {

/// gtest-friendly Status/Result assertions.
#define XQP_ASSERT_OK(expr)                                         \
  do {                                                              \
    const auto& _st = (expr);                                       \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                        \
  } while (0)

#define XQP_ASSERT_OK_AND_ASSIGN(lhs, rexpr)    \
  auto XQP_CONCAT(_r_, __LINE__) = (rexpr);     \
  ASSERT_TRUE(XQP_CONCAT(_r_, __LINE__).ok())   \
      << XQP_CONCAT(_r_, __LINE__).status().ToString(); \
  lhs = std::move(XQP_CONCAT(_r_, __LINE__)).value();

/// Runs `query` against an engine pre-loaded with `docs` (uri -> xml) and
/// returns the serialized result, using the requested backend. With
/// `with_context`, the document node of `doc_xml` is the initial context
/// item.
inline std::string RunQuery(const std::string& query,
                            const std::string& doc_xml = "",
                            ExecBackend backend = ExecBackend::kLazy,
                            bool optimize = true, bool with_context = false) {
  XQueryEngine engine;
  CompiledQuery::ExecOptions eopts;
  if (!doc_xml.empty()) {
    auto doc = engine.ParseAndRegister("doc.xml", doc_xml);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    if (doc.ok() && with_context) {
      eopts.has_context_item = true;
      eopts.context_item = Item(Node(doc.value(), 0));
    }
  }
  XQueryEngine::CompileOptions copts;
  copts.optimize = optimize;
  auto compiled = engine.Compile(query, copts);
  if (!compiled.ok()) return "COMPILE-ERROR: " + compiled.status().ToString();
  eopts.backend = backend;
  auto result = (*compiled)->ExecuteToXml(eopts);
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return *result;
}

/// Runs on every backend (lazy, eager, vm), unoptimized and optimized, and
/// asserts they all agree with the unoptimized eager run; returns its
/// serialization. `with_context` binds the document node of `doc_xml` as
/// the initial context item on every run.
inline std::string RunAllWays(const std::string& query,
                              const std::string& doc_xml = "",
                              bool with_context = false) {
  std::string base =
      RunQuery(query, doc_xml, ExecBackend::kEager, false, with_context);
  for (bool optimize : {false, true}) {
    for (ExecBackend backend :
         {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
      if (backend == ExecBackend::kEager && !optimize) continue;
      EXPECT_EQ(base,
                RunQuery(query, doc_xml, backend, optimize, with_context))
          << query << " [" << ExecBackendName(backend)
          << (optimize ? ", optimized" : ", unoptimized")
          << (with_context ? ", context item]" : "]");
    }
  }
  return base;
}

/// Deterministic random XML tree for property tests: elements drawn from a
/// small tag alphabet with nesting, text, and attributes.
inline std::string RandomXml(uint64_t seed, size_t target_elements = 200,
                             size_t tag_count = 4) {
  SplitMix64 rng(seed);
  std::string out = "<r>";
  size_t open = 1;
  std::string close_stack = "r";  // One char per open tag (tag index).
  std::vector<std::string> tags;
  for (size_t t = 0; t < tag_count; ++t) {
    tags.push_back(std::string(1, static_cast<char>('a' + t)));
  }
  std::vector<size_t> opens;  // Indices into tags.
  size_t emitted = 0;
  while (emitted < target_elements || !opens.empty()) {
    uint64_t action = rng.Below(10);
    if (emitted < target_elements && (action < 5 || opens.empty())) {
      size_t t = rng.Below(tags.size());
      out += "<" + tags[t];
      if (rng.Below(3) == 0) {
        out += " k=\"" + std::to_string(rng.Below(10)) + "\"";
      }
      out += ">";
      opens.push_back(t);
      ++emitted;
      ++open;
    } else if (action < 8 && !opens.empty()) {
      out += "</" + tags[opens.back()] + ">";
      opens.pop_back();
    } else {
      out += "t" + std::to_string(rng.Below(100));
    }
  }
  out += "</r>";
  return out;
}

}  // namespace testing_util
}  // namespace xqp

#endif  // XQP_TESTS_TEST_UTIL_H_
