// Plan lock-down for the query front end: for the XMark query set and the
// VM EXPLAIN text shapes, the parsed (unoptimized) tree, the annotated
// EXPLAIN tree of the compiled plan, and the rewrite counters must match
// tests/data/compile_goldens.txt byte for byte. A change to the parser,
// the rewriter or the access-path costing that alters any plan fails here.
//
// On a mismatch the test prints the actual block of each differing input
// and writes the whole actual file to compile_goldens.actual.txt in the
// working directory, so an intended plan change is reviewed as a diff.

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/parser.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

#ifndef XQP_SOURCE_DIR
#error "XQP_SOURCE_DIR must point at the source tree"
#endif

namespace xqp {
namespace {

struct GoldenInput {
  std::string id;
  std::string text;
};

/// XMark Q1-Q20 plus the text shapes of tools/check_vm_explain.sh.
std::vector<GoldenInput> Inputs() {
  std::vector<GoldenInput> in;
  for (const XMarkQuery& q : XMarkQuerySet()) in.push_back({q.id, q.text});
  const char* shapes[] = {
      "doc('xmark.xml')/site/people/person[@id = 'person0']/name",
      "doc('xmark.xml')/site/people/person/name",
      "doc('xmark.xml')//item/name",
      "doc('xmark.xml')//item[quantity < 2]",
      "doc('xmark.xml')//person[@id = 'person0']",
      "doc('xmark.xml')//open_auction/bidder/increase",
      "sum(for $q in doc('xmark.xml')//quantity, $i in 1 to 60 return "
      "$q * $i + ($q idiv 2) - ($i mod 7))",
      "for $p in doc('xmark.xml')/site/people/person return "
      "<hit id=\"{$p/@id}\">{string($p/name)}</hit>",
      "for $i in doc('xmark.xml')//item return element {name($i)} "
      "{attribute n {count($i/*)}, text {string($i/name)}}",
      "for $p in doc('xmark.xml')/site/people/person order by "
      "string($p/name) descending, string($p/@id) return string($p/@id)",
      "exists(/order[customer/@region = 'EU'])",
      "exists(//alert[@severity = ('high', 'critical')])",
      "exists(/*[namespace-uri(.) = 'urn:rosettanet'])",
      "string(/*/*[local-name(.) = 'action'])",
      "for $t in /wlc/trading-partner/transport return "
      "string($t/endpoint[1]/@uri)",
  };
  int n = 0;
  for (const char* s : shapes) {
    char id[8];
    std::snprintf(id, sizeof(id), "S%02d", ++n);
    in.push_back({id, s});
  }
  return in;
}

/// ToString of every parsed tree of the module, before normalization and
/// rewriting.
std::string ParsedText(const ParsedModule& m) {
  std::string out;
  for (const UserFunction& fn : m.functions) {
    out += "function " + fn.name.Lexical() + ": ";
    out += fn.body != nullptr ? fn.body->ToString() : "external";
    out += "\n";
  }
  for (const GlobalVariable& g : m.globals) {
    out += "variable $" + g.name.Lexical() + ": ";
    out += g.init != nullptr ? g.init->ToString() : "external";
    out += "\n";
  }
  out += "body: " + m.body->ToString() + "\n";
  return out;
}

std::string Block(XQueryEngine* engine, const GoldenInput& in) {
  std::string out = "=== " + in.id + "\n--- text\n" + in.text + "\n";
  out += "--- parsed\n";
  auto parsed = ParseQuery(in.text);
  out += parsed.ok() ? ParsedText(*parsed.value())
                     : "error: " + parsed.status().ToString() + "\n";
  auto compiled = engine->Compile(in.text);
  if (!compiled.ok()) {
    return out + "--- compile error\n" + compiled.status().ToString() + "\n";
  }
  out += "--- explain\n" + (*compiled)->ExplainTree();
  if (out.back() != '\n') out += "\n";
  out += "--- rewrites\n";
  for (const auto& [rule, count] : (*compiled)->rewrite_stats()) {
    out += rule + "=" + std::to_string(count) + "\n";
  }
  return out;
}

/// Splits a goldens file into its "=== id" blocks.
std::map<std::string, std::string> SplitBlocks(const std::string& text) {
  std::map<std::string, std::string> blocks;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t next = text.find("\n=== ", pos);
    size_t end = next == std::string::npos ? text.size() : next + 1;
    std::string block = text.substr(pos, end - pos);
    size_t eol = block.find('\n');
    if (block.rfind("=== ", 0) == 0 && eol != std::string::npos) {
      blocks[block.substr(4, eol - 4)] = block;
    }
    pos = end;
  }
  return blocks;
}

TEST(CompileGoldens, PlansMatchGoldenFile) {
  XMarkOptions xmark;
  xmark.scale = 0.02;
  xmark.seed = 1;
  XQueryEngine engine;
  XQP_ASSERT_OK(
      engine.ParseAndRegister("xmark.xml", GenerateXMarkXml(xmark)).status());
  // Warm indexes, so EXPLAIN carries the access path and estimate of every
  // index-candidate chain.
  XQP_ASSERT_OK(engine.GetDocumentIndexes("xmark.xml").status());

  std::string actual;
  std::vector<std::pair<std::string, std::string>> blocks;
  for (const GoldenInput& in : Inputs()) {
    blocks.emplace_back(in.id, Block(&engine, in));
    actual += blocks.back().second;
  }

  const std::string path =
      std::string(XQP_SOURCE_DIR) + "/tests/data/compile_goldens.txt";
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "missing " << path;
  std::stringstream ss;
  ss << file.rdbuf();
  const std::string expected = ss.str();
  if (expected == actual) return;

  std::ofstream("compile_goldens.actual.txt", std::ios::binary) << actual;
  std::map<std::string, std::string> want = SplitBlocks(expected);
  for (const auto& [id, text] : blocks) {
    auto it = want.find(id);
    if (it == want.end()) {
      ADD_FAILURE() << "no golden block for " << id << "; actual:\n" << text;
    } else if (it->second != text) {
      ADD_FAILURE() << "plan of " << id << " changed; actual:\n" << text
                    << "expected:\n" << it->second;
    }
  }
  ADD_FAILURE() << "compile goldens differ; full actual text written to "
                   "compile_goldens.actual.txt";
}

}  // namespace
}  // namespace xqp
