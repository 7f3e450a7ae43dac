// Fuzz target for the XQuery front end: arbitrary bytes must produce a
// ParsedModule or a clean kStaticError — never a crash or unbounded
// recursion. A module that parses and normalizes then goes through the
// rest of compilation: the rewriter, the inliner, the final analysis, and
// access-path annotation against a document with no indexes, each of
// which must return a Status (or nothing) and never crash. A tight
// max_expr_depth variant exercises the expression-depth budget, and
// destruction of whatever tree was built exercises the iterative ~Expr
// path.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "opt/access_path.h"
#include "opt/inline_functions.h"
#include "opt/properties.h"
#include "opt/rewriter.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "tools/fuzz_common.h"
#include "xmark/queries.h"

namespace {

void Compile(xqp::ParsedModule* m) {
  if (!xqp::NormalizeModule(m).ok()) return;
  (void)xqp::OptimizeModule(m).status();
  (void)xqp::InlineSmallFunctions(m, xqp::RewriterOptions().inline_size_limit)
      .status();
  for (xqp::UserFunction& fn : m->functions) {
    if (fn.body != nullptr) xqp::AnalyzeExpr(fn.body.get(), m);
  }
  for (xqp::GlobalVariable& g : m->globals) {
    if (g.init != nullptr) xqp::AnalyzeExpr(g.init.get(), m);
  }
  xqp::AnalyzeExpr(m->body.get(), m);
  xqp::IndexPeek no_indexes = [](const std::string&) {
    return std::shared_ptr<const xqp::DocumentIndexes>();
  };
  xqp::AnnotateAccessPaths(m->body.get(), no_indexes, xqp::AccessPath::kAuto);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view query(reinterpret_cast<const char*>(data), size);
  {
    auto r = xqp::ParseQuery(query);
    if (r.ok()) Compile(r.value().get());
  }
  { auto r = xqp::ParseQuery(query, /*max_expr_depth=*/16); (void)r; }
  return 0;
}

namespace {
const std::vector<std::string> kCorpus = [] {
  std::vector<std::string> corpus = {
      "for $b in doc('bib.xml')//book where $b/@year = 1998 "
      "order by $b/title return <r>{$b/title}</r>",
      "let $x := (1, 2.5, 'three') return some $y in $x satisfies $y > 1",
      "declare variable $v external; $v[position() = last()] | //a/b[2]",
      "if (1 idiv 2 eq 0) then element e { attribute a { 'v' } } else ()",
      "((((((1 + 2) * 3) - 4) div 5) mod 6) to 7)",
  };
  for (const xqp::XMarkQuery& q : xqp::XMarkQuerySet()) {
    corpus.emplace_back(q.text);
  }
  return corpus;
}();
}  // namespace

XQP_FUZZ_STANDALONE_MAIN(kCorpus)
