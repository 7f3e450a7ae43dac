#ifndef XQP_OPT_REWRITER_H_
#define XQP_OPT_REWRITER_H_

#include <map>
#include <string>

#include "base/status.h"
#include "query/static_context.h"

namespace xqp {

/// Which rewrite rules run. Each flag corresponds to one of the paper's
/// named logical rewritings; the ablation benchmark (E7) toggles them
/// individually.
struct RewriterOptions {
  bool constant_folding = true;
  bool boolean_simplification = true;
  bool let_folding = true;             // LET clause folding + dead-let removal.
  bool function_inlining = true;
  bool flwor_unnesting = true;         // FOR-clause and RETURN-clause
                                       // unnesting, and value joins for
                                       // correlated inner FLWORs.
  bool for_to_path = true;             // FOR clause minimization.
  bool ddo_elision = true;             // Doc-order/dup-elim elimination.
  bool cse = true;                     // Common subexpression factorization.
  bool index_paths = true;             // Mark index-answerable path subtrees.
  int max_passes = 4;
  /// Inline only functions whose body has at most this many expression
  /// nodes (recursive functions are never inlined).
  int inline_size_limit = 200;

  static RewriterOptions AllOff() {
    RewriterOptions o;
    o.constant_folding = o.boolean_simplification = o.let_folding =
        o.function_inlining = o.flwor_unnesting = o.for_to_path =
            o.ddo_elision = o.cse = o.index_paths = false;
    return o;
  }
};

/// Rule-application counters, keyed by rule name (for tests and EXPLAIN).
using RewriteStats = std::map<std::string, int>;

/// Optimizes the module in place: repeatedly applies the enabled rules to
/// the main body, every function body and every global initializer until a
/// fixpoint or max_passes. The paper's optimizer shape: "a library of
/// rewriting rules and a hard-coded strategy"; no cost model.
Result<RewriteStats> OptimizeModule(ParsedModule* module,
                                    const RewriterOptions& options = {});

namespace opt_internal {

/// One rewrite pass context; shared by the rule translation units.
struct RuleContext {
  ParsedModule* module;
  const RewriterOptions* options;
  RewriteStats* stats;
  /// Slot counter of the frame being rewritten (extended when rules create
  /// new bindings).
  int* next_slot;
  /// Rule applications in this pass so far. Every rule that changes the
  /// tree counts, so an unchanged count means unchanged properties.
  int fired = 0;

  /// Records one application of `rule`: bumps the per-compilation stats,
  /// counts it toward `fired`, and (when the global metrics registry
  /// collects) bumps the process-wide "rewrite.<rule>" fire counter.
  void Count(const char* rule);
};

// Rule entry points (one translation unit per family).
Status ApplyCoreRules(ExprPtr& e, RuleContext* ctx);    // rules_core.cc
Status ApplyFlworRules(ExprPtr& e, RuleContext* ctx);   // rules_flwor.cc
/// Expects fresh properties and leaves them fresh (rules_path.cc).
Status ApplyPathRules(ExprPtr& e, RuleContext* ctx);
/// The value-join rule (rules_flwor.cc): one pass over the optimized main
/// body, after the fixpoint, with fresh properties.
void PlanValueJoins(Expr* body, RuleContext* ctx);

}  // namespace opt_internal

}  // namespace xqp

#endif  // XQP_OPT_REWRITER_H_
