#include "opt/rewriter.h"

#include "base/metrics.h"
#include "opt/properties.h"
#include "query/expr.h"

namespace xqp {

using opt_internal::RuleContext;

namespace opt_internal {

void RuleContext::Count(const char* rule) {
  ++(*stats)[rule];
  ++fired;
  if (metrics::Enabled()) {
    metrics::MetricsRegistry::Global()
        .counter(std::string("rewrite.") + rule)
        ->Increment();
  }
}

}  // namespace opt_internal

namespace {

Status OptimizeFrame(ExprPtr& body, ParsedModule* module,
                     const RewriterOptions& options, RewriteStats* stats,
                     int* next_slot) {
  // Properties feed several rules, so every rule family starts from fresh
  // ones. They go stale only when a rule fires, and the path rules refresh
  // whatever they change themselves, so a family that fired nothing needs
  // no new analysis after it.
  bool fresh = false;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    RuleContext ctx{module, &options, stats, next_slot};
    if (!fresh) AnalyzeExpr(body.get(), module);
    XQP_RETURN_NOT_OK(opt_internal::ApplyCoreRules(body, &ctx));
    if (ctx.fired > 0) AnalyzeExpr(body.get(), module);
    const int after_core = ctx.fired;
    XQP_RETURN_NOT_OK(opt_internal::ApplyFlworRules(body, &ctx));
    if (ctx.fired > after_core) AnalyzeExpr(body.get(), module);
    XQP_RETURN_NOT_OK(opt_internal::ApplyPathRules(body, &ctx));
    fresh = true;
    if (ctx.fired == 0) break;
  }
  return Status::OK();
}

}  // namespace

Result<RewriteStats> OptimizeModule(ParsedModule* module,
                                    const RewriterOptions& options) {
  RewriteStats stats;
  for (UserFunction& fn : module->functions) {
    if (fn.body == nullptr) continue;
    XQP_RETURN_NOT_OK(
        OptimizeFrame(fn.body, module, options, &stats, &fn.num_slots));
  }
  for (GlobalVariable& g : module->globals) {
    if (g.init == nullptr) continue;
    XQP_RETURN_NOT_OK(
        OptimizeFrame(g.init, module, options, &stats, &g.num_slots));
  }
  XQP_RETURN_NOT_OK(OptimizeFrame(module->body, module, options, &stats,
                                  &module->num_slots));
  if (options.flwor_unnesting) {
    // Join ids key a per-execution memo, so only the main body (run once
    // per execution, in one frame) is planned.
    AnalyzeExpr(module->body.get(), module);
    RuleContext ctx{module, &options, &stats, &module->num_slots};
    opt_internal::PlanValueJoins(module->body.get(), &ctx);
  }
  return stats;
}

}  // namespace xqp
