#ifndef XQP_EXEC_PROFILE_H_
#define XQP_EXEC_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "query/expr.h"

namespace xqp {

/// Runtime counters for one physical operator (one expression node). On the
/// lazy engine, next_calls counts Next() pulls and items the true pulls; on
/// the eager interpreter, next_calls counts Eval() invocations and items the
/// summed result cardinalities. wall_ns is inclusive of children.
struct OpStats {
  uint64_t next_calls = 0;
  uint64_t items = 0;
  uint64_t wall_ns = 0;
  uint64_t resets = 0;
};

/// Per-operator statistics for one query execution, keyed by expression
/// node. Owned by ProfileReport; attached to a DynamicContext as a raw
/// pointer for the duration of a profiled run. Not thread-safe: a profiled
/// execution is single-threaded at operator granularity (parallel kernels
/// report through the global metrics registry instead).
class QueryProfile {
 public:
  /// Find-or-create; stable until the profile is destroyed.
  OpStats* StatsFor(const Expr* e) { return &ops_[e]; }

  const OpStats* Find(const Expr* e) const {
    auto it = ops_.find(e);
    return it == ops_.end() ? nullptr : &it->second;
  }

  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }

 private:
  std::unordered_map<const Expr*, OpStats> ops_;
};

/// Profiles one evaluation of an operator that has no iterator or Eval of
/// its own because its parent evaluates it inline (an element constructor's
/// direct attributes): one call, one item, and the scope's wall time land
/// in the operator's row. Inert when `profile` is null.
class InlineOpScope {
 public:
  InlineOpScope(QueryProfile* profile, const Expr* e)
      : stats_(profile == nullptr ? nullptr : profile->StatsFor(e)),
        start_(stats_ == nullptr ? std::chrono::steady_clock::time_point()
                                 : std::chrono::steady_clock::now()) {}
  ~InlineOpScope() {
    if (stats_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    stats_->wall_ns += ns < 0 ? 0 : uint64_t(ns);
    ++stats_->next_calls;
    ++stats_->items;
  }
  InlineOpScope(const InlineOpScope&) = delete;
  InlineOpScope& operator=(const InlineOpScope&) = delete;

 private:
  OpStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

/// One-line deterministic operator name for plan rendering, e.g.
/// "path [sort dedup]", "step child::item", "call fn:count".
std::string OperatorLabel(const Expr& e);

/// Deterministic indented operator tree with no runtime numbers (EXPLAIN).
/// Stable across runs for a given compiled query; tests golden-match it.
std::string RenderExplainTree(const Expr& root);

/// Per-node suffix hook for EXPLAIN: the returned string (may be empty) is
/// appended verbatim after the operator label. Used by the bytecode backend
/// to mark a compiled plan's root ("[vm]") or the subtree that made it
/// decline a plan ("[bailout: <reason>]").
using ExplainAnnotator = std::function<std::string(const Expr&)>;

/// RenderExplainTree with a per-node annotation suffix.
std::string RenderExplainTree(const Expr& root,
                              const ExplainAnnotator& annotate);

/// The same tree annotated with per-operator stats columns (PROFILE).
std::string RenderProfileText(const Expr& root, const QueryProfile& profile);

/// The plan as a JSON object: {"op","kind","next_calls","items","wall_ns",
/// "resets","children":[...]}. Operators the run never touched report zeros.
std::string RenderProfileJson(const Expr& root, const QueryProfile& profile);

/// Minimal JSON string escaping (quotes, backslash, control characters).
void AppendJsonEscaped(std::string_view s, std::string* out);

}  // namespace xqp

#endif  // XQP_EXEC_PROFILE_H_
