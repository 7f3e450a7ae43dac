#include <optional>

#include "base/metrics.h"
#include "exec/axes.h"
#include "exec/iterators.h"
#include "index/index_planner.h"
#include "opt/access_path.h"

namespace xqp {
namespace lazy_internal {

namespace {

/// Streaming axis step: nodes are produced one at a time straight off the
/// document's node table, or off a tag posting slice (exec/axes.h).
class StepIt : public ItemIterator {
 public:
  StepIt(const StepExpr* e, const FocusInfo* focus) : e_(e), focus_(focus) {}

  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    cursor_.reset();
    started_ = false;
    return Status::OK();
  }

  Result<bool> Next(Item* out) override {
    if (!started_) {
      started_ = true;
      XQP_ASSIGN_OR_RETURN(
          const Item* origin,
          FocusItem(FocusOf(focus_, ctx_), /*axis_step=*/true));
      cursor_.emplace(origin->AsNode(), e_->axis, &e_->test, ctx_);
    }
    Node node;
    if (!cursor_->Next(&node)) return false;
    *out = Item(std::move(node));
    return true;
  }

  void Close() override { cursor_.reset(); }

 private:
  const StepExpr* e_;
  const FocusInfo* focus_;
  DynamicContext* ctx_ = nullptr;
  std::optional<AxisCursor> cursor_;
  bool started_ = false;
};

/// The focus a path binds for its rhs, or a filter for its predicate,
/// over the items of an input. It streams the input, with the size not
/// yet counted (-1), unless the focus expression calls last(): then it
/// drains the input first.
class FocusInput {
 public:
  FocusInfo focus;

  void Init(bool uses_last) { uses_last_ = uses_last; }

  void Clear() {
    focus = FocusInfo{};
    buffer_.clear();
    pos_ = 0;
    drained_ = false;
  }

  /// Binds the focus to the next item of `input`; false at its end.
  Result<bool> Advance(ItemIterator* input) {
    if (uses_last_) {
      if (!drained_) {
        XQP_ASSIGN_OR_RETURN(buffer_, Drain(input));
        drained_ = true;
      }
      if (pos_ >= buffer_.size()) return false;
      focus.item = buffer_[pos_++];
      focus.position = static_cast<int64_t>(pos_);
      focus.size = static_cast<int64_t>(buffer_.size());
    } else {
      Item item;
      XQP_ASSIGN_OR_RETURN(bool got, input->Next(&item));
      if (!got) return false;
      focus.item = std::move(item);
      ++focus.position;
      focus.size = -1;
    }
    focus.has_focus = true;
    return true;
  }

 private:
  bool uses_last_ = false;
  Sequence buffer_;
  size_t pos_ = 0;
  bool drained_ = false;
};

/// Path combinator. Fully streaming when ddo was elided; a materialization
/// (blocking) point otherwise — exactly the paper's "when should we
/// materialize" list.
class PathIt : public ItemIterator {
 public:
  PathIt(const PathExpr* e) : e_(e) {}

  Status Init(const FocusInfo* outer_focus) {
    XQP_ASSIGN_OR_RETURN(lhs_, CompileIterator(e_->child(0), outer_focus));
    XQP_ASSIGN_OR_RETURN(rhs_, CompileIterator(e_->child(1), &input_.focus));
    input_.Init(e_->child(1)->props.uses_last);
    blocking_ = e_->needs_sort || e_->needs_dedup;
    return Status::OK();
  }

  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    if (!blocking_ && metrics::Enabled()) {
      static metrics::Counter* streaming_paths =
          metrics::MetricsRegistry::Global().counter("lazy.path.streaming");
      streaming_paths->Increment();
    }
    XQP_RETURN_NOT_OK(lhs_->Reset(ctx));
    input_.Clear();
    rhs_active_ = false;
    buffer_.clear();
    buffer_pos_ = 0;
    buffered_ = false;
    saw_node_ = saw_atomic_ = false;
    return Status::OK();
  }

  Result<bool> Next(Item* out) override {
    if (blocking_) {
      if (!buffered_) {
        XQP_RETURN_NOT_OK(FillBuffer());
        buffered_ = true;
      }
      if (buffer_pos_ >= buffer_.size()) return false;
      *out = buffer_[buffer_pos_++];
      return true;
    }
    // Streaming mode.
    while (true) {
      // One cooperative governor check per lhs context item: cancellation
      // and deadlines reach long-running paths even when no item escapes
      // to the root drain for a while.
      if (ctx_->governor != nullptr) {
        XQP_RETURN_NOT_OK(ctx_->governor->Poll());
      }
      if (rhs_active_) {
        Item item;
        XQP_ASSIGN_OR_RETURN(bool got, rhs_->Next(&item));
        if (got) {
          XQP_RETURN_NOT_OK(NoteKind(item));
          *out = std::move(item);
          return true;
        }
        rhs_active_ = false;
      }
      XQP_ASSIGN_OR_RETURN(bool advanced, input_.Advance(lhs_.get()));
      if (!advanced) return false;
      XQP_RETURN_NOT_OK(rhs_->Reset(ctx_));
      rhs_active_ = true;
    }
  }

  void Close() override {
    input_.Clear();
    buffer_.clear();
    lhs_->Close();
    rhs_->Close();
  }

 private:
  Status NoteKind(const Item& item) {
    (item.IsNode() ? saw_node_ : saw_atomic_) = true;
    if (saw_node_ && saw_atomic_) {
      return Status::TypeError("path result mixes nodes and atomic values");
    }
    return Status::OK();
  }

  Status FillBuffer() {
    if (metrics::Enabled()) {
      static metrics::Counter* blocking_paths =
          metrics::MetricsRegistry::Global().counter("lazy.path.blocking");
      blocking_paths->Increment();
    }
    while (true) {
      if (ctx_->governor != nullptr) {
        XQP_RETURN_NOT_OK(ctx_->governor->Poll());
      }
      XQP_ASSIGN_OR_RETURN(bool advanced, input_.Advance(lhs_.get()));
      if (!advanced) break;
      XQP_RETURN_NOT_OK(rhs_->Reset(ctx_));
      Item item;
      while (true) {
        XQP_ASSIGN_OR_RETURN(bool got, rhs_->Next(&item));
        if (!got) break;
        XQP_RETURN_NOT_OK(NoteKind(item));
        // This is a blocking (materialization) point: account the buffer
        // growth so memory budgets cover non-streaming paths.
        if (ctx_->governor != nullptr) {
          XQP_RETURN_NOT_OK(ctx_->governor->ChargeBytes(sizeof(Item)));
        }
        buffer_.push_back(std::move(item));
      }
    }
    return FinishPathResult(*e_, &buffer_);
  }

  const PathExpr* e_;
  std::unique_ptr<ItemIterator> lhs_, rhs_;
  FocusInput input_;
  DynamicContext* ctx_ = nullptr;
  bool blocking_ = false;
  bool rhs_active_ = false;
  bool buffered_ = false;
  Sequence buffer_;
  size_t buffer_pos_ = 0;
  bool saw_node_ = false;
  bool saw_atomic_ = false;
};

/// One predicate over a base stream. Chained by CompileFilter for multiple
/// predicates. Early exit for constant positional predicates is the lazy
/// engine's positional-access win (experiment E2).
class FilterIt : public ItemIterator {
 public:
  FilterIt(const Expr* pred_expr) : pred_expr_(pred_expr) {}

  Status Init(std::unique_ptr<ItemIterator> base) {
    base_ = std::move(base);
    XQP_ASSIGN_OR_RETURN(pred_, CompileIterator(pred_expr_, &input_.focus));
    input_.Init(pred_expr_->props.uses_last);
    if (pred_expr_->kind() == ExprKind::kLiteral) {
      const AtomicValue& v =
          static_cast<const LiteralExpr*>(pred_expr_)->value;
      if (v.IsNumeric()) {
        constant_position_ = v.NumericAsDouble();
        has_constant_position_ = true;
      }
    }
    return Status::OK();
  }

  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    XQP_RETURN_NOT_OK(base_->Reset(ctx));
    input_.Clear();
    done_ = false;
    return Status::OK();
  }

  Result<bool> Next(Item* out) override {
    if (done_) return false;
    while (true) {
      // Per-candidate poll: a selective predicate may reject unboundedly
      // many base items before this Next() returns.
      if (ctx_->governor != nullptr) {
        XQP_RETURN_NOT_OK(ctx_->governor->Poll());
      }
      XQP_ASSIGN_OR_RETURN(bool got, input_.Advance(base_.get()));
      if (!got) return false;
      const Item& item = input_.focus.item;

      if (has_constant_position_) {
        // [k]: emit the k-th item and stop pulling the base entirely.
        if (static_cast<double>(input_.focus.position) == constant_position_) {
          *out = item;
          done_ = true;
          return true;
        }
        if (static_cast<double>(input_.focus.position) > constant_position_) {
          done_ = true;
          return false;
        }
        continue;
      }

      XQP_ASSIGN_OR_RETURN(bool keep, EvalPredicate());
      if (keep) {
        *out = item;
        return true;
      }
    }
  }

  void Close() override {
    input_.Clear();
    pred_head_.clear();
    base_->Close();
    pred_->Close();
  }

 private:
  /// Applies the shared keep rule to the predicate's value for the current
  /// focus item. A node first, or a second item, settles it, so at most two
  /// items are pulled.
  Result<bool> EvalPredicate() {
    XQP_RETURN_NOT_OK(pred_->Reset(ctx_));
    pred_head_.clear();
    Item item;
    while (pred_head_.size() < 2 &&
           (pred_head_.empty() || pred_head_[0].IsAtomic())) {
      XQP_ASSIGN_OR_RETURN(bool got, pred_->Next(&item));
      if (!got) break;
      pred_head_.push_back(std::move(item));
    }
    return PredicateKeeps(pred_head_, input_.focus.position);
  }

  const Expr* pred_expr_;
  std::unique_ptr<ItemIterator> base_, pred_;
  FocusInput input_;
  DynamicContext* ctx_ = nullptr;
  bool has_constant_position_ = false;
  double constant_position_ = 0;
  Sequence pred_head_;
  bool done_ = false;
};

/// Decorator over a marked path (PathExpr::index_candidate): Reset() first
/// offers the path to the access-path selector (opt/access_path.h), which
/// costs the synopsis/value-index answer against the join strategies and
/// plain navigation — the context (and with it the provider and governor)
/// only arrives here, so the attempt cannot happen at compile time. A
/// selected answer is served from the materialized buffer; a decline (or a
/// nav decision) delegates every call to the wrapped PathIt, which was
/// compiled unconditionally.
class IndexPathIt : public ItemIterator {
 public:
  IndexPathIt(const PathExpr* e, std::unique_ptr<ItemIterator> inner)
      : e_(e), inner_(std::move(inner)) {}

  Status Reset(DynamicContext* ctx) override {
    buffer_.reset();
    pos_ = 0;
    XQP_ASSIGN_OR_RETURN(buffer_, TryExecuteAccessPath(e_, ctx));
    if (buffer_.has_value()) return Status::OK();
    return inner_->Reset(ctx);
  }

  Result<bool> Next(Item* out) override {
    if (!buffer_.has_value()) return inner_->Next(out);
    if (pos_ >= buffer_->size()) return false;
    *out = (*buffer_)[pos_++];
    return true;
  }

  void Close() override {
    buffer_.reset();
    inner_->Close();
  }

 private:
  const PathExpr* e_;
  std::unique_ptr<ItemIterator> inner_;
  std::optional<Sequence> buffer_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<ItemIterator>> CompileStep(const StepExpr* e,
                                                  const FocusInfo* focus) {
  return std::unique_ptr<ItemIterator>(std::make_unique<StepIt>(e, focus));
}

Result<std::unique_ptr<ItemIterator>> CompilePath(const PathExpr* e,
                                                  const FocusInfo* focus) {
  auto it = std::make_unique<PathIt>(e);
  XQP_RETURN_NOT_OK(it->Init(focus));
  if (e->index_candidate) {
    return std::unique_ptr<ItemIterator>(
        std::make_unique<IndexPathIt>(e, std::move(it)));
  }
  return std::unique_ptr<ItemIterator>(std::move(it));
}

Result<std::unique_ptr<ItemIterator>> CompileFilter(const FilterExpr* e,
                                                    const FocusInfo* focus) {
  XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> chain,
                       CompileIterator(e->child(0), focus));
  for (size_t p = 1; p < e->NumChildren(); ++p) {
    auto filter = std::make_unique<FilterIt>(e->child(p));
    XQP_RETURN_NOT_OK(filter->Init(std::move(chain)));
    chain = std::move(filter);
  }
  return chain;
}

}  // namespace lazy_internal
}  // namespace xqp
