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
  StepIt(const StepExpr* e, const LazyFocus* focus) : e_(e), focus_(focus) {}

  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    cursor_.reset();
    started_ = false;
    return Status::OK();
  }

  Result<bool> Next(Item* out) override {
    if (!started_) {
      started_ = true;
      Item origin;
      if (focus_ != nullptr && focus_->valid) {
        origin = focus_->item;
      } else if (ctx_->initial_context != nullptr) {
        XQP_ASSIGN_OR_RETURN(const Item* item, ctx_->initial_context->Get(0));
        if (item == nullptr) {
          return Status::DynamicError("context item is not defined");
        }
        origin = *item;
      } else {
        return Status::DynamicError("context item is not defined");
      }
      if (!origin.IsNode()) {
        return Status::TypeError("axis step requires a node context item");
      }
      cursor_.emplace(origin.AsNode(), e_->axis, &e_->test, ctx_);
    }
    Node node;
    if (!cursor_->Next(&node)) return false;
    *out = Item(std::move(node));
    return true;
  }

  void Close() override { cursor_.reset(); }

 private:
  const StepExpr* e_;
  const LazyFocus* focus_;
  DynamicContext* ctx_ = nullptr;
  std::optional<AxisCursor> cursor_;
  bool started_ = false;
};

/// Path combinator. Fully streaming when ddo was elided; a materialization
/// (blocking) point otherwise — exactly the paper's "when should we
/// materialize" list.
class PathIt : public ItemIterator {
 public:
  PathIt(const PathExpr* e) : e_(e) {}

  Status Init(const LazyFocus* outer_focus) {
    XQP_ASSIGN_OR_RETURN(lhs_, CompileIterator(e_->child(0), outer_focus));
    XQP_ASSIGN_OR_RETURN(rhs_, CompileIterator(e_->child(1), &focus_));
    rhs_uses_last_ = e_->child(1)->props.uses_last;
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
    focus_ = LazyFocus{};
    rhs_active_ = false;
    buffer_.clear();
    buffer_pos_ = 0;
    buffered_ = false;
    lhs_buffer_.clear();
    lhs_pos_ = 0;
    lhs_materialized_ = false;
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
      XQP_ASSIGN_OR_RETURN(bool advanced, AdvanceLhs());
      if (!advanced) return false;
      XQP_RETURN_NOT_OK(rhs_->Reset(ctx_));
      rhs_active_ = true;
    }
  }

  void Close() override {
    focus_ = LazyFocus{};
    buffer_.clear();
    lhs_buffer_.clear();
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

  /// Binds the focus to the next lhs item. Materializes the lhs first when
  /// the rhs needs last().
  Result<bool> AdvanceLhs() {
    if (rhs_uses_last_) {
      if (!lhs_materialized_) {
        XQP_ASSIGN_OR_RETURN(lhs_buffer_, Drain(lhs_.get()));
        lhs_materialized_ = true;
      }
      if (lhs_pos_ >= lhs_buffer_.size()) return false;
      focus_.valid = true;
      focus_.item = lhs_buffer_[lhs_pos_];
      focus_.position = static_cast<int64_t>(lhs_pos_ + 1);
      focus_.size = static_cast<int64_t>(lhs_buffer_.size());
      ++lhs_pos_;
      return true;
    }
    Item item;
    XQP_ASSIGN_OR_RETURN(bool got, lhs_->Next(&item));
    if (!got) return false;
    focus_.valid = true;
    focus_.item = std::move(item);
    ++focus_.position;
    focus_.size = -1;
    return true;
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
      XQP_ASSIGN_OR_RETURN(bool advanced, AdvanceLhs());
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
  LazyFocus focus_;
  DynamicContext* ctx_ = nullptr;
  bool blocking_ = false;
  bool rhs_uses_last_ = false;
  bool rhs_active_ = false;
  bool buffered_ = false;
  Sequence buffer_;
  size_t buffer_pos_ = 0;
  Sequence lhs_buffer_;
  size_t lhs_pos_ = 0;
  bool lhs_materialized_ = false;
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
    XQP_ASSIGN_OR_RETURN(pred_, CompileIterator(pred_expr_, &focus_));
    uses_last_ = pred_expr_->props.uses_last;
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
    focus_ = LazyFocus{};
    base_buffer_.clear();
    base_pos_ = 0;
    materialized_ = false;
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
      Item item;
      XQP_ASSIGN_OR_RETURN(bool got, PullBase(&item));
      if (!got) return false;

      if (has_constant_position_) {
        // [k]: emit the k-th item and stop pulling the base entirely.
        if (static_cast<double>(focus_.position) == constant_position_) {
          *out = std::move(item);
          done_ = true;
          return true;
        }
        if (static_cast<double>(focus_.position) > constant_position_) {
          done_ = true;
          return false;
        }
        continue;
      }

      XQP_ASSIGN_OR_RETURN(bool keep, EvalPredicate());
      if (keep) {
        *out = std::move(item);
        return true;
      }
    }
  }

  void Close() override {
    focus_ = LazyFocus{};
    base_buffer_.clear();
    pred_head_.clear();
    base_->Close();
    pred_->Close();
  }

 private:
  Result<bool> PullBase(Item* out) {
    if (uses_last_) {
      if (!materialized_) {
        XQP_ASSIGN_OR_RETURN(base_buffer_, Drain(base_.get()));
        materialized_ = true;
      }
      if (base_pos_ >= base_buffer_.size()) return false;
      focus_.valid = true;
      focus_.item = base_buffer_[base_pos_];
      focus_.position = static_cast<int64_t>(base_pos_ + 1);
      focus_.size = static_cast<int64_t>(base_buffer_.size());
      ++base_pos_;
      *out = focus_.item;
      return true;
    }
    Item item;
    XQP_ASSIGN_OR_RETURN(bool got, base_->Next(&item));
    if (!got) return false;
    focus_.valid = true;
    focus_.item = item;
    ++focus_.position;
    focus_.size = -1;
    *out = std::move(item);
    return true;
  }

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
    return PredicateKeeps(pred_head_, focus_.position);
  }

  const Expr* pred_expr_;
  std::unique_ptr<ItemIterator> base_, pred_;
  LazyFocus focus_;
  DynamicContext* ctx_ = nullptr;
  bool uses_last_ = false;
  bool has_constant_position_ = false;
  double constant_position_ = 0;
  Sequence base_buffer_;
  size_t base_pos_ = 0;
  Sequence pred_head_;
  bool materialized_ = false;
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
                                                  const LazyFocus* focus) {
  return std::unique_ptr<ItemIterator>(std::make_unique<StepIt>(e, focus));
}

Result<std::unique_ptr<ItemIterator>> CompilePath(const PathExpr* e,
                                                  const LazyFocus* focus) {
  auto it = std::make_unique<PathIt>(e);
  XQP_RETURN_NOT_OK(it->Init(focus));
  if (e->index_candidate) {
    return std::unique_ptr<ItemIterator>(
        std::make_unique<IndexPathIt>(e, std::move(it)));
  }
  return std::unique_ptr<ItemIterator>(std::move(it));
}

Result<std::unique_ptr<ItemIterator>> CompileFilter(const FilterExpr* e,
                                                    const LazyFocus* focus) {
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
