#include "exec/iterators.h"
#include "exec/order_by.h"
#include "exec/value_join.h"

namespace xqp {
namespace lazy_internal {

namespace {

/// Non-owning pass-through; lets a LazySeq buffer a let-clause iterator the
/// FLWOR machine still owns (the paper's buffer iterator factory: the
/// binding's consumers pull through a shared, incrementally filled buffer).
class NonOwningIt : public ItemIterator {
 public:
  explicit NonOwningIt(ItemIterator* inner) : inner_(inner) {}
  Status Reset(DynamicContext* ctx) override { return inner_->Reset(ctx); }
  Result<bool> Next(Item* out) override { return inner_->Next(out); }

 private:
  ItemIterator* inner_;
};

/// Streaming FLWOR tuple machine: for-domains are pulled one binding at a
/// time and the return expression is drained per tuple before the machine
/// advances. Order-by FLWORs run the same machine to completion on the
/// first pull, buffer each tuple's keys and return value, and sort them
/// with the shared flwor:: core (exec/order_by.h). A value-join planned
/// for clause first asks the shared executor (exec/value_join.h) for its
/// matches; when it answers, the clause iterates them and its where clause
/// tests only the predicate's remaining conjunct.
class FlworIt : public ItemIterator {
 public:
  explicit FlworIt(const FlworExpr* e) : e_(e) {}

  Status Init(const FocusInfo* focus) {
    for (const auto& c : e_->clauses) {
      if (c.type == FlworExpr::Clause::Type::kOrderSpec) {
        specs_.push_back({c.descending, c.empty_least});
      }
    }
    for (size_t i = 0; i < e_->NumChildren(); ++i) {
      XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> it,
                           CompileIterator(e_->child(i), focus));
      children_.push_back(std::move(it));
    }
    joins_.resize(e_->clauses.size());
    for (size_t i = 0; i < e_->clauses.size(); ++i) {
      if (e_->clauses[i].join == ValueJoinKind::kNone) continue;
      auto js = std::make_unique<JoinState>();
      js->spec = value_join::SpecOf(*e_, i);
      XQP_ASSIGN_OR_RETURN(js->key, CompileIterator(js->spec.key, focus));
      XQP_ASSIGN_OR_RETURN(js->outer, CompileIterator(js->spec.outer, focus));
      if (js->spec.rest != nullptr) {
        XQP_ASSIGN_OR_RETURN(js->rest, CompileIterator(js->spec.rest, focus));
      }
      joins_[i] = std::move(js);
    }
    return Status::OK();
  }

  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    for_pos_.assign(e_->clauses.size(), 0);
    tuple_open_ = false;
    machine_done_ = false;
    first_tuple_ = true;
    sorted_.clear();
    sorted_tuple_ = 0;
    sorted_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Item* out) override {
    if (!specs_.empty()) return NextSorted(out);
    while (true) {
      // Per-tuple poll: cartesian for-clauses make the tuple space (and
      // the where-miss stream) unbounded relative to the items returned.
      if (ctx_->governor != nullptr) {
        XQP_RETURN_NOT_OK(ctx_->governor->Poll());
      }
      if (tuple_open_) {
        XQP_ASSIGN_OR_RETURN(bool got, ReturnIter()->Next(out));
        if (got) return true;
        tuple_open_ = false;
      }
      if (machine_done_) return false;
      XQP_ASSIGN_OR_RETURN(bool have_tuple, NextTuple());
      if (!have_tuple) {
        machine_done_ = true;
        return false;
      }
      XQP_RETURN_NOT_OK(ReturnIter()->Reset(ctx_));
      tuple_open_ = true;
    }
  }

  void Close() override {
    sorted_.clear();
    CloseAll(children_);
    for (const auto& js : joins_) {
      if (js == nullptr) continue;
      js->matches.clear();
      js->key->Close();
      js->outer->Close();
      if (js->rest != nullptr) js->rest->Close();
    }
  }

 private:
  /// A planned for clause's executor inputs and, while `active`, the
  /// matches its current domain pass iterates instead of the domain.
  struct JoinState {
    value_join::Spec spec;
    std::unique_ptr<ItemIterator> key;
    std::unique_ptr<ItemIterator> outer;
    std::unique_ptr<ItemIterator> rest;  // Null when there is no rest.
    bool active = false;
    Sequence matches;
    size_t pos = 0;
  };

  ItemIterator* ReturnIter() { return children_.back().get(); }

  /// The order-by path: the first pull runs the tuple machine to the end,
  /// keying and draining each tuple, and sorts; later pulls walk the
  /// sorted return values. The buffer is not charged to the governor
  /// (as in the interpreter and the VM's kSortAdd); OpenForward polls it
  /// once per tuple.
  Result<bool> NextSorted(Item* out) {
    if (!machine_done_) {
      while (true) {
        XQP_ASSIGN_OR_RETURN(bool have_tuple, NextTuple());
        if (!have_tuple) break;
        flwor::OrderedTuple t;
        t.keys.reserve(specs_.size());
        for (size_t i = 0; i < e_->clauses.size(); ++i) {
          if (e_->clauses[i].type != FlworExpr::Clause::Type::kOrderSpec) {
            continue;
          }
          XQP_RETURN_NOT_OK(children_[i]->Reset(ctx_));
          XQP_ASSIGN_OR_RETURN(Sequence key, Drain(children_[i].get()));
          XQP_ASSIGN_OR_RETURN(flwor::OrderKey cell, flwor::MakeOrderKey(key));
          t.keys.push_back(std::move(cell));
        }
        XQP_RETURN_NOT_OK(ReturnIter()->Reset(ctx_));
        XQP_ASSIGN_OR_RETURN(t.result, Drain(ReturnIter()));
        sorted_.push_back(std::move(t));
      }
      machine_done_ = true;
      XQP_RETURN_NOT_OK(flwor::SortTuples(&sorted_, specs_));
    }
    while (sorted_tuple_ < sorted_.size()) {
      Sequence& result = sorted_[sorted_tuple_].result;
      if (sorted_pos_ < result.size()) {
        *out = std::move(result[sorted_pos_++]);
        return true;
      }
      ++sorted_tuple_;
      sorted_pos_ = 0;
    }
    return false;
  }

  /// Opens for clause `i`'s domain: the executor's matches when it
  /// answers, else the domain iterator.
  Status OpenDomain(size_t i) {
    JoinState* js = joins_[i].get();
    if (js != nullptr) {
      auto eval = [&](const Expr* x) -> Result<Sequence> {
        ItemIterator* it = x == js->spec.domain ? children_[i].get()
                           : x == js->spec.key  ? js->key.get()
                                                : js->outer.get();
        XQP_RETURN_NOT_OK(it->Reset(ctx_));
        return Drain(it);
      };
      std::optional<Sequence> matches =
          value_join::Match(js->spec, ctx_, eval);
      js->active = matches.has_value();
      if (js->active) {
        js->matches = std::move(*matches);
        js->pos = 0;
        return Status::OK();
      }
    }
    return children_[i]->Reset(ctx_);
  }

  Result<bool> NextDomainItem(size_t i, Item* out) {
    JoinState* js = joins_[i].get();
    if (js == nullptr || !js->active) return children_[i]->Next(out);
    if (js->pos >= js->matches.size()) return false;
    *out = js->matches[js->pos++];
    return true;
  }

  /// The where clause `i`'s test: the whole predicate, only its rest
  /// conjunct after a join-answered for clause, or null (passes).
  ItemIterator* WhereTest(size_t i) {
    if (i > 0 && joins_[i - 1] != nullptr && joins_[i - 1]->active) {
      return joins_[i - 1]->rest.get();
    }
    return children_[i].get();
  }

  /// Establishes the next complete tuple. On the first call it opens all
  /// clauses from 0; afterwards it backtracks to the deepest for clause
  /// with remaining items.
  Result<bool> NextTuple() {
    size_t n = e_->clauses.size();
    size_t i;
    if (first_tuple_) {
      first_tuple_ = false;
      i = 0;
      XQP_ASSIGN_OR_RETURN(bool ok, OpenForward(&i, 0));
      return ok;
    }
    // Backtrack from the end.
    XQP_ASSIGN_OR_RETURN(bool ok, Backtrack(&i, n));
    if (!ok) return false;
    XQP_ASSIGN_OR_RETURN(ok, OpenForward(&i, i));
    return ok;
  }

  /// Runs clauses [start, n) forward, opening for-domains fresh. On a
  /// where-miss or an exhausted fresh for-domain, backtracks.
  Result<bool> OpenForward(size_t* out_i, size_t start) {
    size_t n = e_->clauses.size();
    size_t i = start;
    while (i < n) {
      // Poll here, not just in Next(): a run of where-misses backtracks and
      // reopens entirely inside this loop, so a selective where over a big
      // cartesian domain would otherwise never reach a governor check.
      if (ctx_->governor != nullptr) {
        XQP_RETURN_NOT_OK(ctx_->governor->Poll());
      }
      const FlworExpr::Clause& c = e_->clauses[i];
      switch (c.type) {
        case FlworExpr::Clause::Type::kLet: {
          XQP_RETURN_NOT_OK(children_[i]->Reset(ctx_));
          // Lazy binding: consumers pull through a shared buffer.
          ctx_->slots[c.var_slot] = LazySeq::FromIterator(
              std::make_unique<NonOwningIt>(children_[i].get()));
          ++i;
          break;
        }
        case FlworExpr::Clause::Type::kWhere: {
          bool pass = true;
          if (ItemIterator* test = WhereTest(i)) {
            XQP_RETURN_NOT_OK(test->Reset(ctx_));
            XQP_ASSIGN_OR_RETURN(pass, StreamingEbv(test));
          }
          if (pass) {
            ++i;
            break;
          }
          XQP_ASSIGN_OR_RETURN(bool ok, Backtrack(&i, i));
          if (!ok) return false;
          break;
        }
        case FlworExpr::Clause::Type::kFor: {
          XQP_RETURN_NOT_OK(OpenDomain(i));
          for_pos_[i] = 0;
          Item item;
          XQP_ASSIGN_OR_RETURN(bool got, NextDomainItem(i, &item));
          if (got) {
            BindFor(i, std::move(item));
            ++i;
            break;
          }
          XQP_ASSIGN_OR_RETURN(bool ok, Backtrack(&i, i));
          if (!ok) return false;
          break;
        }
        case FlworExpr::Clause::Type::kOrderSpec:
          ++i;  // Keyed per complete tuple by NextSorted.
          break;
      }
    }
    *out_i = i;
    return true;
  }

  /// Finds the deepest for clause before `limit` with another item; binds
  /// it and sets *resume to the following clause. Returns false when the
  /// whole tuple stream is exhausted.
  Result<bool> Backtrack(size_t* resume, size_t limit) {
    for (size_t j = limit; j-- > 0;) {
      if (e_->clauses[j].type != FlworExpr::Clause::Type::kFor) continue;
      Item item;
      XQP_ASSIGN_OR_RETURN(bool got, NextDomainItem(j, &item));
      if (got) {
        BindFor(j, std::move(item));
        *resume = j + 1;
        return true;
      }
    }
    return false;
  }

  void BindFor(size_t i, Item item) {
    const FlworExpr::Clause& c = e_->clauses[i];
    ctx_->slots[c.var_slot] = LazySeq::FromItem(std::move(item));
    ++for_pos_[i];
    if (c.pos_slot >= 0) {
      ctx_->slots[c.pos_slot] =
          LazySeq::FromItem(Item(AtomicValue::Integer(for_pos_[i])));
    }
  }

  const FlworExpr* e_;
  std::vector<std::unique_ptr<ItemIterator>> children_;
  std::vector<std::unique_ptr<JoinState>> joins_;  // Per clause; null if
                                                   // not planned.
  std::vector<flwor::OrderSpecFlags> specs_;  // One per order spec.
  DynamicContext* ctx_ = nullptr;
  std::vector<int64_t> for_pos_;
  bool tuple_open_ = false;
  bool machine_done_ = false;
  bool first_tuple_ = true;
  // Order-by state: the sorted tuples and the read cursor over them.
  std::vector<flwor::OrderedTuple> sorted_;
  size_t sorted_tuple_ = 0;
  size_t sorted_pos_ = 0;
};

/// some/every with early exit; pulls domains lazily (the paper's
/// endlessOnes() example terminates here).
class QuantifiedIt : public ItemIterator {
 public:
  explicit QuantifiedIt(const QuantifiedExpr* e) : e_(e) {}

  Status Init(const FocusInfo* focus) {
    for (size_t i = 0; i < e_->NumChildren(); ++i) {
      XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> it,
                           CompileIterator(e_->child(i), focus));
      children_.push_back(std::move(it));
    }
    return Status::OK();
  }

  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    done_ = false;
    return Status::OK();
  }

  Result<bool> Next(Item* out) override {
    if (done_) return false;
    done_ = true;
    XQP_ASSIGN_OR_RETURN(bool value, Run(0));
    *out = Item(AtomicValue::Boolean(value));
    return true;
  }

  void Close() override { CloseAll(children_); }

 private:
  Result<bool> Run(size_t bi) {
    if (bi == e_->bindings.size()) {
      XQP_RETURN_NOT_OK(children_.back()->Reset(ctx_));
      return StreamingEbv(children_.back().get());
    }
    XQP_RETURN_NOT_OK(children_[bi]->Reset(ctx_));
    while (true) {
      if (ctx_->governor != nullptr) {
        XQP_RETURN_NOT_OK(ctx_->governor->Poll());
      }
      Item item;
      XQP_ASSIGN_OR_RETURN(bool got, children_[bi]->Next(&item));
      if (!got) break;
      ctx_->slots[e_->bindings[bi].var_slot] = LazySeq::FromItem(std::move(item));
      XQP_ASSIGN_OR_RETURN(bool b, Run(bi + 1));
      if (b != e_->is_every) return b;  // Early exit.
    }
    return e_->is_every;
  }

  const QuantifiedExpr* e_;
  std::vector<std::unique_ptr<ItemIterator>> children_;
  DynamicContext* ctx_ = nullptr;
  bool done_ = false;
};

}  // namespace

Result<std::unique_ptr<ItemIterator>> CompileFlwor(const FlworExpr* e,
                                                   const FocusInfo* focus) {
  auto it = std::make_unique<FlworIt>(e);
  XQP_RETURN_NOT_OK(it->Init(focus));
  return std::unique_ptr<ItemIterator>(std::move(it));
}

Result<std::unique_ptr<ItemIterator>> CompileQuantified(
    const QuantifiedExpr* e, const FocusInfo* focus) {
  auto it = std::make_unique<QuantifiedIt>(e);
  XQP_RETURN_NOT_OK(it->Init(focus));
  return std::unique_ptr<ItemIterator>(std::move(it));
}

}  // namespace lazy_internal
}  // namespace xqp
