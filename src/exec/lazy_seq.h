#ifndef XQP_EXEC_LAZY_SEQ_H_
#define XQP_EXEC_LAZY_SEQ_H_

#include <memory>
#include <mutex>
#include <vector>

#include "exec/item.h"

namespace xqp {

class DynamicContext;
class Expr;

/// Pull-based item iterator: the paper's iterator execution model at item
/// granularity. Reset() (re)starts evaluation under the current dynamic
/// context; Next() produces one item at a time, on demand (lazy evaluation);
/// Close() ends the run: it drops every item, document reference and frame
/// the run left behind and releases what it holds in the context, which
/// must still be alive. A closed iterator may be Reset for another run
/// under another context; buffers keep their capacity.
class ItemIterator {
 public:
  virtual ~ItemIterator() = default;

  virtual Status Reset(DynamicContext* ctx) = 0;
  /// Produces the next item. Returns false at end of sequence.
  virtual Result<bool> Next(Item* out) = 0;
  /// Composites close their children; leaves that hold nothing from the
  /// run keep this default.
  virtual void Close() {}
};

/// Idle, undecorated iterator trees of one plan root, so that repeated
/// runs reuse a tree instead of building one each: the paper's
/// open/next/close on a plan compiled once. A run leases a tree (building
/// one when none is idle); the lease closes it and puts it back. The pool
/// holds at most as many trees as runs were ever in flight at once.
/// Implemented beside the lazy compiler (exec/iterators.cc).
class PlanPool {
 public:
  /// One run's hold on a tree. Destroy it before the run's context: its
  /// destructor Close()s the tree, which releases depth slots through the
  /// context and drops the run's items, then returns the tree to the pool.
  class Lease {
   public:
    explicit Lease(PlanPool* pool) : pool_(pool) {}
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    /// Takes an idle tree for `root` from the pool, or builds one, and
    /// resets it against `ctx`.
    Status Open(const Expr* root, DynamicContext* ctx);
    ItemIterator* get() const { return tree_.get(); }

   private:
    PlanPool* pool_;
    std::unique_ptr<ItemIterator> tree_;
  };

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ItemIterator>> idle_;
};

/// A sequence whose items are computed on demand and cached as they are
/// pulled, so several consumers can read it without recomputation and
/// without eager materialization. This is the paper's "Buffer Iterator
/// Factory": the result of a common subexpression (or a let-bound variable)
/// is buffered once, and each consumer scans the buffer, extending it
/// lazily. A LazySeq backed by a plain vector is the fully materialized
/// special case.
class LazySeq {
 public:
  /// Fully materialized sequence.
  static std::shared_ptr<LazySeq> FromVector(Sequence items);

  /// Single-item sequence (cheap path for for-loop bindings).
  static std::shared_ptr<LazySeq> FromItem(Item item);

  /// Empty sequence.
  static std::shared_ptr<LazySeq> Empty();

  /// Lazily buffered sequence; `source` must already be Reset. The LazySeq
  /// takes ownership and pulls from it as consumers advance.
  static std::shared_ptr<LazySeq> FromIterator(
      std::unique_ptr<ItemIterator> source);

  /// Item `i`, materializing the prefix [0, i] if needed. Returns nullptr
  /// once `i` is past the end. The pointer is invalidated by further Get
  /// calls with larger indices.
  Result<const Item*> Get(size_t i);

  /// Total size (forces full materialization).
  Result<size_t> Size();

  /// Materializes everything and returns the buffer.
  Result<const Sequence*> Materialize();

  /// True once the source is exhausted.
  bool fully_materialized() const { return source_ == nullptr; }

  /// Items buffered so far (diagnostics; experiment E2 uses this to show
  /// how little of a sequence lazy evaluation touches).
  size_t buffered() const { return buffer_.size(); }

 private:
  LazySeq() = default;

  /// Pulls items until the buffer has > `i` items or the source ends.
  Status FillTo(size_t i);

  Sequence buffer_;
  std::unique_ptr<ItemIterator> source_;
};

using LazySeqPtr = std::shared_ptr<LazySeq>;

/// Iterator over a LazySeq (one consumer's cursor into the shared buffer).
class LazySeqIterator : public ItemIterator {
 public:
  explicit LazySeqIterator(LazySeqPtr seq) : seq_(std::move(seq)) {}

  Status Reset(DynamicContext* ctx) override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Item* out) override {
    XQP_ASSIGN_OR_RETURN(const Item* item, seq_->Get(pos_));
    if (item == nullptr) return false;
    ++pos_;
    *out = *item;
    return true;
  }

 private:
  LazySeqPtr seq_;
  size_t pos_ = 0;
};

}  // namespace xqp

#endif  // XQP_EXEC_LAZY_SEQ_H_
