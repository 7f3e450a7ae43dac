#include "exec/iterators.h"

#include <chrono>
#include <mutex>
#include <tuple>
#include <vector>

#include "base/metrics.h"
#include "exec/axes.h"
#include "exec/builtins.h"
#include "exec/constructor.h"
#include "exec/operators.h"
#include "exec/profile.h"
#include "exec/type_match.h"

namespace xqp {

namespace {

/// Compile-time profiling gate. Set (via ProfileWrapScope) while compiling
/// an iterator tree for a profiled run: CompileIterator then wraps every
/// operator in a ProfileIt decorator. Unprofiled compilations see a single
/// thread_local bool test and produce undecorated trees, so disabled-mode
/// execution is byte-for-byte the pre-profiling engine.
thread_local bool tls_profile_wrap = false;

struct ProfileWrapScope {
  explicit ProfileWrapScope(bool enable)
      : saved_(tls_profile_wrap) {
    tls_profile_wrap = enable;
  }
  ~ProfileWrapScope() { tls_profile_wrap = saved_; }
  bool saved_;
};

/// Builds the whole iterator tree for a plan root or a user-function body,
/// with no focus (counted as lazy.plans.built). `profiled` wraps every
/// operator in a ProfileIt.
Result<std::unique_ptr<ItemIterator>> CompilePlan(const Expr* e,
                                                  bool profiled) {
  if (metrics::Enabled()) {
    static metrics::Counter* built =
        metrics::MetricsRegistry::Global().counter("lazy.plans.built");
    built->Increment();
  }
  ProfileWrapScope wrap(profiled);
  return CompileIterator(e, nullptr);
}

/// Drains `it` into `*out`, replacing its items but keeping its capacity.
Status DrainInto(ItemIterator* it, Sequence* out) {
  out->clear();
  Item item;
  while (true) {
    XQP_ASSIGN_OR_RETURN(bool got, it->Next(&item));
    if (!got) return Status::OK();
    out->push_back(std::move(item));
  }
}

}  // namespace

namespace lazy_internal {

Result<Sequence> Drain(ItemIterator* it) {
  Sequence out;
  XQP_RETURN_NOT_OK(DrainInto(it, &out));
  return out;
}

}  // namespace lazy_internal

using lazy_internal::CloseAll;
using lazy_internal::Drain;
using lazy_internal::FocusOf;

Result<bool> StreamingEbv(ItemIterator* it) {
  Item first;
  XQP_ASSIGN_OR_RETURN(bool got, it->Next(&first));
  if (!got) return false;
  if (first.IsNode()) return true;  // Laziness: never pull past a node.
  Item second;
  XQP_ASSIGN_OR_RETURN(bool more, it->Next(&second));
  if (more) {
    return Status::TypeError(
        "effective boolean value of a multi-item atomic sequence");
  }
  Sequence single{first};
  return EffectiveBooleanValue(single);
}

namespace {

using lazy_internal::CompileFilter;
using lazy_internal::CompileFlwor;
using lazy_internal::CompilePath;
using lazy_internal::CompileQuantified;
using lazy_internal::CompileStep;

// ---------------------------------------------------------------------------
// Trivial sources
// ---------------------------------------------------------------------------

class LiteralIt : public ItemIterator {
 public:
  explicit LiteralIt(AtomicValue value) : value_(std::move(value)) {}
  Status Reset(DynamicContext* ctx) override {
    done_ = false;
    return Status::OK();
  }
  Result<bool> Next(Item* out) override {
    if (done_) return false;
    done_ = true;
    *out = Item(value_);
    return true;
  }

 private:
  AtomicValue value_;
  bool done_ = false;
};

class VarRefIt : public ItemIterator {
 public:
  explicit VarRefIt(const VarRefExpr* var) : var_(var) {}
  Status Reset(DynamicContext* ctx) override {
    const auto& frame = var_->is_global ? ctx->globals : ctx->slots;
    if (var_->slot < 0 || var_->slot >= static_cast<int>(frame.size()) ||
        frame[var_->slot] == nullptr) {
      return Status::DynamicError("unbound variable: $" + var_->name.Lexical());
    }
    seq_ = frame[var_->slot];
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
  void Close() override { seq_.reset(); }

 private:
  const VarRefExpr* var_;
  LazySeqPtr seq_;
  size_t pos_ = 0;
};

class ContextItemIt : public ItemIterator {
 public:
  explicit ContextItemIt(const FocusInfo* focus) : focus_(focus) {}
  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    done_ = false;
    return Status::OK();
  }
  Result<bool> Next(Item* out) override {
    if (done_) return false;
    done_ = true;
    XQP_ASSIGN_OR_RETURN(const Item* item, FocusItem(FocusOf(focus_, ctx_)));
    *out = *item;
    return true;
  }

 private:
  const FocusInfo* focus_;
  DynamicContext* ctx_ = nullptr;
  bool done_ = false;
};

class RootIt : public ItemIterator {
 public:
  explicit RootIt(const FocusInfo* focus) : inner_(focus) {}
  Status Reset(DynamicContext* ctx) override { return inner_.Reset(ctx); }
  Result<bool> Next(Item* out) override {
    Item item;
    XQP_ASSIGN_OR_RETURN(bool got, inner_.Next(&item));
    if (!got) return false;
    XQP_ASSIGN_OR_RETURN(*out, SlashRoot(item));
    return true;
  }
  void Close() override { inner_.Close(); }

 private:
  ContextItemIt inner_;
};

/// Lazy concatenation (the comma operator).
class SequenceIt : public ItemIterator {
 public:
  explicit SequenceIt(std::vector<std::unique_ptr<ItemIterator>> children)
      : children_(std::move(children)) {}
  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    current_ = 0;
    if (!children_.empty()) {
      XQP_RETURN_NOT_OK(children_[0]->Reset(ctx));
    }
    return Status::OK();
  }
  Result<bool> Next(Item* out) override {
    while (current_ < children_.size()) {
      XQP_ASSIGN_OR_RETURN(bool got, children_[current_]->Next(out));
      if (got) return true;
      ++current_;
      if (current_ < children_.size()) {
        XQP_RETURN_NOT_OK(children_[current_]->Reset(ctx_));
      }
    }
    return false;
  }
  void Close() override { CloseAll(children_); }

 private:
  std::vector<std::unique_ptr<ItemIterator>> children_;
  DynamicContext* ctx_ = nullptr;
  size_t current_ = 0;
};

class RangeIt : public ItemIterator {
 public:
  RangeIt(std::unique_ptr<ItemIterator> lo, std::unique_ptr<ItemIterator> hi)
      : lo_(std::move(lo)), hi_(std::move(hi)) {}
  Status Reset(DynamicContext* ctx) override {
    XQP_RETURN_NOT_OK(lo_->Reset(ctx));
    XQP_RETURN_NOT_OK(hi_->Reset(ctx));
    governor_ = ctx->governor;
    started_ = false;
    return Status::OK();
  }
  Result<bool> Next(Item* out) override {
    if (!started_) {
      started_ = true;
      XQP_ASSIGN_OR_RETURN(Sequence lo, Drain(lo_.get()));
      XQP_ASSIGN_OR_RETURN(Sequence hi, Drain(hi_.get()));
      XQP_ASSIGN_OR_RETURN(auto bounds, RangeBounds(lo, hi));
      done_ = !bounds.has_value() || bounds->first > bounds->second;
      if (!done_) std::tie(next_, end_) = *bounds;
    }
    if (done_) return false;
    // Polls every 1024 values, as the materializing range does, so a
    // deadline stops a long range that nothing buffers.
    if (governor_ != nullptr && (uint64_t(next_) & 1023) == 0) {
      XQP_RETURN_NOT_OK(governor_->Poll());
    }
    *out = Item(AtomicValue::Integer(next_));
    // Stop at the last value: ++next_ would overflow at INT64_MAX.
    if (next_ == end_) {
      done_ = true;
    } else {
      ++next_;
    }
    return true;
  }
  void Close() override {
    lo_->Close();
    hi_->Close();
  }

 private:
  std::unique_ptr<ItemIterator> lo_, hi_;
  ResourceGovernor* governor_ = nullptr;
  bool started_ = false;
  bool done_ = false;
  int64_t next_ = 0, end_ = 0;
};

// ---------------------------------------------------------------------------
// Materializing operators
// ---------------------------------------------------------------------------

/// Every materializing operator (exec/operators.h): drains its operands on
/// the first Next, applies the operator, then emits the result. The
/// operand and result vectors keep their capacity across runs of a pooled
/// tree; their items are released as soon as the operator has applied and
/// at Close.
class OperatorIt : public ItemIterator {
 public:
  OperatorIt(const Expr* e,
             std::vector<std::unique_ptr<ItemIterator>> operands)
      : e_(e), operands_(std::move(operands)), values_(operands_.size()) {}

  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    computed_ = false;
    pos_ = 0;
    for (auto& operand : operands_) XQP_RETURN_NOT_OK(operand->Reset(ctx));
    return Status::OK();
  }

  Result<bool> Next(Item* out) override {
    if (!computed_) {
      XQP_RETURN_NOT_OK(Compute());
      computed_ = true;
    }
    if (pos_ >= result_.size()) return false;
    *out = result_[pos_++];
    return true;
  }

  void Close() override {
    for (Sequence& v : values_) v.clear();
    result_.clear();
    CloseAll(operands_);
  }

 private:
  Status Compute() {
    size_t k = 0;
    XQP_RETURN_NOT_OK(construct::ForEachOperand(
        *e_, ctx_->profile, [&](const Expr*) {
          const size_t i = k++;
          return DrainInto(operands_[i].get(), &values_[i]);
        }));
    Status st = ApplyOperator(*e_, values_, ctx_, &result_);
    for (Sequence& v : values_) v.clear();
    return st;
  }

  const Expr* e_;
  std::vector<std::unique_ptr<ItemIterator>> operands_;
  std::vector<Sequence> values_;
  DynamicContext* ctx_ = nullptr;
  bool computed_ = false;
  Sequence result_;
  size_t pos_ = 0;
};

class LogicalIt : public ItemIterator {
 public:
  LogicalIt(bool is_and, std::unique_ptr<ItemIterator> lhs,
            std::unique_ptr<ItemIterator> rhs)
      : is_and_(is_and), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    done_ = false;
    return lhs_->Reset(ctx);
  }
  Result<bool> Next(Item* out) override {
    if (done_) return false;
    done_ = true;
    XQP_ASSIGN_OR_RETURN(bool lv, StreamingEbv(lhs_.get()));
    bool value;
    if (is_and_ && !lv) {
      value = false;  // Short-circuit: rhs never reset nor evaluated.
    } else if (!is_and_ && lv) {
      value = true;
    } else {
      // Reset only now: an index-backed rhs probes in its Reset.
      XQP_RETURN_NOT_OK(rhs_->Reset(ctx_));
      XQP_ASSIGN_OR_RETURN(value, StreamingEbv(rhs_.get()));
    }
    *out = Item(AtomicValue::Boolean(value));
    return true;
  }
  void Close() override {
    lhs_->Close();
    rhs_->Close();
  }

 private:
  bool is_and_;
  std::unique_ptr<ItemIterator> lhs_, rhs_;
  DynamicContext* ctx_ = nullptr;
  bool done_ = false;
};

class IfIt : public ItemIterator {
 public:
  IfIt(std::unique_ptr<ItemIterator> cond, std::unique_ptr<ItemIterator> then_i,
       std::unique_ptr<ItemIterator> else_i)
      : cond_(std::move(cond)),
        then_(std::move(then_i)),
        else_(std::move(else_i)) {}
  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    XQP_RETURN_NOT_OK(cond_->Reset(ctx));
    chosen_ = nullptr;
    return Status::OK();
  }
  Result<bool> Next(Item* out) override {
    if (chosen_ == nullptr) {
      XQP_ASSIGN_OR_RETURN(bool b, StreamingEbv(cond_.get()));
      chosen_ = b ? then_.get() : else_.get();
      XQP_RETURN_NOT_OK(chosen_->Reset(ctx_));
    }
    return chosen_->Next(out);
  }
  void Close() override {
    cond_->Close();
    then_->Close();
    else_->Close();
  }

 private:
  std::unique_ptr<ItemIterator> cond_, then_, else_;
  DynamicContext* ctx_ = nullptr;
  ItemIterator* chosen_ = nullptr;
};

/// treat-as streams through, validating items on the fly.
class TreatIt : public ItemIterator {
 public:
  TreatIt(const TreatExpr* e, std::unique_ptr<ItemIterator> operand)
      : e_(e), operand_(std::move(operand)) {}
  Status Reset(DynamicContext* ctx) override {
    count_ = 0;
    return operand_->Reset(ctx);
  }
  Result<bool> Next(Item* out) override {
    XQP_ASSIGN_OR_RETURN(bool got, operand_->Next(out));
    if (got) ++count_;
    XQP_RETURN_NOT_OK(CheckTreat(e_->type, got ? out : nullptr, count_));
    return got;
  }
  void Close() override { operand_->Close(); }

 private:
  const TreatExpr* e_;
  std::unique_ptr<ItemIterator> operand_;
  size_t count_ = 0;
};

class TypeswitchIt : public ItemIterator {
 public:
  TypeswitchIt(const TypeswitchExpr* e,
               std::vector<std::unique_ptr<ItemIterator>> children)
      : e_(e), children_(std::move(children)) {}
  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    chosen_ = nullptr;
    return children_[0]->Reset(ctx);
  }
  Result<bool> Next(Item* out) override {
    if (chosen_ == nullptr) {
      XQP_ASSIGN_OR_RETURN(Sequence operand, Drain(children_[0].get()));
      size_t branch = e_->NumChildren() - 1;
      int slot = e_->default_var_slot;
      for (size_t i = 0; i < e_->cases.size(); ++i) {
        if (MatchesSequenceType(operand, e_->cases[i].type)) {
          branch = i + 1;
          slot = e_->cases[i].var_slot;
          break;
        }
      }
      if (slot >= 0) {
        ctx_->slots[slot] = LazySeq::FromVector(std::move(operand));
      }
      chosen_ = children_[branch].get();
      XQP_RETURN_NOT_OK(chosen_->Reset(ctx_));
    }
    return chosen_->Next(out);
  }
  void Close() override { CloseAll(children_); }

 private:
  const TypeswitchExpr* e_;
  std::vector<std::unique_ptr<ItemIterator>> children_;
  DynamicContext* ctx_ = nullptr;
  ItemIterator* chosen_ = nullptr;
};

// ---------------------------------------------------------------------------
// Function calls
// ---------------------------------------------------------------------------

class FunctionCallIt : public ItemIterator {
 public:
  FunctionCallIt(const FunctionCallExpr* e, const FocusInfo* focus,
                 std::vector<std::unique_ptr<ItemIterator>> args)
      : e_(e), focus_(focus), args_(std::move(args)) {}

  ~FunctionCallIt() override { ReleaseDepth(); }

  Status Reset(DynamicContext* ctx) override {
    ReleaseDepth();
    ctx_ = ctx;
    state_ = State::kInit;
    pos_ = 0;
    result_.clear();
    for (auto& a : args_) {
      XQP_RETURN_NOT_OK(a->Reset(ctx));
    }
    return Status::OK();
  }

  Result<bool> Next(Item* out) override {
    if (state_ == State::kInit) {
      XQP_RETURN_NOT_OK(Prepare());
    }
    if (state_ == State::kUserStreaming) {
      // Swap our frame in around every pull so the lazily evaluated body
      // sees its own bindings and no focus even while outer iterators
      // interleave.
      ctx_->SwapFrame(&frame_);
      auto got = body_->Next(out);
      ctx_->SwapFrame(&frame_);
      return got;
    }
    if (pos_ >= result_.size()) return false;
    *out = result_[pos_++];
    return true;
  }

  /// Releases the recursion-depth slot through the still-live context and
  /// drops the frame; the compiled body stays for the next call.
  void Close() override {
    ReleaseDepth();
    result_.clear();
    frame_.slots.clear();
    CloseAll(args_);
    if (body_ != nullptr) body_->Close();
  }

 private:
  enum class State { kInit, kMaterialized, kUserStreaming };

  Status Prepare() {
    if (e_->user_index >= 0) return PrepareUser();
    Builtin id = static_cast<Builtin>(e_->builtin);
    // Short-circuiting builtins: pull only what is needed (lazy evaluation;
    // the paper's endlessOnes() example relies on this).
    switch (id) {
      case Builtin::kEmpty:
      case Builtin::kExists: {
        Item scratch;
        XQP_ASSIGN_OR_RETURN(bool got, args_[0]->Next(&scratch));
        bool value = id == Builtin::kEmpty ? !got : got;
        result_ = {Item(AtomicValue::Boolean(value))};
        state_ = State::kMaterialized;
        return Status::OK();
      }
      case Builtin::kHead: {
        Item first;
        XQP_ASSIGN_OR_RETURN(bool got, args_[0]->Next(&first));
        if (got) result_ = {std::move(first)};
        state_ = State::kMaterialized;
        return Status::OK();
      }
      case Builtin::kBoolean:
      case Builtin::kNot: {
        XQP_ASSIGN_OR_RETURN(bool b, StreamingEbv(args_[0].get()));
        if (id == Builtin::kNot) b = !b;
        result_ = {Item(AtomicValue::Boolean(b))};
        state_ = State::kMaterialized;
        return Status::OK();
      }
      case Builtin::kCount: {
        // Streams without buffering items.
        int64_t n = 0;
        Item scratch;
        while (true) {
          XQP_ASSIGN_OR_RETURN(bool got, args_[0]->Next(&scratch));
          if (!got) break;
          ++n;
        }
        result_ = {Item(AtomicValue::Integer(n))};
        state_ = State::kMaterialized;
        return Status::OK();
      }
      default:
        break;
    }
    XQP_ASSIGN_OR_RETURN(std::vector<Sequence> args, DrainArgs());
    XQP_ASSIGN_OR_RETURN(result_,
                         CallBuiltin(id, args, ctx_, FocusOf(focus_, ctx_)));
    state_ = State::kMaterialized;
    return Status::OK();
  }

  Status PrepareUser() {
    XQP_ASSIGN_OR_RETURN(std::vector<Sequence> args, DrainArgs());
    const UserFunction& fn = ctx_->module->functions[e_->user_index];
    XQP_ASSIGN_OR_RETURN(frame_, BindUserCall(fn, args, *ctx_));
    // Compile the body once per call-site iterator, on its first call, with
    // no focus; later calls and later runs of a pooled tree reset it. The
    // recursion-depth slot stays held while the body streams.
    if (body_ == nullptr) {
      const bool profiled = ctx_->profile != nullptr;
      XQP_ASSIGN_OR_RETURN(body_, CompilePlan(fn.body.get(), profiled));
    }
    ++ctx_->call_depth;
    depth_held_ = true;
    ctx_->SwapFrame(&frame_);
    Status st = body_->Reset(ctx_);
    ctx_->SwapFrame(&frame_);
    XQP_RETURN_NOT_OK(st);
    state_ = State::kUserStreaming;
    return Status::OK();
  }

  /// Every argument, evaluated in order.
  Result<std::vector<Sequence>> DrainArgs() {
    std::vector<Sequence> args;
    args.reserve(args_.size());
    for (auto& a : args_) {
      XQP_ASSIGN_OR_RETURN(Sequence arg, Drain(a.get()));
      args.push_back(std::move(arg));
    }
    return args;
  }

  void ReleaseDepth() {
    if (depth_held_ && ctx_ != nullptr) {
      --ctx_->call_depth;
      depth_held_ = false;
    }
  }

  const FunctionCallExpr* e_;
  const FocusInfo* focus_;
  std::vector<std::unique_ptr<ItemIterator>> args_;
  DynamicContext* ctx_ = nullptr;
  State state_ = State::kInit;
  Sequence result_;
  size_t pos_ = 0;
  std::unique_ptr<ItemIterator> body_;
  CallFrame frame_;
  bool depth_held_ = false;
};

}  // namespace

/// try/catch: the try branch must be fully evaluated before any item can be
/// emitted (an error after partial output would be uncatchable), so it is a
/// materialization point; the catch branch streams.
class TryCatchIt : public ItemIterator {
 public:
  TryCatchIt(std::unique_ptr<ItemIterator> try_it,
             std::unique_ptr<ItemIterator> catch_it)
      : try_(std::move(try_it)), catch_(std::move(catch_it)) {}

  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    state_ = State::kInit;
    pos_ = 0;
    buffer_.clear();
    return try_->Reset(ctx);
  }

  Result<bool> Next(Item* out) override {
    if (state_ == State::kInit) {
      auto attempt = Drain(try_.get());
      if (attempt.ok()) {
        buffer_ = std::move(attempt).value();
        state_ = State::kBuffered;
      } else {
        StatusCode code = attempt.status().code();
        if (code != StatusCode::kDynamicError &&
            code != StatusCode::kTypeError) {
          return attempt.status();
        }
        XQP_RETURN_NOT_OK(catch_->Reset(ctx_));
        state_ = State::kCatching;
      }
    }
    if (state_ == State::kCatching) return catch_->Next(out);
    if (pos_ >= buffer_.size()) return false;
    *out = buffer_[pos_++];
    return true;
  }

  void Close() override {
    buffer_.clear();
    try_->Close();
    catch_->Close();
  }

 private:
  enum class State { kInit, kBuffered, kCatching };
  std::unique_ptr<ItemIterator> try_, catch_;
  DynamicContext* ctx_ = nullptr;
  State state_ = State::kInit;
  Sequence buffer_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Compiler dispatch
// ---------------------------------------------------------------------------

namespace {

/// Decorator recording Next() pulls, items produced, and inclusive wall
/// time into the run's QueryProfile. Only ever instantiated when a profiled
/// compilation requested it (tls_profile_wrap), so unprofiled plans carry
/// zero overhead.
class ProfileIt : public ItemIterator {
 public:
  ProfileIt(const Expr* e, std::unique_ptr<ItemIterator> inner)
      : e_(e), inner_(std::move(inner)) {}

  Status Reset(DynamicContext* ctx) override {
    if (ctx->profile != profile_) {
      profile_ = ctx->profile;
      stats_ = profile_ == nullptr ? nullptr : profile_->StatsFor(e_);
    }
    if (stats_ != nullptr) ++stats_->resets;
    return inner_->Reset(ctx);
  }

  Result<bool> Next(Item* out) override {
    if (stats_ == nullptr) return inner_->Next(out);
    const auto start = std::chrono::steady_clock::now();
    Result<bool> got = inner_->Next(out);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    stats_->wall_ns += ns < 0 ? 0 : uint64_t(ns);
    ++stats_->next_calls;
    if (got.ok() && got.value()) ++stats_->items;
    return got;
  }

  void Close() override { inner_->Close(); }

 private:
  const Expr* e_;
  std::unique_ptr<ItemIterator> inner_;
  QueryProfile* profile_ = nullptr;
  OpStats* stats_ = nullptr;
};

Result<std::unique_ptr<ItemIterator>> CompileIteratorImpl(
    const Expr* e, const FocusInfo* focus) {
  switch (e->kind()) {
    case ExprKind::kLiteral:
      return std::unique_ptr<ItemIterator>(
          std::make_unique<LiteralIt>(static_cast<const LiteralExpr*>(e)->value));
    case ExprKind::kVarRef:
      return std::unique_ptr<ItemIterator>(
          std::make_unique<VarRefIt>(static_cast<const VarRefExpr*>(e)));
    case ExprKind::kContextItem:
      return std::unique_ptr<ItemIterator>(
          std::make_unique<ContextItemIt>(focus));
    case ExprKind::kRoot:
      return std::unique_ptr<ItemIterator>(std::make_unique<RootIt>(focus));
    case ExprKind::kSequence: {
      std::vector<std::unique_ptr<ItemIterator>> children;
      for (size_t i = 0; i < e->NumChildren(); ++i) {
        XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> c,
                             CompileIterator(e->child(i), focus));
        children.push_back(std::move(c));
      }
      return std::unique_ptr<ItemIterator>(
          std::make_unique<SequenceIt>(std::move(children)));
    }
    case ExprKind::kRange: {
      XQP_ASSIGN_OR_RETURN(auto lo, CompileIterator(e->child(0), focus));
      XQP_ASSIGN_OR_RETURN(auto hi, CompileIterator(e->child(1), focus));
      return std::unique_ptr<ItemIterator>(
          std::make_unique<RangeIt>(std::move(lo), std::move(hi)));
    }
    case ExprKind::kArithmetic:
    case ExprKind::kUnary:
    case ExprKind::kComparison:
    case ExprKind::kCastAs:
    case ExprKind::kCastableAs:
    case ExprKind::kInstanceOf:
    case ExprKind::kUnion:
    case ExprKind::kIntersectExcept:
    case ExprKind::kElementCtor:
    case ExprKind::kAttributeCtor:
    case ExprKind::kTextCtor:
    case ExprKind::kCommentCtor:
    case ExprKind::kPiCtor:
    case ExprKind::kDocumentCtor: {
      std::vector<std::unique_ptr<ItemIterator>> operands;
      XQP_RETURN_NOT_OK(construct::ForEachOperand(
          *e, nullptr, [&](const Expr* operand) -> Status {
            XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> it,
                                 CompileIterator(operand, focus));
            operands.push_back(std::move(it));
            return Status::OK();
          }));
      return std::unique_ptr<ItemIterator>(
          std::make_unique<OperatorIt>(e, std::move(operands)));
    }
    case ExprKind::kLogical: {
      XQP_ASSIGN_OR_RETURN(auto lhs, CompileIterator(e->child(0), focus));
      XQP_ASSIGN_OR_RETURN(auto rhs, CompileIterator(e->child(1), focus));
      return std::unique_ptr<ItemIterator>(std::make_unique<LogicalIt>(
          static_cast<const LogicalExpr*>(e)->is_and, std::move(lhs),
          std::move(rhs)));
    }
    case ExprKind::kIf: {
      XQP_ASSIGN_OR_RETURN(auto cond, CompileIterator(e->child(0), focus));
      XQP_ASSIGN_OR_RETURN(auto then_i, CompileIterator(e->child(1), focus));
      XQP_ASSIGN_OR_RETURN(auto else_i, CompileIterator(e->child(2), focus));
      return std::unique_ptr<ItemIterator>(std::make_unique<IfIt>(
          std::move(cond), std::move(then_i), std::move(else_i)));
    }
    case ExprKind::kTreatAs: {
      XQP_ASSIGN_OR_RETURN(auto operand, CompileIterator(e->child(0), focus));
      return std::unique_ptr<ItemIterator>(std::make_unique<TreatIt>(
          static_cast<const TreatExpr*>(e), std::move(operand)));
    }
    case ExprKind::kTypeswitch: {
      std::vector<std::unique_ptr<ItemIterator>> children;
      for (size_t i = 0; i < e->NumChildren(); ++i) {
        XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> c,
                             CompileIterator(e->child(i), focus));
        children.push_back(std::move(c));
      }
      return std::unique_ptr<ItemIterator>(std::make_unique<TypeswitchIt>(
          static_cast<const TypeswitchExpr*>(e), std::move(children)));
    }
    case ExprKind::kFunctionCall: {
      std::vector<std::unique_ptr<ItemIterator>> args;
      for (size_t i = 0; i < e->NumChildren(); ++i) {
        XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> a,
                             CompileIterator(e->child(i), focus));
        args.push_back(std::move(a));
      }
      return std::unique_ptr<ItemIterator>(std::make_unique<FunctionCallIt>(
          static_cast<const FunctionCallExpr*>(e), focus, std::move(args)));
    }
    case ExprKind::kTryCatch: {
      XQP_ASSIGN_OR_RETURN(auto try_it, CompileIterator(e->child(0), focus));
      XQP_ASSIGN_OR_RETURN(auto catch_it, CompileIterator(e->child(1), focus));
      return std::unique_ptr<ItemIterator>(std::make_unique<TryCatchIt>(
          std::move(try_it), std::move(catch_it)));
    }
    case ExprKind::kPath:
      return CompilePath(static_cast<const PathExpr*>(e), focus);
    case ExprKind::kStep:
      return CompileStep(static_cast<const StepExpr*>(e), focus);
    case ExprKind::kFilter:
      return CompileFilter(static_cast<const FilterExpr*>(e), focus);
    case ExprKind::kFlwor:
      return CompileFlwor(static_cast<const FlworExpr*>(e), focus);
    case ExprKind::kQuantified:
      return CompileQuantified(static_cast<const QuantifiedExpr*>(e), focus);
  }
  return Status::Internal("unhandled expression kind in lazy compiler");
}

}  // namespace

Result<std::unique_ptr<ItemIterator>> CompileIterator(const Expr* e,
                                                      const FocusInfo* focus) {
  XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> it,
                       CompileIteratorImpl(e, focus));
  if (tls_profile_wrap) {
    return std::unique_ptr<ItemIterator>(
        std::make_unique<ProfileIt>(e, std::move(it)));
  }
  return it;
}

Result<std::unique_ptr<ItemIterator>> OpenLazy(const Expr* e,
                                               DynamicContext* ctx) {
  XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> it,
                       CompilePlan(e, ctx->profile != nullptr));
  XQP_RETURN_NOT_OK(it->Reset(ctx));
  return it;
}

PlanPool::Lease::~Lease() {
  if (tree_ == nullptr) return;
  tree_->Close();
  std::lock_guard<std::mutex> lock(pool_->mu_);
  pool_->idle_.push_back(std::move(tree_));
}

Status PlanPool::Lease::Open(const Expr* root, DynamicContext* ctx) {
  {
    std::lock_guard<std::mutex> lock(pool_->mu_);
    if (!pool_->idle_.empty()) {
      tree_ = std::move(pool_->idle_.back());
      pool_->idle_.pop_back();
    }
  }
  if (tree_ == nullptr) {
    XQP_ASSIGN_OR_RETURN(tree_, CompilePlan(root, false));
  }
  return tree_->Reset(ctx);
}

}  // namespace xqp
