#include "vm/compiler.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/fault.h"
#include "base/metrics.h"
#include "exec/constructor.h"
#include "opt/const_fold.h"
#include "opt/properties.h"
#include "query/expr.h"

namespace xqp {
namespace vm {

namespace {

class Compiler {
 public:
  explicit Compiler(const ParsedModule& module)
      : module_(module), p_(std::make_shared<Program>()) {}

  std::shared_ptr<const Program> Run() {
    p_->num_slots = module_.num_slots;
    // Pool entries 0/1: the canonical booleans (kConstFalse / kConstTrue).
    p_->const_pool.push_back(Sequence{Item(AtomicValue::Boolean(false))});
    p_->const_pool.push_back(Sequence{Item(AtomicValue::Boolean(true))});

    Compile(*module_.body);
    if (!p_->thunks.empty()) {
      // Declined: keep only the reason. The engine runs the whole plan on
      // the lazy engine.
      auto declined = std::make_shared<Program>();
      declined->thunks = std::move(p_->thunks);
      return declined;
    }
    Emit(Op::kHalt);
    PatchMirrors();

    p_->max_stack = std::max(max_depth_, 1);
    uint64_t bytes = 0;
    for (const Sequence& s : p_->const_pool) {
      bytes += sizeof(Sequence) + s.size() * (sizeof(Item) + 16);
    }
    p_->const_pool_bytes = bytes;
    return p_;
  }

 private:
  // ---- emission helpers ----

  int Emit(Op op, uint8_t flag = 0, int32_t a = 0, int32_t b = 0,
           int32_t c = 0) {
    p_->code.push_back(Insn{op, flag, a, b, c});
    return static_cast<int>(p_->code.size()) - 1;
  }

  int Here() const { return static_cast<int>(p_->code.size()); }
  void PatchTarget(int pc, int target) { p_->code[size_t(pc)].a = target; }

  /// Operand-stack accounting. Linear over the emitted code; the two
  /// branchy constructs (if/logical/quantified early exits) correct the
  /// depth manually where paths merge, so `depth_` is exact at every merge
  /// point and `max_depth_` is (at worst conservatively) correct.
  void Push(int n = 1) {
    depth_ += n;
    max_depth_ = std::max(max_depth_, depth_);
  }
  void Pop(int n = 1) { depth_ -= n; }

  int AddConst(Sequence s) {
    if (s.size() == 1 && s[0].IsAtomic() &&
        s[0].AsAtomic().type() == XsType::kBoolean) {
      return s[0].AsAtomic().AsBool() ? kConstTrue : kConstFalse;
    }
    p_->const_pool.push_back(std::move(s));
    return static_cast<int>(p_->const_pool.size()) - 1;
  }

  void EmitPushConst(int idx) {
    Emit(Op::kPushConst, 0, idx);
    Push();
  }

  /// Shared with the rewriter: pure literal arithmetic/comparison subtrees
  /// become pool constants even in unoptimized plans.
  bool TryFold(const Expr& e) {
    std::optional<Sequence> folded = TryFoldLiteralNode(e);
    if (!folded.has_value()) return false;
    EmitPushConst(AddConst(std::move(*folded)));
    return true;
  }

  // ---- compilability ----

  /// Null when `e` itself lowers to bytecode; otherwise the reason the
  /// plan is declined, shown in EXPLAIN. Every local a compiled plan reads
  /// is bound by a compiled FLWOR or quantifier: the only other binders,
  /// typeswitch and user functions, decline the plan.
  static const char* Uncompilable(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kFunctionCall:
        return static_cast<const FunctionCallExpr&>(e).builtin >= 0
                   ? nullptr
                   : "user function call";
      case ExprKind::kTypeswitch: return "typeswitch";
      case ExprKind::kInstanceOf: return "instance of";
      case ExprKind::kTreatAs: return "treat as";
      case ExprKind::kCastAs: return "cast";
      case ExprKind::kCastableAs: return "castable";
      case ExprKind::kUnion: return "union";
      case ExprKind::kIntersectExcept: return "intersect/except";
      case ExprKind::kTryCatch: return "try/catch";
      default: return nullptr;
    }
  }

  // ---- lowering ----

  /// Lowers `e`; after the first uncompilable subtree it records that
  /// subtree as the plan's one thunk and emits nothing more.
  void Compile(const Expr& e) {
    if (!p_->thunks.empty()) return;
    if (const char* reason = Uncompilable(e)) {
      p_->thunks.push_back({&e, reason});
      return;
    }
    switch (e.kind()) {
      case ExprKind::kLiteral:
        EmitPushConst(AddConst(
            Sequence{Item(static_cast<const LiteralExpr&>(e).value)}));
        return;
      case ExprKind::kVarRef: {
        const auto& v = static_cast<const VarRefExpr&>(e);
        Emit(v.is_global ? Op::kLoadGlobal : Op::kLoadLocal, 0, v.slot);
        Push();
        return;
      }
      case ExprKind::kContextItem:
        Emit(Op::kPushContextItem);
        Push();
        return;
      case ExprKind::kRoot:
        Emit(Op::kPushRoot);
        Push();
        return;
      case ExprKind::kSequence: {
        int n = static_cast<int>(e.NumChildren());
        if (n == 0) {
          Emit(Op::kPushEmpty);
          Push();
          return;
        }
        for (int i = 0; i < n; ++i) Compile(*e.child(size_t(i)));
        if (n > 1) {
          Emit(Op::kConcat, 0, n);
          Pop(n - 1);
        }
        return;
      }
      case ExprKind::kArithmetic:
        if (TryFold(e)) return;
        CompileOperator(
            e, Op::kArith,
            static_cast<uint8_t>(static_cast<const ArithmeticExpr&>(e).op));
        return;
      case ExprKind::kComparison: {
        if (TryFold(e)) return;
        const CompOp op = static_cast<const ComparisonExpr&>(e).op;
        CompileOperator(e,
                        IsValueComp(op)     ? Op::kValueCmp
                        : IsGeneralComp(op) ? Op::kGeneralCmp
                                            : Op::kApply,
                        static_cast<uint8_t>(op));
        return;
      }
      case ExprKind::kUnary:
        if (TryFold(e)) return;
        CompileOperator(e, Op::kApply);
        return;
      case ExprKind::kLogical:
        CompileLogical(static_cast<const LogicalExpr&>(e));
        return;
      case ExprKind::kIf:
        CompileIf(e);
        return;
      case ExprKind::kPath:
        CompilePath(static_cast<const PathExpr&>(e));
        return;
      case ExprKind::kStep:
        // A bare context-relative step walks from the focus item.
        Emit(Op::kPushContextItem);
        Push();
        Emit(Op::kNavStep, 0,
             AddPathPlan(nullptr, static_cast<const StepExpr*>(&e)));
        return;
      case ExprKind::kFilter:
        Compile(*e.child(0));
        for (size_t i = 1; i < e.NumChildren(); ++i) {
          CompileFocusLoop(*e.child(i), Op::kFocusKeep,
                           PositionBound(*e.child(i)));
        }
        return;
      case ExprKind::kFlwor:
        CompileFlwor(static_cast<const FlworExpr&>(e));
        return;
      case ExprKind::kQuantified:
        CompileQuantified(static_cast<const QuantifiedExpr&>(e));
        return;
      case ExprKind::kFunctionCall: {
        const auto& fc = static_cast<const FunctionCallExpr&>(e);
        int argc = static_cast<int>(e.NumChildren());
        for (int i = 0; i < argc; ++i) Compile(*e.child(size_t(i)));
        Emit(Op::kCallBuiltin, 0, fc.builtin, argc);
        Pop(argc);
        Push();
        return;
      }
      case ExprKind::kRange:
      case ExprKind::kElementCtor:
      case ExprKind::kAttributeCtor:
      case ExprKind::kTextCtor:
      case ExprKind::kCommentCtor:
      case ExprKind::kPiCtor:
      case ExprKind::kDocumentCtor:
        CompileOperator(e, Op::kApply);
        return;
      default:
        return;  // Unreachable: Uncompilable() covered everything else.
    }
  }

  void CompileLogical(const LogicalExpr& e) {
    Compile(*e.child(0));
    int j_short = Emit(e.is_and ? Op::kJumpIfFalse : Op::kJumpIfTrue);
    Pop();
    Compile(*e.child(1));
    Emit(Op::kEbv);
    int j_end = Emit(Op::kJump);
    Pop();  // The rhs path merges with the short-circuit push below.
    PatchTarget(j_short, Here());
    EmitPushConst(e.is_and ? kConstFalse : kConstTrue);
    PatchTarget(j_end, Here());
  }

  void CompileIf(const Expr& e) {
    Compile(*e.child(0));
    int j_else = Emit(Op::kJumpIfFalse);
    Pop();
    Compile(*e.child(1));
    int j_end = Emit(Op::kJump);
    Pop();  // then/else branches merge.
    PatchTarget(j_else, Here());
    Compile(*e.child(2));
    PatchTarget(j_end, Here());
  }

  int AddPathPlan(const PathExpr* path, const StepExpr* step) {
    p_->paths.push_back({path, step});
    return static_cast<int>(p_->paths.size()) - 1;
  }

  /// Path lowering. Layout for an index-marked chain:
  ///   access-path          --answered--> JOIN
  ///   <lhs>                (only reached when the probe declines)
  ///   nav-step             (A/step), or the focus loop and path-end (A/E)
  ///   JOIN:
  /// The probe jumps over the lhs entirely when the index answers, so —
  /// exactly like the lazy IndexPathIt — doc() is never evaluated on the
  /// indexed fast path. Each PathExpr level probes at most once per
  /// evaluation: the navigation behind the probe is this level's own
  /// code, and inner levels carry their own probes, matching the lazy
  /// engine's per-level IndexPathIt nesting.
  void CompilePath(const PathExpr& e) {
    int probe_pc = -1;
    if (e.index_candidate) {
      probe_pc = Emit(Op::kAccessPath, 0, AddPathPlan(&e, nullptr));
      Push();  // The answered edge pushes the result and jumps to JOIN.
      Pop();   // The fall-through edge pushes nothing.
    }
    Compile(*e.child(0));
    const Expr& rhs = *e.child(1);
    if (rhs.kind() == ExprKind::kStep) {
      // Net stack effect 0: pops the origin, pushes the step output.
      Emit(Op::kNavStep, 0,
           AddPathPlan(&e, static_cast<const StepExpr*>(&rhs)));
    } else {
      CompileFocusLoop(rhs, Op::kAccumAdd);
      Emit(Op::kPathEnd, 0, AddPathPlan(&e, nullptr));
    }
    if (probe_pc >= 0) p_->code[size_t(probe_pc)].b = Here();
  }

  /// A numeric literal predicate `E[k]` can keep only position k, so its
  /// loop stops there (the lazy FilterIt's constant-position early exit);
  /// -1 for any other predicate.
  static int32_t PositionBound(const Expr& pred) {
    if (pred.kind() != ExprKind::kLiteral) return -1;
    const AtomicValue& v = static_cast<const LiteralExpr&>(pred).value;
    if (!v.IsNumeric()) return -1;
    const double k = v.NumericAsDouble();
    if (!(k >= 1)) return 0;  // NaN too: no position matches.
    return k < double(INT32_MAX) ? static_cast<int32_t>(k) : -1;
  }

  /// The focus loop over the sequence on top of the stack, shared by
  /// `E[p]` (tail focus-keep) and a general `A/E` (tail accum-add), with
  /// `bound` the last position to visit (-1: all):
  ///   iter-new I
  ///   accum-new
  ///   L: focus-next I -> END
  ///     <body> <tail>
  ///     jump L
  ///   END: accum-end
  void CompileFocusLoop(const Expr& body, Op tail, int32_t bound = -1) {
    const int iter = iter_depth_++;
    p_->num_iters = std::max(p_->num_iters, iter_depth_);
    Emit(Op::kIterNew, 0, iter);
    Pop();
    Emit(Op::kAccumNew);
    const int loop = Emit(Op::kFocusNext, 0, iter, 0, bound);
    Compile(body);
    Emit(tail);
    Pop();
    Emit(Op::kJump, 0, loop);
    p_->code[size_t(loop)].b = Here();
    Emit(Op::kAccumEnd);
    Push();
    --iter_depth_;
  }

  /// A materializing operator (exec/operators.h): its operands evaluate
  /// onto the stack in construct::ForEachOperand's order (an element's
  /// direct attributes push their value parts flat), then `op` pops them
  /// and pushes the result. kApply applies the shared ApplyOperator, which
  /// kArith, kValueCmp and kGeneralCmp fall back to off their fast paths,
  /// so results and error strings are the interpreters' own.
  void CompileOperator(const Expr& e, Op op, uint8_t flag = 0) {
    int n = 0;
    (void)construct::ForEachOperand(e, nullptr, [&](const Expr* operand) {
      Compile(*operand);
      ++n;
      return Status::OK();
    });
    p_->operators.push_back(&e);
    Emit(op, flag, static_cast<int32_t>(p_->operators.size()) - 1, n);
    Pop(n);
    Push();
  }

  /// Tuple-at-a-time FLWOR loop nest. Layout:
  ///   accum-new
  ///   <domain 0> iter-new 0
  ///   L0: iter-next 0 -> exit to END
  ///     [bind-pos] ... <domain 1> iter-new 1
  ///     L1: iter-next 1 -> exit to L0      (re-runs outer continue)
  ///       <let values / where gates -> jump L1>
  ///       <return> accum-add
  ///       jump L1
  ///   END: accum-end
  /// Jumping to an outer iter-next re-executes its bind-pos and the inner
  /// domain code, so inner domains are re-evaluated per outer tuple —
  /// exactly the interpreter's recursive tuple stream.
  ///
  /// A value-join planned for clause and its where clause lower to
  ///     value-join/open J    --declined--> NESTED, --empty--> L
  ///     <outer operand>
  ///     value-join/probe J   --answered--> L (iterator = the matches)
  ///   NESTED: <domain> iter-new
  ///   L: iter-next          (a match resumes at SKIP)
  ///     <comparison> jump-if-false L
  ///   SKIP: [<rest conjunct> jump-if-false L]
  ///
  /// With order-by clauses the accumulator becomes a sort buffer: sort-open
  /// replaces accum-new, each order-spec clause compiles its key expression
  /// at clause position followed by sort-key (positional assignment, so
  /// re-entering an outer loop refreshes exactly the keys whose clauses
  /// re-run), the return value lands via sort-add, and END stable-sorts the
  /// buffered tuples and pushes the concatenation (sort-tuples).
  void CompileFlwor(const FlworExpr& e) {
    int sort_plan = -1;
    for (const FlworExpr::Clause& c : e.clauses) {
      if (c.type != FlworExpr::Clause::Type::kOrderSpec) continue;
      if (sort_plan < 0) {
        p_->sorts.emplace_back();
        sort_plan = static_cast<int>(p_->sorts.size()) - 1;
      }
      p_->sorts[size_t(sort_plan)].specs.push_back(
          {c.descending, c.empty_least});
    }
    const bool has_order = sort_plan >= 0;
    if (has_order) {
      Emit(Op::kSortOpen, 0, sort_plan);
    } else {
      Emit(Op::kAccumNew);
    }
    int iters_entered = 0;
    int key_index = 0;
    std::vector<int> loop_pcs;    // kIterNext pcs, outermost first.
    std::vector<int> end_patches; // where-fails with no enclosing for.
    for (size_t ci = 0; ci < e.clauses.size(); ++ci) {
      const FlworExpr::Clause& c = e.clauses[ci];
      switch (c.type) {
        case FlworExpr::Clause::Type::kFor: {
          int join = -1;
          if (c.join != ValueJoinKind::kNone) {
            join = static_cast<int>(p_->joins.size());
            p_->joins.push_back({value_join::SpecOf(e, ci)});
            p_->joins.back().iter = iter_depth_;
            Emit(Op::kValueJoin, 0, join);
            Compile(*p_->joins.back().spec.outer);
            Emit(Op::kValueJoin, 1, join);
            Pop();
            p_->joins[size_t(join)].nested_pc = Here();
          }
          Compile(*e.child(ci));
          int iter = iter_depth_++;
          ++iters_entered;
          p_->num_iters = std::max(p_->num_iters, iter_depth_);
          Emit(Op::kIterNew, 0, iter);
          Pop();
          loop_pcs.push_back(Emit(Op::kIterNext, 0, iter, 0, c.var_slot));
          if (c.pos_slot >= 0) Emit(Op::kBindPos, 0, iter, c.pos_slot);
          if (join >= 0) {
            // The where clause: the join comparison, then its rest.
            Program::JoinPlan& jp = p_->joins[size_t(join)];
            jp.loop_pc = loop_pcs.back();
            const Expr* rest = jp.spec.rest;
            const Expr* where = e.child(++ci);
            Compile(rest != nullptr ? *where->child(0) : *where);
            PatchTarget(Emit(Op::kJumpIfFalse), loop_pcs.back());
            Pop();
            p_->joins[size_t(join)].skip_pc = Here();
            if (rest != nullptr) {
              Compile(*rest);
              PatchTarget(Emit(Op::kJumpIfFalse), loop_pcs.back());
              Pop();
            }
          }
          break;
        }
        case FlworExpr::Clause::Type::kLet:
          Compile(*e.child(ci));
          Emit(Op::kStoreLocal, 0, c.var_slot);
          Pop();
          break;
        case FlworExpr::Clause::Type::kWhere: {
          Compile(*e.child(ci));
          int j = Emit(Op::kJumpIfFalse);
          Pop();
          if (loop_pcs.empty()) {
            end_patches.push_back(j);  // No tuple loop: skip to the end.
          } else {
            PatchTarget(j, loop_pcs.back());
          }
          break;
        }
        case FlworExpr::Clause::Type::kOrderSpec:
          Compile(*e.child(ci));
          Emit(Op::kSortKey, 0, key_index++);
          Pop();
          break;
      }
    }
    Compile(*e.return_expr());
    Emit(has_order ? Op::kSortAdd : Op::kAccumAdd);
    Pop();
    if (!loop_pcs.empty()) {
      Emit(Op::kJump, 0, loop_pcs.back());
      // Exit chain: loop i resumes loop i-1; the outermost exits the nest.
      for (size_t i = loop_pcs.size() - 1; i >= 1; --i) {
        p_->code[size_t(loop_pcs[i])].b = loop_pcs[i - 1];
      }
      p_->code[size_t(loop_pcs[0])].b = Here();
    }
    int end_pc = Here();
    if (has_order) {
      Emit(Op::kSortTuples, 0, sort_plan);
    } else {
      Emit(Op::kAccumEnd);
    }
    Push();
    for (int j : end_patches) PatchTarget(j, end_pc);
    iter_depth_ -= iters_entered;
  }

  /// some/every nest with short-circuit exits. A satisfying (some) /
  /// refuting (every) tuple jumps straight to the result push; exhausting
  /// the outermost binding lands on the default (false for some, true for
  /// every) — the interpreter's `if (b != is_every) return b` loop.
  void CompileQuantified(const QuantifiedExpr& e) {
    const Expr& satisfies = *e.child(e.NumChildren() - 1);
    if (e.bindings.empty()) {  // Degenerate; the parser never emits it.
      Compile(satisfies);
      Emit(Op::kEbv);
      return;
    }
    std::vector<int> loop_pcs;
    for (size_t bi = 0; bi < e.bindings.size(); ++bi) {
      Compile(*e.child(bi));
      int iter = iter_depth_++;
      p_->num_iters = std::max(p_->num_iters, iter_depth_);
      Emit(Op::kIterNew, 0, iter);
      Pop();
      loop_pcs.push_back(
          Emit(Op::kIterNext, 0, iter, 0, e.bindings[bi].var_slot));
    }
    Compile(satisfies);
    Emit(e.is_every ? Op::kJumpIfTrue : Op::kJumpIfFalse, 0,
         loop_pcs.back());
    Pop();
    EmitPushConst(e.is_every ? kConstFalse : kConstTrue);
    int j_end = Emit(Op::kJump);
    Pop();  // Early-exit path merges with the default push below.
    for (size_t i = loop_pcs.size() - 1; i >= 1; --i) {
      p_->code[size_t(loop_pcs[i])].b = loop_pcs[i - 1];
    }
    p_->code[size_t(loop_pcs[0])].b = Here();
    EmitPushConst(e.is_every ? kConstTrue : kConstFalse);
    PatchTarget(j_end, Here());
    iter_depth_ -= static_cast<int>(e.bindings.size());
  }

  // ---- value-join mirrors ----

  /// Compiled bindings live in VM registers only. The value-join executor
  /// evaluates its domain and key on the interpreter against ctx->slots,
  /// so the slots they read are also mirrored there at binding time (flag
  /// bit 0 on kStoreLocal / kIterNext / kBindPos).
  void PatchMirrors() {
    std::unordered_set<int> mirror;
    for (const Program::JoinPlan& jp : p_->joins) {
      // The executor binds $t itself while it evaluates the key.
      std::vector<int> used;
      CollectUsedSlots(jp.spec.domain, &used);
      CollectUsedSlots(jp.spec.key, &used);
      for (int slot : used) {
        if (slot != jp.spec.var_slot) mirror.insert(slot);
      }
    }
    if (mirror.empty()) return;
    for (Insn& insn : p_->code) {
      switch (insn.op) {
        case Op::kStoreLocal:
          if (mirror.count(insn.a) != 0) insn.flag |= 1;
          break;
        case Op::kIterNext:
          if (insn.c >= 0 && mirror.count(insn.c) != 0) insn.flag |= 1;
          break;
        case Op::kBindPos:
          if (mirror.count(insn.b) != 0) insn.flag |= 1;
          break;
        default:
          break;
      }
    }
  }

  const ParsedModule& module_;
  std::shared_ptr<Program> p_;
  int iter_depth_ = 0;      // Live loop nesting; iter registers index by it.
  int depth_ = 0;           // Current operand-stack depth.
  int max_depth_ = 0;
};

}  // namespace

Result<std::shared_ptr<const Program>> CompileProgram(
    const ParsedModule& module) {
  if (fault::Armed()) XQP_RETURN_NOT_OK(fault::MaybeInject("vm.compile"));
  Compiler compiler(module);
  std::shared_ptr<const Program> program = compiler.Run();
  if (metrics::Enabled()) {
    static metrics::Counter* compiles =
        metrics::MetricsRegistry::Global().counter("vm.compiles");
    compiles->Increment();
  }
  return program;
}

}  // namespace vm
}  // namespace xqp
