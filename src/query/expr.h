#ifndef XQP_QUERY_EXPR_H_
#define XQP_QUERY_EXPR_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "query/sequence_type.h"
#include "xml/atomic_value.h"
#include "xml/document.h"
#include "xml/qname.h"

namespace xqp {

/// Expression kinds. The paper: "(almost) 1-1 mapping between expressions in
/// XQuery and internal ones"; this is its 26-kind expression hierarchy.
enum class ExprKind : uint8_t {
  kLiteral,
  kVarRef,
  kContextItem,
  kSequence,        // Comma operator.
  kRange,           // "1 to 10".
  kArithmetic,
  kUnary,
  kComparison,      // Value / general / node / order comparisons.
  kLogical,         // and / or.
  kRoot,            // Leading "/": root of the context node's tree.
  kPath,            // E1/E2 with optional ddo (doc order + dedup).
  kStep,            // axis::node-test.
  kFilter,          // E[pred]...
  kFlwor,
  kQuantified,      // some / every.
  kIf,
  kTypeswitch,
  kInstanceOf,
  kTreatAs,
  kCastAs,
  kCastableAs,
  kUnion,
  kIntersectExcept,
  kFunctionCall,
  kElementCtor,
  kAttributeCtor,
  kTextCtor,
  kCommentCtor,
  kPiCtor,
  kDocumentCtor,
  kTryCatch,  // Extension: the paper's "missing functionality" try-catch.
};

std::string_view ExprKindName(ExprKind kind);

/// XPath axes. The first six are the ones XQuery requires; the rest belong
/// to the optional "full axis feature", which we also support.
enum class Axis : uint8_t {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kSelf,
  kAttribute,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kFollowingSibling,
  kPrecedingSibling,
  kFollowing,
  kPreceding,
};

std::string_view AxisName(Axis axis);

/// True for axes that walk towards the document start (results arrive in
/// reverse document order).
bool IsReverseAxis(Axis axis);

class Expr;

/// Receives the text of one node's ToString(): fixed pieces through Text
/// and each child subtree through Child, in output order. ToString appends
/// both to one string; the CSE rule (opt/rules_core.cc) hashes them,
/// reusing the hash it already computed for each child, so the dump and
/// the hash share one format definition.
class ExprPrinter {
 public:
  virtual ~ExprPrinter() = default;
  virtual void Text(std::string_view text) = 0;
  virtual void Child(const Expr& child) = 0;
};

/// A node test: by kind, by name (with wildcards), or both.
struct NodeTest {
  enum class Kind : uint8_t {
    kAnyKind,   // node()
    kName,      // name / prefix:* / *:local / *
    kText,      // text()
    kComment,   // comment()
    kPi,        // processing-instruction() / processing-instruction("t")
    kDocument,  // document-node()
    kElement,   // element() / element(name)
    kAttribute, // attribute() / attribute(name)
  };

  Kind kind = Kind::kAnyKind;
  bool wildcard_uri = false;
  bool wildcard_local = false;
  std::string uri;
  std::string local;
  std::string pi_target;  // Non-empty for processing-instruction("t").

  static NodeTest AnyName() {
    NodeTest t;
    t.kind = Kind::kName;
    t.wildcard_uri = true;
    t.wildcard_local = true;
    return t;
  }
  static NodeTest Name(std::string uri, std::string local) {
    NodeTest t;
    t.kind = Kind::kName;
    t.uri = std::move(uri);
    t.local = std::move(local);
    return t;
  }

  /// Does node `i` of `doc` satisfy this test? `principal_attribute` is true
  /// when the step's axis is the attribute axis (name tests then select
  /// attributes instead of elements).
  bool Matches(const Document& doc, NodeIndex i,
               bool principal_attribute) const;

  std::string ToString() const;
  /// Emits ToString()'s text as one or more pieces.
  void Print(ExprPrinter& out) const;
};

/// Per-expression dataflow properties, computed by opt/properties.cc. These
/// are the analyses the paper lists under "Xquery expression analysis":
/// doc-order and distinctness guarantees, node creation, error potential,
/// context sensitivity.
struct ExprProps {
  bool analyzed = false;
  /// Result is guaranteed to be in document order (when all items are nodes).
  bool ordered = false;
  /// Result is guaranteed free of duplicate nodes.
  bool distinct = false;
  /// Result may contain newly constructed nodes.
  bool creates_nodes = false;
  /// Evaluation may raise a dynamic/type error.
  bool may_raise_error = true;
  /// Expression reads the context item.
  bool uses_context = false;
  /// Expression calls position() / last() (directly, outside predicates).
  bool uses_position = false;
  bool uses_last = false;
  /// Result items are guaranteed to all be nodes.
  bool nodes_only = false;
  /// Result items are guaranteed to all be atomic values.
  bool atomics_only = false;
  /// Result is a singleton (exactly one item).
  bool singleton = false;
  /// No result node is an ancestor of another result node (key premise for
  /// eliding ddo after descendant steps).
  bool no_two_nested = false;
  /// Expression is a compile-time constant (safe to fold).
  bool constant = false;
};

/// The owned children of an Expr. Most nodes are leaves or binary, so up to
/// two children live inline and a node allocates nothing for them; a third
/// child moves all of them to the heap.
class ExprChildren {
 public:
  using Ptr = std::unique_ptr<Expr>;

  size_t size() const { return spilled_ ? heap_.size() : size_; }
  Ptr* begin() { return spilled_ ? heap_.data() : inline_; }
  Ptr* end() { return begin() + size(); }
  const Ptr* begin() const { return spilled_ ? heap_.data() : inline_; }
  const Ptr* end() const { return begin() + size(); }
  Ptr& operator[](size_t i) { return begin()[i]; }
  const Ptr& operator[](size_t i) const { return begin()[i]; }

  void push_back(Ptr e) { insert(size(), std::move(e)); }
  void insert(size_t i, Ptr e) {
    if (!spilled_ && size_ < kInline) {
      for (size_t j = size_; j > i; --j) inline_[j] = std::move(inline_[j - 1]);
      inline_[i] = std::move(e);
      ++size_;
      return;
    }
    if (!spilled_) Spill();
    heap_.insert(heap_.begin() + i, std::move(e));
  }
  void erase(size_t i) {
    if (spilled_) {
      heap_.erase(heap_.begin() + i);
      return;
    }
    for (size_t j = i; j + 1 < size_; ++j) inline_[j] = std::move(inline_[j + 1]);
    inline_[--size_].reset();
  }
  void clear() {
    for (Ptr& p : inline_) p.reset();
    heap_.clear();
    size_ = 0;
    spilled_ = false;
  }

 private:
  static constexpr uint8_t kInline = 2;

  void Spill() {
    heap_.reserve(2 * kInline);
    for (size_t j = 0; j < size_; ++j) heap_.push_back(std::move(inline_[j]));
    size_ = 0;
    spilled_ = true;
  }

  Ptr inline_[kInline];
  uint8_t size_ = 0;  // Inline children (while not spilled).
  bool spilled_ = false;
  std::vector<Ptr> heap_;
};

/// Base class of the internal expression tree. Children are owned uniformly
/// by the base so rewrite rules and analyses can traverse generically;
/// subclasses define what each child position means.
class Expr {
 public:
  /// Iterative teardown (see expr.cc): destroying a pathologically deep
  /// tree must not recurse once per nesting level.
  virtual ~Expr();

  ExprKind kind() const { return kind_; }

  size_t NumChildren() const { return children_.size(); }
  Expr* child(size_t i) const { return children_[i].get(); }
  std::unique_ptr<Expr>& child_slot(size_t i) { return children_[i]; }
  void AddChild(std::unique_ptr<Expr> e) { children_.push_back(std::move(e)); }
  std::unique_ptr<Expr> TakeChild(size_t i) { return std::move(children_[i]); }
  void SetChild(size_t i, std::unique_ptr<Expr> e) {
    children_[i] = std::move(e);
  }
  void InsertChild(size_t i, std::unique_ptr<Expr> e) {
    children_.insert(i, std::move(e));
  }
  void RemoveChild(size_t i) { children_.erase(i); }

  /// Deep copy (for function inlining and rule experimentation).
  virtual std::unique_ptr<Expr> Clone() const = 0;

  /// Compact s-expression dump for tests and plan explanation.
  std::string ToString() const;

  /// Emits the ToString() text of this node (see ExprPrinter). The default
  /// prints "(kind child...)".
  virtual void Print(ExprPrinter& out) const;

  /// Analysis annotations (see opt/properties.cc).
  ExprProps props;

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}
  /// Clones children into `dst` (helper for subclass Clone()).
  void CloneChildrenInto(Expr* dst) const;
  /// Prints " child" for every child.
  void PrintChildren(ExprPrinter& out) const;

  ExprKind kind_;
  ExprChildren children_;
};

using ExprPtr = std::unique_ptr<Expr>;

// ---------------------------------------------------------------------------
// Leaf expressions
// ---------------------------------------------------------------------------

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(AtomicValue value)
      : Expr(ExprKind::kLiteral), value(std::move(value)) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  AtomicValue value;
};

/// Variable reference. `slot` indexes the dynamic-context frame; globals are
/// resolved against the module frame.
class VarRefExpr : public Expr {
 public:
  explicit VarRefExpr(QName name)
      : Expr(ExprKind::kVarRef), name(std::move(name)) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  QName name;
  int slot = -1;
  bool is_global = false;
};

class ContextItemExpr : public Expr {
 public:
  ContextItemExpr() : Expr(ExprKind::kContextItem) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override { out.Text("."); }
};

class RootExpr : public Expr {
 public:
  RootExpr() : Expr(ExprKind::kRoot) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override { out.Text("(root)"); }
};

/// Step expression: axis::node-test applied to the context item.
class StepExpr : public Expr {
 public:
  StepExpr(Axis axis, NodeTest test)
      : Expr(ExprKind::kStep), axis(axis), test(std::move(test)) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  Axis axis;
  NodeTest test;
};

// ---------------------------------------------------------------------------
// Composite expressions
// ---------------------------------------------------------------------------

class SequenceExpr : public Expr {
 public:
  SequenceExpr() : Expr(ExprKind::kSequence) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;
};

class RangeExpr : public Expr {
 public:
  RangeExpr(ExprPtr lo, ExprPtr hi) : Expr(ExprKind::kRange) {
    AddChild(std::move(lo));
    AddChild(std::move(hi));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;
};

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kIDiv, kMod };
std::string_view ArithOpName(ArithOp op);

class ArithmeticExpr : public Expr {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kArithmetic), op(op) {
    AddChild(std::move(lhs));
    AddChild(std::move(rhs));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  ArithOp op;
};

class UnaryExpr : public Expr {
 public:
  UnaryExpr(bool negate, ExprPtr operand)
      : Expr(ExprKind::kUnary), negate(negate) {
    AddChild(std::move(operand));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  bool negate;
};

/// All four comparison families from the paper's comparison table.
enum class CompOp : uint8_t {
  // Value comparisons.
  kValueEq, kValueNe, kValueLt, kValueLe, kValueGt, kValueGe,
  // General (existential) comparisons.
  kGenEq, kGenNe, kGenLt, kGenLe, kGenGt, kGenGe,
  // Node identity.
  kIs, kIsNot,
  // Document order.
  kBefore, kAfter,
};
std::string_view CompOpName(CompOp op);
bool IsGeneralComp(CompOp op);
bool IsValueComp(CompOp op);

/// Access-path strategy for a doc()-anchored path/twig shape. kAuto means
/// "undecided" (the cost-based planner chooses at execution time); the
/// others pin one strategy — pure navigation, a cascade of binary
/// structural semi-joins, a holistic twig join over per-tag postings, or a
/// direct synopsis / value-index answer. A pinned strategy that turns out
/// inapplicable for a given shape degrades to navigation, so results stay
/// bit-identical (see opt/access_path.h).
enum class AccessPath : uint8_t { kAuto, kNav, kSJoin, kTwig, kIndex };

/// "auto" / "nav" / "sjoin" / "twig" / "index".
const char* AccessPathName(AccessPath p);

/// Inverse of AccessPathName; nullopt for unrecognized spellings.
std::optional<AccessPath> ParseAccessPath(std::string_view name);

class ComparisonExpr : public Expr {
 public:
  ComparisonExpr(CompOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kComparison), op(op) {
    AddChild(std::move(lhs));
    AddChild(std::move(rhs));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  CompOp op;
};

class LogicalExpr : public Expr {
 public:
  LogicalExpr(bool is_and, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kLogical), is_and(is_and) {
    AddChild(std::move(lhs));
    AddChild(std::move(rhs));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  bool is_and;
};

/// E1/E2: evaluate E2 for each item of E1 (bound as context item), then
/// sort the concatenation in document order (`needs_sort`) and remove
/// duplicate nodes (`needs_dedup`). The ddo elision rewrite (paper:
/// "semantic conditions" — $doc/a/b/c needs neither; $doc//a/b needs
/// sorting but has no duplicates) clears the flags when the guarantees
/// hold; experiment E12 measures the payoff.
class PathExpr : public Expr {
 public:
  PathExpr(ExprPtr lhs, ExprPtr rhs) : Expr(ExprKind::kPath) {
    AddChild(std::move(lhs));
    AddChild(std::move(rhs));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  bool needs_sort = true;
  bool needs_dedup = true;
  /// Set by the index-marking rule (opt/rules_path.cc) when this path is in
  /// the index-answerable fragment (doc('uri')-anchored named-step chain,
  /// at most one value predicate — see index/index_planner.h). Execution
  /// then offers the path to the document's synopsis / value index first
  /// and falls back to normal evaluation when the index declines.
  bool index_candidate = false;
  /// EXPLAIN annotation filled in by the cost-based access-path selector
  /// (opt/access_path.h) when the document's indexes are warm at explain
  /// time: the strategy the selector would choose and its cardinality
  /// estimate. Purely informational — execution re-derives the decision
  /// from live indexes, so these can never go stale. Relaxed atomics:
  /// ExplainTree() refreshes them on a plan other threads may be
  /// rendering or running, and every writer stores the same decision.
  std::atomic<AccessPath> access_path{AccessPath::kAuto};
  std::atomic<uint64_t> access_est{0};
  /// The forced strategy (EngineOptions::force_access_path) the planner
  /// declined for this candidate, which then runs on navigation; kAuto when
  /// none was. EXPLAIN-only, like the two above.
  std::atomic<AccessPath> access_declined{AccessPath::kAuto};
};

/// E[p1][p2]...: child 0 is the base, children 1..N the predicates.
class FilterExpr : public Expr {
 public:
  explicit FilterExpr(ExprPtr base) : Expr(ExprKind::kFilter) {
    AddChild(std::move(base));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;
};

/// Value-join strategy of a `for` clause planned by the value-join rule
/// (opt/rules_flwor.cc): a string-keyed hash for `=`, a sorted xs:double
/// array for `<`, `<=`, `>`, `>=` (exec/value_join.h).
enum class ValueJoinKind : uint8_t { kNone, kHash, kRange };

/// FLWOR. Clause i's expression is child i; the return expression is the
/// last child. Order-by keys appear as kOrderSpec clauses.
class FlworExpr : public Expr {
 public:
  struct Clause {
    enum class Type : uint8_t { kFor, kLet, kWhere, kOrderSpec };
    Type type;
    QName var;           // kFor / kLet.
    QName pos_var;       // kFor "at $p"; empty local when absent.
    int var_slot = -1;
    int pos_slot = -1;
    // kOrderSpec modifiers.
    bool descending = false;
    bool empty_least = true;
    // kFor: set by the value-join rule when the following where clause
    // can be answered from a per-execution index over this domain;
    // `join_id` keys that index in the DynamicContext.
    ValueJoinKind join = ValueJoinKind::kNone;
    int join_id = -1;

    bool has_pos_var() const { return !pos_var.local.empty(); }
  };

  FlworExpr() : Expr(ExprKind::kFlwor) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  Expr* return_expr() const { return child(NumChildren() - 1); }
  size_t NumClauses() const { return clauses.size(); }

  std::vector<Clause> clauses;
};

/// some/every $v1 in E1, ... satisfies E. Binding i's domain is child i;
/// the satisfies expression is the last child.
class QuantifiedExpr : public Expr {
 public:
  struct Binding {
    QName var;
    int var_slot = -1;
  };

  explicit QuantifiedExpr(bool is_every)
      : Expr(ExprKind::kQuantified), is_every(is_every) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  bool is_every;
  std::vector<Binding> bindings;
};

class IfExpr : public Expr {
 public:
  IfExpr(ExprPtr cond, ExprPtr then_e, ExprPtr else_e) : Expr(ExprKind::kIf) {
    AddChild(std::move(cond));
    AddChild(std::move(then_e));
    AddChild(std::move(else_e));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;
};

/// typeswitch(E) case [$v as] T return E ... default [$v] return E.
/// Child 0 is the operand; child 1..N the case returns; the last child the
/// default return.
class TypeswitchExpr : public Expr {
 public:
  struct Case {
    SequenceType type;
    QName var;  // Empty local when no variable is bound.
    int var_slot = -1;

    bool has_var() const { return !var.local.empty(); }
  };

  TypeswitchExpr() : Expr(ExprKind::kTypeswitch) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  std::vector<Case> cases;
  QName default_var;
  int default_var_slot = -1;
  bool default_has_var() const { return !default_var.local.empty(); }
};

class InstanceOfExpr : public Expr {
 public:
  InstanceOfExpr(ExprPtr operand, SequenceType type)
      : Expr(ExprKind::kInstanceOf), type(std::move(type)) {
    AddChild(std::move(operand));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  SequenceType type;
};

class TreatExpr : public Expr {
 public:
  TreatExpr(ExprPtr operand, SequenceType type)
      : Expr(ExprKind::kTreatAs), type(std::move(type)) {
    AddChild(std::move(operand));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  SequenceType type;
};

class CastExpr : public Expr {
 public:
  CastExpr(ExprPtr operand, XsType target, bool optional)
      : Expr(ExprKind::kCastAs), target(target), optional(optional) {
    AddChild(std::move(operand));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  XsType target;
  bool optional;  // "cast as T?" accepts the empty sequence.
};

class CastableExpr : public Expr {
 public:
  CastableExpr(ExprPtr operand, XsType target, bool optional)
      : Expr(ExprKind::kCastableAs), target(target), optional(optional) {
    AddChild(std::move(operand));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  XsType target;
  bool optional;
};

class UnionExpr : public Expr {
 public:
  UnionExpr(ExprPtr lhs, ExprPtr rhs) : Expr(ExprKind::kUnion) {
    AddChild(std::move(lhs));
    AddChild(std::move(rhs));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;
};

class IntersectExceptExpr : public Expr {
 public:
  IntersectExceptExpr(bool is_except, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kIntersectExcept), is_except(is_except) {
    AddChild(std::move(lhs));
    AddChild(std::move(rhs));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  bool is_except;
};

/// Function call; children are the arguments. Name resolution happens at
/// normalization: builtin calls get `builtin >= 0` (an index into the
/// builtin registry), user calls get `user_index >= 0` (an index into the
/// compiled module's function table).
class FunctionCallExpr : public Expr {
 public:
  explicit FunctionCallExpr(QName name)
      : Expr(ExprKind::kFunctionCall), name(std::move(name)) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  QName name;
  int builtin = -1;
  int user_index = -1;
};

// ---------------------------------------------------------------------------
// Node constructors
// ---------------------------------------------------------------------------

/// Element constructor. With a computed name, child 0 is the name
/// expression; remaining children are content. Direct constructors desugar
/// to this form, with attribute constructors leading the content list.
class ElementCtorExpr : public Expr {
 public:
  struct NsDecl {
    std::string prefix;
    std::string uri;
  };

  ElementCtorExpr() : Expr(ExprKind::kElementCtor) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  bool computed_name = false;
  QName name;                   // When !computed_name.
  std::vector<NsDecl> ns_decls;  // Literal xmlns attributes.
  size_t ContentStart() const { return computed_name ? 1 : 0; }
};

class AttributeCtorExpr : public Expr {
 public:
  AttributeCtorExpr() : Expr(ExprKind::kAttributeCtor) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  bool computed_name = false;
  QName name;
  size_t ContentStart() const { return computed_name ? 1 : 0; }
};

class TextCtorExpr : public Expr {
 public:
  explicit TextCtorExpr(ExprPtr content) : Expr(ExprKind::kTextCtor) {
    AddChild(std::move(content));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;
};

class CommentCtorExpr : public Expr {
 public:
  explicit CommentCtorExpr(ExprPtr content) : Expr(ExprKind::kCommentCtor) {
    AddChild(std::move(content));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;
};

class PiCtorExpr : public Expr {
 public:
  PiCtorExpr() : Expr(ExprKind::kPiCtor) {}
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;

  std::string target;  // Literal target (computed targets unsupported).
};

/// try { E1 } catch { E2 }: evaluates E1; if a dynamic or type error is
/// raised, evaluates E2 instead. An engine extension — the paper lists a
/// try-catch mechanism under XQuery's "missing functionalities" (XQuery 3.0
/// later standardized it). Static errors are not catchable.
class TryCatchExpr : public Expr {
 public:
  TryCatchExpr(ExprPtr try_expr, ExprPtr catch_expr)
      : Expr(ExprKind::kTryCatch) {
    AddChild(std::move(try_expr));
    AddChild(std::move(catch_expr));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;
};

class DocumentCtorExpr : public Expr {
 public:
  explicit DocumentCtorExpr(ExprPtr content) : Expr(ExprKind::kDocumentCtor) {
    AddChild(std::move(content));
  }
  std::unique_ptr<Expr> Clone() const override;
  void Print(ExprPrinter& out) const override;
};

}  // namespace xqp

#endif  // XQP_QUERY_EXPR_H_
