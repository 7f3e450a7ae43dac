#include "query/expr.h"

namespace xqp {

Expr::~Expr() {
  // Flatten the subtree into a worklist before any child destructor runs:
  // each unique_ptr reset then frees a node whose children vector is
  // already empty, so destruction is O(depth 1) in C++ stack no matter
  // how deep the expression tree is (100k nested parens included).
  std::vector<std::unique_ptr<Expr>> worklist;
  for (auto& c : children_) {
    if (c != nullptr) worklist.push_back(std::move(c));
  }
  children_.clear();
  while (!worklist.empty()) {
    std::unique_ptr<Expr> e = std::move(worklist.back());
    worklist.pop_back();
    for (auto& c : e->children_) {
      if (c != nullptr) worklist.push_back(std::move(c));
    }
    e->children_.clear();
  }
}

std::string_view ExprKindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kLiteral: return "literal";
    case ExprKind::kVarRef: return "var";
    case ExprKind::kContextItem: return "context-item";
    case ExprKind::kSequence: return "sequence";
    case ExprKind::kRange: return "range";
    case ExprKind::kArithmetic: return "arith";
    case ExprKind::kUnary: return "unary";
    case ExprKind::kComparison: return "compare";
    case ExprKind::kLogical: return "logic";
    case ExprKind::kRoot: return "root";
    case ExprKind::kPath: return "path";
    case ExprKind::kStep: return "step";
    case ExprKind::kFilter: return "filter";
    case ExprKind::kFlwor: return "flwor";
    case ExprKind::kQuantified: return "quantified";
    case ExprKind::kIf: return "if";
    case ExprKind::kTypeswitch: return "typeswitch";
    case ExprKind::kInstanceOf: return "instance-of";
    case ExprKind::kTreatAs: return "treat-as";
    case ExprKind::kCastAs: return "cast-as";
    case ExprKind::kCastableAs: return "castable-as";
    case ExprKind::kUnion: return "union";
    case ExprKind::kIntersectExcept: return "intersect-except";
    case ExprKind::kFunctionCall: return "call";
    case ExprKind::kElementCtor: return "element-ctor";
    case ExprKind::kAttributeCtor: return "attribute-ctor";
    case ExprKind::kTextCtor: return "text-ctor";
    case ExprKind::kCommentCtor: return "comment-ctor";
    case ExprKind::kPiCtor: return "pi-ctor";
    case ExprKind::kDocumentCtor: return "document-ctor";
    case ExprKind::kTryCatch: return "try-catch";
  }
  return "?";
}

std::string_view AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild: return "child";
    case Axis::kDescendant: return "descendant";
    case Axis::kDescendantOrSelf: return "descendant-or-self";
    case Axis::kSelf: return "self";
    case Axis::kAttribute: return "attribute";
    case Axis::kParent: return "parent";
    case Axis::kAncestor: return "ancestor";
    case Axis::kAncestorOrSelf: return "ancestor-or-self";
    case Axis::kFollowingSibling: return "following-sibling";
    case Axis::kPrecedingSibling: return "preceding-sibling";
    case Axis::kFollowing: return "following";
    case Axis::kPreceding: return "preceding";
  }
  return "?";
}

bool IsReverseAxis(Axis axis) {
  switch (axis) {
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPrecedingSibling:
    case Axis::kPreceding:
      return true;
    default:
      return false;
  }
}

bool NodeTest::Matches(const Document& doc, NodeIndex i,
                       bool principal_attribute) const {
  const NodeRecord& n = doc.node(i);
  switch (kind) {
    case Kind::kAnyKind:
      return true;
    case Kind::kText:
      return n.kind == NodeKind::kText;
    case Kind::kComment:
      return n.kind == NodeKind::kComment;
    case Kind::kDocument:
      return n.kind == NodeKind::kDocument;
    case Kind::kPi:
      if (n.kind != NodeKind::kProcessingInstruction) return false;
      return pi_target.empty() || doc.name(i).local == pi_target;
    case Kind::kElement:
      if (n.kind != NodeKind::kElement) return false;
      break;
    case Kind::kAttribute:
      if (n.kind != NodeKind::kAttribute) return false;
      break;
    case Kind::kName: {
      // The principal node kind depends on the axis.
      NodeKind want = principal_attribute ? NodeKind::kAttribute
                                          : NodeKind::kElement;
      if (n.kind != want) return false;
      break;
    }
  }
  // Name check (for kName / kElement / kAttribute with a name).
  if (kind == Kind::kElement || kind == Kind::kAttribute) {
    if (wildcard_local && wildcard_uri) return true;
  }
  if (!wildcard_local || !wildcard_uri) {
    const QName& qn = doc.name(i);
    if (!wildcard_local && qn.local != local) return false;
    if (!wildcard_uri && qn.uri != uri) return false;
  }
  return true;
}

namespace {

/// The ToString() sink: appends every piece to one string.
class StringPrinter : public ExprPrinter {
 public:
  explicit StringPrinter(std::string* out) : out_(out) {}
  void Text(std::string_view text) override { out_->append(text); }
  void Child(const Expr& child) override { child.Print(*this); }

 private:
  std::string* out_;
};

/// QName::Lexical() without building the string.
void PrintLexical(const QName& name, ExprPrinter& out) {
  if (!name.prefix.empty()) {
    out.Text(name.prefix);
    out.Text(":");
  }
  out.Text(name.local);
}

}  // namespace

std::string NodeTest::ToString() const {
  std::string s;
  StringPrinter printer(&s);
  Print(printer);
  return s;
}

void NodeTest::Print(ExprPrinter& out) const {
  switch (kind) {
    case Kind::kAnyKind:
      out.Text("node()");
      return;
    case Kind::kText:
      out.Text("text()");
      return;
    case Kind::kComment:
      out.Text("comment()");
      return;
    case Kind::kPi:
      out.Text("processing-instruction(");
      out.Text(pi_target);
      out.Text(")");
      return;
    case Kind::kDocument:
      out.Text("document-node()");
      return;
    case Kind::kElement:
    case Kind::kAttribute:
      out.Text(kind == Kind::kElement ? "element(" : "attribute(");
      if (!wildcard_local) out.Text(local);
      out.Text(")");
      return;
    case Kind::kName:
      if (wildcard_uri) {
        out.Text(wildcard_local ? "*" : "*:");
        if (!wildcard_local) out.Text(local);
        return;
      }
      if (!uri.empty()) {
        out.Text("{");
        out.Text(uri);
        out.Text("}");
      }
      out.Text(wildcard_local ? std::string_view("*") : local);
      return;
  }
  out.Text("?");
}

void Expr::CloneChildrenInto(Expr* dst) const {
  for (const auto& c : children_) dst->AddChild(c->Clone());
}

void Expr::PrintChildren(ExprPrinter& out) const {
  for (const auto& c : children_) {
    out.Text(" ");
    out.Child(*c);
  }
}

std::string Expr::ToString() const {
  std::string s;
  StringPrinter printer(&s);
  Print(printer);
  return s;
}

void Expr::Print(ExprPrinter& out) const {
  out.Text("(");
  out.Text(ExprKindName(kind_));
  PrintChildren(out);
  out.Text(")");
}

std::string_view ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "div";
    case ArithOp::kIDiv: return "idiv";
    case ArithOp::kMod: return "mod";
  }
  return "?";
}

std::string_view CompOpName(CompOp op) {
  switch (op) {
    case CompOp::kValueEq: return "eq";
    case CompOp::kValueNe: return "ne";
    case CompOp::kValueLt: return "lt";
    case CompOp::kValueLe: return "le";
    case CompOp::kValueGt: return "gt";
    case CompOp::kValueGe: return "ge";
    case CompOp::kGenEq: return "=";
    case CompOp::kGenNe: return "!=";
    case CompOp::kGenLt: return "<";
    case CompOp::kGenLe: return "<=";
    case CompOp::kGenGt: return ">";
    case CompOp::kGenGe: return ">=";
    case CompOp::kIs: return "is";
    case CompOp::kIsNot: return "isnot";
    case CompOp::kBefore: return "<<";
    case CompOp::kAfter: return ">>";
  }
  return "?";
}

bool IsGeneralComp(CompOp op) {
  return op >= CompOp::kGenEq && op <= CompOp::kGenGe;
}

bool IsValueComp(CompOp op) {
  return op >= CompOp::kValueEq && op <= CompOp::kValueGe;
}

// --- Clone / ToString implementations ---

std::unique_ptr<Expr> LiteralExpr::Clone() const {
  auto e = std::make_unique<LiteralExpr>(value);
  return e;
}

void LiteralExpr::Print(ExprPrinter& out) const {
  if (value.type() == XsType::kString || value.type() == XsType::kUntypedAtomic) {
    out.Text("\"");
    out.Text(value.AsString());
    out.Text("\"");
    return;
  }
  out.Text(value.Lexical());
}

std::unique_ptr<Expr> VarRefExpr::Clone() const {
  auto e = std::make_unique<VarRefExpr>(name);
  e->slot = slot;
  e->is_global = is_global;
  return e;
}

void VarRefExpr::Print(ExprPrinter& out) const {
  out.Text("$");
  PrintLexical(name, out);
}

std::unique_ptr<Expr> ContextItemExpr::Clone() const {
  return std::make_unique<ContextItemExpr>();
}

std::unique_ptr<Expr> RootExpr::Clone() const {
  return std::make_unique<RootExpr>();
}

std::unique_ptr<Expr> StepExpr::Clone() const {
  return std::make_unique<StepExpr>(axis, test);
}

void StepExpr::Print(ExprPrinter& out) const {
  out.Text(AxisName(axis));
  out.Text("::");
  test.Print(out);
}

std::unique_ptr<Expr> SequenceExpr::Clone() const {
  auto e = std::make_unique<SequenceExpr>();
  CloneChildrenInto(e.get());
  return e;
}

void SequenceExpr::Print(ExprPrinter& out) const {
  out.Text("(seq");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> RangeExpr::Clone() const {
  return std::make_unique<RangeExpr>(child(0)->Clone(), child(1)->Clone());
}

void RangeExpr::Print(ExprPrinter& out) const {
  out.Text("(to");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> ArithmeticExpr::Clone() const {
  return std::make_unique<ArithmeticExpr>(op, child(0)->Clone(),
                                          child(1)->Clone());
}

void ArithmeticExpr::Print(ExprPrinter& out) const {
  out.Text("(");
  out.Text(ArithOpName(op));
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> UnaryExpr::Clone() const {
  return std::make_unique<UnaryExpr>(negate, child(0)->Clone());
}

void UnaryExpr::Print(ExprPrinter& out) const {
  out.Text(negate ? "(neg" : "(pos");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> ComparisonExpr::Clone() const {
  return std::make_unique<ComparisonExpr>(op, child(0)->Clone(),
                                          child(1)->Clone());
}

void ComparisonExpr::Print(ExprPrinter& out) const {
  out.Text("(");
  out.Text(CompOpName(op));
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> LogicalExpr::Clone() const {
  return std::make_unique<LogicalExpr>(is_and, child(0)->Clone(),
                                       child(1)->Clone());
}

void LogicalExpr::Print(ExprPrinter& out) const {
  out.Text(is_and ? "(and" : "(or");
  PrintChildren(out);
  out.Text(")");
}

const char* AccessPathName(AccessPath p) {
  switch (p) {
    case AccessPath::kAuto: return "auto";
    case AccessPath::kNav: return "nav";
    case AccessPath::kSJoin: return "sjoin";
    case AccessPath::kTwig: return "twig";
    case AccessPath::kIndex: return "index";
  }
  return "auto";
}

std::optional<AccessPath> ParseAccessPath(std::string_view name) {
  if (name == "auto") return AccessPath::kAuto;
  if (name == "nav") return AccessPath::kNav;
  if (name == "sjoin") return AccessPath::kSJoin;
  if (name == "twig") return AccessPath::kTwig;
  if (name == "index") return AccessPath::kIndex;
  return std::nullopt;
}

std::unique_ptr<Expr> PathExpr::Clone() const {
  auto e = std::make_unique<PathExpr>(child(0)->Clone(), child(1)->Clone());
  e->needs_sort = needs_sort;
  e->needs_dedup = needs_dedup;
  e->index_candidate = index_candidate;
  e->access_path.store(access_path.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  e->access_est.store(access_est.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  e->access_declined.store(access_declined.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  return e;
}

void PathExpr::Print(ExprPrinter& out) const {
  out.Text("(path");
  if (needs_sort) out.Text("/sort");
  if (needs_dedup) out.Text("/dedup");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> FilterExpr::Clone() const {
  auto e = std::make_unique<FilterExpr>(child(0)->Clone());
  for (size_t i = 1; i < NumChildren(); ++i) e->AddChild(child(i)->Clone());
  return e;
}

void FilterExpr::Print(ExprPrinter& out) const {
  out.Text("(filter");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> FlworExpr::Clone() const {
  auto e = std::make_unique<FlworExpr>();
  e->clauses = clauses;
  CloneChildrenInto(e.get());
  return e;
}

void FlworExpr::Print(ExprPrinter& out) const {
  out.Text("(flwor");
  for (size_t i = 0; i < clauses.size(); ++i) {
    const Clause& c = clauses[i];
    switch (c.type) {
      case Clause::Type::kFor:
        out.Text(" for $");
        PrintLexical(c.var, out);
        if (c.has_pos_var()) {
          out.Text(" at $");
          PrintLexical(c.pos_var, out);
        }
        out.Text(" in ");
        out.Child(*child(i));
        break;
      case Clause::Type::kLet:
        out.Text(" let $");
        PrintLexical(c.var, out);
        out.Text(" := ");
        out.Child(*child(i));
        break;
      case Clause::Type::kWhere:
        out.Text(" where ");
        out.Child(*child(i));
        break;
      case Clause::Type::kOrderSpec:
        out.Text(" order-by ");
        out.Child(*child(i));
        if (c.descending) out.Text(" descending");
        break;
    }
  }
  out.Text(" return ");
  out.Child(*return_expr());
  out.Text(")");
}

std::unique_ptr<Expr> QuantifiedExpr::Clone() const {
  auto e = std::make_unique<QuantifiedExpr>(is_every);
  e->bindings = bindings;
  CloneChildrenInto(e.get());
  return e;
}

void QuantifiedExpr::Print(ExprPrinter& out) const {
  out.Text(is_every ? "(every" : "(some");
  for (size_t i = 0; i < bindings.size(); ++i) {
    out.Text(" $");
    PrintLexical(bindings[i].var, out);
    out.Text(" in ");
    out.Child(*child(i));
  }
  out.Text(" satisfies ");
  out.Child(*child(NumChildren() - 1));
  out.Text(")");
}

std::unique_ptr<Expr> IfExpr::Clone() const {
  return std::make_unique<IfExpr>(child(0)->Clone(), child(1)->Clone(),
                                  child(2)->Clone());
}

void IfExpr::Print(ExprPrinter& out) const {
  out.Text("(if");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> TypeswitchExpr::Clone() const {
  auto e = std::make_unique<TypeswitchExpr>();
  e->cases = cases;
  e->default_var = default_var;
  e->default_var_slot = default_var_slot;
  CloneChildrenInto(e.get());
  return e;
}

void TypeswitchExpr::Print(ExprPrinter& out) const {
  out.Text("(typeswitch ");
  out.Child(*child(0));
  for (size_t i = 0; i < cases.size(); ++i) {
    out.Text(" case ");
    out.Text(cases[i].type.ToString());
    out.Text(" return ");
    out.Child(*child(i + 1));
  }
  out.Text(" default ");
  out.Child(*child(NumChildren() - 1));
  out.Text(")");
}

std::unique_ptr<Expr> InstanceOfExpr::Clone() const {
  return std::make_unique<InstanceOfExpr>(child(0)->Clone(), type);
}

void InstanceOfExpr::Print(ExprPrinter& out) const {
  out.Text("(instance-of ");
  out.Child(*child(0));
  out.Text(" ");
  out.Text(type.ToString());
  out.Text(")");
}

std::unique_ptr<Expr> TreatExpr::Clone() const {
  return std::make_unique<TreatExpr>(child(0)->Clone(), type);
}

void TreatExpr::Print(ExprPrinter& out) const {
  out.Text("(treat-as ");
  out.Child(*child(0));
  out.Text(" ");
  out.Text(type.ToString());
  out.Text(")");
}

std::unique_ptr<Expr> CastExpr::Clone() const {
  return std::make_unique<CastExpr>(child(0)->Clone(), target, optional);
}

void CastExpr::Print(ExprPrinter& out) const {
  out.Text("(cast-as ");
  out.Child(*child(0));
  out.Text(" ");
  out.Text(XsTypeName(target));
  out.Text(optional ? "?)" : ")");
}

std::unique_ptr<Expr> CastableExpr::Clone() const {
  return std::make_unique<CastableExpr>(child(0)->Clone(), target, optional);
}

void CastableExpr::Print(ExprPrinter& out) const {
  out.Text("(castable-as ");
  out.Child(*child(0));
  out.Text(" ");
  out.Text(XsTypeName(target));
  out.Text(optional ? "?)" : ")");
}

std::unique_ptr<Expr> UnionExpr::Clone() const {
  return std::make_unique<UnionExpr>(child(0)->Clone(), child(1)->Clone());
}

void UnionExpr::Print(ExprPrinter& out) const {
  out.Text("(union");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> IntersectExceptExpr::Clone() const {
  return std::make_unique<IntersectExceptExpr>(is_except, child(0)->Clone(),
                                               child(1)->Clone());
}

void IntersectExceptExpr::Print(ExprPrinter& out) const {
  out.Text(is_except ? "(except" : "(intersect");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> FunctionCallExpr::Clone() const {
  auto e = std::make_unique<FunctionCallExpr>(name);
  e->builtin = builtin;
  e->user_index = user_index;
  CloneChildrenInto(e.get());
  return e;
}

void FunctionCallExpr::Print(ExprPrinter& out) const {
  out.Text("(");
  PrintLexical(name, out);
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> ElementCtorExpr::Clone() const {
  auto e = std::make_unique<ElementCtorExpr>();
  e->computed_name = computed_name;
  e->name = name;
  e->ns_decls = ns_decls;
  CloneChildrenInto(e.get());
  return e;
}

void ElementCtorExpr::Print(ExprPrinter& out) const {
  out.Text("(element ");
  if (computed_name) {
    out.Text("<computed>");
  } else {
    PrintLexical(name, out);
  }
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> AttributeCtorExpr::Clone() const {
  auto e = std::make_unique<AttributeCtorExpr>();
  e->computed_name = computed_name;
  e->name = name;
  CloneChildrenInto(e.get());
  return e;
}

void AttributeCtorExpr::Print(ExprPrinter& out) const {
  out.Text("(attribute ");
  if (computed_name) {
    out.Text("<computed>");
  } else {
    PrintLexical(name, out);
  }
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> TextCtorExpr::Clone() const {
  return std::make_unique<TextCtorExpr>(child(0)->Clone());
}

void TextCtorExpr::Print(ExprPrinter& out) const {
  out.Text("(text");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> CommentCtorExpr::Clone() const {
  return std::make_unique<CommentCtorExpr>(child(0)->Clone());
}

void CommentCtorExpr::Print(ExprPrinter& out) const {
  out.Text("(comment-ctor");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> PiCtorExpr::Clone() const {
  auto e = std::make_unique<PiCtorExpr>();
  e->target = target;
  CloneChildrenInto(e.get());
  return e;
}

void PiCtorExpr::Print(ExprPrinter& out) const {
  out.Text("(pi ");
  out.Text(target);
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> TryCatchExpr::Clone() const {
  return std::make_unique<TryCatchExpr>(child(0)->Clone(), child(1)->Clone());
}

void TryCatchExpr::Print(ExprPrinter& out) const {
  out.Text("(try");
  PrintChildren(out);
  out.Text(")");
}

std::unique_ptr<Expr> DocumentCtorExpr::Clone() const {
  return std::make_unique<DocumentCtorExpr>(child(0)->Clone());
}

void DocumentCtorExpr::Print(ExprPrinter& out) const {
  out.Text("(document");
  PrintChildren(out);
  out.Text(")");
}

}  // namespace xqp
