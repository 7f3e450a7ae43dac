#include "exec/profile.h"

#include <cstdio>
#include <vector>

namespace xqp {

namespace {

std::string FlagSuffix(const PathExpr& p) {
  std::string flags;
  if (p.needs_sort) flags += "sort";
  if (p.needs_dedup) flags += flags.empty() ? "dedup" : " dedup";
  if (p.index_candidate) flags += flags.empty() ? "index" : " index";
  std::string out;
  if (!flags.empty()) out = " [" + flags + "]";
  // Access-path annotation (kAuto means "not decided": cold index cache or
  // not a candidate) — kept as a separate bracket so the "[index]" marker
  // above stays stable for plans compiled with indexes enabled.
  const AccessPath access = p.access_path.load(std::memory_order_relaxed);
  if (access != AccessPath::kAuto) {
    out += " [access: ";
    out += AccessPathName(access);
    const AccessPath declined =
        p.access_declined.load(std::memory_order_relaxed);
    if (declined != AccessPath::kAuto) {
      out += ", forced ";
      out += AccessPathName(declined);
      out += " declined]";
    } else {
      out += ", est=" +
             std::to_string(p.access_est.load(std::memory_order_relaxed)) +
             "]";
    }
  }
  return out;
}

/// Clause/role annotation for child `i` of `parent`, e.g. "for $x in: ".
std::string ChildPrefix(const Expr& parent, size_t i) {
  switch (parent.kind()) {
    case ExprKind::kFlwor: {
      const auto& f = static_cast<const FlworExpr&>(parent);
      if (i >= f.clauses.size()) return "return: ";
      const FlworExpr::Clause& c = f.clauses[i];
      switch (c.type) {
        case FlworExpr::Clause::Type::kFor:
          return "for $" + c.var.Lexical() + " in: ";
        case FlworExpr::Clause::Type::kLet:
          return "let $" + c.var.Lexical() + " := ";
        case FlworExpr::Clause::Type::kWhere:
          return "where: ";
        case FlworExpr::Clause::Type::kOrderSpec:
          return "order-by: ";
      }
      return "";
    }
    case ExprKind::kIf:
      return i == 0 ? "if: " : i == 1 ? "then: " : "else: ";
    case ExprKind::kQuantified: {
      const auto& q = static_cast<const QuantifiedExpr&>(parent);
      if (i >= q.bindings.size()) return "satisfies: ";
      return "$" + q.bindings[i].var.Lexical() + " in: ";
    }
    case ExprKind::kTypeswitch: {
      const auto& t = static_cast<const TypeswitchExpr&>(parent);
      if (i == 0) return "operand: ";
      if (i <= t.cases.size()) {
        return "case " + t.cases[i - 1].type.ToString() + ": ";
      }
      return "default: ";
    }
    case ExprKind::kFilter:
      return i == 0 ? "" : "predicate: ";
    case ExprKind::kTryCatch:
      return i == 0 ? "try: " : "catch: ";
    default:
      return "";
  }
}

/// The value-join annotation of a planned for clause's domain line.
std::string ChildSuffix(const Expr& parent, size_t i) {
  if (parent.kind() != ExprKind::kFlwor) return "";
  const auto& f = static_cast<const FlworExpr&>(parent);
  if (i >= f.clauses.size()) return "";
  switch (f.clauses[i].join) {
    case ValueJoinKind::kHash:
      return " [join: hash]";
    case ValueJoinKind::kRange:
      return " [join: range]";
    case ValueJoinKind::kNone:
      break;
  }
  return "";
}

void AppendDuration(uint64_t ns, std::string* out) {
  char buf[32];
  if (ns >= 1000000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.2fs", double(ns) / 1e9);
  } else if (ns >= 1000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.2fms", double(ns) / 1e6);
  } else if (ns >= 1000ULL) {
    std::snprintf(buf, sizeof(buf), "%.2fus", double(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  }
  *out += buf;
}

struct Line {
  std::string label;
  const Expr* e;
};

void CollectLines(const Expr& e, int depth, const std::string& prefix,
                  const std::string& suffix, std::vector<Line>* out,
                  const ExplainAnnotator* annotate = nullptr) {
  Line line;
  line.label.assign(size_t(depth) * 2, ' ');
  line.label += prefix;
  line.label += OperatorLabel(e);
  if (annotate != nullptr) line.label += (*annotate)(e);
  line.label += suffix;
  line.e = &e;
  out->push_back(std::move(line));
  for (size_t i = 0; i < e.NumChildren(); ++i) {
    CollectLines(*e.child(i), depth + 1, ChildPrefix(e, i), ChildSuffix(e, i),
                 out, annotate);
  }
}

void RenderJsonNode(const Expr& e, const QueryProfile& profile,
                    std::string* out) {
  const OpStats* s = profile.Find(&e);
  OpStats zero;
  if (s == nullptr) s = &zero;
  *out += "{\"op\":\"";
  AppendJsonEscaped(OperatorLabel(e), out);
  *out += "\",\"kind\":\"";
  AppendJsonEscaped(ExprKindName(e.kind()), out);
  *out += "\",\"next_calls\":" + std::to_string(s->next_calls);
  *out += ",\"items\":" + std::to_string(s->items);
  *out += ",\"wall_ns\":" + std::to_string(s->wall_ns);
  *out += ",\"resets\":" + std::to_string(s->resets);
  *out += ",\"children\":[";
  for (size_t i = 0; i < e.NumChildren(); ++i) {
    if (i > 0) *out += ",";
    RenderJsonNode(*e.child(i), profile, out);
  }
  *out += "]}";
}

}  // namespace

std::string OperatorLabel(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return "literal " + static_cast<const LiteralExpr&>(e).value.Lexical();
    case ExprKind::kVarRef:
      return "var $" + static_cast<const VarRefExpr&>(e).name.Lexical();
    case ExprKind::kContextItem:
      return "context-item";
    case ExprKind::kRoot:
      return "root";
    case ExprKind::kSequence:
      return "sequence";
    case ExprKind::kRange:
      return "range";
    case ExprKind::kArithmetic:
      return std::string("arith ") +
             std::string(ArithOpName(static_cast<const ArithmeticExpr&>(e).op));
    case ExprKind::kUnary:
      return static_cast<const UnaryExpr&>(e).negate ? "unary -" : "unary +";
    case ExprKind::kComparison:
      return std::string("compare ") +
             std::string(CompOpName(static_cast<const ComparisonExpr&>(e).op));
    case ExprKind::kLogical:
      return static_cast<const LogicalExpr&>(e).is_and ? "and" : "or";
    case ExprKind::kPath:
      return "path" + FlagSuffix(static_cast<const PathExpr&>(e));
    case ExprKind::kStep: {
      const auto& s = static_cast<const StepExpr&>(e);
      return "step " + std::string(AxisName(s.axis)) + "::" +
             s.test.ToString();
    }
    case ExprKind::kFilter:
      return "filter";
    case ExprKind::kFlwor:
      return "flwor";
    case ExprKind::kQuantified:
      return static_cast<const QuantifiedExpr&>(e).is_every ? "every" : "some";
    case ExprKind::kIf:
      return "if";
    case ExprKind::kTypeswitch:
      return "typeswitch";
    case ExprKind::kInstanceOf:
      return "instance-of " +
             static_cast<const InstanceOfExpr&>(e).type.ToString();
    case ExprKind::kTreatAs:
      return "treat-as " + static_cast<const TreatExpr&>(e).type.ToString();
    case ExprKind::kCastAs:
      return "cast-as";
    case ExprKind::kCastableAs:
      return "castable-as";
    case ExprKind::kUnion:
      return "union";
    case ExprKind::kIntersectExcept:
      return static_cast<const IntersectExceptExpr&>(e).is_except ? "except"
                                                                  : "intersect";
    case ExprKind::kFunctionCall:
      return "call " +
             static_cast<const FunctionCallExpr&>(e).name.Lexical();
    case ExprKind::kElementCtor: {
      const auto& c = static_cast<const ElementCtorExpr&>(e);
      return c.computed_name ? "element-ctor (computed)"
                             : "element-ctor " + c.name.Lexical();
    }
    case ExprKind::kAttributeCtor: {
      const auto& c = static_cast<const AttributeCtorExpr&>(e);
      return c.computed_name ? "attribute-ctor (computed)"
                             : "attribute-ctor " + c.name.Lexical();
    }
    case ExprKind::kTextCtor:
      return "text-ctor";
    case ExprKind::kCommentCtor:
      return "comment-ctor";
    case ExprKind::kPiCtor:
      return "pi-ctor " + static_cast<const PiCtorExpr&>(e).target;
    case ExprKind::kDocumentCtor:
      return "document-ctor";
    case ExprKind::kTryCatch:
      return "try-catch";
  }
  return std::string(ExprKindName(e.kind()));
}

std::string RenderExplainTree(const Expr& root) {
  std::vector<Line> lines;
  CollectLines(root, 0, "", "", &lines);
  std::string out;
  for (const Line& line : lines) {
    out += line.label;
    out += '\n';
  }
  return out;
}

std::string RenderExplainTree(const Expr& root,
                              const ExplainAnnotator& annotate) {
  std::vector<Line> lines;
  CollectLines(root, 0, "", "", &lines, annotate ? &annotate : nullptr);
  std::string out;
  for (const Line& line : lines) {
    out += line.label;
    out += '\n';
  }
  return out;
}

std::string RenderProfileText(const Expr& root, const QueryProfile& profile) {
  std::vector<Line> lines;
  CollectLines(root, 0, "", "", &lines);
  size_t width = 24;
  for (const Line& line : lines) {
    if (line.label.size() > width) width = line.label.size();
  }
  std::string out = "operator";
  out.append(width > 8 ? width - 8 : 1, ' ');
  out += "  next     items    wall\n";
  for (const Line& line : lines) {
    out += line.label;
    out.append(width - line.label.size(), ' ');
    const OpStats* s = profile.Find(line.e);
    OpStats zero;
    if (s == nullptr) s = &zero;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  %-8llu %-8llu ",
                  static_cast<unsigned long long>(s->next_calls),
                  static_cast<unsigned long long>(s->items));
    out += buf;
    AppendDuration(s->wall_ns, &out);
    out += '\n';
  }
  return out;
}

std::string RenderProfileJson(const Expr& root, const QueryProfile& profile) {
  std::string out;
  RenderJsonNode(root, profile, &out);
  return out;
}

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
        break;
    }
  }
}

}  // namespace xqp
