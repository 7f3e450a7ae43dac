#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "base/string_util.h"
#include "exec/builtins.h"
#include "exec/compare.h"

namespace xqp {

namespace {

Status WrongArgs(const char* fn) {
  return Status::TypeError(std::string("invalid arguments to fn:") + fn);
}

/// Singleton string argument with ()-to-"" defaulting (fn:contains etc.).
Result<std::string> StringArg(const Sequence& seq, const char* fn) {
  if (seq.empty()) return std::string();
  if (seq.size() != 1) return WrongArgs(fn);
  return seq[0].Atomized().Lexical();
}

/// Optional-node argument with focus fallback (fn:name, fn:string, ...).
Result<Sequence> ArgOrFocus(std::vector<Sequence>& args,
                            const FocusInfo& focus, const char* fn) {
  if (!args.empty()) return args[0];
  if (!focus.has_focus) {
    return Status::DynamicError(std::string("fn:") + fn +
                                " with no argument requires a context item");
  }
  return Sequence{focus.item};
}

Result<double> NumericArg(const Item& item, const char* fn) {
  AtomicValue v = item.Atomized();
  if (v.type() == XsType::kUntypedAtomic) {
    XQP_ASSIGN_OR_RETURN(AtomicValue cast, v.CastTo(XsType::kDouble));
    return cast.AsRawDouble();
  }
  if (!v.IsNumeric()) return WrongArgs(fn);
  return v.NumericAsDouble();
}

/// Hash-set key for fn:distinct-values.
struct AtomicHash {
  size_t operator()(const AtomicValue& v) const { return v.Hash(); }
};
struct AtomicEq {
  bool operator()(const AtomicValue& a, const AtomicValue& b) const {
    return a.DeepEquals(b);
  }
};

bool DeepEqualNodes(const Node& a, const Node& b);

bool DeepEqualChildren(const Node& a, const Node& b) {
  Node ca = a.FirstChild();
  Node cb = b.FirstChild();
  auto skip = [](Node n) {
    while (n && (n.kind() == NodeKind::kComment ||
                 n.kind() == NodeKind::kProcessingInstruction)) {
      n = n.NextSibling();
    }
    return n;
  };
  ca = skip(ca);
  cb = skip(cb);
  while (ca && cb) {
    if (!DeepEqualNodes(ca, cb)) return false;
    ca = skip(ca.NextSibling());
    cb = skip(cb.NextSibling());
  }
  return !ca && !cb;
}

bool DeepEqualNodes(const Node& a, const Node& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case NodeKind::kDocument:
      return DeepEqualChildren(a, b);
    case NodeKind::kText:
    case NodeKind::kComment:
      return a.value() == b.value();
    case NodeKind::kProcessingInstruction:
      return a.name() == b.name() && a.value() == b.value();
    case NodeKind::kAttribute:
      return a.name() == b.name() && a.value() == b.value();
    case NodeKind::kElement: {
      if (a.name() != b.name()) return false;
      // Attribute sets must match (order-insensitive).
      size_t count_a = 0;
      for (Node attr = a.FirstAttribute(); attr; attr = attr.NextSibling()) {
        ++count_a;
        bool found = false;
        for (Node battr = b.FirstAttribute(); battr;
             battr = battr.NextSibling()) {
          if (attr.name() == battr.name() && attr.value() == battr.value()) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      size_t count_b = 0;
      for (Node battr = b.FirstAttribute(); battr; battr = battr.NextSibling()) {
        ++count_b;
      }
      if (count_a != count_b) return false;
      return DeepEqualChildren(a, b);
    }
  }
  return false;
}

}  // namespace

Result<Sequence> CallBuiltin(Builtin id, std::vector<Sequence>& args,
                             DynamicContext* ctx, const FocusInfo& focus) {
  switch (id) {
    case Builtin::kDoc: {
      if (args[0].empty()) return Sequence{};
      XQP_ASSIGN_OR_RETURN(std::string uri, StringArg(args[0], "doc"));
      if (ctx == nullptr || ctx->provider == nullptr) {
        return Status::DynamicError("no document provider for fn:doc");
      }
      XQP_ASSIGN_OR_RETURN(std::shared_ptr<const Document> doc,
                           ctx->provider->GetDocument(uri));
      return Sequence{Item(Node(std::move(doc), 0))};
    }
    case Builtin::kCollection: {
      XQP_ASSIGN_OR_RETURN(std::string uri, StringArg(args[0], "collection"));
      if (ctx == nullptr || ctx->provider == nullptr) {
        return Status::DynamicError("no document provider for fn:collection");
      }
      return ctx->provider->GetCollection(uri);
    }
    case Builtin::kRoot: {
      XQP_ASSIGN_OR_RETURN(Sequence arg, ArgOrFocus(args, focus, "root"));
      if (arg.empty()) return Sequence{};
      if (arg.size() != 1 || !arg[0].IsNode()) return WrongArgs("root");
      return Sequence{Item(arg[0].AsNode().Root())};
    }
    case Builtin::kCount:
      return Sequence{
          Item(AtomicValue::Integer(static_cast<int64_t>(args[0].size())))};
    case Builtin::kSum: {
      if (args[0].empty()) {
        if (args.size() > 1) return args[1];
        return Sequence{Item(AtomicValue::Integer(0))};
      }
      bool all_int = true;
      double total = 0;
      int64_t itotal = 0;
      for (const Item& item : args[0]) {
        AtomicValue v = item.Atomized();
        if (v.type() == XsType::kUntypedAtomic) {
          XQP_ASSIGN_OR_RETURN(v, v.CastTo(XsType::kDouble));
        }
        if (!v.IsNumeric()) return WrongArgs("sum");
        if (v.type() == XsType::kInteger) {
          itotal += v.AsInt();
          total += static_cast<double>(v.AsInt());
        } else {
          all_int = false;
          total += v.NumericAsDouble();
        }
      }
      if (all_int) return Sequence{Item(AtomicValue::Integer(itotal))};
      return Sequence{Item(AtomicValue::Double(total))};
    }
    case Builtin::kAvg: {
      if (args[0].empty()) return Sequence{};
      double total = 0;
      for (const Item& item : args[0]) {
        XQP_ASSIGN_OR_RETURN(double v, NumericArg(item, "avg"));
        total += v;
      }
      return Sequence{
          Item(AtomicValue::Double(total / static_cast<double>(args[0].size())))};
    }
    case Builtin::kMin:
    case Builtin::kMax: {
      if (args[0].empty()) return Sequence{};
      AtomicValue best = args[0][0].Atomized();
      if (best.type() == XsType::kUntypedAtomic) {
        XQP_ASSIGN_OR_RETURN(best, best.CastTo(XsType::kDouble));
      }
      for (size_t i = 1; i < args[0].size(); ++i) {
        AtomicValue v = args[0][i].Atomized();
        if (v.type() == XsType::kUntypedAtomic) {
          XQP_ASSIGN_OR_RETURN(v, v.CastTo(XsType::kDouble));
        }
        XQP_ASSIGN_OR_RETURN(CmpResult r, CompareForOrdering(v, best));
        bool better = id == Builtin::kMin ? r == CmpResult::kLess
                                          : r == CmpResult::kGreater;
        if (better) best = v;
      }
      return Sequence{Item(best)};
    }
    case Builtin::kEmpty:
      return Sequence{Item(AtomicValue::Boolean(args[0].empty()))};
    case Builtin::kExists:
      return Sequence{Item(AtomicValue::Boolean(!args[0].empty()))};
    case Builtin::kNot: {
      XQP_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(args[0]));
      return Sequence{Item(AtomicValue::Boolean(!b))};
    }
    case Builtin::kTrue:
      return Sequence{Item(AtomicValue::Boolean(true))};
    case Builtin::kFalse:
      return Sequence{Item(AtomicValue::Boolean(false))};
    case Builtin::kBoolean: {
      XQP_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(args[0]));
      return Sequence{Item(AtomicValue::Boolean(b))};
    }
    case Builtin::kString: {
      XQP_ASSIGN_OR_RETURN(Sequence arg, ArgOrFocus(args, focus, "string"));
      if (arg.empty()) return Sequence{Item(AtomicValue::String(""))};
      if (arg.size() != 1) return WrongArgs("string");
      return Sequence{Item(AtomicValue::String(arg[0].StringValue()))};
    }
    case Builtin::kData:
      return Atomize(args[0]);
    case Builtin::kNumber: {
      XQP_ASSIGN_OR_RETURN(Sequence arg, ArgOrFocus(args, focus, "number"));
      if (arg.size() != 1) {
        return Sequence{Item(AtomicValue::Double(
            std::numeric_limits<double>::quiet_NaN()))};
      }
      auto cast = arg[0].Atomized().CastTo(XsType::kDouble);
      if (!cast.ok()) {
        return Sequence{Item(AtomicValue::Double(
            std::numeric_limits<double>::quiet_NaN()))};
      }
      return Sequence{Item(cast.value())};
    }
    case Builtin::kStringLength: {
      XQP_ASSIGN_OR_RETURN(Sequence arg,
                           ArgOrFocus(args, focus, "string-length"));
      XQP_ASSIGN_OR_RETURN(std::string s, StringArg(arg, "string-length"));
      return Sequence{Item(
          AtomicValue::Integer(static_cast<int64_t>(Utf8Chars(s).size())))};
    }
    case Builtin::kConcat: {
      std::string out;
      for (const Sequence& arg : args) {
        if (arg.empty()) continue;
        if (arg.size() != 1) return WrongArgs("concat");
        out += arg[0].Atomized().Lexical();
      }
      return Sequence{Item(AtomicValue::String(std::move(out)))};
    }
    case Builtin::kContains: {
      XQP_ASSIGN_OR_RETURN(std::string a, StringArg(args[0], "contains"));
      XQP_ASSIGN_OR_RETURN(std::string b, StringArg(args[1], "contains"));
      return Sequence{Item(AtomicValue::Boolean(
          b.empty() || a.find(b) != std::string::npos))};
    }
    case Builtin::kStartsWith: {
      XQP_ASSIGN_OR_RETURN(std::string a, StringArg(args[0], "starts-with"));
      XQP_ASSIGN_OR_RETURN(std::string b, StringArg(args[1], "starts-with"));
      return Sequence{Item(AtomicValue::Boolean(a.rfind(b, 0) == 0))};
    }
    case Builtin::kEndsWith: {
      XQP_ASSIGN_OR_RETURN(std::string a, StringArg(args[0], "ends-with"));
      XQP_ASSIGN_OR_RETURN(std::string b, StringArg(args[1], "ends-with"));
      bool ends = b.size() <= a.size() &&
                  a.compare(a.size() - b.size(), b.size(), b) == 0;
      return Sequence{Item(AtomicValue::Boolean(ends))};
    }
    case Builtin::kSubstring: {
      XQP_ASSIGN_OR_RETURN(std::string s, StringArg(args[0], "substring"));
      if (args[1].size() != 1) return WrongArgs("substring");
      XQP_ASSIGN_OR_RETURN(double start, NumericArg(args[1][0], "substring"));
      double len = std::numeric_limits<double>::infinity();
      if (args.size() > 2) {
        if (args[2].size() != 1) return WrongArgs("substring");
        XQP_ASSIGN_OR_RETURN(len, NumericArg(args[2][0], "substring"));
      }
      // XPath rule: characters whose position p satisfies
      // round(start) <= p < round(start) + round(len), 1-based.
      double rs = std::round(start);
      double rl = std::round(len);
      const std::vector<std::string_view> chars = Utf8Chars(s);
      std::string out;
      for (size_t i = 0; i < chars.size(); ++i) {
        double p = static_cast<double>(i + 1);
        if (p >= rs && p < rs + rl) out.append(chars[i]);
      }
      return Sequence{Item(AtomicValue::String(std::move(out)))};
    }
    case Builtin::kSubstringBefore: {
      XQP_ASSIGN_OR_RETURN(std::string a,
                           StringArg(args[0], "substring-before"));
      XQP_ASSIGN_OR_RETURN(std::string b,
                           StringArg(args[1], "substring-before"));
      size_t pos = a.find(b);
      if (b.empty() || pos == std::string::npos) {
        return Sequence{Item(AtomicValue::String(""))};
      }
      return Sequence{Item(AtomicValue::String(a.substr(0, pos)))};
    }
    case Builtin::kSubstringAfter: {
      XQP_ASSIGN_OR_RETURN(std::string a, StringArg(args[0], "substring-after"));
      XQP_ASSIGN_OR_RETURN(std::string b, StringArg(args[1], "substring-after"));
      if (b.empty()) return Sequence{Item(AtomicValue::String(a))};
      size_t pos = a.find(b);
      if (pos == std::string::npos) {
        return Sequence{Item(AtomicValue::String(""))};
      }
      return Sequence{Item(AtomicValue::String(a.substr(pos + b.size())))};
    }
    case Builtin::kNormalizeSpace: {
      XQP_ASSIGN_OR_RETURN(Sequence arg,
                           ArgOrFocus(args, focus, "normalize-space"));
      XQP_ASSIGN_OR_RETURN(std::string s, StringArg(arg, "normalize-space"));
      return Sequence{Item(AtomicValue::String(NormalizeSpace(s)))};
    }
    case Builtin::kUpperCase:
    case Builtin::kLowerCase: {
      XQP_ASSIGN_OR_RETURN(std::string s, StringArg(args[0], "upper/lower"));
      for (char& c : s) {
        c = id == Builtin::kUpperCase
                ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      return Sequence{Item(AtomicValue::String(std::move(s)))};
    }
    case Builtin::kTranslate: {
      XQP_ASSIGN_OR_RETURN(std::string s, StringArg(args[0], "translate"));
      XQP_ASSIGN_OR_RETURN(std::string from, StringArg(args[1], "translate"));
      XQP_ASSIGN_OR_RETURN(std::string to, StringArg(args[2], "translate"));
      const std::vector<std::string_view> from_chars = Utf8Chars(from);
      const std::vector<std::string_view> to_chars = Utf8Chars(to);
      std::string out;
      for (std::string_view c : Utf8Chars(s)) {
        size_t pos = std::find(from_chars.begin(), from_chars.end(), c) -
                     from_chars.begin();
        if (pos == from_chars.size()) {
          out.append(c);
        } else if (pos < to_chars.size()) {
          out.append(to_chars[pos]);
        }  // Else: dropped.
      }
      return Sequence{Item(AtomicValue::String(std::move(out)))};
    }
    case Builtin::kStringJoin: {
      XQP_ASSIGN_OR_RETURN(std::string sep, StringArg(args[1], "string-join"));
      std::string out;
      bool first = true;
      for (const Item& item : args[0]) {
        if (!first) out += sep;
        out += item.Atomized().Lexical();
        first = false;
      }
      return Sequence{Item(AtomicValue::String(std::move(out)))};
    }
    case Builtin::kPosition:
      if (!focus.has_focus) {
        return Status::DynamicError("position() requires a context item");
      }
      return Sequence{Item(AtomicValue::Integer(focus.position))};
    case Builtin::kLast:
      if (!focus.has_focus) {
        return Status::DynamicError("last() requires a context item");
      }
      if (focus.size < 0) {
        // The uses_last analysis makes the enclosing lazy path or filter
        // materialize its input; reaching this means it could not.
        return Status::DynamicError(
            "last() requires a materialized context sequence");
      }
      return Sequence{Item(AtomicValue::Integer(focus.size))};
    case Builtin::kDistinctValues: {
      std::unordered_set<AtomicValue, AtomicHash, AtomicEq> seen;
      Sequence out;
      for (const Item& item : args[0]) {
        AtomicValue v = item.Atomized();
        if (seen.insert(v).second) out.push_back(Item(std::move(v)));
      }
      return out;
    }
    case Builtin::kDistinctNodes: {
      Sequence out = args[0];
      XQP_RETURN_NOT_OK(SortDocOrderDistinct(&out));
      return out;
    }
    case Builtin::kReverse: {
      Sequence out(args[0].rbegin(), args[0].rend());
      return out;
    }
    case Builtin::kSubsequence: {
      if (args[1].size() != 1) return WrongArgs("subsequence");
      XQP_ASSIGN_OR_RETURN(double start, NumericArg(args[1][0], "subsequence"));
      double len = std::numeric_limits<double>::infinity();
      if (args.size() > 2) {
        if (args[2].size() != 1) return WrongArgs("subsequence");
        XQP_ASSIGN_OR_RETURN(len, NumericArg(args[2][0], "subsequence"));
      }
      double rs = std::round(start);
      double rl = std::round(len);
      Sequence out;
      for (size_t i = 0; i < args[0].size(); ++i) {
        double p = static_cast<double>(i + 1);
        if (p >= rs && p < rs + rl) out.push_back(args[0][i]);
      }
      return out;
    }
    case Builtin::kIndexOf: {
      if (args[1].size() != 1) return WrongArgs("index-of");
      AtomicValue target = args[1][0].Atomized();
      Sequence out;
      for (size_t i = 0; i < args[0].size(); ++i) {
        AtomicValue v = args[0][i].Atomized();
        auto r = CompareForOrdering(v, target);
        if (r.ok() && r.value() == CmpResult::kEqual) {
          out.push_back(Item(AtomicValue::Integer(static_cast<int64_t>(i + 1))));
        }
      }
      return out;
    }
    case Builtin::kInsertBefore: {
      if (args[1].size() != 1) return WrongArgs("insert-before");
      XQP_ASSIGN_OR_RETURN(double dpos, NumericArg(args[1][0], "insert-before"));
      int64_t pos = static_cast<int64_t>(dpos);
      if (pos < 1) pos = 1;
      if (pos > static_cast<int64_t>(args[0].size()) + 1) {
        pos = static_cast<int64_t>(args[0].size()) + 1;
      }
      Sequence out;
      for (size_t i = 0; i < args[0].size(); ++i) {
        if (static_cast<int64_t>(i + 1) == pos) {
          out.insert(out.end(), args[2].begin(), args[2].end());
        }
        out.push_back(args[0][i]);
      }
      if (pos == static_cast<int64_t>(args[0].size()) + 1) {
        out.insert(out.end(), args[2].begin(), args[2].end());
      }
      return out;
    }
    case Builtin::kRemove: {
      if (args[1].size() != 1) return WrongArgs("remove");
      XQP_ASSIGN_OR_RETURN(double dpos, NumericArg(args[1][0], "remove"));
      int64_t pos = static_cast<int64_t>(dpos);
      Sequence out;
      for (size_t i = 0; i < args[0].size(); ++i) {
        if (static_cast<int64_t>(i + 1) != pos) out.push_back(args[0][i]);
      }
      return out;
    }
    case Builtin::kZeroOrOne:
      if (args[0].size() > 1) {
        return Status::DynamicError("fn:zero-or-one: more than one item");
      }
      return args[0];
    case Builtin::kOneOrMore:
      if (args[0].empty()) {
        return Status::DynamicError("fn:one-or-more: empty sequence");
      }
      return args[0];
    case Builtin::kExactlyOne:
      if (args[0].size() != 1) {
        return Status::DynamicError("fn:exactly-one: not a singleton");
      }
      return args[0];
    case Builtin::kDeepEqual: {
      if (args[0].size() != args[1].size()) {
        return Sequence{Item(AtomicValue::Boolean(false))};
      }
      for (size_t i = 0; i < args[0].size(); ++i) {
        const Item& a = args[0][i];
        const Item& b = args[1][i];
        if (a.IsNode() != b.IsNode()) {
          return Sequence{Item(AtomicValue::Boolean(false))};
        }
        bool eq;
        if (a.IsNode()) {
          eq = DeepEqualNodes(a.AsNode(), b.AsNode());
        } else {
          eq = a.AsAtomic().DeepEquals(b.AsAtomic());
        }
        if (!eq) return Sequence{Item(AtomicValue::Boolean(false))};
      }
      return Sequence{Item(AtomicValue::Boolean(true))};
    }
    case Builtin::kName:
    case Builtin::kLocalName:
    case Builtin::kNamespaceUri: {
      XQP_ASSIGN_OR_RETURN(Sequence arg, ArgOrFocus(args, focus, "name"));
      if (arg.empty()) return Sequence{Item(AtomicValue::String(""))};
      if (arg.size() != 1 || !arg[0].IsNode()) return WrongArgs("name");
      const Node& n = arg[0].AsNode();
      if (!n.HasName()) return Sequence{Item(AtomicValue::String(""))};
      const QName& q = n.name();
      std::string out;
      if (id == Builtin::kName) out = q.Lexical();
      else if (id == Builtin::kLocalName) out = q.local;
      else out = q.uri;
      return Sequence{Item(AtomicValue::String(std::move(out)))};
    }
    case Builtin::kNodeName: {
      if (args[0].empty()) return Sequence{};
      if (args[0].size() != 1 || !args[0][0].IsNode()) {
        return WrongArgs("node-name");
      }
      const Node& n = args[0][0].AsNode();
      if (!n.HasName()) return Sequence{};
      return Sequence{Item(AtomicValue::QNameValue(n.name().Clark()))};
    }
    case Builtin::kNodeKind: {
      if (args[0].size() != 1 || !args[0][0].IsNode()) {
        return WrongArgs("node-kind");
      }
      return Sequence{Item(AtomicValue::String(
          std::string(NodeKindName(args[0][0].AsNode().kind()))))};
    }
    case Builtin::kFloor:
    case Builtin::kCeiling:
    case Builtin::kRound:
    case Builtin::kAbs: {
      if (args[0].empty()) return Sequence{};
      if (args[0].size() != 1) return WrongArgs("floor/ceiling/round/abs");
      AtomicValue v = args[0][0].Atomized();
      if (v.type() == XsType::kUntypedAtomic) {
        XQP_ASSIGN_OR_RETURN(v, v.CastTo(XsType::kDouble));
      }
      if (!v.IsNumeric()) return WrongArgs("floor/ceiling/round/abs");
      if (v.type() == XsType::kInteger) {
        int64_t x = v.AsInt();
        if (id == Builtin::kAbs && x < 0) x = -x;
        return Sequence{Item(AtomicValue::Integer(x))};
      }
      double x = v.NumericAsDouble();
      double r = 0;
      switch (id) {
        case Builtin::kFloor:
          r = std::floor(x);
          break;
        case Builtin::kCeiling:
          r = std::ceil(x);
          break;
        case Builtin::kRound:
          r = std::floor(x + 0.5);  // round-half-up per XPath.
          break;
        default:
          r = std::fabs(x);
      }
      if (v.type() == XsType::kDecimal) {
        return Sequence{Item(AtomicValue::Decimal(r))};
      }
      return Sequence{Item(AtomicValue::Double(r))};
    }
    case Builtin::kError: {
      std::string msg = "fn:error";
      if (!args.empty() && !args[0].empty()) {
        msg += ": " + args[0][0].Atomized().Lexical();
      }
      if (args.size() > 1 && !args[1].empty()) {
        msg += " — " + args[1][0].Atomized().Lexical();
      }
      return Status::DynamicError(msg);
    }
    case Builtin::kTrace: {
      XQP_ASSIGN_OR_RETURN(std::string label, StringArg(args[1], "trace"));
      std::fprintf(stderr, "trace: %s (%zu items)\n", label.c_str(),
                   args[0].size());
      return args[0];
    }
    case Builtin::kHead:
      if (args[0].empty()) return Sequence{};
      return Sequence{args[0][0]};
    case Builtin::kTail: {
      Sequence out;
      if (args[0].size() > 1) {
        out.assign(args[0].begin() + 1, args[0].end());
      }
      return out;
    }
  }
  return Status::Internal("unhandled builtin");
}

}  // namespace xqp
