#include "query/parser.h"

#include <vector>

#include "base/limits.h"
#include "base/string_util.h"
#include "query/lexer.h"

namespace xqp {

namespace {

/// Kind-test keywords that introduce a node test rather than a function
/// call when followed by "(".
bool IsKindTestName(Kw kw) {
  switch (kw) {
    case Kw::kNode:
    case Kw::kText:
    case Kw::kComment:
    case Kw::kProcessingInstruction:
    case Kw::kElement:
    case Kw::kAttribute:
    case Kw::kDocumentNode:
    case Kw::kItem:
    case Kw::kEmptySequence:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Operator precedence table
// ---------------------------------------------------------------------------

/// How an operator combines with its operands. Left-associative operators
/// chain (`1 - 2 - 3` is `(1 - 2) - 3`); a non-associative one takes one
/// operand of its own level on neither side (`1 = 2 = 3` is an error); a
/// postfix type operator applies once to the operand before it and takes a
/// type, not an expression, after it.
enum class Fixity : uint8_t { kLeft, kNonAssoc, kPostfix };

using BinaryBuilder = ExprPtr (*)(uint8_t code, ExprPtr lhs, ExprPtr rhs);

ExprPtr BuildLogical(uint8_t is_and, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<LogicalExpr>(is_and != 0, std::move(lhs),
                                       std::move(rhs));
}
ExprPtr BuildComparison(uint8_t op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<ComparisonExpr>(static_cast<CompOp>(op),
                                          std::move(lhs), std::move(rhs));
}
ExprPtr BuildRange(uint8_t, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<RangeExpr>(std::move(lhs), std::move(rhs));
}
ExprPtr BuildArithmetic(uint8_t op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<ArithmeticExpr>(static_cast<ArithOp>(op),
                                          std::move(lhs), std::move(rhs));
}
ExprPtr BuildUnion(uint8_t, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<UnionExpr>(std::move(lhs), std::move(rhs));
}
ExprPtr BuildIntersectExcept(uint8_t is_except, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<IntersectExceptExpr>(is_except != 0, std::move(lhs),
                                               std::move(rhs));
}

/// The postfix type operators, which the parser builds itself because their
/// right-hand side is a type.
enum class TypeOp : uint8_t { kInstanceOf, kTreatAs, kCastableAs, kCastAs };

/// One row of the precedence table. Levels run from 1 (`or`, loosest) to
/// 12 (`cast as`); 13 is the prefix sign, which ParseUnary handles. Level 0
/// means the token is no operator.
struct Operator {
  uint8_t level = 0;
  Fixity fixity = Fixity::kLeft;
  BinaryBuilder build = nullptr;  // Infix operators.
  uint8_t code = 0;               // CompOp / ArithOp / flag for `build`.
  TypeOp type_op = TypeOp::kInstanceOf;  // Postfix operators.
  Kw second = Kw::kNone;  // Postfix: the keyword after the first (of/as).
};

constexpr uint8_t kMaxOperatorLevel = 12;

constexpr Operator Infix(uint8_t level, Fixity fixity, BinaryBuilder build,
                         uint8_t code = 0) {
  Operator op;
  op.level = level;
  op.fixity = fixity;
  op.build = build;
  op.code = code;
  return op;
}

constexpr Operator Postfix(uint8_t level, TypeOp type_op, Kw second) {
  Operator op;
  op.level = level;
  op.fixity = Fixity::kPostfix;
  op.type_op = type_op;
  op.second = second;
  return op;
}

template <typename E>
constexpr uint8_t Code(E e) {
  return static_cast<uint8_t>(e);
}

/// Symbol and keyword operators, indexed by Sym and Kw code.
struct OperatorTable {
  Operator by_sym[static_cast<size_t>(Sym::kCount)];
  Operator by_kw[static_cast<size_t>(Kw::kCount)];

  constexpr OperatorTable() : by_sym(), by_kw() {
    constexpr Fixity L = Fixity::kLeft;
    constexpr Fixity N = Fixity::kNonAssoc;
    ForKw(Kw::kOr) = Infix(1, L, BuildLogical, 0);
    ForKw(Kw::kAnd) = Infix(2, L, BuildLogical, 1);
    ForSym(Sym::kEq) = Infix(3, N, BuildComparison, Code(CompOp::kGenEq));
    ForSym(Sym::kNe) = Infix(3, N, BuildComparison, Code(CompOp::kGenNe));
    ForSym(Sym::kLt) = Infix(3, N, BuildComparison, Code(CompOp::kGenLt));
    ForSym(Sym::kLe) = Infix(3, N, BuildComparison, Code(CompOp::kGenLe));
    ForSym(Sym::kGt) = Infix(3, N, BuildComparison, Code(CompOp::kGenGt));
    ForSym(Sym::kGe) = Infix(3, N, BuildComparison, Code(CompOp::kGenGe));
    ForSym(Sym::kLtLt) = Infix(3, N, BuildComparison, Code(CompOp::kBefore));
    ForSym(Sym::kGtGt) = Infix(3, N, BuildComparison, Code(CompOp::kAfter));
    ForKw(Kw::kEq) = Infix(3, N, BuildComparison, Code(CompOp::kValueEq));
    ForKw(Kw::kNe) = Infix(3, N, BuildComparison, Code(CompOp::kValueNe));
    ForKw(Kw::kLt) = Infix(3, N, BuildComparison, Code(CompOp::kValueLt));
    ForKw(Kw::kLe) = Infix(3, N, BuildComparison, Code(CompOp::kValueLe));
    ForKw(Kw::kGt) = Infix(3, N, BuildComparison, Code(CompOp::kValueGt));
    ForKw(Kw::kGe) = Infix(3, N, BuildComparison, Code(CompOp::kValueGe));
    ForKw(Kw::kIs) = Infix(3, N, BuildComparison, Code(CompOp::kIs));
    ForKw(Kw::kIsnot) = Infix(3, N, BuildComparison, Code(CompOp::kIsNot));
    ForKw(Kw::kTo) = Infix(4, N, BuildRange);
    ForSym(Sym::kPlus) = Infix(5, L, BuildArithmetic, Code(ArithOp::kAdd));
    ForSym(Sym::kMinus) = Infix(5, L, BuildArithmetic, Code(ArithOp::kSub));
    ForSym(Sym::kStar) = Infix(6, L, BuildArithmetic, Code(ArithOp::kMul));
    ForKw(Kw::kDiv) = Infix(6, L, BuildArithmetic, Code(ArithOp::kDiv));
    ForKw(Kw::kIdiv) = Infix(6, L, BuildArithmetic, Code(ArithOp::kIDiv));
    ForKw(Kw::kMod) = Infix(6, L, BuildArithmetic, Code(ArithOp::kMod));
    ForSym(Sym::kPipe) = Infix(7, L, BuildUnion);
    ForKw(Kw::kUnion) = Infix(7, L, BuildUnion);
    ForKw(Kw::kIntersect) = Infix(8, L, BuildIntersectExcept, 0);
    ForKw(Kw::kExcept) = Infix(8, L, BuildIntersectExcept, 1);
    ForKw(Kw::kInstance) = Postfix(9, TypeOp::kInstanceOf, Kw::kOf);
    ForKw(Kw::kTreat) = Postfix(10, TypeOp::kTreatAs, Kw::kAs);
    ForKw(Kw::kCastable) = Postfix(11, TypeOp::kCastableAs, Kw::kAs);
    ForKw(Kw::kCast) = Postfix(kMaxOperatorLevel, TypeOp::kCastAs, Kw::kAs);
  }
  constexpr Operator& ForSym(Sym s) { return by_sym[static_cast<size_t>(s)]; }
  constexpr Operator& ForKw(Kw k) { return by_kw[static_cast<size_t>(k)]; }
};

constexpr OperatorTable kOperators;

/// The operator a token would be in operator position (level 0: none).
const Operator& OperatorOf(const Tok& t) {
  if (t.type == TokType::kSymbol) {
    return kOperators.by_sym[static_cast<size_t>(t.sym)];
  }
  return kOperators.by_kw[static_cast<size_t>(t.kw)];
}

class Parser {
 public:
  Parser(std::string_view query, uint32_t max_expr_depth)
      : lex_(query),
        max_depth_(max_expr_depth == 0 ? QueryLimits::kDefaultMaxExprDepth
                                       : max_expr_depth) {}

  Result<std::unique_ptr<ParsedModule>> ParseModule();

 private:
  // --- Token helpers ---

  Result<bool> PeekSym(Sym s, size_t ahead = 0) {
    XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek(ahead));
    return t->IsSym(s);
  }
  Result<bool> PeekKw(Kw kw, size_t ahead = 0) {
    XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek(ahead));
    return t->IsKw(kw);
  }
  Result<bool> AcceptSym(Sym s) {
    XQP_ASSIGN_OR_RETURN(bool ok, PeekSym(s));
    if (ok) XQP_RETURN_NOT_OK(lex_.Skip());
    return ok;
  }
  Result<bool> AcceptKw(Kw kw) {
    XQP_ASSIGN_OR_RETURN(bool ok, PeekKw(kw));
    if (ok) XQP_RETURN_NOT_OK(lex_.Skip());
    return ok;
  }
  Status ExpectSym(Sym s, const char* what) {
    XQP_ASSIGN_OR_RETURN(bool ok, AcceptSym(s));
    if (!ok) return lex_.Error(std::string("expected ") + what);
    return Status::OK();
  }
  Status ExpectKw(Kw kw) {
    XQP_ASSIGN_OR_RETURN(bool ok, AcceptKw(kw));
    if (!ok) {
      return lex_.Error("expected keyword '" + std::string(KeywordText(kw)) +
                        "'");
    }
    return Status::OK();
  }

  /// Reads a lexical QName: NCName (":" NCName)?, colon must be adjacent.
  /// Returns the unresolved (prefix, local) pair.
  Result<std::pair<std::string, std::string>> ReadLexicalQName() {
    XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
    if (t->type != TokType::kNCName) return lex_.Error("expected a name");
    XQP_ASSIGN_OR_RETURN(Tok first, lex_.Take());
    XQP_ASSIGN_OR_RETURN(const Tok* colon, lex_.Peek());
    if (colon->IsSym(Sym::kColon) && colon->pos == first.end) {
      XQP_ASSIGN_OR_RETURN(const Tok* local, lex_.Peek(1));
      if (local->type == TokType::kNCName && local->pos == colon->end) {
        XQP_RETURN_NOT_OK(lex_.Skip());  // colon
        XQP_ASSIGN_OR_RETURN(Tok local_tok, lex_.Take());
        return std::make_pair(first.text, local_tok.text);
      }
    }
    return std::make_pair(std::string(), first.text);
  }

  /// Reads and resolves a QName against the static context (plus any
  /// constructor-scoped namespaces).
  Result<QName> ReadQName(bool use_default_element_ns) {
    XQP_ASSIGN_OR_RETURN(auto parts, ReadLexicalQName());
    XQP_ASSIGN_OR_RETURN(
        std::string uri,
        ResolvePrefix(parts.first, use_default_element_ns && parts.first.empty()));
    return QName(std::move(uri), std::move(parts.first),
                 std::move(parts.second));
  }

  /// Prefix resolution that consults constructor-scoped xmlns declarations
  /// first, then the static context.
  Result<std::string> ResolvePrefix(std::string_view prefix,
                                    bool use_default_element_ns) {
    for (auto it = ctor_ns_.rbegin(); it != ctor_ns_.rend(); ++it) {
      for (auto jt = it->rbegin(); jt != it->rend(); ++jt) {
        if (jt->first == prefix) return jt->second;
      }
    }
    if (prefix.empty() && !use_default_element_ns) {
      // Inside constructors, an in-scope default namespace applies even
      // though the static-context default may be empty.
      return std::string();
    }
    return module_->sctx.ResolvePrefix(prefix, use_default_element_ns);
  }

  // --- Prolog ---

  Status ParseProlog();
  Status ParseFunctionDecl();
  Status ParseVariableDecl();

  // --- Types ---

  Result<SequenceType> ParseSequenceType();
  Result<ItemTypeTest> ParseItemType();
  Result<std::pair<XsType, bool>> ParseSingleType();

  // --- Expressions, by precedence ---

  Result<ExprPtr> ParseExpr();  // Comma.
  Result<ExprPtr> ParseExprSingle();
  Result<ExprPtr> ParseExprSingleGuarded();
  Result<ExprPtr> ParseFlwor();
  Result<ExprPtr> ParseQuantified();
  Result<ExprPtr> ParseTypeswitch();
  Result<ExprPtr> ParseIf();
  /// Precedence climbing over the operator table: parses an operand and
  /// every following operator of level >= `min_level`.
  Result<ExprPtr> ParseOperators(uint8_t min_level);
  Result<ExprPtr> ParseTypeOperator(TypeOp op, ExprPtr operand);
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePath();
  Result<ExprPtr> ParseRelativePath(ExprPtr first);
  Result<ExprPtr> ParseStep();
  Result<ExprPtr> ParsePredicates(ExprPtr base);
  Result<ExprPtr> ParsePrimary();
  Result<ExprPtr> ParseFunctionCall();
  Result<ExprPtr> ParseComputedConstructor();
  Result<ExprPtr> ParseDirectConstructor();
  Result<ExprPtr> ParseEnclosedExpr();
  Result<NodeTest> ParseNodeTest(Axis axis);
  Result<NodeTest> ParseKindTest(Kw keyword);

  /// True when the upcoming tokens begin a computed constructor
  /// ("element {", "element name {", ...).
  Result<bool> LooksLikeComputedCtor();

  Lexer lex_;
  /// ParseExprSingle recursion bookkeeping (see the guard there).
  uint32_t max_depth_;
  uint32_t depth_ = 0;
  std::unique_ptr<ParsedModule> module_;
  /// Namespace scopes opened by direct element constructors during parsing.
  std::vector<std::vector<std::pair<std::string, std::string>>> ctor_ns_;
};

// ---------------------------------------------------------------------------
// Prolog
// ---------------------------------------------------------------------------

Status Parser::ParseProlog() {
  while (true) {
    XQP_ASSIGN_OR_RETURN(bool is_declare, PeekKw(Kw::kDeclare));
    XQP_ASSIGN_OR_RETURN(bool is_define, PeekKw(Kw::kDefine));
    XQP_ASSIGN_OR_RETURN(bool is_import, PeekKw(Kw::kImport));
    if (!is_declare && !is_define && !is_import) return Status::OK();
    if (is_import) {
      return lex_.Error(
          "module/schema import is not supported (optional XQuery feature)");
    }
    XQP_RETURN_NOT_OK(lex_.Skip());  // declare / define

    XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
    if (t->IsKw(Kw::kNamespace)) {
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_ASSIGN_OR_RETURN(Tok prefix, lex_.Take());
      if (prefix.type != TokType::kNCName) {
        return lex_.Error("expected namespace prefix");
      }
      XQP_RETURN_NOT_OK(ExpectSym(Sym::kEq, "'='"));
      XQP_ASSIGN_OR_RETURN(Tok uri, lex_.Take());
      if (uri.type != TokType::kString) {
        return lex_.Error("expected namespace URI string");
      }
      XQP_RETURN_NOT_OK(module_->sctx.DeclareNamespace(prefix.text, uri.text));
    } else if (t->IsKw(Kw::kDefault)) {
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_ASSIGN_OR_RETURN(bool elem, AcceptKw(Kw::kElement));
      XQP_ASSIGN_OR_RETURN(bool fun, AcceptKw(Kw::kFunction));
      if (!elem && !fun) {
        return lex_.Error("expected 'element' or 'function'");
      }
      XQP_RETURN_NOT_OK(ExpectKw(Kw::kNamespace));
      XQP_ASSIGN_OR_RETURN(Tok uri, lex_.Take());
      if (uri.type != TokType::kString) {
        return lex_.Error("expected namespace URI string");
      }
      if (elem) {
        module_->sctx.set_default_element_ns(uri.text);
      } else {
        module_->sctx.set_default_function_ns(uri.text);
      }
    } else if (t->IsKw(Kw::kBoundarySpace)) {
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_ASSIGN_OR_RETURN(bool preserve, AcceptKw(Kw::kPreserve));
      if (!preserve) XQP_RETURN_NOT_OK(ExpectKw(Kw::kStrip));
      module_->sctx.set_boundary_space_preserve(preserve);
    } else if (t->IsKw(Kw::kVariable)) {
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_RETURN_NOT_OK(ParseVariableDecl());
    } else if (t->IsKw(Kw::kFunction)) {
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_RETURN_NOT_OK(ParseFunctionDecl());
    } else {
      return lex_.Error("unsupported prolog declaration: " + t->text);
    }
    XQP_RETURN_NOT_OK(ExpectSym(Sym::kSemicolon, "';' after declaration"));
  }
}

Status Parser::ParseVariableDecl() {
  XQP_RETURN_NOT_OK(ExpectSym(Sym::kDollar, "'$'"));
  GlobalVariable var;
  XQP_ASSIGN_OR_RETURN(var.name, ReadQName(false));
  XQP_ASSIGN_OR_RETURN(bool as, AcceptKw(Kw::kAs));
  if (as) {
    XQP_ASSIGN_OR_RETURN(var.type, ParseSequenceType());
    var.has_type = true;
  }
  XQP_ASSIGN_OR_RETURN(bool external, AcceptKw(Kw::kExternal));
  if (!external) {
    // Either ":= Expr" or "{ Expr }" (older draft syntax used in the paper).
    XQP_ASSIGN_OR_RETURN(bool assign, AcceptSym(Sym::kAssign));
    if (assign) {
      XQP_ASSIGN_OR_RETURN(var.init, ParseExprSingle());
    } else {
      XQP_ASSIGN_OR_RETURN(var.init, ParseEnclosedExpr());
    }
  }
  module_->globals.push_back(std::move(var));
  return Status::OK();
}

Status Parser::ParseFunctionDecl() {
  UserFunction fn;
  XQP_ASSIGN_OR_RETURN(auto parts, ReadLexicalQName());
  // Unprefixed function names fall into the default function namespace —
  // but user declarations may not live in the fn: namespace; route them to
  // local:.
  std::string uri;
  if (parts.first.empty()) {
    uri = std::string(kLocalNamespace);
  } else {
    XQP_ASSIGN_OR_RETURN(uri, ResolvePrefix(parts.first, false));
  }
  fn.name = QName(std::move(uri), parts.first, parts.second);

  XQP_RETURN_NOT_OK(ExpectSym(Sym::kLParen, "'('"));
  XQP_ASSIGN_OR_RETURN(bool empty, AcceptSym(Sym::kRParen));
  if (!empty) {
    while (true) {
      XQP_RETURN_NOT_OK(ExpectSym(Sym::kDollar, "'$'"));
      XQP_ASSIGN_OR_RETURN(QName pname, ReadQName(false));
      fn.params.push_back(std::move(pname));
      XQP_ASSIGN_OR_RETURN(bool as, AcceptKw(Kw::kAs));
      if (as) {
        XQP_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
        fn.param_types.push_back(std::move(t));
      } else {
        fn.param_types.push_back(SequenceType::AnyItems());
      }
      XQP_ASSIGN_OR_RETURN(bool comma, AcceptSym(Sym::kComma));
      if (!comma) break;
    }
    XQP_RETURN_NOT_OK(ExpectSym(Sym::kRParen, "')'"));
  }
  XQP_ASSIGN_OR_RETURN(bool as, AcceptKw(Kw::kAs));
  if (as) {
    XQP_ASSIGN_OR_RETURN(fn.return_type, ParseSequenceType());
  }
  XQP_ASSIGN_OR_RETURN(bool external, AcceptKw(Kw::kExternal));
  if (!external) {
    XQP_ASSIGN_OR_RETURN(fn.body, ParseEnclosedExpr());
  }
  module_->functions.push_back(std::move(fn));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Sequence types
// ---------------------------------------------------------------------------

Result<ItemTypeTest> Parser::ParseItemType() {
  XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
  if (t->type != TokType::kNCName) {
    return lex_.Error("expected an item type");
  }
  XQP_ASSIGN_OR_RETURN(const Tok* paren, lex_.Peek(1));
  ItemTypeTest test;
  if (paren->IsSym(Sym::kLParen) && IsKindTestName(t->kw)) {
    const Kw kw = t->kw;
    XQP_RETURN_NOT_OK(lex_.Skip());
    XQP_RETURN_NOT_OK(lex_.Skip());  // '('
    if (kw == Kw::kItem) {
      test.kind = ItemTypeTest::Kind::kItem;
      XQP_RETURN_NOT_OK(ExpectSym(Sym::kRParen, "')'"));
      return test;
    }
    if (kw == Kw::kNode) {
      test.kind = ItemTypeTest::Kind::kNode;
    } else if (kw == Kw::kText) {
      test.kind = ItemTypeTest::Kind::kText;
    } else if (kw == Kw::kComment) {
      test.kind = ItemTypeTest::Kind::kComment;
    } else if (kw == Kw::kProcessingInstruction) {
      test.kind = ItemTypeTest::Kind::kPi;
    } else if (kw == Kw::kDocumentNode) {
      test.kind = ItemTypeTest::Kind::kDocument;
    } else if (kw == Kw::kElement || kw == Kw::kAttribute) {
      test.kind = kw == Kw::kElement ? ItemTypeTest::Kind::kElement
                                     : ItemTypeTest::Kind::kAttribute;
      XQP_ASSIGN_OR_RETURN(bool star, AcceptSym(Sym::kStar));
      if (!star) {
        XQP_ASSIGN_OR_RETURN(bool close, PeekSym(Sym::kRParen));
        if (!close) {
          XQP_ASSIGN_OR_RETURN(test.name, ReadQName(kw == Kw::kElement));
          test.wildcard_name = false;
          // Optional ", TypeName" — accepted and ignored (untyped model).
          XQP_ASSIGN_OR_RETURN(bool comma, AcceptSym(Sym::kComma));
          if (comma) {
            XQP_RETURN_NOT_OK(ReadQName(false).status());
          }
        }
      }
    } else {
      return lex_.Error("unsupported kind test: " +
                        std::string(KeywordText(kw)));
    }
    XQP_RETURN_NOT_OK(ExpectSym(Sym::kRParen, "')'"));
    return test;
  }
  // Atomic type name.
  XQP_ASSIGN_OR_RETURN(auto parts, ReadLexicalQName());
  std::string lexical =
      parts.first.empty() ? parts.second : parts.first + ":" + parts.second;
  XQP_ASSIGN_OR_RETURN(XsType at, XsTypeFromName(lexical));
  test.kind = ItemTypeTest::Kind::kAtomic;
  test.atomic = at;
  return test;
}

Result<SequenceType> Parser::ParseSequenceType() {
  XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
  XQP_ASSIGN_OR_RETURN(const Tok* paren, lex_.Peek(1));
  SequenceType st;
  if (t->IsKw(Kw::kEmptySequence) && paren->IsSym(Sym::kLParen)) {
    XQP_RETURN_NOT_OK(lex_.Skip());
    XQP_RETURN_NOT_OK(lex_.Skip());
    XQP_RETURN_NOT_OK(ExpectSym(Sym::kRParen, "')'"));
    st.empty_sequence = true;
    return st;
  }
  // Older "empty()" spelling from the paper era.
  if (t->IsKw(Kw::kEmpty) && paren->IsSym(Sym::kLParen)) {
    XQP_RETURN_NOT_OK(lex_.Skip());
    XQP_RETURN_NOT_OK(lex_.Skip());
    XQP_RETURN_NOT_OK(ExpectSym(Sym::kRParen, "')'"));
    st.empty_sequence = true;
    return st;
  }
  XQP_ASSIGN_OR_RETURN(st.item, ParseItemType());
  XQP_ASSIGN_OR_RETURN(bool star, AcceptSym(Sym::kStar));
  if (star) {
    st.occurrence = Occurrence::kStar;
    return st;
  }
  XQP_ASSIGN_OR_RETURN(bool plus, AcceptSym(Sym::kPlus));
  if (plus) {
    st.occurrence = Occurrence::kPlus;
    return st;
  }
  XQP_ASSIGN_OR_RETURN(bool question, AcceptSym(Sym::kQuestion));
  if (question) {
    st.occurrence = Occurrence::kOptional;
    return st;
  }
  st.occurrence = Occurrence::kOne;
  return st;
}

Result<std::pair<XsType, bool>> Parser::ParseSingleType() {
  XQP_ASSIGN_OR_RETURN(auto parts, ReadLexicalQName());
  std::string lexical =
      parts.first.empty() ? parts.second : parts.first + ":" + parts.second;
  XQP_ASSIGN_OR_RETURN(XsType at, XsTypeFromName(lexical));
  XQP_ASSIGN_OR_RETURN(bool optional, AcceptSym(Sym::kQuestion));
  return std::make_pair(at, optional);
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Result<ExprPtr> Parser::ParseExpr() {
  XQP_ASSIGN_OR_RETURN(ExprPtr first, ParseExprSingle());
  XQP_ASSIGN_OR_RETURN(bool comma, AcceptSym(Sym::kComma));
  if (!comma) return first;
  auto seq = std::make_unique<SequenceExpr>();
  seq->AddChild(std::move(first));
  while (true) {
    XQP_ASSIGN_OR_RETURN(ExprPtr next, ParseExprSingle());
    seq->AddChild(std::move(next));
    XQP_ASSIGN_OR_RETURN(bool more, AcceptSym(Sym::kComma));
    if (!more) break;
  }
  return ExprPtr(std::move(seq));
}

Result<ExprPtr> Parser::ParseExprSingle() {
  // Depth guard on the recursive-descent funnel: every nested expression
  // form passes through here, so bounding it bounds the parser's own C++
  // stack (a deeply parenthesized query would otherwise overflow it long
  // before any runtime limit could help).
  if (depth_ >= max_depth_) {
    return lex_.Error("expression nesting exceeds maximum depth of " +
                      std::to_string(max_depth_));
  }
  ++depth_;
  Result<ExprPtr> result = ParseExprSingleGuarded();
  --depth_;
  return result;
}

Result<ExprPtr> Parser::ParseExprSingleGuarded() {
  XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
  if (t->type == TokType::kNCName) {
    XQP_ASSIGN_OR_RETURN(const Tok* next, lex_.Peek(1));
    if ((t->IsKw(Kw::kFor) || t->IsKw(Kw::kLet)) && next->IsSym(Sym::kDollar)) {
      return ParseFlwor();
    }
    if ((t->IsKw(Kw::kSome) || t->IsKw(Kw::kEvery)) &&
        next->IsSym(Sym::kDollar)) {
      return ParseQuantified();
    }
    if (t->IsKw(Kw::kTypeswitch) && next->IsSym(Sym::kLParen)) {
      return ParseTypeswitch();
    }
    if (t->IsKw(Kw::kIf) && next->IsSym(Sym::kLParen)) {
      return ParseIf();
    }
    if (t->IsKw(Kw::kTry) && next->IsSym(Sym::kLBrace)) {
      // Extension syntax: try { Expr } catch [*] { Expr }.
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_ASSIGN_OR_RETURN(ExprPtr try_expr, ParseEnclosedExpr());
      XQP_RETURN_NOT_OK(ExpectKw(Kw::kCatch));
      XQP_ASSIGN_OR_RETURN(bool star, AcceptSym(Sym::kStar));
      (void)star;
      XQP_ASSIGN_OR_RETURN(ExprPtr catch_expr, ParseEnclosedExpr());
      return ExprPtr(std::make_unique<TryCatchExpr>(std::move(try_expr),
                                                    std::move(catch_expr)));
    }
  }
  return ParseOperators(1);
}

Result<ExprPtr> Parser::ParseFlwor() {
  auto flwor = std::make_unique<FlworExpr>();
  // for/let clauses.
  while (true) {
    XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
    XQP_ASSIGN_OR_RETURN(const Tok* next, lex_.Peek(1));
    bool is_for = t->IsKw(Kw::kFor) && next->IsSym(Sym::kDollar);
    bool is_let = t->IsKw(Kw::kLet) && next->IsSym(Sym::kDollar);
    if (!is_for && !is_let) break;
    XQP_RETURN_NOT_OK(lex_.Skip());
    while (true) {
      XQP_RETURN_NOT_OK(ExpectSym(Sym::kDollar, "'$'"));
      FlworExpr::Clause clause;
      clause.type = is_for ? FlworExpr::Clause::Type::kFor
                           : FlworExpr::Clause::Type::kLet;
      XQP_ASSIGN_OR_RETURN(clause.var, ReadQName(false));
      // Optional type declaration (accepted, dynamic checking only).
      XQP_ASSIGN_OR_RETURN(bool as, AcceptKw(Kw::kAs));
      if (as) {
        XQP_RETURN_NOT_OK(ParseSequenceType().status());
      }
      if (is_for) {
        XQP_ASSIGN_OR_RETURN(bool at, AcceptKw(Kw::kAt));
        if (at) {
          XQP_RETURN_NOT_OK(ExpectSym(Sym::kDollar, "'$'"));
          XQP_ASSIGN_OR_RETURN(clause.pos_var, ReadQName(false));
        }
        XQP_RETURN_NOT_OK(ExpectKw(Kw::kIn));
      } else {
        XQP_RETURN_NOT_OK(ExpectSym(Sym::kAssign, "':='"));
      }
      XQP_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSingle());
      flwor->clauses.push_back(std::move(clause));
      flwor->AddChild(std::move(e));
      XQP_ASSIGN_OR_RETURN(bool comma, AcceptSym(Sym::kComma));
      if (!comma) break;
    }
  }
  if (flwor->clauses.empty()) {
    return lex_.Error("FLWOR expression requires at least one for/let clause");
  }
  // where clause.
  XQP_ASSIGN_OR_RETURN(bool where, AcceptKw(Kw::kWhere));
  if (where) {
    FlworExpr::Clause clause;
    clause.type = FlworExpr::Clause::Type::kWhere;
    XQP_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSingle());
    flwor->clauses.push_back(std::move(clause));
    flwor->AddChild(std::move(e));
  }
  // order by.
  XQP_ASSIGN_OR_RETURN(bool stable, AcceptKw(Kw::kStable));
  XQP_ASSIGN_OR_RETURN(bool order, AcceptKw(Kw::kOrder));
  if (stable && !order) return lex_.Error("expected 'order' after 'stable'");
  if (order) {
    XQP_RETURN_NOT_OK(ExpectKw(Kw::kBy));
    while (true) {
      FlworExpr::Clause clause;
      clause.type = FlworExpr::Clause::Type::kOrderSpec;
      XQP_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSingle());
      XQP_ASSIGN_OR_RETURN(bool desc, AcceptKw(Kw::kDescending));
      if (!desc) {
        XQP_RETURN_NOT_OK(AcceptKw(Kw::kAscending).status());
      }
      clause.descending = desc;
      XQP_ASSIGN_OR_RETURN(bool empty_kw, AcceptKw(Kw::kEmpty));
      if (empty_kw) {
        XQP_ASSIGN_OR_RETURN(bool greatest, AcceptKw(Kw::kGreatest));
        if (!greatest) XQP_RETURN_NOT_OK(ExpectKw(Kw::kLeast));
        clause.empty_least = !greatest;
      }
      flwor->clauses.push_back(std::move(clause));
      flwor->AddChild(std::move(e));
      XQP_ASSIGN_OR_RETURN(bool comma, AcceptSym(Sym::kComma));
      if (!comma) break;
    }
  }
  XQP_RETURN_NOT_OK(ExpectKw(Kw::kReturn));
  XQP_ASSIGN_OR_RETURN(ExprPtr ret, ParseExprSingle());
  flwor->AddChild(std::move(ret));
  return ExprPtr(std::move(flwor));
}

Result<ExprPtr> Parser::ParseQuantified() {
  XQP_ASSIGN_OR_RETURN(Tok kw, lex_.Take());
  auto quant = std::make_unique<QuantifiedExpr>(kw.IsKw(Kw::kEvery));
  while (true) {
    XQP_RETURN_NOT_OK(ExpectSym(Sym::kDollar, "'$'"));
    QuantifiedExpr::Binding binding;
    XQP_ASSIGN_OR_RETURN(binding.var, ReadQName(false));
    XQP_ASSIGN_OR_RETURN(bool as, AcceptKw(Kw::kAs));
    if (as) {
      XQP_RETURN_NOT_OK(ParseSequenceType().status());
    }
    XQP_RETURN_NOT_OK(ExpectKw(Kw::kIn));
    XQP_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSingle());
    quant->bindings.push_back(std::move(binding));
    quant->AddChild(std::move(e));
    XQP_ASSIGN_OR_RETURN(bool comma, AcceptSym(Sym::kComma));
    if (!comma) break;
  }
  XQP_RETURN_NOT_OK(ExpectKw(Kw::kSatisfies));
  XQP_ASSIGN_OR_RETURN(ExprPtr sat, ParseExprSingle());
  quant->AddChild(std::move(sat));
  return ExprPtr(std::move(quant));
}

Result<ExprPtr> Parser::ParseTypeswitch() {
  XQP_RETURN_NOT_OK(lex_.Skip());  // typeswitch
  XQP_RETURN_NOT_OK(ExpectSym(Sym::kLParen, "'('"));
  auto ts = std::make_unique<TypeswitchExpr>();
  XQP_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
  ts->AddChild(std::move(operand));
  XQP_RETURN_NOT_OK(ExpectSym(Sym::kRParen, "')'"));
  while (true) {
    XQP_ASSIGN_OR_RETURN(bool is_case, AcceptKw(Kw::kCase));
    if (!is_case) break;
    TypeswitchExpr::Case c;
    XQP_ASSIGN_OR_RETURN(bool dollar, AcceptSym(Sym::kDollar));
    if (dollar) {
      XQP_ASSIGN_OR_RETURN(c.var, ReadQName(false));
      XQP_RETURN_NOT_OK(ExpectKw(Kw::kAs));
    }
    XQP_ASSIGN_OR_RETURN(c.type, ParseSequenceType());
    XQP_RETURN_NOT_OK(ExpectKw(Kw::kReturn));
    XQP_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSingle());
    ts->cases.push_back(std::move(c));
    ts->AddChild(std::move(e));
  }
  if (ts->cases.empty()) {
    return lex_.Error("typeswitch requires at least one case");
  }
  XQP_RETURN_NOT_OK(ExpectKw(Kw::kDefault));
  XQP_ASSIGN_OR_RETURN(bool dollar, AcceptSym(Sym::kDollar));
  if (dollar) {
    XQP_ASSIGN_OR_RETURN(ts->default_var, ReadQName(false));
  }
  XQP_RETURN_NOT_OK(ExpectKw(Kw::kReturn));
  XQP_ASSIGN_OR_RETURN(ExprPtr def, ParseExprSingle());
  ts->AddChild(std::move(def));
  return ExprPtr(std::move(ts));
}

Result<ExprPtr> Parser::ParseIf() {
  XQP_RETURN_NOT_OK(lex_.Skip());  // if
  XQP_RETURN_NOT_OK(ExpectSym(Sym::kLParen, "'('"));
  XQP_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
  XQP_RETURN_NOT_OK(ExpectSym(Sym::kRParen, "')'"));
  XQP_RETURN_NOT_OK(ExpectKw(Kw::kThen));
  XQP_ASSIGN_OR_RETURN(ExprPtr then_e, ParseExprSingle());
  XQP_RETURN_NOT_OK(ExpectKw(Kw::kElse));
  XQP_ASSIGN_OR_RETURN(ExprPtr else_e, ParseExprSingle());
  return ExprPtr(std::make_unique<IfExpr>(std::move(cond), std::move(then_e),
                                          std::move(else_e)));
}

Result<ExprPtr> Parser::ParseOperators(uint8_t min_level) {
  XQP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  // Operators above `max_level` no longer apply to `lhs`: a left-
  // associative operator's right operand already took every tighter one,
  // and a non-associative or postfix operator also shuts out its own level.
  uint8_t max_level = kMaxOperatorLevel;
  while (true) {
    XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
    const Operator& op = OperatorOf(*t);
    if (op.level < min_level || op.level > max_level) return lhs;
    if (op.fixity == Fixity::kPostfix) {
      XQP_ASSIGN_OR_RETURN(bool second, PeekKw(op.second, 1));
      if (!second) return lhs;  // `instance` alone is a name, not `instance of`.
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_ASSIGN_OR_RETURN(lhs, ParseTypeOperator(op.type_op, std::move(lhs)));
      max_level = op.level - 1;
      continue;
    }
    XQP_RETURN_NOT_OK(lex_.Skip());
    XQP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseOperators(op.level + 1));
    lhs = op.build(op.code, std::move(lhs), std::move(rhs));
    max_level = op.fixity == Fixity::kLeft ? op.level : op.level - 1;
  }
}

Result<ExprPtr> Parser::ParseTypeOperator(TypeOp op, ExprPtr operand) {
  switch (op) {
    case TypeOp::kInstanceOf: {
      XQP_ASSIGN_OR_RETURN(SequenceType type, ParseSequenceType());
      return ExprPtr(
          std::make_unique<InstanceOfExpr>(std::move(operand), std::move(type)));
    }
    case TypeOp::kTreatAs: {
      XQP_ASSIGN_OR_RETURN(SequenceType type, ParseSequenceType());
      return ExprPtr(
          std::make_unique<TreatExpr>(std::move(operand), std::move(type)));
    }
    case TypeOp::kCastableAs: {
      XQP_ASSIGN_OR_RETURN(auto single, ParseSingleType());
      return ExprPtr(std::make_unique<CastableExpr>(
          std::move(operand), single.first, single.second));
    }
    case TypeOp::kCastAs: {
      XQP_ASSIGN_OR_RETURN(auto single, ParseSingleType());
      return ExprPtr(std::make_unique<CastExpr>(std::move(operand),
                                                single.first, single.second));
    }
  }
  return lex_.Error("unknown type operator");
}

Result<ExprPtr> Parser::ParseUnary() {
  bool negate = false;
  bool any = false;
  while (true) {
    XQP_ASSIGN_OR_RETURN(bool minus, AcceptSym(Sym::kMinus));
    if (minus) {
      negate = !negate;
      any = true;
      continue;
    }
    XQP_ASSIGN_OR_RETURN(bool plus, AcceptSym(Sym::kPlus));
    if (plus) {
      any = true;
      continue;
    }
    break;
  }
  XQP_ASSIGN_OR_RETURN(ExprPtr e, ParsePath());
  if (!any) return e;
  return ExprPtr(std::make_unique<UnaryExpr>(negate, std::move(e)));
}

Result<ExprPtr> Parser::ParsePath() {
  XQP_ASSIGN_OR_RETURN(bool slashslash, AcceptSym(Sym::kSlashSlash));
  if (slashslash) {
    // "//E" == root()/descendant-or-self::node()/E.
    ExprPtr root = std::make_unique<RootExpr>();
    ExprPtr dos = std::make_unique<StepExpr>(Axis::kDescendantOrSelf,
                                             NodeTest{});
    ExprPtr base =
        std::make_unique<PathExpr>(std::move(root), std::move(dos));
    XQP_ASSIGN_OR_RETURN(ExprPtr step, ParseStep());
    ExprPtr path = std::make_unique<PathExpr>(std::move(base), std::move(step));
    return ParseRelativePath(std::move(path));
  }
  XQP_ASSIGN_OR_RETURN(bool slash, AcceptSym(Sym::kSlash));
  if (slash) {
    ExprPtr root = std::make_unique<RootExpr>();
    // Standalone "/" selects the root.
    XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
    bool has_step =
        t->type == TokType::kNCName || t->IsSym(Sym::kStar) ||
        t->IsSym(Sym::kAt) || t->IsSym(Sym::kDot) || t->IsSym(Sym::kDotDot) ||
        t->IsSym(Sym::kDollar) || t->IsSym(Sym::kLParen);
    if (!has_step) return root;
    XQP_ASSIGN_OR_RETURN(ExprPtr step, ParseStep());
    ExprPtr path = std::make_unique<PathExpr>(std::move(root), std::move(step));
    return ParseRelativePath(std::move(path));
  }
  XQP_ASSIGN_OR_RETURN(ExprPtr first, ParseStep());
  return ParseRelativePath(std::move(first));
}

Result<ExprPtr> Parser::ParseRelativePath(ExprPtr lhs) {
  while (true) {
    XQP_ASSIGN_OR_RETURN(bool slashslash, AcceptSym(Sym::kSlashSlash));
    if (slashslash) {
      ExprPtr dos =
          std::make_unique<StepExpr>(Axis::kDescendantOrSelf, NodeTest{});
      lhs = std::make_unique<PathExpr>(std::move(lhs), std::move(dos));
      XQP_ASSIGN_OR_RETURN(ExprPtr step, ParseStep());
      lhs = std::make_unique<PathExpr>(std::move(lhs), std::move(step));
      continue;
    }
    XQP_ASSIGN_OR_RETURN(bool slash, AcceptSym(Sym::kSlash));
    if (slash) {
      XQP_ASSIGN_OR_RETURN(ExprPtr step, ParseStep());
      lhs = std::make_unique<PathExpr>(std::move(lhs), std::move(step));
      continue;
    }
    return lhs;
  }
}

Result<NodeTest> Parser::ParseKindTest(Kw keyword) {
  // Caller consumed `keyword` and "(".
  NodeTest test;
  if (keyword == Kw::kNode) {
    test.kind = NodeTest::Kind::kAnyKind;
  } else if (keyword == Kw::kText) {
    test.kind = NodeTest::Kind::kText;
  } else if (keyword == Kw::kComment) {
    test.kind = NodeTest::Kind::kComment;
  } else if (keyword == Kw::kDocumentNode) {
    test.kind = NodeTest::Kind::kDocument;
  } else if (keyword == Kw::kProcessingInstruction) {
    test.kind = NodeTest::Kind::kPi;
    XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
    if (t->type == TokType::kString) {
      XQP_ASSIGN_OR_RETURN(Tok s, lex_.Take());
      test.pi_target = s.text;
    } else if (t->type == TokType::kNCName) {
      XQP_ASSIGN_OR_RETURN(Tok s, lex_.Take());
      test.pi_target = s.text;
    }
  } else if (keyword == Kw::kElement || keyword == Kw::kAttribute) {
    test.kind = keyword == Kw::kElement ? NodeTest::Kind::kElement
                                        : NodeTest::Kind::kAttribute;
    test.wildcard_local = true;
    test.wildcard_uri = true;
    XQP_ASSIGN_OR_RETURN(bool star, AcceptSym(Sym::kStar));
    if (!star) {
      XQP_ASSIGN_OR_RETURN(bool close, PeekSym(Sym::kRParen));
      if (!close) {
        XQP_ASSIGN_OR_RETURN(QName name, ReadQName(keyword == Kw::kElement));
        test.wildcard_local = false;
        test.wildcard_uri = false;
        test.uri = name.uri;
        test.local = name.local;
        XQP_ASSIGN_OR_RETURN(bool comma, AcceptSym(Sym::kComma));
        if (comma) {
          XQP_RETURN_NOT_OK(ReadQName(false).status());  // Type ignored.
        }
      }
    }
  } else {
    return lex_.Error("unsupported kind test: " +
                      std::string(KeywordText(keyword)));
  }
  XQP_RETURN_NOT_OK(ExpectSym(Sym::kRParen, "')' in kind test"));
  return test;
}

Result<NodeTest> Parser::ParseNodeTest(Axis axis) {
  XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
  // "*" | "*:local"
  if (t->IsSym(Sym::kStar)) {
    XQP_ASSIGN_OR_RETURN(Tok star, lex_.Take());
    XQP_ASSIGN_OR_RETURN(const Tok* colon, lex_.Peek());
    if (colon->IsSym(Sym::kColon) && colon->pos == star.end) {
      XQP_ASSIGN_OR_RETURN(const Tok* local, lex_.Peek(1));
      if (local->type == TokType::kNCName && local->pos == colon->end) {
        XQP_RETURN_NOT_OK(lex_.Skip());
        XQP_ASSIGN_OR_RETURN(Tok local_tok, lex_.Take());
        NodeTest test;
        test.kind = NodeTest::Kind::kName;
        test.wildcard_uri = true;
        test.local = local_tok.text;
        return test;
      }
    }
    return NodeTest::AnyName();
  }
  if (t->type != TokType::kNCName) {
    return lex_.Error("expected a node test");
  }
  // Kind tests.
  XQP_ASSIGN_OR_RETURN(const Tok* paren, lex_.Peek(1));
  if (paren->IsSym(Sym::kLParen) && IsKindTestName(t->kw) &&
      t->kw != Kw::kItem && t->kw != Kw::kEmptySequence) {
    XQP_ASSIGN_OR_RETURN(Tok kw, lex_.Take());
    XQP_RETURN_NOT_OK(lex_.Skip());  // '('
    return ParseKindTest(kw.kw);
  }
  // Name test: QName | NCName":*".
  XQP_ASSIGN_OR_RETURN(Tok first, lex_.Take());
  XQP_ASSIGN_OR_RETURN(const Tok* colon, lex_.Peek());
  if (colon->IsSym(Sym::kColon) && colon->pos == first.end) {
    XQP_ASSIGN_OR_RETURN(const Tok* after, lex_.Peek(1));
    if (after->IsSym(Sym::kStar) && after->pos == colon->end) {
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_ASSIGN_OR_RETURN(std::string uri, ResolvePrefix(first.text, false));
      NodeTest test;
      test.kind = NodeTest::Kind::kName;
      test.wildcard_local = true;
      test.uri = std::move(uri);
      return test;
    }
    if (after->type == TokType::kNCName && after->pos == colon->end) {
      XQP_RETURN_NOT_OK(lex_.Skip());
      XQP_ASSIGN_OR_RETURN(Tok local, lex_.Take());
      XQP_ASSIGN_OR_RETURN(std::string uri, ResolvePrefix(first.text, false));
      return NodeTest::Name(std::move(uri), std::move(local.text));
    }
  }
  // Unprefixed name: default element namespace applies to element tests
  // (all axes except attribute).
  std::string uri;
  if (axis != Axis::kAttribute) {
    XQP_ASSIGN_OR_RETURN(uri, ResolvePrefix("", true));
  }
  return NodeTest::Name(std::move(uri), std::move(first.text));
}

Result<ExprPtr> Parser::ParseStep() {
  XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());

  // Abbreviations.
  if (t->IsSym(Sym::kDotDot)) {
    XQP_RETURN_NOT_OK(lex_.Skip());
    ExprPtr step = std::make_unique<StepExpr>(Axis::kParent, NodeTest{});
    return ParsePredicates(std::move(step));
  }
  if (t->IsSym(Sym::kAt)) {
    XQP_RETURN_NOT_OK(lex_.Skip());
    XQP_ASSIGN_OR_RETURN(NodeTest test, ParseNodeTest(Axis::kAttribute));
    ExprPtr step = std::make_unique<StepExpr>(Axis::kAttribute, std::move(test));
    return ParsePredicates(std::move(step));
  }

  // axis::test
  if (t->type == TokType::kNCName) {
    XQP_ASSIGN_OR_RETURN(const Tok* cc, lex_.Peek(1));
    if (cc->IsSym(Sym::kColonColon)) {
      static const std::pair<std::string_view, Axis> kAxes[] = {
          {"child", Axis::kChild},
          {"descendant", Axis::kDescendant},
          {"descendant-or-self", Axis::kDescendantOrSelf},
          {"descendants", Axis::kDescendant},  // Paper-era spelling.
          {"self", Axis::kSelf},
          {"attribute", Axis::kAttribute},
          {"parent", Axis::kParent},
          {"ancestor", Axis::kAncestor},
          {"ancestors", Axis::kAncestor},
          {"ancestor-or-self", Axis::kAncestorOrSelf},
          {"following-sibling", Axis::kFollowingSibling},
          {"preceding-sibling", Axis::kPrecedingSibling},
          {"following", Axis::kFollowing},
          {"preceding", Axis::kPreceding},
      };
      for (const auto& [name, axis] : kAxes) {
        if (t->text == name) {
          XQP_RETURN_NOT_OK(lex_.Skip());
          XQP_RETURN_NOT_OK(lex_.Skip());
          XQP_ASSIGN_OR_RETURN(NodeTest test, ParseNodeTest(axis));
          ExprPtr step = std::make_unique<StepExpr>(axis, std::move(test));
          return ParsePredicates(std::move(step));
        }
      }
      return lex_.Error("unknown axis: " + t->text);
    }
    // Name test => child axis step, unless this is a function call, a kind
    // test, a computed constructor, or a direct constructor context.
    XQP_ASSIGN_OR_RETURN(bool computed, LooksLikeComputedCtor());
    if (!computed) {
      XQP_ASSIGN_OR_RETURN(const Tok* paren, lex_.Peek(1));
      bool call_like = paren->IsSym(Sym::kLParen);
      // Prefixed function name? NCName ":" NCName "(".
      bool prefixed_call = false;
      if (paren->IsSym(Sym::kColon) && paren->pos == t->end) {
        XQP_ASSIGN_OR_RETURN(const Tok* nn, lex_.Peek(2));
        if (nn->type == TokType::kNCName && nn->pos == paren->end) {
          XQP_ASSIGN_OR_RETURN(const Tok* pp, lex_.Peek(3));
          prefixed_call = pp->IsSym(Sym::kLParen);
        }
      }
      if (call_like || prefixed_call) {
        if (call_like && IsKindTestName(t->kw)) {
          // Kind test as a step (child axis).
          XQP_ASSIGN_OR_RETURN(NodeTest test, ParseNodeTest(Axis::kChild));
          Axis axis = test.kind == NodeTest::Kind::kAttribute
                          ? Axis::kAttribute
                          : Axis::kChild;
          ExprPtr step = std::make_unique<StepExpr>(axis, std::move(test));
          return ParsePredicates(std::move(step));
        }
        XQP_ASSIGN_OR_RETURN(ExprPtr call, ParseFunctionCall());
        return ParsePredicates(std::move(call));
      }
      XQP_ASSIGN_OR_RETURN(NodeTest test, ParseNodeTest(Axis::kChild));
      ExprPtr step = std::make_unique<StepExpr>(Axis::kChild, std::move(test));
      return ParsePredicates(std::move(step));
    }
  }
  if (t->IsSym(Sym::kStar)) {
    XQP_ASSIGN_OR_RETURN(NodeTest test, ParseNodeTest(Axis::kChild));
    ExprPtr step = std::make_unique<StepExpr>(Axis::kChild, std::move(test));
    return ParsePredicates(std::move(step));
  }

  // Otherwise: primary expression (possibly filtered).
  XQP_ASSIGN_OR_RETURN(ExprPtr primary, ParsePrimary());
  return ParsePredicates(std::move(primary));
}

Result<ExprPtr> Parser::ParsePredicates(ExprPtr base) {
  XQP_ASSIGN_OR_RETURN(bool bracket, PeekSym(Sym::kLBracket));
  if (!bracket) return base;
  auto filter = std::make_unique<FilterExpr>(std::move(base));
  while (true) {
    XQP_ASSIGN_OR_RETURN(bool open, AcceptSym(Sym::kLBracket));
    if (!open) break;
    XQP_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
    XQP_RETURN_NOT_OK(ExpectSym(Sym::kRBracket, "']'"));
    filter->AddChild(std::move(pred));
  }
  return ExprPtr(std::move(filter));
}

Result<bool> Parser::LooksLikeComputedCtor() {
  XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
  if (t->type != TokType::kNCName) return false;
  bool named_kind = t->kw == Kw::kElement || t->kw == Kw::kAttribute ||
                    t->kw == Kw::kProcessingInstruction;
  bool unnamed_kind = t->kw == Kw::kText || t->kw == Kw::kComment ||
                      t->kw == Kw::kDocument;
  if (!named_kind && !unnamed_kind) return false;
  XQP_ASSIGN_OR_RETURN(const Tok* next, lex_.Peek(1));
  if (next->IsSym(Sym::kLBrace)) return true;  // computed name or content
  if (named_kind && next->type == TokType::kNCName) {
    // element name { ... } — possibly with a prefixed name.
    XQP_ASSIGN_OR_RETURN(const Tok* after, lex_.Peek(2));
    if (after->IsSym(Sym::kLBrace)) return true;
    if (after->IsSym(Sym::kColon) && after->pos == next->end) {
      XQP_ASSIGN_OR_RETURN(const Tok* local, lex_.Peek(3));
      if (local->type == TokType::kNCName && local->pos == after->end) {
        XQP_ASSIGN_OR_RETURN(const Tok* brace, lex_.Peek(4));
        if (brace->IsSym(Sym::kLBrace)) return true;
      }
    }
  }
  return false;
}

Result<ExprPtr> Parser::ParseEnclosedExpr() {
  XQP_RETURN_NOT_OK(ExpectSym(Sym::kLBrace, "'{'"));
  XQP_ASSIGN_OR_RETURN(bool empty, AcceptSym(Sym::kRBrace));
  if (empty) return ExprPtr(std::make_unique<SequenceExpr>());
  XQP_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
  XQP_RETURN_NOT_OK(ExpectSym(Sym::kRBrace, "'}'"));
  return e;
}

Result<ExprPtr> Parser::ParseComputedConstructor() {
  XQP_ASSIGN_OR_RETURN(Tok kw, lex_.Take());
  if (kw.IsKw(Kw::kElement) || kw.IsKw(Kw::kAttribute)) {
    bool is_element = kw.IsKw(Kw::kElement);
    bool computed_name = false;
    QName name;
    ExprPtr name_expr;
    XQP_ASSIGN_OR_RETURN(bool brace, PeekSym(Sym::kLBrace));
    if (brace) {
      computed_name = true;
      XQP_ASSIGN_OR_RETURN(name_expr, ParseEnclosedExpr());
    } else {
      XQP_ASSIGN_OR_RETURN(name, ReadQName(is_element));
    }
    XQP_ASSIGN_OR_RETURN(ExprPtr content, ParseEnclosedExpr());
    if (is_element) {
      auto ctor = std::make_unique<ElementCtorExpr>();
      ctor->computed_name = computed_name;
      ctor->name = std::move(name);
      if (computed_name) ctor->AddChild(std::move(name_expr));
      ctor->AddChild(std::move(content));
      return ExprPtr(std::move(ctor));
    }
    auto ctor = std::make_unique<AttributeCtorExpr>();
    ctor->computed_name = computed_name;
    ctor->name = std::move(name);
    if (computed_name) ctor->AddChild(std::move(name_expr));
    ctor->AddChild(std::move(content));
    return ExprPtr(std::move(ctor));
  }
  if (kw.IsKw(Kw::kText)) {
    XQP_ASSIGN_OR_RETURN(ExprPtr content, ParseEnclosedExpr());
    return ExprPtr(std::make_unique<TextCtorExpr>(std::move(content)));
  }
  if (kw.IsKw(Kw::kComment)) {
    XQP_ASSIGN_OR_RETURN(ExprPtr content, ParseEnclosedExpr());
    return ExprPtr(std::make_unique<CommentCtorExpr>(std::move(content)));
  }
  if (kw.IsKw(Kw::kDocument)) {
    XQP_ASSIGN_OR_RETURN(ExprPtr content, ParseEnclosedExpr());
    return ExprPtr(std::make_unique<DocumentCtorExpr>(std::move(content)));
  }
  if (kw.IsKw(Kw::kProcessingInstruction)) {
    auto ctor = std::make_unique<PiCtorExpr>();
    XQP_ASSIGN_OR_RETURN(Tok name, lex_.Take());
    if (name.type != TokType::kNCName) {
      return lex_.Error("expected processing-instruction target");
    }
    ctor->target = name.text;
    XQP_ASSIGN_OR_RETURN(ExprPtr content, ParseEnclosedExpr());
    ctor->AddChild(std::move(content));
    return ExprPtr(std::move(ctor));
  }
  return lex_.Error("unknown computed constructor: " + kw.text);
}

Result<ExprPtr> Parser::ParseFunctionCall() {
  XQP_ASSIGN_OR_RETURN(auto parts, ReadLexicalQName());
  std::string uri;
  if (parts.first.empty()) {
    uri = module_->sctx.default_function_ns();
  } else {
    XQP_ASSIGN_OR_RETURN(uri, ResolvePrefix(parts.first, false));
  }
  auto call = std::make_unique<FunctionCallExpr>(
      QName(std::move(uri), parts.first, parts.second));
  XQP_RETURN_NOT_OK(ExpectSym(Sym::kLParen, "'('"));
  XQP_ASSIGN_OR_RETURN(bool empty, AcceptSym(Sym::kRParen));
  if (!empty) {
    while (true) {
      XQP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExprSingle());
      call->AddChild(std::move(arg));
      XQP_ASSIGN_OR_RETURN(bool comma, AcceptSym(Sym::kComma));
      if (!comma) break;
    }
    XQP_RETURN_NOT_OK(ExpectSym(Sym::kRParen, "')'"));
  }
  return ExprPtr(std::move(call));
}

Result<ExprPtr> Parser::ParsePrimary() {
  XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
  switch (t->type) {
    case TokType::kInteger: {
      XQP_ASSIGN_OR_RETURN(Tok tok, lex_.Take());
      return ExprPtr(
          std::make_unique<LiteralExpr>(AtomicValue::Integer(tok.ival)));
    }
    case TokType::kDecimal: {
      XQP_ASSIGN_OR_RETURN(Tok tok, lex_.Take());
      return ExprPtr(
          std::make_unique<LiteralExpr>(AtomicValue::Decimal(tok.dval)));
    }
    case TokType::kDouble: {
      XQP_ASSIGN_OR_RETURN(Tok tok, lex_.Take());
      return ExprPtr(
          std::make_unique<LiteralExpr>(AtomicValue::Double(tok.dval)));
    }
    case TokType::kString: {
      XQP_ASSIGN_OR_RETURN(Tok tok, lex_.Take());
      return ExprPtr(
          std::make_unique<LiteralExpr>(AtomicValue::String(tok.text)));
    }
    default:
      break;
  }
  if (t->IsSym(Sym::kDollar)) {
    XQP_RETURN_NOT_OK(lex_.Skip());
    XQP_ASSIGN_OR_RETURN(QName name, ReadQName(false));
    return ExprPtr(std::make_unique<VarRefExpr>(std::move(name)));
  }
  if (t->IsSym(Sym::kDot)) {
    XQP_RETURN_NOT_OK(lex_.Skip());
    return ExprPtr(std::make_unique<ContextItemExpr>());
  }
  if (t->IsSym(Sym::kLParen)) {
    XQP_RETURN_NOT_OK(lex_.Skip());
    XQP_ASSIGN_OR_RETURN(bool empty, AcceptSym(Sym::kRParen));
    if (empty) return ExprPtr(std::make_unique<SequenceExpr>());
    XQP_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    XQP_RETURN_NOT_OK(ExpectSym(Sym::kRParen, "')'"));
    return e;
  }
  if (t->IsSym(Sym::kLt)) {
    return ParseDirectConstructor();
  }
  if (t->type == TokType::kNCName) {
    XQP_ASSIGN_OR_RETURN(bool computed, LooksLikeComputedCtor());
    if (computed) return ParseComputedConstructor();
    if (t->IsKw(Kw::kValidate)) {
      return lex_.Error(
          "schema validation is not supported (optional XQuery feature)");
    }
    if (t->IsKw(Kw::kOrdered) || t->IsKw(Kw::kUnordered)) {
      XQP_ASSIGN_OR_RETURN(const Tok* next, lex_.Peek(1));
      if (next->IsSym(Sym::kLBrace)) {
        XQP_RETURN_NOT_OK(lex_.Skip());
        return ParseEnclosedExpr();  // Treated as a no-op wrapper.
      }
    }
    // Fall back to a function call.
    return ParseFunctionCall();
  }
  return lex_.Error("unexpected token in expression");
}

// ---------------------------------------------------------------------------
// Direct constructors (character-level parsing)
// ---------------------------------------------------------------------------

Result<ExprPtr> Parser::ParseDirectConstructor() {
  // Reposition the scanner at '<'.
  XQP_ASSIGN_OR_RETURN(const Tok* lt, lex_.Peek());
  lex_.SetPos(lt->pos);
  if (lex_.PeekChar() != '<') return lex_.Error("expected '<'");
  lex_.AdvanceChars(1);

  // Element name.
  auto read_name = [&]() -> Result<std::pair<std::string, std::string>> {
    size_t start = 0;
    std::string raw;
    (void)start;
    if (!IsNameStartChar(lex_.PeekChar())) {
      return lex_.Error("expected element name");
    }
    while (IsNameChar(lex_.PeekChar()) || lex_.PeekChar() == ':') {
      raw.push_back(lex_.PeekChar());
      lex_.AdvanceChars(1);
    }
    std::string_view prefix, local;
    SplitQName(raw, &prefix, &local);
    return std::make_pair(std::string(prefix), std::string(local));
  };
  auto skip_ws = [&]() {
    while (IsXmlWhitespace(lex_.PeekChar())) lex_.AdvanceChars(1);
  };

  XQP_ASSIGN_OR_RETURN(auto tag_parts, read_name());

  auto ctor = std::make_unique<ElementCtorExpr>();
  ctor_ns_.emplace_back();

  // Attributes: collect raw (namespace decls first).
  struct RawAttr {
    std::string prefix, local;
    std::vector<ExprPtr> parts;  // Literal + enclosed alternating.
    std::string literal_value;   // When fully literal.
    bool fully_literal = true;
  };
  std::vector<RawAttr> attrs;
  bool self_closing = false;
  while (true) {
    skip_ws();
    if (lex_.AtEnd()) return lex_.Error("unterminated direct constructor");
    if (lex_.PeekChar() == '>') {
      lex_.AdvanceChars(1);
      break;
    }
    if (lex_.PeekChar() == '/' && lex_.PeekChar(1) == '>') {
      lex_.AdvanceChars(2);
      self_closing = true;
      break;
    }
    RawAttr attr;
    {
      XQP_ASSIGN_OR_RETURN(auto parts, read_name());
      attr.prefix = parts.first;
      attr.local = parts.second;
    }
    skip_ws();
    if (lex_.PeekChar() != '=') return lex_.Error("expected '='");
    lex_.AdvanceChars(1);
    skip_ws();
    char quote = lex_.PeekChar();
    if (quote != '"' && quote != '\'') {
      return lex_.Error("expected quoted attribute value");
    }
    lex_.AdvanceChars(1);
    std::string literal;
    while (true) {
      char c = lex_.PeekChar();
      if (c == '\0') return lex_.Error("unterminated attribute value");
      if (c == quote) {
        if (lex_.PeekChar(1) == quote) {  // Doubled quote escape.
          literal.push_back(quote);
          lex_.AdvanceChars(2);
          continue;
        }
        lex_.AdvanceChars(1);
        break;
      }
      if (c == '{') {
        if (lex_.PeekChar(1) == '{') {
          literal.push_back('{');
          lex_.AdvanceChars(2);
          continue;
        }
        // Embedded expression.
        if (!literal.empty()) {
          attr.parts.push_back(std::make_unique<LiteralExpr>(
              AtomicValue::String(literal)));
          literal.clear();
        }
        attr.fully_literal = false;
        lex_.AdvanceChars(1);
        size_t resume = lex_.CharPos();
        lex_.SetPos(resume);
        XQP_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        XQP_ASSIGN_OR_RETURN(const Tok* rb, lex_.Peek());
        if (!rb->IsSym(Sym::kRBrace)) return lex_.Error("expected '}'");
        size_t after = rb->end;
        XQP_RETURN_NOT_OK(lex_.Skip());
        lex_.SetPos(after);
        attr.parts.push_back(std::move(e));
        continue;
      }
      if (c == '}') {
        if (lex_.PeekChar(1) == '}') {
          literal.push_back('}');
          lex_.AdvanceChars(2);
          continue;
        }
        return lex_.Error("unescaped '}' in attribute value");
      }
      if (c == '&') {
        Result<size_t> used = DecodeReference(
            lex_.input().substr(lex_.CharPos() + 1), &literal);
        if (!used.ok()) return lex_.Error(used.status().message());
        lex_.AdvanceChars(1 + used.value());
        continue;
      }
      literal.push_back(c);
      lex_.AdvanceChars(1);
    }
    if (!literal.empty() || (attr.parts.empty() && attr.fully_literal)) {
      if (attr.fully_literal) {
        attr.literal_value = literal;
      } else {
        attr.parts.push_back(
            std::make_unique<LiteralExpr>(AtomicValue::String(literal)));
      }
    }
    attrs.push_back(std::move(attr));
  }

  // Register namespace declarations before resolving names.
  for (const RawAttr& a : attrs) {
    bool is_default_ns = a.prefix.empty() && a.local == "xmlns";
    bool is_prefixed_ns = a.prefix == "xmlns";
    if (is_default_ns || is_prefixed_ns) {
      if (!a.fully_literal) {
        ctor_ns_.pop_back();
        return lex_.Error("namespace declaration value must be literal");
      }
      std::string prefix = is_default_ns ? "" : a.local;
      ctor_ns_.back().emplace_back(prefix, a.literal_value);
      ctor->ns_decls.push_back(
          ElementCtorExpr::NsDecl{prefix, a.literal_value});
    }
  }

  // Resolve the element name.
  {
    auto uri = ResolvePrefix(tag_parts.first, true);
    if (!uri.ok()) {
      ctor_ns_.pop_back();
      return uri.status();
    }
    ctor->name = QName(std::move(uri).value(), tag_parts.first,
                       tag_parts.second);
  }

  // Attribute constructors.
  for (RawAttr& a : attrs) {
    bool is_ns = (a.prefix.empty() && a.local == "xmlns") || a.prefix == "xmlns";
    if (is_ns) continue;
    auto attr_ctor = std::make_unique<AttributeCtorExpr>();
    auto uri = a.prefix.empty() ? Result<std::string>(std::string())
                                : ResolvePrefix(a.prefix, false);
    if (!uri.ok()) {
      ctor_ns_.pop_back();
      return uri.status();
    }
    attr_ctor->name = QName(std::move(uri).value(), a.prefix, a.local);
    if (a.fully_literal) {
      attr_ctor->AddChild(std::make_unique<LiteralExpr>(
          AtomicValue::String(a.literal_value)));
    } else {
      for (ExprPtr& p : a.parts) attr_ctor->AddChild(std::move(p));
    }
    ctor->AddChild(std::move(attr_ctor));
  }

  if (self_closing) {
    ctor_ns_.pop_back();
    // Resume token scanning after the tag.
    lex_.SetPos(lex_.CharPos());
    return ExprPtr(std::move(ctor));
  }

  // Content.
  std::string text;
  auto flush_text = [&](bool at_boundary) {
    if (text.empty()) return;
    bool keep = !IsAllXmlWhitespace(text) ||
                module_->sctx.boundary_space_preserve();
    if (keep) {
      ctor->AddChild(std::make_unique<TextCtorExpr>(
          std::make_unique<LiteralExpr>(AtomicValue::String(text))));
    }
    text.clear();
    (void)at_boundary;
  };

  while (true) {
    char c = lex_.PeekChar();
    if (c == '\0') {
      ctor_ns_.pop_back();
      return lex_.Error("unterminated element constructor");
    }
    if (c == '<') {
      if (lex_.PeekChar(1) == '/') {
        flush_text(true);
        lex_.AdvanceChars(2);
        XQP_ASSIGN_OR_RETURN(auto end_parts, read_name());
        skip_ws();
        if (lex_.PeekChar() != '>') {
          ctor_ns_.pop_back();
          return lex_.Error("expected '>' in end tag");
        }
        lex_.AdvanceChars(1);
        if (end_parts.second != tag_parts.second ||
            end_parts.first != tag_parts.first) {
          ctor_ns_.pop_back();
          return lex_.Error("mismatched end tag </" + end_parts.second + ">");
        }
        break;
      }
      if (lex_.LookingAt("<!--")) {
        flush_text(false);
        lex_.AdvanceChars(4);
        std::string comment;
        while (!lex_.LookingAt("-->")) {
          if (lex_.AtEnd()) {
            ctor_ns_.pop_back();
            return lex_.Error("unterminated comment");
          }
          comment.push_back(lex_.PeekChar());
          lex_.AdvanceChars(1);
        }
        lex_.AdvanceChars(3);
        ctor->AddChild(std::make_unique<CommentCtorExpr>(
            std::make_unique<LiteralExpr>(AtomicValue::String(comment))));
        continue;
      }
      if (lex_.LookingAt("<![CDATA[")) {
        lex_.AdvanceChars(9);
        while (!lex_.LookingAt("]]>")) {
          if (lex_.AtEnd()) {
            ctor_ns_.pop_back();
            return lex_.Error("unterminated CDATA");
          }
          text.push_back(lex_.PeekChar());
          lex_.AdvanceChars(1);
        }
        lex_.AdvanceChars(3);
        continue;
      }
      if (lex_.LookingAt("<?")) {
        flush_text(false);
        lex_.AdvanceChars(2);
        XQP_ASSIGN_OR_RETURN(auto pi_parts, read_name());
        if (pi_parts.first.empty() && IsReservedPiTarget(pi_parts.second)) {
          ctor_ns_.pop_back();
          return lex_.Error(
              "err:XPST0003: processing-instruction target may not be 'xml'");
        }
        std::string data;
        skip_ws();
        while (!lex_.LookingAt("?>")) {
          if (lex_.AtEnd()) {
            ctor_ns_.pop_back();
            return lex_.Error("unterminated processing instruction");
          }
          data.push_back(lex_.PeekChar());
          lex_.AdvanceChars(1);
        }
        lex_.AdvanceChars(2);
        auto pi = std::make_unique<PiCtorExpr>();
        pi->target = pi_parts.second;
        pi->AddChild(
            std::make_unique<LiteralExpr>(AtomicValue::String(data)));
        ctor->AddChild(std::move(pi));
        continue;
      }
      // Nested element constructor.
      flush_text(false);
      lex_.SetPos(lex_.CharPos());
      XQP_ASSIGN_OR_RETURN(ExprPtr nested, ParseDirectConstructor());
      ctor->AddChild(std::move(nested));
      // ParseDirectConstructor resynchronized the lexer; drop back to chars.
      lex_.SetPos(lex_.CharPos());
      continue;
    }
    if (c == '{') {
      if (lex_.PeekChar(1) == '{') {
        text.push_back('{');
        lex_.AdvanceChars(2);
        continue;
      }
      flush_text(false);
      lex_.AdvanceChars(1);
      lex_.SetPos(lex_.CharPos());
      XQP_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      XQP_ASSIGN_OR_RETURN(const Tok* rb, lex_.Peek());
      if (!rb->IsSym(Sym::kRBrace)) {
        ctor_ns_.pop_back();
        return lex_.Error("expected '}' after enclosed expression");
      }
      size_t after = rb->end;
      XQP_RETURN_NOT_OK(lex_.Skip());
      lex_.SetPos(after);
      ctor->AddChild(std::move(e));
      continue;
    }
    if (c == '}') {
      if (lex_.PeekChar(1) == '}') {
        text.push_back('}');
        lex_.AdvanceChars(2);
        continue;
      }
      ctor_ns_.pop_back();
      return lex_.Error("unescaped '}' in element content");
    }
    if (c == '&') {
      Result<size_t> used = DecodeReference(
          lex_.input().substr(lex_.CharPos() + 1), &text);
      if (!used.ok()) {
        ctor_ns_.pop_back();
        return lex_.Error(used.status().message());
      }
      lex_.AdvanceChars(1 + used.value());
      continue;
    }
    text.push_back(c);
    lex_.AdvanceChars(1);
  }

  ctor_ns_.pop_back();
  // Resynchronize token scanning after the constructor.
  lex_.SetPos(lex_.CharPos());
  return ExprPtr(std::move(ctor));
}

// ---------------------------------------------------------------------------

Result<std::unique_ptr<ParsedModule>> Parser::ParseModule() {
  module_ = std::make_unique<ParsedModule>();
  XQP_RETURN_NOT_OK(ParseProlog());
  XQP_ASSIGN_OR_RETURN(module_->body, ParseExpr());
  XQP_ASSIGN_OR_RETURN(const Tok* t, lex_.Peek());
  if (t->type != TokType::kEof) {
    return lex_.Error("unexpected trailing content after query");
  }
  return std::move(module_);
}

}  // namespace

Result<std::unique_ptr<ParsedModule>> ParseQuery(std::string_view query,
                                                 uint32_t max_expr_depth) {
  Parser parser(query, max_expr_depth);
  return parser.ParseModule();
}

Result<std::unique_ptr<ParsedModule>> ParseQuery(std::string_view query) {
  return ParseQuery(query, 0);
}

}  // namespace xqp
