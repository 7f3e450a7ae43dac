#ifndef XQP_QUERY_LEXER_H_
#define XQP_QUERY_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"

namespace xqp {

/// Token types of the XQuery lexer. XQuery has no reserved words, so
/// keywords surface as kNCName and are recognized contextually by the
/// parser (through the token's Kw code).
enum class TokType : uint8_t {
  kEof,
  kNCName,
  kInteger,
  kDecimal,
  kDouble,
  kString,
  kSymbol,
};

enum class Sym : uint8_t {
  kNone,
  kLParen, kRParen, kLBracket, kRBracket, kLBrace, kRBrace,
  kComma, kSemicolon, kColon, kColonColon, kDollar, kAt,
  kDot, kDotDot, kSlash, kSlashSlash, kStar, kPlus, kMinus,
  kEq, kNe, kLt, kLe, kGt, kGe, kLtLt, kGtGt,
  kPipe, kAssign, kQuestion,
  kCount,
};

/// Every NCName the grammar gives a meaning to somewhere, as
/// (enumerator, spelling). XQuery reserves none of them: a keyword code only
/// says what a name *could* mean, and the parser decides from context
/// whether it does (`div div div` is a division of two child steps).
#define XQP_QUERY_KEYWORDS(X)                                              \
  X(kAnd, "and") X(kAs, "as") X(kAscending, "ascending") X(kAt, "at")      \
  X(kAttribute, "attribute") X(kBoundarySpace, "boundary-space")           \
  X(kBy, "by") X(kCase, "case") X(kCast, "cast") X(kCastable, "castable")  \
  X(kCatch, "catch") X(kComment, "comment") X(kDeclare, "declare")         \
  X(kDefault, "default") X(kDefine, "define") X(kDescending, "descending") \
  X(kDiv, "div") X(kDocument, "document") X(kDocumentNode, "document-node") \
  X(kElement, "element") X(kElse, "else") X(kEmpty, "empty")               \
  X(kEmptySequence, "empty-sequence") X(kEq, "eq") X(kEvery, "every")      \
  X(kExcept, "except") X(kExternal, "external") X(kFor, "for")             \
  X(kFunction, "function") X(kGe, "ge") X(kGreatest, "greatest")           \
  X(kGt, "gt") X(kIdiv, "idiv") X(kIf, "if") X(kImport, "import")          \
  X(kIn, "in") X(kInstance, "instance") X(kIntersect, "intersect")         \
  X(kIs, "is") X(kIsnot, "isnot") X(kItem, "item") X(kLe, "le")            \
  X(kLeast, "least") X(kLet, "let") X(kLt, "lt") X(kMod, "mod")            \
  X(kNamespace, "namespace") X(kNe, "ne") X(kNode, "node") X(kOf, "of")    \
  X(kOr, "or") X(kOrder, "order") X(kOrdered, "ordered")                   \
  X(kPreserve, "preserve")                                                 \
  X(kProcessingInstruction, "processing-instruction")                      \
  X(kReturn, "return") X(kSatisfies, "satisfies") X(kSome, "some")         \
  X(kStable, "stable") X(kStrip, "strip") X(kText, "text") X(kThen, "then") \
  X(kTo, "to") X(kTreat, "treat") X(kTry, "try")                           \
  X(kTypeswitch, "typeswitch") X(kUnion, "union")                          \
  X(kUnordered, "unordered") X(kValidate, "validate")                      \
  X(kVariable, "variable") X(kWhere, "where")

enum class Kw : uint8_t {
  kNone,
#define XQP_KW_ENUM(id, text) id,
  XQP_QUERY_KEYWORDS(XQP_KW_ENUM)
#undef XQP_KW_ENUM
  kCount,
};

/// The keyword code of an NCName (Kw::kNone for any other name).
Kw KeywordOf(std::string_view name);

/// The spelling of a keyword code.
std::string_view KeywordText(Kw kw);

struct Tok {
  TokType type = TokType::kEof;
  Sym sym = Sym::kNone;
  Kw kw = Kw::kNone;  // kNCName: the name's keyword code, classified once.
  std::string text;   // NCName text or decoded string literal.
  int64_t ival = 0;   // kInteger.
  double dval = 0;    // kDecimal / kDouble.
  size_t pos = 0;     // Byte offset of the first character.
  size_t end = 0;     // Byte offset one past the last character.
  size_t line = 1;
  size_t column = 1;

  bool IsSym(Sym s) const { return type == TokType::kSymbol && sym == s; }
  bool IsName(std::string_view name) const {
    return type == TokType::kNCName && text == name;
  }
  /// Only NCName tokens carry a keyword code, so this is IsName on a code.
  bool IsKw(Kw k) const { return kw == k; }
};

/// On-demand XQuery lexer with up to eight tokens of lookahead and random
/// repositioning.
/// Repositioning (SetPos) lets the parser drop to character-level scanning
/// for direct element constructors — the context-sensitive part of the
/// grammar — and resume token scanning afterwards.
class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  /// Peeks `ahead` tokens forward (0 = next token). Lexing errors surface
  /// as a status from here.
  Result<const Tok*> Peek(size_t ahead = 0) {
    if (ahead < count_) return &Slot(ahead);
    return Fill(ahead);
  }

  /// Consumes and returns the next token.
  Result<Tok> Take();

  /// Consumes the next token without returning it.
  Status Skip();

  /// Byte offset where the *next unbuffered* token scan would start. Call
  /// only when the lookahead buffer is empty or after SetPos.
  size_t CharPos() const { return pos_; }

  /// Clears the lookahead buffer and repositions the scanner.
  void SetPos(size_t pos);

  /// Character-level access for direct-constructor parsing.
  char PeekChar(size_t ahead = 0) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }
  bool LookingAt(std::string_view s) const {
    return input_.compare(pos_, s.size(), s) == 0;
  }
  void AdvanceChars(size_t n);
  bool AtEnd() const { return pos_ >= input_.size(); }

  std::string_view input() const { return input_; }
  size_t line() const { return line_; }
  size_t column() const { return column_; }

  /// "line:column: message" parse error at the current position.
  Status Error(const std::string& message) const;

 private:
  /// Scans tokens into the ring until `ahead` is buffered.
  Result<const Tok*> Fill(size_t ahead);
  /// Scans the next token into `t`, reusing its text buffer.
  Status Scan(Tok* t);
  Status SkipWhitespaceAndComments();

  /// Lookahead ring. The parser peeks at most five tokens ahead (a
  /// prefixed computed-constructor name), so slots are reused, not
  /// reallocated, and a token's text keeps its capacity across scans.
  static constexpr size_t kLookahead = 8;
  Tok& Slot(size_t ahead) { return ring_[(head_ + ahead) % kLookahead]; }

  std::string_view input_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t column_ = 1;
  Tok ring_[kLookahead];
  size_t head_ = 0;   // Slot of the next token.
  size_t count_ = 0;  // Tokens buffered from head_ on.
};

}  // namespace xqp

#endif  // XQP_QUERY_LEXER_H_
