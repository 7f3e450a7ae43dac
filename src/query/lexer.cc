#include "query/lexer.h"

#include <cctype>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "base/string_util.h"

namespace xqp {

namespace {

constexpr std::string_view kKeywordText[] = {
    "",
#define XQP_KW_TEXT(id, text) text,
    XQP_QUERY_KEYWORDS(XQP_KW_TEXT)
#undef XQP_KW_TEXT
};
static_assert(std::size(kKeywordText) == static_cast<size_t>(Kw::kCount));

/// Keyword codes bucketed by first letter (every keyword starts with a
/// lowercase ASCII letter); a bucket holds at most a dozen spellings.
struct KeywordBuckets {
  std::vector<Kw> by_letter[26];
  KeywordBuckets() {
    for (size_t k = 1; k < std::size(kKeywordText); ++k) {
      by_letter[kKeywordText[k][0] - 'a'].push_back(static_cast<Kw>(k));
    }
  }
};

}  // namespace

Kw KeywordOf(std::string_view name) {
  static const KeywordBuckets buckets;
  if (name.empty() || name[0] < 'a' || name[0] > 'z') return Kw::kNone;
  for (Kw k : buckets.by_letter[name[0] - 'a']) {
    if (kKeywordText[static_cast<size_t>(k)] == name) return k;
  }
  return Kw::kNone;
}

std::string_view KeywordText(Kw kw) {
  return kKeywordText[static_cast<size_t>(kw)];
}

void Lexer::AdvanceChars(size_t n) {
  pos_ = std::min(pos_ + n, input_.size());
}

void Lexer::SetPos(size_t pos) {
  count_ = 0;
  pos_ = std::min(pos, input_.size());
}

Status Lexer::Error(const std::string& message) const {
  // Line/column computed on demand; errors are rare.
  size_t line = 1;
  size_t column = 1;
  for (size_t i = 0; i < pos_ && i < input_.size(); ++i) {
    if (input_[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return Status::StaticError(std::to_string(line) + ":" +
                             std::to_string(column) + ": " + message);
}

Status Lexer::SkipWhitespaceAndComments() {
  while (pos_ < input_.size()) {
    char c = input_[pos_];
    if (IsXmlWhitespace(c)) {
      ++pos_;
      continue;
    }
    if (c == '(' && pos_ + 1 < input_.size() && input_[pos_ + 1] == ':') {
      // Nestable XQuery comment "(: ... :)".
      int depth = 1;
      pos_ += 2;
      while (pos_ < input_.size() && depth > 0) {
        if (input_.compare(pos_, 2, "(:") == 0) {
          ++depth;
          pos_ += 2;
        } else if (input_.compare(pos_, 2, ":)") == 0) {
          --depth;
          pos_ += 2;
        } else {
          ++pos_;
        }
      }
      if (depth > 0) return Error("unterminated comment");
      continue;
    }
    break;
  }
  return Status::OK();
}

Status Lexer::Scan(Tok* out) {
  XQP_RETURN_NOT_OK(SkipWhitespaceAndComments());
  Tok& t = *out;
  t.type = TokType::kEof;
  t.sym = Sym::kNone;
  t.kw = Kw::kNone;
  t.text.clear();
  t.ival = 0;
  t.dval = 0;
  t.pos = pos_;
  if (pos_ >= input_.size()) {
    t.end = pos_;
    return Status::OK();
  }
  char c = input_[pos_];

  // Names.
  if (IsNameStartChar(c)) {
    size_t start = pos_;
    while (pos_ < input_.size() && IsNameChar(input_[pos_])) ++pos_;
    t.type = TokType::kNCName;
    t.text.assign(input_.substr(start, pos_ - start));
    t.kw = KeywordOf(t.text);
    t.end = pos_;
    return Status::OK();
  }

  // Numbers.
  if (std::isdigit(static_cast<unsigned char>(c)) ||
      (c == '.' && pos_ + 1 < input_.size() &&
       std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
    size_t start = pos_;
    bool has_dot = false;
    bool has_exp = false;
    while (pos_ < input_.size()) {
      char d = input_[pos_];
      if (std::isdigit(static_cast<unsigned char>(d))) {
        ++pos_;
      } else if (d == '.' && !has_dot && !has_exp) {
        // ".." must stay a symbol: "1..2" lexes as 1 .. 2.
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '.') break;
        has_dot = true;
        ++pos_;
      } else if ((d == 'e' || d == 'E') && !has_exp) {
        has_exp = true;
        ++pos_;
        if (pos_ < input_.size() &&
            (input_[pos_] == '+' || input_[pos_] == '-')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    std::string text(input_.substr(start, pos_ - start));
    t.end = pos_;
    if (has_exp) {
      t.type = TokType::kDouble;
      t.dval = std::strtod(text.c_str(), nullptr);
    } else if (has_dot) {
      t.type = TokType::kDecimal;
      t.dval = std::strtod(text.c_str(), nullptr);
    } else {
      t.type = TokType::kInteger;
      t.ival = std::strtoll(text.c_str(), nullptr, 10);
    }
    return Status::OK();
  }

  // String literals (with doubled-quote escapes and entity references).
  if (c == '"' || c == '\'') {
    char quote = c;
    ++pos_;
    std::string raw;
    while (true) {
      if (pos_ >= input_.size()) return Error("unterminated string literal");
      char d = input_[pos_];
      if (d == quote) {
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == quote) {
          raw.push_back(quote);
          pos_ += 2;
          continue;
        }
        ++pos_;
        break;
      }
      raw.push_back(d);
      ++pos_;
    }
    // Decode predefined and numeric entity references.
    std::string decoded;
    decoded.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        decoded.push_back(raw[i++]);
        continue;
      }
      Result<size_t> used =
          DecodeReference(std::string_view(raw).substr(i + 1), &decoded);
      if (!used.ok()) return Error(used.status().message());
      i += 1 + used.value();
    }
    t.type = TokType::kString;
    t.text = std::move(decoded);
    t.end = pos_;
    return Status::OK();
  }

  // Symbols.
  auto sym2 = [&](char a, char b, Sym two, Sym one) {
    if (pos_ + 1 < input_.size() && input_[pos_] == a && input_[pos_ + 1] == b) {
      t.sym = two;
      pos_ += 2;
    } else {
      t.sym = one;
      ++pos_;
    }
  };
  t.type = TokType::kSymbol;
  switch (c) {
    case '(': t.sym = Sym::kLParen; ++pos_; break;
    case ')': t.sym = Sym::kRParen; ++pos_; break;
    case '[': t.sym = Sym::kLBracket; ++pos_; break;
    case ']': t.sym = Sym::kRBracket; ++pos_; break;
    case '{': t.sym = Sym::kLBrace; ++pos_; break;
    case '}': t.sym = Sym::kRBrace; ++pos_; break;
    case ',': t.sym = Sym::kComma; ++pos_; break;
    case ';': t.sym = Sym::kSemicolon; ++pos_; break;
    case '$': t.sym = Sym::kDollar; ++pos_; break;
    case '@': t.sym = Sym::kAt; ++pos_; break;
    case '|': t.sym = Sym::kPipe; ++pos_; break;
    case '?': t.sym = Sym::kQuestion; ++pos_; break;
    case '+': t.sym = Sym::kPlus; ++pos_; break;
    case '-': t.sym = Sym::kMinus; ++pos_; break;
    case '*': t.sym = Sym::kStar; ++pos_; break;
    case '=': t.sym = Sym::kEq; ++pos_; break;
    case ':': sym2(':', ':', Sym::kColonColon, Sym::kColon);
      if (t.sym == Sym::kColon && pos_ < input_.size() && input_[pos_] == '=') {
        t.sym = Sym::kAssign;
        ++pos_;
      }
      break;
    case '.': sym2('.', '.', Sym::kDotDot, Sym::kDot); break;
    case '/': sym2('/', '/', Sym::kSlashSlash, Sym::kSlash); break;
    case '!':
      if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '=') {
        t.sym = Sym::kNe;
        pos_ += 2;
      } else {
        return Error("unexpected '!'");
      }
      break;
    case '<':
      if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '<') {
        t.sym = Sym::kLtLt;
        pos_ += 2;
      } else if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '=') {
        t.sym = Sym::kLe;
        pos_ += 2;
      } else {
        t.sym = Sym::kLt;
        ++pos_;
      }
      break;
    case '>':
      if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '>') {
        t.sym = Sym::kGtGt;
        pos_ += 2;
      } else if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '=') {
        t.sym = Sym::kGe;
        pos_ += 2;
      } else {
        t.sym = Sym::kGt;
        ++pos_;
      }
      break;
    default:
      return Error(std::string("unexpected character '") + c + "'");
  }
  t.end = pos_;
  return Status::OK();
}

Result<const Tok*> Lexer::Fill(size_t ahead) {
  if (ahead >= kLookahead) return Error("lookahead exceeds the token buffer");
  while (count_ <= ahead) {
    XQP_RETURN_NOT_OK(Scan(&Slot(count_)));
    ++count_;
  }
  return &Slot(ahead);
}

Result<Tok> Lexer::Take() {
  XQP_RETURN_NOT_OK(Peek().status());
  Tok t = std::move(Slot(0));
  head_ = (head_ + 1) % kLookahead;
  --count_;
  return t;
}

Status Lexer::Skip() {
  XQP_RETURN_NOT_OK(Peek().status());
  head_ = (head_ + 1) % kLookahead;
  --count_;
  return Status::OK();
}

}  // namespace xqp
