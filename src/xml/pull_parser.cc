#include "xml/pull_parser.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "base/fault.h"
#include "base/limits.h"
#include "base/metrics.h"
#include "base/string_util.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#endif

namespace xqp {

namespace {

/// XML name classification tables ('[A-Za-z_:]' / name chars plus bytes >=
/// 0x80, exactly the IsNameStartChar/IsNameChar predicates): one indexed
/// load per byte instead of a chain of range compares.
struct NameTables {
  bool start[256] = {};  // Name start chars, ':' included.
  bool cont[256] = {};   // Name continuation chars, ':' included.
  constexpr NameTables() {
    for (int i = 0; i < 256; ++i) {
      bool s = (i >= 'a' && i <= 'z') || (i >= 'A' && i <= 'Z') || i == '_' ||
               i >= 0x80;
      bool c = s || (i >= '0' && i <= '9') || i == '-' || i == '.';
      start[i] = s || i == ':';
      cont[i] = c || i == ':';
    }
  }
};
constexpr NameTables kNameTables;

/// SWAR byte-equality probe: a non-zero result has bit 7 set in every lane
/// of `w` that equals the byte replicated in `pattern`.
inline uint64_t HasByte(uint64_t w, uint64_t pattern) {
  uint64_t x = w ^ pattern;
  return (x - 0x0101010101010101ULL) & ~x & 0x8080808080808080ULL;
}

/// Index of the first '<' or '&' at/after `from`, or in.size() when the
/// rest of the input contains neither. Sixteen bytes per step on SSE2 /
/// NEON, eight via the SWAR probe elsewhere; the structural-scan core of
/// the fast text path.
size_t FindLtOrAmp(std::string_view in, size_t from) {
  const char* p = in.data();
  const size_t n = in.size();
  size_t i = from;
#if defined(__SSE2__)
  const __m128i lt = _mm_set1_epi8('<');
  const __m128i amp = _mm_set1_epi8('&');
  for (; i + 16 <= n; i += 16) {
    __m128i w = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    __m128i hit = _mm_or_si128(_mm_cmpeq_epi8(w, lt), _mm_cmpeq_epi8(w, amp));
    unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(hit));
    if (mask != 0) {
      return i + static_cast<size_t>(std::countr_zero(mask));
    }
  }
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  const uint8x16_t lt = vdupq_n_u8('<');
  const uint8x16_t amp = vdupq_n_u8('&');
  for (; i + 16 <= n; i += 16) {
    uint8x16_t w = vld1q_u8(reinterpret_cast<const uint8_t*>(p + i));
    uint8x16_t hit = vorrq_u8(vceqq_u8(w, lt), vceqq_u8(w, amp));
    // Narrow each 16-bit pair to 4 bits: lane k of the match vector maps to
    // nibble k of the 64-bit mask, so countr_zero(mask) / 4 is the index.
    uint64_t mask = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(hit), 4)), 0);
    if (mask != 0) {
      return i + (static_cast<size_t>(std::countr_zero(mask)) >> 2);
    }
  }
#elif defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  constexpr uint64_t kLt = 0x3C3C3C3C3C3C3C3CULL;   // '<' in every lane.
  constexpr uint64_t kAmp = 0x2626262626262626ULL;  // '&' in every lane.
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    uint64_t hit = HasByte(w, kLt) | HasByte(w, kAmp);
    if (hit != 0) {
      return i + (static_cast<size_t>(std::countr_zero(hit)) >> 3);
    }
  }
#endif
  for (; i < n; ++i) {
    if (p[i] == '<' || p[i] == '&') return i;
  }
  return n;
}

}  // namespace

XmlPullParser::XmlPullParser(std::string_view input,
                             const ParseOptions& options)
    : input_(input), options_(options) {
  // The "xml" prefix is always bound.
  ns_bindings_.emplace_back("xml", "http://www.w3.org/XML/1998/namespace");
  uint32_t depth = options_.max_parse_depth == 0
                       ? QueryLimits::kDefaultMaxParseDepth
                       : options_.max_parse_depth;
  // NodeRecord.level is 16 bits; clamp whatever the caller asked for.
  max_depth_ = std::min<uint32_t>(depth, 65535);
}

std::pair<size_t, size_t> XmlPullParser::LineColAt(size_t pos) const {
  size_t line = 1;
  size_t line_start = 0;
  const char* base = input_.data();
  size_t searched = 0;
  while (searched < pos) {
    const void* nl = std::memchr(base + searched, '\n', pos - searched);
    if (nl == nullptr) break;
    searched = static_cast<size_t>(static_cast<const char*>(nl) - base) + 1;
    ++line;
    line_start = searched;
  }
  return {line, pos - line_start + 1};
}

Status XmlPullParser::Error(const std::string& message) const {
  auto [line, column] = LineColAt(pos_);
  return Status::ParseError(std::to_string(line) + ":" +
                            std::to_string(column) + ": " + message);
}

void XmlPullParser::SkipWhitespace() {
  while (pos_ < input_.size() && IsXmlWhitespace(input_[pos_])) ++pos_;
}

Status XmlPullParser::ParseName(std::string_view* out) {
  size_t start = pos_;
  if (Eof() ||
      !kNameTables.start[static_cast<unsigned char>(input_[pos_])]) {
    return Error("expected a name");
  }
  ++pos_;
  while (pos_ < input_.size() &&
         kNameTables.cont[static_cast<unsigned char>(input_[pos_])]) {
    ++pos_;
  }
  *out = input_.substr(start, pos_ - start);
  return Status::OK();
}

Status XmlPullParser::DecodeEntitiesInto(std::string_view raw,
                                         std::string* out) {
  size_t i = 0;
  while (i < raw.size()) {
    // Copy the run up to the next '&' in one append.
    const void* ampp = std::memchr(raw.data() + i, '&', raw.size() - i);
    if (ampp == nullptr) {
      out->append(raw.data() + i, raw.size() - i);
      return Status::OK();
    }
    size_t a = static_cast<size_t>(static_cast<const char*>(ampp) -
                                   raw.data());
    out->append(raw.data() + i, a - i);
    Result<size_t> used = DecodeReference(raw.substr(a + 1), out);
    if (!used.ok()) return Error(used.status().message());
    i = a + 1 + used.value();
  }
  return Status::OK();
}

Result<std::string> XmlPullParser::ResolvePrefix(std::string_view prefix,
                                                 bool is_attribute) const {
  if (prefix.empty()) {
    if (is_attribute) return std::string();  // Attrs don't use default ns.
    // Walk bindings innermost-out for the default namespace.
    for (auto it = ns_bindings_.rbegin(); it != ns_bindings_.rend(); ++it) {
      if (it->first.empty()) return it->second;
    }
    return std::string();
  }
  for (auto it = ns_bindings_.rbegin(); it != ns_bindings_.rend(); ++it) {
    if (it->first == prefix) return it->second;
  }
  return Status::ParseError("undeclared namespace prefix: " +
                            std::string(prefix));
}

Status XmlPullParser::ResolveName(std::string_view lexical, bool is_attribute,
                                  QName* out, uint32_t* token) {
  auto& cache = is_attribute ? attr_names_ : elem_names_;
  auto it = cache.find(lexical);
  if (it != cache.end()) {
    *out = it->second.qname;
    *token = it->second.token;
    return Status::OK();
  }
  std::string_view prefix, local;
  SplitQName(lexical, &prefix, &local);
  XQP_ASSIGN_OR_RETURN(std::string uri, ResolvePrefix(prefix, is_attribute));
  *out = QName(std::move(uri), std::string(prefix), std::string(local));
  *token = next_name_token_++;
  cache.emplace(lexical, CachedName{*out, *token});
  return Status::OK();
}

void XmlPullParser::InvalidateNameCaches() {
  elem_names_.clear();
  attr_names_.clear();
}

Status XmlPullParser::ParseAttributeValue(std::string_view* out, bool* decoded,
                                          size_t* buf_off, size_t* buf_len) {
  char quote = Peek();
  if (quote != '"' && quote != '\'') {
    return Error("expected quoted attribute value");
  }
  ++pos_;
  const size_t start = pos_;
  const char* base = input_.data();
  const size_t n = input_.size();
  const void* qp = std::memchr(base + start, quote, n - start);
  const size_t qpos =
      qp == nullptr ? n
                    : static_cast<size_t>(static_cast<const char*>(qp) - base);
  // A '<' before the closing quote (or before EOF when the quote is
  // missing) is reported first, at its own position — seed parser order.
  const void* ltp = std::memchr(base + start, '<', qpos - start);
  if (ltp != nullptr) {
    pos_ = static_cast<size_t>(static_cast<const char*>(ltp) - base);
    return Error("'<' in attribute value");
  }
  if (qp == nullptr) {
    pos_ = n;
    return Error("unterminated attribute value");
  }
  std::string_view raw = input_.substr(start, qpos - start);
  pos_ = qpos + 1;  // Closing quote.
  if (std::memchr(raw.data(), '&', raw.size()) == nullptr) {
    *out = raw;  // Zero-copy: the common, entity-free case.
    *decoded = false;
    return Status::OK();
  }
  *decoded = true;
  *buf_off = attr_buf_.size();
  XQP_RETURN_NOT_OK(DecodeEntitiesInto(raw, &attr_buf_));
  *buf_len = attr_buf_.size() - *buf_off;
  return Status::OK();
}

Status XmlPullParser::ParseStartTag() {
  ++pos_;  // '<'
  std::string_view lexical;
  XQP_RETURN_NOT_OK(ParseName(&lexical));

  event_.type = XmlEventType::kStartElement;
  event_.attributes.clear();
  event_.ns_decls.clear();
  raw_attrs_.clear();
  attr_buf_.clear();

  // First pass: collect raw attributes so namespace declarations on this
  // element apply to its own name and attribute names.
  bool self_closing = false;
  while (true) {
    SkipWhitespace();
    if (Eof()) return Error("unterminated start tag");
    char c = input_[pos_];
    if (c == '>') {
      ++pos_;
      break;
    }
    if (c == '/' && Peek(1) == '>') {
      pos_ += 2;
      self_closing = true;
      break;
    }
    RawAttr a;
    XQP_RETURN_NOT_OK(ParseName(&a.lexical));
    SkipWhitespace();
    if (Peek() != '=') return Error("expected '=' after attribute name");
    ++pos_;
    SkipWhitespace();
    XQP_RETURN_NOT_OK(
        ParseAttributeValue(&a.value, &a.decoded, &a.buf_off, &a.buf_len));
    raw_attrs_.push_back(a);
  }
  // attr_buf_ is stable now; materialize the decoded slices.
  for (RawAttr& a : raw_attrs_) {
    if (a.decoded) {
      a.value = std::string_view(attr_buf_).substr(a.buf_off, a.buf_len);
    }
  }

  // Open a namespace frame and register xmlns declarations.
  ns_frames_.push_back(ns_bindings_.size());
  for (const RawAttr& a : raw_attrs_) {
    if (a.lexical == "xmlns") {
      ns_bindings_.emplace_back("", std::string(a.value));
      event_.ns_decls.push_back(XmlNamespaceDecl{"", std::string(a.value)});
    } else if (a.lexical.size() > 6 && a.lexical.substr(0, 6) == "xmlns:") {
      std::string prefix(a.lexical.substr(6));
      ns_bindings_.emplace_back(prefix, std::string(a.value));
      event_.ns_decls.push_back(
          XmlNamespaceDecl{std::move(prefix), std::string(a.value)});
    }
  }
  if (ns_bindings_.size() != ns_frames_.back()) InvalidateNameCaches();

  // Resolve the element name (cached per lexical form while the namespace
  // context is unchanged — on namespace-free documents every distinct tag
  // name resolves exactly once).
  XQP_RETURN_NOT_OK(
      ResolveName(lexical, false, &event_.name, &event_.name_token));

  // Resolve attribute names (skipping xmlns declarations).
  for (const RawAttr& a : raw_attrs_) {
    if (a.lexical == "xmlns" ||
        (a.lexical.size() > 6 && a.lexical.substr(0, 6) == "xmlns:")) {
      continue;
    }
    XmlAttribute& attr = event_.attributes.emplace_back();
    XQP_RETURN_NOT_OK(ResolveName(a.lexical, true, &attr.name,
                                  &attr.name_token));
    attr.value = a.value;
  }

  // Explicit depth bound: the event stream is iterative, but the document
  // builder, serializer, and navigation code index levels with 16 bits and
  // hostile inputs should fail early with a clear position.
  if (open_elements_.size() >= max_depth_) {
    return Error("element nesting exceeds maximum depth of " +
                 std::to_string(max_depth_));
  }
  open_elements_.push_back(lexical);
  if (self_closing) {
    pending_end_element_ = true;
  }
  return Status::OK();
}

Status XmlPullParser::ParseEndTag() {
  pos_ += 2;  // "</"
  std::string_view lexical;
  XQP_RETURN_NOT_OK(ParseName(&lexical));
  SkipWhitespace();
  if (Peek() != '>') return Error("expected '>' in end tag");
  ++pos_;
  if (open_elements_.empty()) {
    return Error("unexpected end tag </" + std::string(lexical) + ">");
  }
  if (open_elements_.back() != lexical) {
    return Error("mismatched end tag </" + std::string(lexical) +
                 ">, expected </" + std::string(open_elements_.back()) + ">");
  }
  open_elements_.pop_back();
  // Pop this element's namespace frame.
  if (ns_bindings_.size() != ns_frames_.back()) {
    ns_bindings_.resize(ns_frames_.back());
    InvalidateNameCaches();
  }
  ns_frames_.pop_back();
  event_.type = XmlEventType::kEndElement;
  return Status::OK();
}

Status XmlPullParser::ParseComment() {
  pos_ += 4;  // "<!--"
  size_t end = input_.find("-->", pos_);
  if (end == std::string_view::npos) return Error("unterminated comment");
  event_.type = XmlEventType::kComment;
  event_.text = input_.substr(pos_, end - pos_);
  pos_ = end + 3;
  return Status::OK();
}

Status XmlPullParser::ParsePi() {
  pos_ += 2;  // "<?"
  std::string_view target;
  XQP_RETURN_NOT_OK(ParseName(&target));
  size_t end = input_.find("?>", pos_);
  if (end == std::string_view::npos) {
    return Error("unterminated processing instruction");
  }
  event_.type = XmlEventType::kProcessingInstruction;
  event_.name = QName(std::string(target));
  event_.name_token = kNoNameToken;
  event_.text = TrimXmlWhitespace(input_.substr(pos_, end - pos_));
  pos_ = end + 2;
  return Status::OK();
}

Status XmlPullParser::ParseCData() {
  pos_ += 9;  // "<![CDATA["
  size_t end = input_.find("]]>", pos_);
  if (end == std::string_view::npos) return Error("unterminated CDATA section");
  event_.type = XmlEventType::kText;
  event_.text = input_.substr(pos_, end - pos_);  // Zero-copy, no decoding.
  pos_ = end + 3;
  return Status::OK();
}

Status XmlPullParser::ParseText() {
  const size_t start = pos_;
  const size_t m = FindLtOrAmp(input_, pos_);
  event_.type = XmlEventType::kText;
  if (m >= input_.size() || input_[m] == '<') {
    // Entity-free run: the event aliases the input.
    pos_ = m;
    event_.text = input_.substr(start, m - start);
    return Status::OK();
  }
  // '&' before the next '<': locate the end of the run, then decode into
  // the reused scratch buffer.
  const char* base = input_.data();
  const void* ltp = std::memchr(base + m + 1, '<', input_.size() - m - 1);
  const size_t end =
      ltp == nullptr
          ? input_.size()
          : static_cast<size_t>(static_cast<const char*>(ltp) - base);
  pos_ = end;
  text_buf_.clear();
  XQP_RETURN_NOT_OK(
      DecodeEntitiesInto(input_.substr(start, end - start), &text_buf_));
  event_.text = text_buf_;
  return Status::OK();
}

Status XmlPullParser::SkipDoctype() {
  // "<!DOCTYPE" ... '>' with possible [...] internal subset.
  int depth = 0;
  while (!Eof()) {
    char c = input_[pos_];
    if (c == '[') {
      ++depth;
    } else if (c == ']') {
      --depth;
    } else if (c == '>' && depth == 0) {
      ++pos_;
      return Status::OK();
    }
    ++pos_;
  }
  return Error("unterminated DOCTYPE");
}

Status XmlPullParser::SkipXmlDecl() {
  size_t end = input_.find("?>", pos_);
  if (end == std::string_view::npos) return Error("unterminated XML declaration");
  pos_ = end + 2;
  return Status::OK();
}

Result<const XmlEvent*> XmlPullParser::Next() {
  if (fault::Armed()) {
    XQP_RETURN_NOT_OK(fault::MaybeInject("parse.next"));
  }
  if (state_ == State::kDone) return static_cast<const XmlEvent*>(nullptr);

  if (state_ == State::kBeforeDocument) {
    state_ = State::kInDocument;
    if (Looking("<?xml ") || Looking("<?xml\t") || Looking("<?xml?")) {
      XQP_RETURN_NOT_OK(SkipXmlDecl());
    }
    event_.type = XmlEventType::kStartDocument;
    event_.attributes.clear();
    event_.ns_decls.clear();
    event_.text = {};
    ++events_;
    return &event_;
  }

  if (pending_end_element_) {
    pending_end_element_ = false;
    if (open_elements_.empty()) {
      return Status::ParseError("internal: dangling self-closing tag");
    }
    open_elements_.pop_back();
    if (ns_bindings_.size() != ns_frames_.back()) {
      ns_bindings_.resize(ns_frames_.back());
      InvalidateNameCaches();
    }
    ns_frames_.pop_back();
    event_.type = XmlEventType::kEndElement;
    if (open_elements_.empty()) state_ = State::kAfterDocument;
    ++events_;
    return &event_;
  }

  while (true) {
    if (Eof()) {
      if (!open_elements_.empty()) {
        return Error("unexpected end of input; unclosed <" +
                     std::string(open_elements_.back()) + ">");
      }
      state_ = State::kDone;
      event_.type = XmlEventType::kEndDocument;
      ++events_;
      if (metrics::Enabled()) {
        static metrics::Counter* bytes =
            metrics::MetricsRegistry::Global().counter("parse.bytes");
        static metrics::Counter* events =
            metrics::MetricsRegistry::Global().counter("parse.events");
        bytes->Add(input_.size());
        events->Add(events_);
      }
      return &event_;
    }

    if (input_[pos_] != '<') {
      if (state_ == State::kAfterDocument || open_elements_.empty()) {
        // Only whitespace is allowed outside the root element.
        size_t start = pos_;
        const void* lt = std::memchr(input_.data() + pos_, '<',
                                     input_.size() - pos_);
        pos_ = lt == nullptr
                   ? input_.size()
                   : static_cast<size_t>(static_cast<const char*>(lt) -
                                         input_.data());
        if (!IsAllXmlWhitespace(input_.substr(start, pos_ - start))) {
          return Error("character data outside the root element");
        }
        continue;
      }
      XQP_RETURN_NOT_OK(ParseText());
      if (options_.strip_whitespace && IsAllXmlWhitespace(event_.text)) {
        continue;  // Swallow ignorable whitespace without surfacing it.
      }
      ++events_;
      return &event_;
    }

    // One-character dispatch on the byte after '<' before the (rarer)
    // multi-byte Looking() probes.
    const char next = Peek(1);
    if (next == '!') {
      if (Looking("<!--")) {
        XQP_RETURN_NOT_OK(ParseComment());
        ++events_;
        return &event_;
      }
      if (Looking("<![CDATA[")) {
        if (open_elements_.empty()) return Error("CDATA outside root element");
        XQP_RETURN_NOT_OK(ParseCData());
        ++events_;
        return &event_;
      }
      if (Looking("<!DOCTYPE")) {
        XQP_RETURN_NOT_OK(SkipDoctype());
        continue;
      }
    } else if (next == '?') {
      XQP_RETURN_NOT_OK(ParsePi());
      ++events_;
      return &event_;
    } else if (next == '/') {
      XQP_RETURN_NOT_OK(ParseEndTag());
      if (open_elements_.empty()) state_ = State::kAfterDocument;
      ++events_;
      return &event_;
    }
    if (open_elements_.empty() && state_ == State::kAfterDocument) {
      return Error("multiple root elements");
    }
    XQP_RETURN_NOT_OK(ParseStartTag());
    ++events_;
    return &event_;
  }
}

}  // namespace xqp
