#ifndef XQP_BASE_STRING_UTIL_H_
#define XQP_BASE_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace xqp {

/// True if `c` is an XML whitespace character (space, tab, CR, LF).
inline bool IsXmlWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// True if `s` consists only of XML whitespace (including the empty string).
bool IsAllXmlWhitespace(std::string_view s);

/// Removes leading and trailing XML whitespace.
std::string_view TrimXmlWhitespace(std::string_view s);

/// Collapses internal whitespace runs to a single space and trims the ends
/// (the XPath fn:normalize-space semantics).
std::string NormalizeSpace(std::string_view s);

/// True if `name` is a valid XML NCName (no colon).
bool IsNCName(std::string_view name);

/// True if `target` is "xml" in any letter case, which no processing
/// instruction may be named.
bool IsReservedPiTarget(std::string_view target);

/// True if `c` may start an NCName.
inline bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         static_cast<unsigned char>(c) >= 0x80;
}

/// True if `c` may continue an NCName.
inline bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

/// Splits "prefix:local" into its two parts; prefix is empty when there is
/// no colon.
void SplitQName(std::string_view lexical, std::string_view* prefix,
                std::string_view* local);

/// Escapes text content for XML serialization (&, <, >).
void AppendEscapedText(std::string_view text, std::string* out);

/// Escapes an attribute value for XML serialization (&, <, ", newline).
void AppendEscapedAttribute(std::string_view value, std::string* out);

/// Decodes the entity or character reference that `text` starts with (the
/// bytes after its '&') and appends the replacement to `out`: one of the
/// five predefined entities, or `#N` / `#xH` whose digits run to the ';' and
/// name a code point from 1 to 0x10FFFF, written as UTF-8. Returns the bytes
/// consumed through the ';'. Errors are kParseError with the XML parser's
/// message and no position; each caller adds its own.
Result<size_t> DecodeReference(std::string_view text, std::string* out);

/// The characters (code points) of UTF-8 `s`, one view each: as many bytes
/// as its lead byte announces, cut short at the end of `s`. A byte that
/// leads no sequence is a character of its own.
std::vector<std::string_view> Utf8Chars(std::string_view s);

/// Formats a double using XPath's canonical rules (integral doubles print
/// without a trailing ".0"; NaN/INF use XML Schema lexical forms).
std::string FormatDouble(double v);

/// Splitmix64: deterministic 64-bit PRNG used by generators and property
/// tests so every run sees identical data.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound).
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

}  // namespace xqp

#endif  // XQP_BASE_STRING_UTIL_H_
