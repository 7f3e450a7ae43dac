#include "base/string_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace xqp {

bool IsAllXmlWhitespace(std::string_view s) {
  for (char c : s) {
    if (!IsXmlWhitespace(c)) return false;
  }
  return true;
}

std::string_view TrimXmlWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsXmlWhitespace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsXmlWhitespace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::string NormalizeSpace(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool in_ws = true;  // Swallow leading whitespace.
  for (char c : s) {
    if (IsXmlWhitespace(c)) {
      if (!in_ws) out.push_back(' ');
      in_ws = true;
    } else {
      out.push_back(c);
      in_ws = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

bool IsNCName(std::string_view name) {
  if (name.empty() || !IsNameStartChar(name[0])) return false;
  for (size_t i = 1; i < name.size(); ++i) {
    if (!IsNameChar(name[i])) return false;
  }
  return true;
}

bool IsReservedPiTarget(std::string_view target) {
  return target.size() == 3 && (target[0] | 0x20) == 'x' &&
         (target[1] | 0x20) == 'm' && (target[2] | 0x20) == 'l';
}

void SplitQName(std::string_view lexical, std::string_view* prefix,
                std::string_view* local) {
  size_t colon = lexical.find(':');
  if (colon == std::string_view::npos) {
    *prefix = std::string_view();
    *local = lexical;
  } else {
    *prefix = lexical.substr(0, colon);
    *local = lexical.substr(colon + 1);
  }
}

void AppendEscapedText(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '&':
        out->append("&amp;");
        break;
      case '<':
        out->append("&lt;");
        break;
      case '>':
        out->append("&gt;");
        break;
      default:
        out->push_back(c);
    }
  }
}

void AppendEscapedAttribute(std::string_view value, std::string* out) {
  for (char c : value) {
    switch (c) {
      case '&':
        out->append("&amp;");
        break;
      case '<':
        out->append("&lt;");
        break;
      case '"':
        out->append("&quot;");
        break;
      case '\n':
        out->append("&#10;");
        break;
      case '\t':
        out->append("&#9;");
        break;
      default:
        out->push_back(c);
    }
  }
}

Result<size_t> DecodeReference(std::string_view text, std::string* out) {
  const size_t semi = text.find(';');
  if (semi == std::string_view::npos) {
    return Status::ParseError("unterminated entity reference");
  }
  const std::string_view entity = text.substr(0, semi);
  if (entity == "amp") {
    out->push_back('&');
  } else if (entity == "lt") {
    out->push_back('<');
  } else if (entity == "gt") {
    out->push_back('>');
  } else if (entity == "quot") {
    out->push_back('"');
  } else if (entity == "apos") {
    out->push_back('\'');
  } else if (!entity.empty() && entity[0] == '#') {
    const std::string digits(entity.substr(1));
    const bool hex = !digits.empty() && (digits[0] == 'x' || digits[0] == 'X');
    char* end = nullptr;
    const long code = std::strtol(digits.c_str() + (hex ? 1 : 0), &end,
                                  hex ? 16 : 10);
    if (end != digits.c_str() + digits.size()) {
      return Status::ParseError("bad character reference");
    }
    const unsigned long cp = static_cast<unsigned long>(code);
    if (cp == 0 || cp > 0x10FFFF) {
      return Status::ParseError("character reference out of range");
    }
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  } else {
    return Status::ParseError("unknown entity: &" + std::string(entity) + ";");
  }
  return semi + 1;
}

std::vector<std::string_view> Utf8Chars(std::string_view s) {
  std::vector<std::string_view> chars;
  for (size_t i = 0; i < s.size(); i += chars.back().size()) {
    const auto lead = static_cast<unsigned char>(s[i]);
    chars.push_back(
        s.substr(i, lead >= 0xF0 ? 4 : lead >= 0xE0 ? 3 : lead >= 0xC0 ? 2 : 1));
  }
  return chars;
}

std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "INF" : "-INF";
  if (v == 0.0) return std::signbit(v) ? "-0" : "0";
  // Integral values within the int64 range print without a decimal point,
  // matching how XPath serializes xs:double values like 3.0e0 => "3".
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace xqp
