#include "base/string_util.h"

#include <gtest/gtest.h>

namespace xqp {
namespace {

TEST(XmlWhitespace, Basics) {
  EXPECT_TRUE(IsXmlWhitespace(' '));
  EXPECT_TRUE(IsXmlWhitespace('\t'));
  EXPECT_TRUE(IsXmlWhitespace('\n'));
  EXPECT_TRUE(IsXmlWhitespace('\r'));
  EXPECT_FALSE(IsXmlWhitespace('x'));
  EXPECT_FALSE(IsXmlWhitespace('\v'));  // Not XML whitespace.
}

TEST(XmlWhitespace, AllWhitespace) {
  EXPECT_TRUE(IsAllXmlWhitespace(""));
  EXPECT_TRUE(IsAllXmlWhitespace(" \t\r\n"));
  EXPECT_FALSE(IsAllXmlWhitespace(" a "));
}

TEST(XmlWhitespace, Trim) {
  EXPECT_EQ(TrimXmlWhitespace("  ab c  "), "ab c");
  EXPECT_EQ(TrimXmlWhitespace(""), "");
  EXPECT_EQ(TrimXmlWhitespace("   "), "");
  EXPECT_EQ(TrimXmlWhitespace("x"), "x");
}

TEST(NormalizeSpace, CollapsesRuns) {
  EXPECT_EQ(NormalizeSpace("  a \t b\n\nc  "), "a b c");
  EXPECT_EQ(NormalizeSpace(""), "");
  EXPECT_EQ(NormalizeSpace("   "), "");
  EXPECT_EQ(NormalizeSpace("one"), "one");
}

TEST(NCName, Validation) {
  EXPECT_TRUE(IsNCName("abc"));
  EXPECT_TRUE(IsNCName("a-b.c_d9"));
  EXPECT_TRUE(IsNCName("_x"));
  EXPECT_FALSE(IsNCName(""));
  EXPECT_FALSE(IsNCName("9a"));
  EXPECT_FALSE(IsNCName("-a"));
  EXPECT_FALSE(IsNCName("a:b"));  // Colon excluded from NCName.
}

TEST(SplitQName, Cases) {
  std::string_view prefix, local;
  SplitQName("a:b", &prefix, &local);
  EXPECT_EQ(prefix, "a");
  EXPECT_EQ(local, "b");
  SplitQName("b", &prefix, &local);
  EXPECT_EQ(prefix, "");
  EXPECT_EQ(local, "b");
}

TEST(Escaping, Text) {
  std::string out;
  AppendEscapedText("a<b&c>d", &out);
  EXPECT_EQ(out, "a&lt;b&amp;c&gt;d");
}

TEST(Escaping, Attribute) {
  std::string out;
  AppendEscapedAttribute("x\"y&z<\n", &out);
  EXPECT_EQ(out, "x&quot;y&amp;z&lt;&#10;");
}

TEST(Utf8Chars, OneViewPerCodePoint) {
  using Chars = std::vector<std::string_view>;
  EXPECT_EQ(Utf8Chars(""), Chars{});
  EXPECT_EQ(Utf8Chars("a\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80"),
            (Chars{"a", "\xC3\xA9", "\xE2\x82\xAC", "\xF0\x9F\x98\x80"}));
  // A stray continuation byte is one character; a truncated sequence ends
  // with the string.
  EXPECT_EQ(Utf8Chars("\xA9" "b\xE2\x82"), (Chars{"\xA9", "b", "\xE2\x82"}));
}

TEST(FormatDouble, Canonical) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-3.0), "-3");
  EXPECT_EQ(FormatDouble(3.5), "3.5");
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::quiet_NaN()), "NaN");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "INF");
  EXPECT_EQ(FormatDouble(-std::numeric_limits<double>::infinity()), "-INF");
}

TEST(SplitMix64, Deterministic) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  SplitMix64 c(8);
  EXPECT_NE(SplitMix64(7).Next(), c.Next());
}

TEST(SplitMix64, RangeBounds) {
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace xqp
