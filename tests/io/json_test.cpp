// The shared JSON layer: round-trip number rendering (checked byte for
// byte against the printf/scanf formatter it replaced), string escaping,
// and the strict recursive-descent parser behind the service protocol.
#include "io/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>

namespace rat::io {
namespace {

double reparse(const std::string& s) {
  double x = 0.0;
  std::from_chars(s.data(), s.data() + s.size(), x);
  return x;
}

TEST(Json, NumberIsShortestRoundTrip) {
  // Exact values print exactly; irrationals survive the round trip.
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(75e6), "75000000");
  for (double x : {0.1, 1.0 / 3.0, 0.578, 1e300, -2.5e-8,
                   std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(reparse(json_number(x)), x) << json_number(x);
  }
}

/// The original json_number, kept as the reference spelling: the fewest
/// of 15/16/17 "%g" significant digits that sscanf reads back exactly.
std::string reference_json_number(double x) {
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, x);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == x) break;
  }
  return buf;
}

::testing::AssertionResult matches_reference(double x) {
  const std::string got = json_number(x);
  const std::string want = reference_json_number(x);
  std::string appended = "prefix:";
  append_json_number(appended, x);
  if (got == want && appended == "prefix:" + want)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(x)
         << ": json_number \"" << got << "\", append \"" << appended
         << "\", reference \"" << want << "\"";
}

TEST(JsonNumber, MatchesPrintfReferenceOnRandomBitPatterns) {
  // Every exponent, sign and mantissa shape, NaN payloads and
  // subnormals included.
  std::mt19937_64 rng(0x5241547631ull);
  for (int i = 0; i < 1'000'000; ++i)
    ASSERT_TRUE(matches_reference(std::bit_cast<double>(rng())));
}

TEST(JsonNumber, MatchesPrintfReferenceOnDecimalScaledValues) {
  // Values written as short decimals (0.37, 75e6, 1.39e-4): what
  // worksheets and responses actually carry. Each is the double nearest
  // m * 10^e for a random 1- to 17-digit mantissa m.
  std::mt19937_64 rng(0x52415432ull);
  char text[48];
  for (int e = -20; e <= 20; ++e) {
    for (int i = 0; i < 5000; ++i) {
      const int digits = 1 + static_cast<int>(rng() % 17);
      std::uint64_t m = rng() % 100'000'000'000'000'000ull;
      for (int d = digits; d < 17; ++d) m /= 10;
      std::snprintf(text, sizeof text, "%s%llue%d", (i & 1) ? "-" : "",
                    static_cast<unsigned long long>(m), e);
      const double x = std::strtod(text, nullptr);
      ASSERT_TRUE(matches_reference(x)) << text;
    }
  }
}

TEST(JsonNumber, MatchesPrintfReferenceOnEdgeValues) {
  using lim = std::numeric_limits<double>;
  for (double x : {0.0, -0.0, lim::denorm_min(), -lim::denorm_min(),
                   lim::min(), lim::max(), lim::lowest(), 1e15, 1e16, 1e17,
                   1e21, -1e21, 9007199254740993.0, 0.1, 1.0 / 3.0,
                   lim::infinity(), -lim::infinity(), lim::quiet_NaN()})
    EXPECT_TRUE(matches_reference(x));
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(1e21), "1e+21");
  EXPECT_EQ(json_number(lim::infinity()), "inf");
  EXPECT_EQ(json_number(lim::quiet_NaN()), "nan");
}

TEST(JsonNumber, FifteenDigitsWinEvenWhenNotTheShortestSpelling) {
  // 15 digits round-trip here, so they are used although the integer
  // spelling "53165205877497296" is three characters shorter: the output
  // is the historical wire format, not the shortest string.
  EXPECT_EQ(json_number(53165205877497296.0), "5.31652058774973e+16");
}

TEST(Json, EscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(json_escape("\x1f\x7f\xc3\xa9"), "\\u001f\x7f\xc3\xa9");
  EXPECT_EQ(json_str("x\ny"), "\"x\\ny\"");
  std::string out = "[";
  append_json_str(out, "a\"b");
  out += ',';
  append_json_escaped(out, "\r");
  EXPECT_EQ(out, "[\"a\\\"b\",\\r");
}

TEST(JsonParse, ScalarsAndContainers) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").boolean);
  EXPECT_FALSE(parse_json("false").boolean);
  EXPECT_EQ(parse_json("-12.5e2").number, -1250.0);
  EXPECT_EQ(parse_json("\"hi\"").string, "hi");
  const JsonValue arr = parse_json(" [1, \"two\", [3]] ");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.items.size(), 3u);
  EXPECT_EQ(arr.items[0].number, 1.0);
  EXPECT_EQ(arr.items[1].string, "two");
  EXPECT_EQ(arr.items[2].items[0].number, 3.0);
  const JsonValue obj = parse_json("{\"a\":{\"b\":true},\"c\":[]}");
  ASSERT_TRUE(obj.is_object());
  EXPECT_TRUE(obj.find("a")->find("b")->boolean);
  EXPECT_TRUE(obj.find("c")->is_array());
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(parse_json("\"a\\n\\t\\\"\\\\b\"").string, "a\n\t\"\\b");
  EXPECT_EQ(parse_json("\"\\u0041\"").string, "A");
  EXPECT_EQ(parse_json("\"\\u00e9\"").string, "\xc3\xa9");      // é
  EXPECT_EQ(parse_json("\"\\u20ac\"").string, "\xe2\x82\xac");  // €
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse_json("\"\\ud83d\\ude00\"").string,
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1.2.3", "nan",
        "\"unterminated", "\"bad\\q\"", "\"\\ud83d\"",  // lone surrogate
        "{} trailing", "\"tab\there\""}) {
    EXPECT_THROW(parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParse, ReportsByteOffset) {
  try {
    parse_json("{\"a\":flase}");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(JsonParse, DepthCapStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW(parse_json(deep), std::invalid_argument);
  std::string ok_depth;
  for (int i = 0; i < 32; ++i) ok_depth += '[';
  for (int i = 0; i < 32; ++i) ok_depth += ']';
  EXPECT_NO_THROW(parse_json(ok_depth));
}

TEST(JsonParse, NonFiniteNumbersAreRejected) {
  EXPECT_THROW(parse_json("1e999"), std::invalid_argument);
  EXPECT_THROW(parse_json("Infinity"), std::invalid_argument);
}

}  // namespace
}  // namespace rat::io
