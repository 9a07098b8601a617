// Tests for the minimal JSON layer: parsing (values, nesting, escapes,
// strictness), deterministic dumping with insertion-ordered objects, the
// shortest-round-trip double format (bit-exactness), and the u64 string
// codec that carries full-range seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/random.h"

namespace {

namespace json = econcast::util::json;
using json::Value;

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("true").as_bool(), true);
  EXPECT_EQ(json::parse("false").as_bool(), false);
  EXPECT_EQ(json::parse("42").as_number(), 42.0);
  EXPECT_EQ(json::parse("-0.5e2").as_number(), -50.0);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(json::parse("  [1, 2]  ").as_array().size(), 2u);
  EXPECT_EQ(json::parse("{}").as_object().size(), 0u);
}

TEST(Json, ParsesNestedStructures) {
  const Value v = json::parse(
      R"({"a": [1, {"b": true}, "x"], "c": {"d": null}, "e": -3.25})");
  EXPECT_EQ(v.at("a").as_array()[1].at("b").as_bool(), true);
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_EQ(v.at("e").as_number(), -3.25);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), json::Error);
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(json::parse(R"("a\"b\\c\/d\n\t\r\b\f")").as_string(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(json::parse(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(json::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "tru", "01", "+1", "1.", ".5", "1e", "[1,]", "[1 2]", "{\"a\" 1}",
        "{\"a\":1,}", "\"unterminated", "\"bad\\escape\"", "nan", "[1] junk",
        "{\"a\": \"\\ud83d\"}", "\"\x01\""}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(json::parse(bad), json::Error);
  }
}

TEST(Json, AccessorsRejectWrongKind) {
  const Value v = json::parse("[1]");
  EXPECT_THROW(v.as_bool(), json::Error);
  EXPECT_THROW(v.as_number(), json::Error);
  EXPECT_THROW(v.as_string(), json::Error);
  EXPECT_THROW(v.as_object(), json::Error);
  EXPECT_NO_THROW(v.as_array());
}

TEST(Json, DumpIsCompactAndOrdered) {
  json::Object o;
  o.set("zebra", 1).set("alpha", json::Array{Value(true), Value(nullptr)});
  o.set("zebra", 2);  // replaces in place, keeps position
  EXPECT_EQ(json::dump(Value(o)), R"({"zebra":2,"alpha":[true,null]})");
}

TEST(Json, PrettyDumpRoundTrips) {
  const char* text =
      R"({"a": [1, 2, {"b": "x"}], "c": true, "d": {"e": [], "f": {}}})";
  const Value v = json::parse(text);
  const std::string pretty = json::dump(v, 2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(json::parse(pretty), v);
  EXPECT_EQ(json::parse(json::dump(v)), v);
}

TEST(Json, StringEscapeRoundTrips) {
  const std::string nasty = "quote\" back\\ slash/ \n\t\r\b\f ctrl\x01 utf\xc3\xa9";
  EXPECT_EQ(json::parse(json::dump(Value(nasty))).as_string(), nasty);
}

TEST(Json, DoubleFormatIsShortestRoundTrip) {
  for (const double d :
       {0.1, 1.0 / 3.0, 2.5, 1e-300, 1e300, 6.02214076e23, -0.0, 0.0,
        123456789012345678.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(), 0.026273195549999997}) {
    const std::string s = json::format_double(d);
    const double back = json::parse(s).as_number();
    EXPECT_EQ(std::memcmp(&back, &d, sizeof d), 0)
        << s << " does not round-trip";
  }
  EXPECT_EQ(json::format_double(42.0), "42");       // integral: no exponent
  EXPECT_EQ(json::format_double(0.5), "0.5");       // short when it can be
  EXPECT_EQ(json::format_double(-0.0), "-0");       // sign preserved
  EXPECT_THROW(json::format_double(NAN), json::Error);
  EXPECT_THROW(json::format_double(INFINITY), json::Error);
}

/// The pre-<charconv> format_double, kept as the byte-level reference:
/// printf's %lld / %.15g / %.16g / %.17g with a strtod round-trip check.
std::string snprintf_format_double(double d) {
  char buf[40];
  if (d == std::floor(d) && std::fabs(d) < 9007199254740992.0) {
    if (d == 0.0 && std::signbit(d)) return "-0";
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    return buf;
  }
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    const double back = std::strtod(buf, nullptr);
    if (std::memcmp(&back, &d, sizeof(double)) == 0) return buf;
  }
  return buf;
}

TEST(Json, DoubleFormatMatchesSnprintfOnSeededCorpus) {
  std::vector<double> corpus;
  // Powers of ten across the whole range, subnormal through near-max.
  for (int e = -323; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    corpus.insert(corpus.end(), {p, -p, std::nextafter(p, 0.0),
                                 std::nextafter(p, INFINITY)});
  }
  // Integers at and above 2^53 (the exponent-form path) and just below it.
  for (int k = 50; k <= 70; ++k) {
    const double p = std::ldexp(1.0, k);
    corpus.insert(corpus.end(), {p, -p, p + std::ldexp(1.0, k - 52),
                                 p - std::ldexp(1.0, k - 53), p * 3.0});
  }
  corpus.insert(corpus.end(), {123456789012345678.0, 1e17, 1e21, 1e22,
                               9007199254740991.0, -9007199254740991.0});
  // Seeded raw bit patterns (every exponent, subnormals included) and
  // uniform-magnitude values (the common case: rates, probabilities).
  std::uint64_t state = 0x5EEDF00DULL;
  while (corpus.size() < 200000) {
    const std::uint64_t bits = econcast::util::splitmix64_next(state);
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) corpus.push_back(d);
    corpus.push_back(static_cast<double>(bits >> 11) * 0x1.0p-53);
    // Subnormals: a random mantissa with a zero exponent field.
    const std::uint64_t sub = bits & 0x800FFFFFFFFFFFFFULL;
    std::memcpy(&d, &sub, sizeof d);
    corpus.push_back(d);
  }
  std::size_t mismatches = 0;
  for (const double d : corpus) {
    const std::string got = json::format_double(d);
    const std::string want = snprintf_format_double(d);
    if (got != want && ++mismatches <= 10)
      ADD_FAILURE() << "format_double(" << want << ") gave " << got;
  }
  EXPECT_EQ(mismatches, 0u) << "over " << corpus.size() << " doubles";
}

TEST(Json, NumbersSurviveDumpParse) {
  json::Array a;
  a.emplace_back(0.1 + 0.2);  // classic non-representable sum
  a.emplace_back(1.0 / 7.0);
  a.emplace_back(4503599627370497.0);  // 2^52 + 1, integral path
  const Value back = json::parse(json::dump(Value(a)));
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = a[i].as_number();
    const double y = back.as_array()[i].as_number();
    EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0);
  }
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  // JSON cannot carry NaN/Inf; the writer encodes them as null so a
  // streaming checkpoint write never aborts mid-sweep, and the reader side
  // (as_number_or_nan) brings them back as NaN.
  EXPECT_EQ(json::dump(Value(NAN)), "null");
  EXPECT_EQ(json::dump(Value(INFINITY)), "null");
  EXPECT_EQ(json::dump(Value(-INFINITY)), "null");
  json::Object o;
  o.set("ok", 1.5).set("bad", NAN);
  EXPECT_EQ(json::dump(Value(o)), R"({"ok":1.5,"bad":null})");

  const Value back = json::parse(json::dump(Value(o)));
  EXPECT_TRUE(std::isnan(back.at("bad").as_number_or_nan()));
  EXPECT_EQ(back.at("ok").as_number_or_nan(), 1.5);
  EXPECT_THROW(back.at("bad").as_number(), json::Error);  // strict form
  EXPECT_THROW(json::parse("\"x\"").as_number_or_nan(), json::Error);
  // The round trip is byte-stable: null re-dumps as null.
  EXPECT_EQ(json::dump(back), R"({"ok":1.5,"bad":null})");
}

TEST(Json, U64StringCodec) {
  EXPECT_EQ(json::u64_to_string(0), "0");
  EXPECT_EQ(json::u64_from_string("0"), 0u);
  const std::uint64_t big = 18446744073709551615ULL;  // 2^64 - 1
  EXPECT_EQ(json::u64_from_string(json::u64_to_string(big)), big);
  EXPECT_THROW(json::u64_from_string(""), json::Error);
  EXPECT_THROW(json::u64_from_string("-1"), json::Error);
  EXPECT_THROW(json::u64_from_string("12x"), json::Error);
  EXPECT_THROW(json::u64_from_string("18446744073709551616"), json::Error);
}

TEST(Json, DeepNestingIsBounded) {
  std::string deep(500, '[');
  deep += std::string(500, ']');
  EXPECT_THROW(json::parse(deep), json::Error);
}

}  // namespace
