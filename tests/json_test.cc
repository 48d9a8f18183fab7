#include "common/json.h"

#include <gtest/gtest.h>

#include <limits>

namespace sdci::json {
namespace {

TEST(Parse, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_EQ(Parse("true")->AsBool(), true);
  EXPECT_EQ(Parse("false")->AsBool(), false);
  EXPECT_DOUBLE_EQ(Parse("3.5")->AsNumber(), 3.5);
  EXPECT_EQ(Parse("-12")->AsInt(), -12);
  EXPECT_DOUBLE_EQ(Parse("1e3")->AsNumber(), 1000.0);
  EXPECT_EQ(Parse("\"hi\"")->AsString(), "hi");
}

TEST(Parse, NestedDocument) {
  auto v = Parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ((*v)["a"].AsArray().size(), 3u);
  EXPECT_EQ((*v)["a"].AsArray()[2]["b"].AsString(), "c");
  EXPECT_TRUE((*v)["d"]["e"].is_null());
}

TEST(Parse, StringEscapes) {
  auto v = Parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "a\"b\\c\nd\teA");
}

TEST(Parse, UnicodeEscapeToUtf8) {
  EXPECT_EQ(Parse(R"("é")")->AsString(), "\xc3\xa9");  // é
  EXPECT_EQ(Parse(R"("€")")->AsString(), "\xe2\x82\xac");  // €
  EXPECT_EQ(Parse(R"("A")")->AsString(), "A");
}

TEST(Parse, Whitespace) {
  auto v = Parse("  {\n\t\"a\" :\r 1 } ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetInt("a"), 1);
}

TEST(Parse, ErrorsCarryOffset) {
  const auto cases = {
      "",            "{",        "[1,",      "tru",       "{\"a\"}",
      "{\"a\":1,}",  "[1 2]",    "\"unterminated", "{\"a\":01x}", "1 2",
  };
  for (const char* text : cases) {
    const auto v = Parse(text);
    EXPECT_FALSE(v.ok()) << text;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(Dump, CompactRoundTrip) {
  const std::string text = R"({"a":[1,2,3],"b":"x","c":true,"d":null,"e":{"f":1.5}})";
  auto v = Parse(text);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Dump(), text);
  // Round-trip equality.
  EXPECT_EQ(*Parse(v->Dump()), *v);
}

TEST(Dump, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(Value(static_cast<int64_t>(42)).Dump(), "42");
  EXPECT_EQ(Value(42.5).Dump(), "42.5");
}

TEST(Dump, PrettyPrints) {
  Object obj;
  obj["k"] = Value(Array{Value(1)});
  const std::string pretty = Value(std::move(obj)).Dump(2);
  EXPECT_NE(pretty.find("{\n  \"k\": [\n    1\n  ]\n}"), std::string::npos);
}

TEST(Dump, EscapesControlCharacters) {
  EXPECT_EQ(Value(std::string("a\x01")).Dump(), "\"a\\u0001\"");
  EXPECT_EQ(Value(std::string("tab\there")).Dump(), "\"tab\\there\"");
}

TEST(Value, ObjectLookupDefaults) {
  auto v = Parse(R"({"s":"x","n":2,"b":true})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetString("s"), "x");
  EXPECT_EQ(v->GetString("missing", "dflt"), "dflt");
  EXPECT_EQ(v->GetInt("n"), 2);
  EXPECT_EQ(v->GetInt("missing", -1), -1);
  EXPECT_TRUE(v->GetBool("b"));
  EXPECT_FALSE(v->GetBool("missing"));
  EXPECT_TRUE(v->Has("s"));
  EXPECT_FALSE(v->Has("missing"));
  // Wrong-typed lookups fall back too.
  EXPECT_EQ(v->GetInt("s", -7), -7);
}

TEST(Value, IndexingNonObjectYieldsNull) {
  const Value v(3.0);
  EXPECT_TRUE(v["anything"].is_null());
  EXPECT_TRUE(v["a"]["b"]["c"].is_null());
}

TEST(Value, AsIntSaturates) {
  EXPECT_EQ(Parse("1e300")->AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Parse("-1e300")->AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Parse("9223372036854775808")->AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).AsInt(), 0);
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).AsInt(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Parse("-2.9")->AsInt(), -2);  // in range: truncates toward zero
}

TEST(Value, Equality) {
  EXPECT_EQ(*Parse("[1,{\"a\":2}]"), *Parse("[1, {\"a\": 2}]"));
  EXPECT_FALSE(*Parse("[1]") == *Parse("[2]"));
  EXPECT_FALSE(Value(1) == Value("1"));
}

TEST(EscapeString, QuotesAndBackslashes) {
  EXPECT_EQ(EscapeString(R"(a"b\c)"), R"("a\"b\\c")");
}

}  // namespace
}  // namespace sdci::json
