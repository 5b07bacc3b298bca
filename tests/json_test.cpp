// Unit tests for the JSON reader in src/common/json: scalars,
// containers and escapes, and the malformed inputs it must refuse —
// including nesting past kMaxJsonDepth and broken escapes, since it
// parses untrusted socket payloads.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace repro {
namespace {

TEST(JsonReader, ParsesScalarsContainersAndEscapes) {
  const auto doc = parse_json(
      R"({"a":[1,2.5,-3e2],"s":"x\"y\n","t":true,"f":false,"n":null})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(doc->find("s")->str_or(""), "x\"y\n");
  EXPECT_TRUE(doc->find("t")->boolean);
  EXPECT_FALSE(doc->find("f")->boolean);
  EXPECT_EQ(doc->find("n")->type, JsonValue::Type::kNull);

  const auto escapes = parse_json(R"(["\/\\\b\f\r\t\u0041\u00e9\u000A"])");
  ASSERT_TRUE(escapes.has_value());
  EXPECT_EQ(escapes->array[0].string, "/\\\b\f\r\tA?\n");

  // Nesting up to the bound parses.
  const std::string deepest = std::string(kMaxJsonDepth, '[') +
                              std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(parse_json(deepest).has_value());
}

TEST(JsonReader, RejectsMalformedDocuments) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{\"a\":}").has_value());
  EXPECT_FALSE(parse_json("[1,2").has_value());
  EXPECT_FALSE(parse_json("{} trailing").has_value());
  EXPECT_FALSE(parse_json("{\"a\" 1}").has_value());

  // One level past the bound, and far past it (a recursion per level
  // would overflow the stack long before a megabyte of brackets).
  const std::string too_deep = std::string(kMaxJsonDepth + 1, '[') +
                               std::string(kMaxJsonDepth + 1, ']');
  EXPECT_FALSE(parse_json(too_deep).has_value());
  EXPECT_FALSE(parse_json(std::string(std::size_t{1} << 20, '[')).has_value());
  EXPECT_FALSE(
      parse_json(std::string(std::size_t{1} << 20, '{')).has_value());
  std::string objects;
  for (std::size_t i = 0; i <= kMaxJsonDepth; ++i) objects += "{\"k\":";
  objects += "1";
  objects.append(kMaxJsonDepth + 1, '}');
  EXPECT_FALSE(parse_json(objects).has_value());

  // \u needs four hex digits; unknown escapes are malformed.
  EXPECT_FALSE(parse_json(R"(["\uzzzz"])").has_value());
  EXPECT_FALSE(parse_json(R"(["\u00g1"])").has_value());
  EXPECT_FALSE(parse_json(R"(["\u12"])").has_value());
  EXPECT_FALSE(parse_json(R"(["\q"])").has_value());
  EXPECT_FALSE(parse_json(R"(["\x41"])").has_value());
  EXPECT_FALSE(parse_json("[\"\\").has_value());
}

TEST(JsonReader, NumbersFollowTheRfc8259Grammar) {
  const auto number = [](const std::string& text) {
    const auto doc = parse_json(text);
    EXPECT_TRUE(doc.has_value()) << text;
    EXPECT_EQ(doc ? doc->type : JsonValue::Type::kNull,
              JsonValue::Type::kNumber)
        << text;
    return doc ? doc->number : 0.0;
  };
  EXPECT_EQ(number("0"), 0.0);
  EXPECT_TRUE(std::signbit(number("-0")));
  EXPECT_DOUBLE_EQ(number("1E-3"), 1e-3);
  EXPECT_DOUBLE_EQ(number("1e+20"), 1e20);
  EXPECT_DOUBLE_EQ(number("-12.5e2"), -1250.0);
  EXPECT_DOUBLE_EQ(number(" 0.25 "), 0.25);
  EXPECT_EQ(number("18446744073709551615"), 18446744073709551615.0);

  // strtod takes all of these; JSON takes none.
  for (const char* bad :
       {"0x10", "inf", "-inf", "nan", "NaN", "+1", "1.", ".5", "01", "-01",
        "-", "1e", "1e+", "1.e5", "--1", "1e400", "0x", "1_000"}) {
    EXPECT_FALSE(parse_json(bad).has_value()) << bad;
    EXPECT_FALSE(parse_json(std::string("{\"count\":") + bad + "}")
                     .has_value())
        << bad;
  }
}

}  // namespace
}  // namespace repro
