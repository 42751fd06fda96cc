#include "support/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

namespace s4tf::json {
namespace {

std::string Nested(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonTest, ParsesNestingUpToTheCap) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(ParseJson(Nested(kMaxJsonDepth), &value, &error)) << error;
  EXPECT_TRUE(value.is_array());
  EXPECT_FALSE(ParseJson(Nested(kMaxJsonDepth + 1), &value, &error));
  EXPECT_NE(error.find("offset " + std::to_string(kMaxJsonDepth)),
            std::string::npos)
      << error;
}

// Recursion depth follows the input, so without the cap 100,000 unclosed
// brackets (200 KB) overflow the stack instead of returning an error.
TEST(JsonTest, DeepNestingFailsWithTheOffsetInsteadOfCrashing) {
  for (const std::string& open : {std::string("["), std::string("{\"a\":")}) {
    std::string text;
    for (int i = 0; i < 100000; ++i) text += open;
    JsonValue value;
    std::string error;
    EXPECT_FALSE(ParseJson(text, &value, &error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
    EXPECT_NE(error.find(
                  "offset " +
                  std::to_string(kMaxJsonDepth * open.size())),
              std::string::npos)
        << error;
  }
}

// strtod alone reads all of these; JSON has none of them.
TEST(JsonTest, RejectsNumbersOutsideTheJsonGrammar) {
  for (const char* text : {"[inf]", "[-inf]", "[nan]", "[0x10]", "[+1]",
                           "[01]", "[1.]", "[.5]", "[1e]", "[1e+]", "[-]",
                           "[-.5]", "[1.e3]"}) {
    JsonValue value;
    std::string error;
    EXPECT_FALSE(ParseJson(text, &value, &error)) << text;
    EXPECT_NE(error.find(" at offset "), std::string::npos) << text << error;
  }
}

TEST(JsonTest, JsonNumbersParseToTheSameDoubleAsStrtod) {
  for (const char* text : {"-0", "0", "1e-07", "6.02E+23", "0.5", "-12.25e2",
                           "0.30000000000000004", "123456789012"}) {
    JsonValue value;
    std::string error;
    ASSERT_TRUE(ParseJson(std::string("[") + text + "]", &value, &error))
        << text << ": " << error;
    const double parsed = value.array().at(0).number();
    const double expected = std::strtod(text, nullptr);
    EXPECT_EQ(parsed, expected) << text;
    EXPECT_EQ(std::signbit(parsed), std::signbit(expected)) << text;
  }
}

// strtod returns +-HUGE_VAL on overflow; a JSON number is a finite double.
TEST(JsonTest, NumbersBeyondTheDoubleRangeFailWithTheirOffset) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(ParseJson("[1.7976931348623157e308]", &value, &error)) << error;
  EXPECT_EQ(value.array().at(0).number(), 1.7976931348623157e308);
  // The offset is where the number starts.
  for (const auto& [text, offset] :
       {std::pair{"[1.8e308]", 1}, std::pair{"[-1e999]", 1},
        std::pair{"[0, 1E400]", 4}}) {
    EXPECT_FALSE(ParseJson(text, &value, &error)) << text;
    EXPECT_NE(error.find("number out of range at offset " +
                         std::to_string(offset)),
              std::string::npos)
        << text << ": " << error;
  }
  // Underflow is not an error: it rounds to the nearest double.
  ASSERT_TRUE(ParseJson("[1e-400, 4.9e-324]", &value, &error)) << error;
  EXPECT_EQ(value.array().at(0).number(), 0.0);
  EXPECT_EQ(value.array().at(1).number(), std::strtod("4.9e-324", nullptr));
  EXPECT_GT(value.array().at(1).number(), 0.0);
}

TEST(JsonTest, UnicodeEscapeNeedsFourHexDigits) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(ParseJson(R"(["\u0041z"])", &value, &error)) << error;
  EXPECT_EQ(value.array().at(0).str(), "Az");
  for (const char* text : {R"(["\uzzzz"])", R"(["\u12"])", R"(["\u12g4"])",
                           R"(["\u-123"])", R"(["\u 123"])", R"(["\u)"}) {
    EXPECT_FALSE(ParseJson(text, &value, &error)) << text;
    EXPECT_NE(error.find("bad \\u escape at offset "), std::string::npos)
        << text << ": " << error;
  }
}

}  // namespace
}  // namespace s4tf::json
