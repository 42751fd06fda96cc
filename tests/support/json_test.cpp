#include "support/json.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace s4tf::json
