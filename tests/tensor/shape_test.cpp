#include "tensor/shape.h"

#include <gtest/gtest.h>

#include "support/error.h"

namespace s4tf {
namespace {

TEST(ShapeTest, ScalarBasics) {
  Shape s({});
  EXPECT_EQ(s.rank(), 0);
  EXPECT_TRUE(s.IsScalar());
  EXPECT_EQ(s.NumElements(), 1);
  EXPECT_EQ(s.ToString(), "[]");
}

TEST(ShapeTest, DimsAndNumElements) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(2), 4);
  EXPECT_EQ(s.NumElements(), 24);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
}

TEST(ShapeTest, ZeroDimGivesZeroElements) {
  Shape s({3, 0, 2});
  EXPECT_EQ(s.NumElements(), 0);
}

TEST(ShapeTest, RowMajorStrides) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.Strides(), (std::vector<std::int64_t>{12, 4, 1}));
}

TEST(ShapeTest, OffsetAndIndexRoundTrip) {
  Shape s({2, 3, 4});
  for (std::int64_t off = 0; off < s.NumElements(); ++off) {
    EXPECT_EQ(s.OffsetOf(s.IndexOf(off)), off);
  }
  EXPECT_EQ(s.OffsetOf({1, 2, 3}), 23);
}

TEST(ShapeTest, OffsetOfOutOfRangeThrows) {
  Shape s({2, 2});
  EXPECT_THROW(s.OffsetOf({2, 0}), InternalError);
  EXPECT_THROW(s.OffsetOf({0}), InternalError);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(ShapeTest, NegativeDimRejected) {
  EXPECT_THROW(Shape({2, -1}), InternalError);
}

struct BroadcastCase {
  Shape a, b;
  bool compatible;
  Shape result;  // valid when compatible
};

// gtest prints the parameter into the test's ctest name; without this it
// dumps the struct's bytes, whose heap pointers change on every run.
void PrintTo(const BroadcastCase& c, std::ostream* os) {
  *os << c.a << " with " << c.b;
}

class BroadcastTest : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastTest, CompatibilityAndResult) {
  const auto& c = GetParam();
  EXPECT_EQ(AreBroadcastCompatible(c.a, c.b), c.compatible);
  EXPECT_EQ(AreBroadcastCompatible(c.b, c.a), c.compatible);
  if (c.compatible) {
    EXPECT_EQ(BroadcastShapes(c.a, c.b), c.result);
    EXPECT_EQ(BroadcastShapes(c.b, c.a), c.result);
  } else {
    EXPECT_THROW(BroadcastShapes(c.a, c.b), InternalError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NumpyRules, BroadcastTest,
    ::testing::Values(
        BroadcastCase{Shape({2, 3}), Shape({2, 3}), true, Shape({2, 3})},
        BroadcastCase{Shape({2, 3}), Shape({3}), true, Shape({2, 3})},
        BroadcastCase{Shape({2, 1}), Shape({1, 5}), true, Shape({2, 5})},
        BroadcastCase{Shape({}), Shape({4, 7}), true, Shape({4, 7})},
        BroadcastCase{Shape({1}), Shape({3, 1}), true, Shape({3, 1})},
        BroadcastCase{Shape({8, 1, 6, 1}), Shape({7, 1, 5}), true,
                      Shape({8, 7, 6, 5})},
        BroadcastCase{Shape({2, 3}), Shape({2, 4}), false, Shape({})},
        BroadcastCase{Shape({3}), Shape({4}), false, Shape({})},
        // Zero-sized axes: size-1 stretches down to zero (NumPy rule).
        BroadcastCase{Shape({0, 3}), Shape({1, 3}), true, Shape({0, 3})},
        BroadcastCase{Shape({0}), Shape({}), true, Shape({0})},
        BroadcastCase{Shape({0}), Shape({3}), false, Shape({})}));

TEST(BroadcastReductionAxesTest, IdentifiesSummedAxes) {
  EXPECT_EQ(BroadcastReductionAxes(Shape({2, 3}), Shape({2, 3})),
            (std::vector<std::int64_t>{}));
  EXPECT_EQ(BroadcastReductionAxes(Shape({2, 3}), Shape({3})),
            (std::vector<std::int64_t>{0}));
  EXPECT_EQ(BroadcastReductionAxes(Shape({2, 3}), Shape({1, 3})),
            (std::vector<std::int64_t>{0}));
  EXPECT_EQ(BroadcastReductionAxes(Shape({4, 2, 3}), Shape({2, 1})),
            (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(BroadcastReductionAxes(Shape({2, 3}), Shape({})),
            (std::vector<std::int64_t>{0, 1}));
}

TEST(HashShapeTest, StableAndDiscriminating) {
  EXPECT_EQ(HashShape(Shape({2, 3}), 0), HashShape(Shape({2, 3}), 0));
  EXPECT_NE(HashShape(Shape({2, 3}), 0), HashShape(Shape({3, 2}), 0));
  // [2,3] vs [2,3,1]: rank participates.
  EXPECT_NE(HashShape(Shape({2, 3}), 0), HashShape(Shape({2, 3, 1}), 0));
  // [6] vs [2,3]: same element count, different shape.
  EXPECT_NE(HashShape(Shape({6}), 0), HashShape(Shape({2, 3}), 0));
}

}  // namespace
}  // namespace s4tf
