#include "tensor/op.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "support/error.h"

namespace s4tf {
namespace {

TEST(OpTest, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (int k = 0; k < static_cast<int>(OpKind::kNumOps); ++k) {
    const std::string name = OpName(static_cast<OpKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate op name " << name;
  }
}

TEST(OpTest, ArityMatchesVocabulary) {
  EXPECT_EQ(OpArity(OpKind::kConstant), 0);
  EXPECT_EQ(OpArity(OpKind::kExp), 1);
  EXPECT_EQ(OpArity(OpKind::kAdd), 2);
  EXPECT_EQ(OpArity(OpKind::kSelect), 3);
  EXPECT_EQ(OpArity(OpKind::kConcat), -1);
}

TEST(OpTest, ElementwiseClassification) {
  EXPECT_TRUE(IsElementwise(OpKind::kAdd));
  EXPECT_TRUE(IsElementwise(OpKind::kRelu));
  EXPECT_TRUE(IsElementwise(OpKind::kSelect));
  EXPECT_FALSE(IsElementwise(OpKind::kMatMul));
  EXPECT_FALSE(IsElementwise(OpKind::kReduceSum));
  EXPECT_FALSE(IsElementwise(OpKind::kReshape));
  EXPECT_FALSE(IsElementwise(OpKind::kSoftmax));
}

TEST(InferShapeTest, ElementwiseBroadcasts) {
  EXPECT_EQ(InferShape(OpKind::kAdd, {Shape({2, 1}), Shape({1, 3})}, {}),
            Shape({2, 3}));
  EXPECT_EQ(InferShape(OpKind::kMul, {Shape({4}), Shape({})}, {}),
            Shape({4}));
}

TEST(InferShapeTest, MatMul) {
  EXPECT_EQ(InferShape(OpKind::kMatMul, {Shape({3, 4}), Shape({4, 5})}, {}),
            Shape({3, 5}));
  EXPECT_THROW(
      InferShape(OpKind::kMatMul, {Shape({3, 4}), Shape({5, 6})}, {}),
      InternalError);
  EXPECT_THROW(
      InferShape(OpKind::kMatMul, {Shape({3, 4, 5}), Shape({5, 6})}, {}),
      InternalError);
}

TEST(InferShapeTest, ReshapeChecksElementCount) {
  OpAttrs attrs;
  attrs.shape = {6};
  EXPECT_EQ(InferShape(OpKind::kReshape, {Shape({2, 3})}, attrs), Shape({6}));
  attrs.shape = {7};
  EXPECT_THROW(InferShape(OpKind::kReshape, {Shape({2, 3})}, attrs),
               InternalError);
}

TEST(InferShapeTest, TransposePermutes) {
  OpAttrs attrs;
  attrs.axes = {2, 0, 1};
  EXPECT_EQ(InferShape(OpKind::kTranspose, {Shape({2, 3, 4})}, attrs),
            Shape({4, 2, 3}));
  attrs.axes = {0, 0, 1};  // duplicate
  EXPECT_THROW(InferShape(OpKind::kTranspose, {Shape({2, 3, 4})}, attrs),
               InternalError);
}

TEST(InferShapeTest, ReduceRespectsAxesAndKeepDims) {
  OpAttrs attrs;
  attrs.axes = {1};
  EXPECT_EQ(InferShape(OpKind::kReduceSum, {Shape({2, 3, 4})}, attrs),
            Shape({2, 4}));
  attrs.keep_dims = true;
  EXPECT_EQ(InferShape(OpKind::kReduceSum, {Shape({2, 3, 4})}, attrs),
            Shape({2, 1, 4}));
  attrs = OpAttrs{};  // all axes
  EXPECT_EQ(InferShape(OpKind::kReduceMean, {Shape({2, 3})}, attrs),
            Shape({}));
}

struct ConvCase {
  Shape input, filter;
  std::int64_t stride;
  Padding padding;
  Shape expected;
};

// gtest prints the parameter into the test's ctest name; without this it
// dumps the struct's bytes, whose heap pointers change on every run.
void PrintTo(const ConvCase& c, std::ostream* os) {
  *os << c.input << " conv " << c.filter << " stride " << c.stride
      << (c.padding == Padding::kSame ? " SAME" : " VALID");
}

class ConvShapeTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvShapeTest, InfersOutput) {
  const auto& c = GetParam();
  OpAttrs attrs;
  attrs.stride_h = attrs.stride_w = c.stride;
  attrs.padding = c.padding;
  EXPECT_EQ(InferShape(OpKind::kConv2D, {c.input, c.filter}, attrs),
            c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvShapeTest,
    ::testing::Values(
        // LeNet conv1: 28x28x1, 5x5x1x6, SAME -> 28x28x6.
        ConvCase{Shape({1, 28, 28, 1}), Shape({5, 5, 1, 6}), 1,
                 Padding::kSame, Shape({1, 28, 28, 6})},
        // LeNet conv2: 14x14x6, 5x5x6x16, VALID -> 10x10x16.
        ConvCase{Shape({1, 14, 14, 6}), Shape({5, 5, 6, 16}), 1,
                 Padding::kValid, Shape({1, 10, 10, 16})},
        // ResNet stem-ish: stride 2 SAME halves spatial dims (ceil).
        ConvCase{Shape({4, 32, 32, 3}), Shape({3, 3, 3, 16}), 2,
                 Padding::kSame, Shape({4, 16, 16, 16})},
        ConvCase{Shape({2, 7, 7, 8}), Shape({7, 7, 8, 32}), 1,
                 Padding::kValid, Shape({2, 1, 1, 32})}));

TEST(InferShapeTest, ConvChannelMismatchRejected) {
  OpAttrs attrs;
  EXPECT_THROW(InferShape(OpKind::kConv2D,
                          {Shape({1, 8, 8, 3}), Shape({3, 3, 4, 8})}, attrs),
               InternalError);
}

TEST(InferShapeTest, PoolGeometry) {
  OpAttrs attrs;
  attrs.window_h = attrs.window_w = 2;
  attrs.stride_h = attrs.stride_w = 2;
  EXPECT_EQ(InferShape(OpKind::kAvgPool2D, {Shape({1, 28, 28, 6})}, attrs),
            Shape({1, 14, 14, 6}));
  EXPECT_EQ(InferShape(OpKind::kMaxPool2D, {Shape({1, 10, 10, 16})}, attrs),
            Shape({1, 5, 5, 16}));
}

TEST(InferShapeTest, SliceAndPad) {
  OpAttrs slice;
  slice.starts = {1, 2};
  slice.shape = {2, 3};
  EXPECT_EQ(InferShape(OpKind::kSlice, {Shape({4, 6})}, slice), Shape({2, 3}));
  slice.starts = {3, 2};
  EXPECT_THROW(InferShape(OpKind::kSlice, {Shape({4, 6})}, slice),
               InternalError);

  OpAttrs pad;
  pad.pads = {1, 2, 0, 3};
  EXPECT_EQ(InferShape(OpKind::kPad, {Shape({4, 6})}, pad), Shape({7, 9}));
}

TEST(InferShapeTest, ConcatSumsAxis) {
  OpAttrs attrs;
  attrs.axis = 1;
  EXPECT_EQ(InferShape(OpKind::kConcat,
                       {Shape({2, 3}), Shape({2, 5}), Shape({2, 1})}, attrs),
            Shape({2, 9}));
  EXPECT_THROW(InferShape(OpKind::kConcat, {Shape({2, 3}), Shape({3, 3})},
                          attrs),
               InternalError);
}

TEST(InferShapeTest, EmptyReducedAxis) {
  EXPECT_EQ(InferShape(OpKind::kSoftmax, {Shape({2, 0})}, {}), Shape({2, 0}));
  EXPECT_EQ(InferShape(OpKind::kLogSoftmax, {Shape({2, 0})}, {}),
            Shape({2, 0}));
  OpAttrs attrs;
  attrs.axis = 1;
  try {
    InferShape(OpKind::kArgMax, {Shape({2, 0})}, attrs);
    ADD_FAILURE() << "arg_max over an empty axis did not throw";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("arg_max"), std::string::npos) << what;
    EXPECT_NE(what.find("[2, 0]"), std::string::npos) << what;
    EXPECT_NE(what.find("axis 1"), std::string::npos) << what;
  }
  attrs.axis = 0;
  EXPECT_EQ(InferShape(OpKind::kArgMax, {Shape({2, 0})}, attrs), Shape({0}));
}

TEST(InferShapeTest, ArityMismatchRejected) {
  EXPECT_THROW(InferShape(OpKind::kAdd, {Shape({2})}, {}), InternalError);
  EXPECT_THROW(InferShape(OpKind::kExp, {Shape({2}), Shape({2})}, {}),
               InternalError);
}

TEST(OpFlopsTest, MatMulAndConvDominate) {
  EXPECT_EQ(OpFlops(OpKind::kMatMul, {Shape({2, 3}), Shape({3, 4})},
                    Shape({2, 4}), {}),
            2 * 2 * 3 * 4);
  OpAttrs attrs;
  const Shape in({1, 8, 8, 3});
  const Shape filt({3, 3, 3, 16});
  const Shape out = InferShape(OpKind::kConv2D, {in, filt}, attrs);
  EXPECT_EQ(OpFlops(OpKind::kConv2D, {in, filt}, out, attrs),
            2 * out.NumElements() * 3 * 3 * 3);
  EXPECT_EQ(OpFlops(OpKind::kAdd, {Shape({5}), Shape({5})}, Shape({5}), {}),
            5);
  EXPECT_EQ(OpFlops(OpKind::kReshape, {Shape({5})}, Shape({5}), {}), 0);
}

TEST(OpAttrsTest, HashDiscriminates) {
  OpAttrs a;
  OpAttrs b;
  EXPECT_EQ(a.Hash(0), b.Hash(0));
  b.scalar = 1.0f;
  EXPECT_NE(a.Hash(0), b.Hash(0));
  OpAttrs c;
  c.axes = {1};
  OpAttrs d;
  d.shape = {1};
  EXPECT_NE(c.Hash(0), d.Hash(0));  // same payload, different field
  OpAttrs e;
  e.stride_h = 2;
  OpAttrs f;
  f.stride_w = 2;
  EXPECT_NE(e.Hash(0), f.Hash(0));
}

}  // namespace
}  // namespace s4tf
