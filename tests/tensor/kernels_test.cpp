#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <gtest/gtest.h>

#include "support/error.h"
#include "support/rng.h"

namespace s4tf {
namespace {

Literal L(const Shape& s, std::vector<float> v) {
  return Literal::FromVector(s, std::move(v));
}

std::vector<float> Eval(OpKind kind, const std::vector<Literal>& inputs,
                        const OpAttrs& attrs = {}) {
  return EvalOpLiteral(kind, inputs, attrs).data.ToVector();
}

TEST(KernelsTest, UnaryElementwise) {
  const Literal x = L(Shape({4}), {-1.0f, 0.0f, 1.0f, 2.0f});
  EXPECT_EQ(Eval(OpKind::kNeg, {x}), (std::vector<float>{1, 0, -1, -2}));
  EXPECT_EQ(Eval(OpKind::kRelu, {x}), (std::vector<float>{0, 0, 1, 2}));
  EXPECT_EQ(Eval(OpKind::kSquare, {x}), (std::vector<float>{1, 0, 1, 4}));
  EXPECT_EQ(Eval(OpKind::kAbs, {x}), (std::vector<float>{1, 0, 1, 2}));
  const auto e = Eval(OpKind::kExp, {x});
  EXPECT_NEAR(e[0], std::exp(-1.0f), 1e-6);
  EXPECT_NEAR(e[3], std::exp(2.0f), 1e-5);
  const auto t = Eval(OpKind::kTanh, {x});
  EXPECT_NEAR(t[3], std::tanh(2.0f), 1e-6);
  const auto s = Eval(OpKind::kSigmoid, {x});
  EXPECT_NEAR(s[1], 0.5f, 1e-6);
}

TEST(KernelsTest, ScalarAttrOps) {
  const Literal x = L(Shape({3}), {1.0f, 2.0f, 3.0f});
  EXPECT_EQ(Eval(OpKind::kAddScalar, {x}, OpAttrs{.scalar = 10.0f}),
            (std::vector<float>{11, 12, 13}));
  EXPECT_EQ(Eval(OpKind::kMulScalar, {x}, OpAttrs{.scalar = -2.0f}),
            (std::vector<float>{-2, -4, -6}));
  const auto p = Eval(OpKind::kPowScalar, {x}, OpAttrs{.scalar = 2.0f});
  EXPECT_EQ(p, (std::vector<float>{1, 4, 9}));
  const auto lr = Eval(OpKind::kLeakyRelu, {L(Shape({2}), {-4.0f, 4.0f})},
                       OpAttrs{.scalar = 0.25f});
  EXPECT_EQ(lr, (std::vector<float>{-1, 4}));
}

TEST(KernelsTest, BinarySameShape) {
  const Literal a = L(Shape({2, 2}), {1, 2, 3, 4});
  const Literal b = L(Shape({2, 2}), {10, 20, 30, 40});
  EXPECT_EQ(Eval(OpKind::kAdd, {a, b}), (std::vector<float>{11, 22, 33, 44}));
  EXPECT_EQ(Eval(OpKind::kSub, {b, a}), (std::vector<float>{9, 18, 27, 36}));
  EXPECT_EQ(Eval(OpKind::kMul, {a, b}),
            (std::vector<float>{10, 40, 90, 160}));
  EXPECT_EQ(Eval(OpKind::kDiv, {b, a}), (std::vector<float>{10, 10, 10, 10}));
  EXPECT_EQ(Eval(OpKind::kMaximum, {a, b}), b.data.ToVector());
  EXPECT_EQ(Eval(OpKind::kMinimum, {a, b}), a.data.ToVector());
  EXPECT_EQ(Eval(OpKind::kGreater, {a, b}), (std::vector<float>{0, 0, 0, 0}));
  EXPECT_EQ(Eval(OpKind::kGreater, {b, a}), (std::vector<float>{1, 1, 1, 1}));
}

TEST(KernelsTest, BinaryBroadcastRowAndColumn) {
  const Literal m = L(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  const Literal row = L(Shape({3}), {10, 20, 30});
  const Literal col = L(Shape({2, 1}), {100, 200});
  EXPECT_EQ(Eval(OpKind::kAdd, {m, row}),
            (std::vector<float>{11, 22, 33, 14, 25, 36}));
  EXPECT_EQ(Eval(OpKind::kAdd, {m, col}),
            (std::vector<float>{101, 102, 103, 204, 205, 206}));
  // Scalar against matrix.
  EXPECT_EQ(Eval(OpKind::kMul, {m, Literal::Scalar(2.0f)}),
            (std::vector<float>{2, 4, 6, 8, 10, 12}));
  // Column against row: outer sum.
  EXPECT_EQ(Eval(OpKind::kAdd, {col, row}),
            (std::vector<float>{110, 120, 130, 210, 220, 230}));
}

TEST(KernelsTest, SelectPicksByCondition) {
  const Literal c = L(Shape({4}), {1, 0, 1, 0});
  const Literal a = L(Shape({4}), {1, 2, 3, 4});
  const Literal b = L(Shape({4}), {-1, -2, -3, -4});
  EXPECT_EQ(Eval(OpKind::kSelect, {c, a, b}),
            (std::vector<float>{1, -2, 3, -4}));
}

TEST(KernelsTest, ReshapeSharesBuffer) {
  const Literal x = L(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  const Literal y =
      EvalOpLiteral(OpKind::kReshape, {x}, OpAttrs{.shape = {3, 2}});
  EXPECT_EQ(y.shape, Shape({3, 2}));
  EXPECT_TRUE(y.data.SharesStorageWith(x.data));  // O(1) reshape
}

TEST(KernelsTest, Transpose2D) {
  const Literal x = L(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(Eval(OpKind::kTranspose, {x}, OpAttrs{.axes = {1, 0}}),
            (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(KernelsTest, Transpose3DArbitraryPerm) {
  // x[i][j][k] = 100i + 10j + k over [2,3,4].
  std::vector<float> v;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j)
      for (int k = 0; k < 4; ++k) v.push_back(100.f * i + 10.f * j + k);
  const Literal x = L(Shape({2, 3, 4}), v);
  const Literal y =
      EvalOpLiteral(OpKind::kTranspose, {x}, OpAttrs{.axes = {2, 0, 1}});
  EXPECT_EQ(y.shape, Shape({4, 2, 3}));
  // y[k][i][j] == x[i][j][k]
  for (int k = 0; k < 4; ++k)
    for (int i = 0; i < 2; ++i)
      for (int j = 0; j < 3; ++j)
        EXPECT_EQ(y.data[static_cast<std::size_t>((k * 2 + i) * 3 + j)],
                  100.f * i + 10.f * j + k);
}

TEST(KernelsTest, BroadcastToMaterializes) {
  const Literal x = L(Shape({2, 1}), {5, 7});
  EXPECT_EQ(Eval(OpKind::kBroadcastTo, {x}, OpAttrs{.shape = {2, 3}}),
            (std::vector<float>{5, 5, 5, 7, 7, 7}));
}

TEST(KernelsTest, SlicePadRoundTrip) {
  const Literal x = L(Shape({3, 4}), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  const Literal s = EvalOpLiteral(
      OpKind::kSlice, {x}, OpAttrs{.shape = {2, 2}, .starts = {1, 1}});
  EXPECT_EQ(s.data.ToVector(), (std::vector<float>{5, 6, 9, 10}));
  const Literal p = EvalOpLiteral(
      OpKind::kPad, {s}, OpAttrs{.pads = {1, 0, 1, 1}, .scalar = -1.0f});
  EXPECT_EQ(p.shape, Shape({3, 4}));
  EXPECT_EQ(p.data.ToVector(),
            (std::vector<float>{-1, -1, -1, -1, -1, 5, 6, -1, -1, 9, 10, -1}));
}

TEST(KernelsTest, ConcatAlongEachAxis) {
  const Literal a = L(Shape({1, 2}), {1, 2});
  const Literal b = L(Shape({2, 2}), {3, 4, 5, 6});
  const Literal r0 = EvalOpLiteral(OpKind::kConcat, {a, b},
                                   OpAttrs{.axis = 0});
  EXPECT_EQ(r0.data.ToVector(), (std::vector<float>{1, 2, 3, 4, 5, 6}));

  const Literal c = L(Shape({2, 1}), {7, 8});
  const Literal r1 = EvalOpLiteral(OpKind::kConcat, {b, c},
                                   OpAttrs{.axis = 1});
  EXPECT_EQ(r1.shape, Shape({2, 3}));
  EXPECT_EQ(r1.data.ToVector(), (std::vector<float>{3, 4, 7, 5, 6, 8}));
}

TEST(KernelsTest, Reductions) {
  const Literal x = L(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(Eval(OpKind::kReduceSum, {x}), (std::vector<float>{21}));
  EXPECT_EQ(Eval(OpKind::kReduceSum, {x}, OpAttrs{.axes = {0}}),
            (std::vector<float>{5, 7, 9}));
  EXPECT_EQ(Eval(OpKind::kReduceSum, {x}, OpAttrs{.axes = {1}}),
            (std::vector<float>{6, 15}));
  EXPECT_EQ(Eval(OpKind::kReduceMean, {x}, OpAttrs{.axes = {1}}),
            (std::vector<float>{2, 5}));
  EXPECT_EQ(Eval(OpKind::kReduceMax, {x}, OpAttrs{.axes = {0}}),
            (std::vector<float>{4, 5, 6}));
  // keep_dims preserves rank.
  const Literal k = EvalOpLiteral(
      OpKind::kReduceSum, {x}, OpAttrs{.axes = {1}, .keep_dims = true});
  EXPECT_EQ(k.shape, Shape({2, 1}));
}

TEST(KernelsTest, ReduceMultipleAxes) {
  std::vector<float> v(24);
  for (int i = 0; i < 24; ++i) v[static_cast<std::size_t>(i)] = 1.0f;
  const Literal x = L(Shape({2, 3, 4}), v);
  EXPECT_EQ(Eval(OpKind::kReduceSum, {x}, OpAttrs{.axes = {0, 2}}),
            (std::vector<float>{8, 8, 8}));
}

TEST(KernelsTest, ArgMax) {
  const Literal x = L(Shape({2, 4}), {1, 9, 3, 4, 8, 2, 8, 1});
  EXPECT_EQ(Eval(OpKind::kArgMax, {x}, OpAttrs{.axis = 1}),
            (std::vector<float>{1, 0}));  // ties -> first index
  EXPECT_EQ(Eval(OpKind::kArgMax, {x}, OpAttrs{.axis = 0}),
            (std::vector<float>{1, 0, 1, 0}));
}

TEST(KernelsTest, SoftmaxRowsSumToOne) {
  const Literal x = L(Shape({2, 3}), {1, 2, 3, 1000, 1000, 1000});
  const auto y = Eval(OpKind::kSoftmax, {x});
  EXPECT_NEAR(y[0] + y[1] + y[2], 1.0f, 1e-6);
  EXPECT_NEAR(y[3], 1.0f / 3, 1e-6);  // numerically stable at 1000
  EXPECT_GT(y[2], y[1]);
  const auto ls = Eval(OpKind::kLogSoftmax, {x});
  EXPECT_NEAR(std::exp(ls[0]), y[0], 1e-6);
}

TEST(KernelsTest, MatMulSmallKnown) {
  const Literal a = L(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  const Literal b = L(Shape({3, 2}), {7, 8, 9, 10, 11, 12});
  EXPECT_EQ(Eval(OpKind::kMatMul, {a, b}),
            (std::vector<float>{58, 64, 139, 154}));
}

TEST(KernelsTest, MatMulIdentity) {
  Rng rng(5);
  std::vector<float> v(9);
  rng.FillUniform(v.data(), 9, -1, 1);
  const Literal a = L(Shape({3, 3}), v);
  const Literal eye = L(Shape({3, 3}), {1, 0, 0, 0, 1, 0, 0, 0, 1});
  EXPECT_EQ(Eval(OpKind::kMatMul, {a, eye}), v);
  EXPECT_EQ(Eval(OpKind::kMatMul, {eye, a}), v);
}

TEST(KernelsTest, Conv2DIdentityKernel) {
  // 1x1 kernel with weight 1 is identity.
  std::vector<float> v(16);
  for (int i = 0; i < 16; ++i) v[static_cast<std::size_t>(i)] = i;
  const Literal x = L(Shape({1, 4, 4, 1}), v);
  const Literal k1 = L(Shape({1, 1, 1, 1}), {1});
  EXPECT_EQ(Eval(OpKind::kConv2D, {x, k1}), v);
}

TEST(KernelsTest, Conv2DBoxFilterValid) {
  // 2x2 all-ones filter on a 3x3 ramp, VALID: each output = sum of window.
  const Literal x = L(Shape({1, 3, 3, 1}), {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Literal k = L(Shape({2, 2, 1, 1}), {1, 1, 1, 1});
  EXPECT_EQ(Eval(OpKind::kConv2D, {x, k}),
            (std::vector<float>{12, 16, 24, 28}));
}

TEST(KernelsTest, Conv2DSamePaddingKeepsSize) {
  const Literal x = L(Shape({1, 3, 3, 1}), {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Literal k = L(Shape({3, 3, 1, 1}), {0, 0, 0, 0, 1, 0, 0, 0, 0});
  // Center-tap 3x3 SAME conv is identity.
  const Literal y =
      EvalOpLiteral(OpKind::kConv2D, {x, k}, OpAttrs{.padding = Padding::kSame});
  EXPECT_EQ(y.shape, Shape({1, 3, 3, 1}));
  EXPECT_EQ(y.data.ToVector(), x.data.ToVector());
}

TEST(KernelsTest, Conv2DMultiChannel) {
  // 2 input channels, 1x1 filter summing channels with weights (2, 3).
  const Literal x = L(Shape({1, 1, 2, 2}), {1, 10, 2, 20});
  const Literal k = L(Shape({1, 1, 2, 1}), {2, 3});
  EXPECT_EQ(Eval(OpKind::kConv2D, {x, k}), (std::vector<float>{32, 64}));
}

TEST(KernelsTest, AvgAndMaxPool) {
  const Literal x =
      L(Shape({1, 4, 4, 1}),
        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  OpAttrs attrs;
  attrs.window_h = attrs.window_w = 2;
  attrs.stride_h = attrs.stride_w = 2;
  EXPECT_EQ(Eval(OpKind::kAvgPool2D, {x}, attrs),
            (std::vector<float>{3.5, 5.5, 11.5, 13.5}));
  EXPECT_EQ(Eval(OpKind::kMaxPool2D, {x}, attrs),
            (std::vector<float>{6, 8, 14, 16}));
}

TEST(KernelsTest, AvgPoolGradDistributesEvenly) {
  OpAttrs attrs;
  attrs.window_h = attrs.window_w = 2;
  attrs.stride_h = attrs.stride_w = 2;
  attrs.shape = {1, 4, 4, 1};
  const Literal g = L(Shape({1, 2, 2, 1}), {4, 8, 12, 16});
  const auto r = Eval(OpKind::kAvgPool2DGrad, {g}, attrs);
  // Each input in a window receives grad/4.
  EXPECT_EQ(r, (std::vector<float>{1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3,
                                   4, 4}));
}

TEST(KernelsTest, MaxPoolGradRoutesToArgmax) {
  const Literal x =
      L(Shape({1, 2, 2, 1}), {1, 9, 3, 4});
  OpAttrs attrs;
  attrs.window_h = attrs.window_w = 2;
  attrs.stride_h = attrs.stride_w = 2;
  const Literal g = L(Shape({1, 1, 1, 1}), {5});
  EXPECT_EQ(Eval(OpKind::kMaxPool2DGrad, {x, g}, attrs),
            (std::vector<float>{0, 5, 0, 0}));
}

// Property: Conv2DBackpropInput/Filter are the true adjoints of Conv2D:
// <conv(x, f), g> == <x, conv_bp_input(g, f)> == <f, conv_bp_filter(x, g)>.
struct ConvAdjointCase {
  Shape input, filter;
  std::int64_t stride;
  Padding padding;
};

// gtest prints the parameter into the test's ctest name; without this it
// dumps the struct's bytes, whose heap pointers change on every run.
void PrintTo(const ConvAdjointCase& c, std::ostream* os) {
  *os << c.input << " conv " << c.filter << " stride " << c.stride
      << (c.padding == Padding::kSame ? " SAME" : " VALID");
}

class ConvAdjointTest : public ::testing::TestWithParam<ConvAdjointCase> {};

float Dot(const Literal& a, const Literal& b) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    acc += a.data[static_cast<std::size_t>(i)] *
           b.data[static_cast<std::size_t>(i)];
  }
  return acc;
}

TEST_P(ConvAdjointTest, AdjointIdentity) {
  const auto& c = GetParam();
  Rng rng(99);
  std::vector<float> xv(static_cast<std::size_t>(c.input.NumElements()));
  std::vector<float> fv(static_cast<std::size_t>(c.filter.NumElements()));
  rng.FillUniform(xv.data(), xv.size(), -1, 1);
  rng.FillUniform(fv.data(), fv.size(), -1, 1);
  const Literal x = L(c.input, xv);
  const Literal f = L(c.filter, fv);
  OpAttrs attrs;
  attrs.stride_h = attrs.stride_w = c.stride;
  attrs.padding = c.padding;
  const Literal y = EvalOpLiteral(OpKind::kConv2D, {x, f}, attrs);
  std::vector<float> gv(static_cast<std::size_t>(y.shape.NumElements()));
  rng.FillUniform(gv.data(), gv.size(), -1, 1);
  const Literal g = L(y.shape, gv);

  OpAttrs in_attrs = attrs;
  in_attrs.shape = c.input.dims();
  const Literal gx =
      EvalOpLiteral(OpKind::kConv2DBackpropInput, {g, f}, in_attrs);
  OpAttrs f_attrs = attrs;
  f_attrs.shape = c.filter.dims();
  const Literal gf =
      EvalOpLiteral(OpKind::kConv2DBackpropFilter, {x, g}, f_attrs);

  const float lhs = Dot(y, g);
  EXPECT_NEAR(lhs, Dot(x, gx), 1e-3 * std::max(1.0f, std::fabs(lhs)));
  EXPECT_NEAR(lhs, Dot(f, gf), 1e-3 * std::max(1.0f, std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvAdjointTest,
    ::testing::Values(
        ConvAdjointCase{Shape({1, 5, 5, 1}), Shape({3, 3, 1, 2}), 1,
                        Padding::kValid},
        ConvAdjointCase{Shape({2, 6, 6, 3}), Shape({3, 3, 3, 4}), 1,
                        Padding::kSame},
        ConvAdjointCase{Shape({1, 8, 8, 2}), Shape({3, 3, 2, 2}), 2,
                        Padding::kSame},
        ConvAdjointCase{Shape({2, 7, 5, 2}), Shape({2, 3, 2, 3}), 1,
                        Padding::kValid},
        ConvAdjointCase{Shape({1, 9, 9, 1}), Shape({5, 5, 1, 6}), 2,
                        Padding::kValid}));

TEST(KernelsTest, CrossReplicaSumIsIdentityOnOneReplica) {
  const Literal x = L(Shape({3}), {1, 2, 3});
  EXPECT_EQ(Eval(OpKind::kCrossReplicaSum, {x}), x.data.ToVector());
}

// --- Zero-size and rank-0 shapes. -------------------------------------------

Shape ShapeOf(OpKind kind, const std::vector<Literal>& inputs,
              const OpAttrs& attrs = {}) {
  return EvalOpLiteral(kind, inputs, attrs).shape;
}

bool AllNaN(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(), [](float x) { return std::isnan(x); });
}

TEST(KernelsTest, ZeroSizeShapes) {
  const float inf = std::numeric_limits<float>::infinity();
  const Literal scalar = L(Shape({}), {2.0f});
  const OpAttrs swap{.axes = {1, 0}};

  // [0, 3]: the empty axis leads.
  const Literal rows0 = Literal::Zeros(Shape({0, 3}));
  EXPECT_EQ(ShapeOf(OpKind::kTranspose, {rows0}, swap), Shape({3, 0}));
  EXPECT_EQ(ShapeOf(OpKind::kSlice, {rows0},
                    OpAttrs{.shape = {0, 3}, .starts = {0, 0}}),
            Shape({0, 3}));
  const Literal padded_rows = EvalOpLiteral(
      OpKind::kPad, {rows0}, OpAttrs{.pads = {1, 1, 0, 0}, .scalar = 7.0f});
  EXPECT_EQ(padded_rows.shape, Shape({2, 3}));
  EXPECT_EQ(padded_rows.data.ToVector(), std::vector<float>(6, 7.0f));
  const OpAttrs axis0{.axes = {0}};
  EXPECT_EQ(Eval(OpKind::kReduceSum, {rows0}, axis0),
            (std::vector<float>{0, 0, 0}));
  EXPECT_EQ(Eval(OpKind::kReduceMax, {rows0}, axis0),
            (std::vector<float>{-inf, -inf, -inf}));
  const std::vector<float> mean_rows =
      Eval(OpKind::kReduceMean, {rows0}, axis0);
  EXPECT_EQ(mean_rows.size(), 3u);
  EXPECT_TRUE(AllNaN(mean_rows));  // 0 * (1 / 0)
  EXPECT_EQ(ShapeOf(OpKind::kReduceSum, {rows0}, OpAttrs{.axes = {1}}),
            Shape({0}));
  EXPECT_EQ(Eval(OpKind::kReduceSum, {rows0}), (std::vector<float>{0}));
  EXPECT_EQ(Eval(OpKind::kReduceMax, {rows0}), (std::vector<float>{-inf}));
  EXPECT_EQ(ShapeOf(OpKind::kBroadcastTo, {L(Shape({1, 3}), {1, 2, 3})},
                    OpAttrs{.shape = {0, 3}}),
            Shape({0, 3}));
  EXPECT_EQ(ShapeOf(OpKind::kRelu, {rows0}), Shape({0, 3}));
  EXPECT_EQ(ShapeOf(OpKind::kAdd, {rows0, scalar}), Shape({0, 3}));

  // [3, 0]: the empty axis trails.
  const Literal cols0 = Literal::Zeros(Shape({3, 0}));
  EXPECT_EQ(ShapeOf(OpKind::kTranspose, {cols0}, swap), Shape({0, 3}));
  EXPECT_EQ(ShapeOf(OpKind::kSlice, {cols0},
                    OpAttrs{.shape = {3, 0}, .starts = {0, 0}}),
            Shape({3, 0}));
  const Literal padded_cols = EvalOpLiteral(
      OpKind::kPad, {cols0}, OpAttrs{.pads = {0, 0, 1, 1}, .scalar = 7.0f});
  EXPECT_EQ(padded_cols.shape, Shape({3, 2}));
  EXPECT_EQ(padded_cols.data.ToVector(), std::vector<float>(6, 7.0f));
  const OpAttrs axis1{.axes = {1}};
  EXPECT_EQ(Eval(OpKind::kReduceSum, {cols0}, axis1),
            (std::vector<float>{0, 0, 0}));
  EXPECT_EQ(Eval(OpKind::kReduceMax, {cols0}, axis1),
            (std::vector<float>{-inf, -inf, -inf}));
  const std::vector<float> mean_cols =
      Eval(OpKind::kReduceMean, {cols0}, axis1);
  EXPECT_EQ(mean_cols.size(), 3u);
  EXPECT_TRUE(AllNaN(mean_cols));
  EXPECT_EQ(ShapeOf(OpKind::kReduceSum, {cols0}, axis0), Shape({0}));
  EXPECT_EQ(ShapeOf(OpKind::kBroadcastTo, {L(Shape({3, 1}), {1, 2, 3})},
                    OpAttrs{.shape = {3, 0}}),
            Shape({3, 0}));
  EXPECT_EQ(ShapeOf(OpKind::kRelu, {cols0}), Shape({3, 0}));
  EXPECT_EQ(ShapeOf(OpKind::kAdd, {cols0, scalar}), Shape({3, 0}));
}

// An empty last axis: Softmax and LogSoftmax have no element to normalize
// and return their empty result; ArgMax over an empty axis has no answer,
// and shape inference rejects it, naming the op, the shape and the axis.
TEST(KernelsTest, EmptyReducedAxis) {
  const Literal cols0 = Literal::Zeros(Shape({2, 0}));
  for (OpKind kind : {OpKind::kSoftmax, OpKind::kLogSoftmax}) {
    const Literal out = EvalOpLiteral(kind, {cols0}, {});
    EXPECT_EQ(out.shape, Shape({2, 0})) << OpName(kind);
    EXPECT_EQ(out.size(), 0) << OpName(kind);
  }
  try {
    EvalOpLiteral(OpKind::kArgMax, {cols0}, OpAttrs{.axis = 1});
    ADD_FAILURE() << "arg_max over an empty axis did not throw";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("arg_max"), std::string::npos) << what;
    EXPECT_NE(what.find("[2, 0]"), std::string::npos) << what;
    EXPECT_NE(what.find("axis 1"), std::string::npos) << what;
  }
  // Over the non-empty axis the answer exists: an index per empty column.
  EXPECT_EQ(ShapeOf(OpKind::kArgMax, {cols0}, OpAttrs{.axis = 0}),
            Shape({0}));
}

TEST(KernelsTest, RankZeroOpsReturnTheirScalar) {
  const Literal x = L(Shape({}), {-2.5f});
  const std::vector<float> same = {-2.5f};
  EXPECT_EQ(Eval(OpKind::kTranspose, {x}, OpAttrs{.axes = {}}), same);
  EXPECT_EQ(Eval(OpKind::kSlice, {x}, OpAttrs{.shape = {}, .starts = {}}),
            same);
  EXPECT_EQ(Eval(OpKind::kPad, {x}, OpAttrs{.pads = {}, .scalar = 7.0f}),
            same);
  EXPECT_EQ(Eval(OpKind::kReduceSum, {x}), same);
  EXPECT_EQ(Eval(OpKind::kReduceMean, {x}), same);
  EXPECT_EQ(Eval(OpKind::kReduceMax, {x}), same);
  EXPECT_EQ(Eval(OpKind::kBroadcastTo, {x}, OpAttrs{.shape = {}}), same);
  EXPECT_EQ(Eval(OpKind::kNeg, {x}), (std::vector<float>{2.5f}));
  EXPECT_EQ(Eval(OpKind::kAdd, {x, x}), (std::vector<float>{-5.0f}));
  for (OpKind kind : {OpKind::kTranspose, OpKind::kReduceSum, OpKind::kNeg}) {
    EXPECT_EQ(ShapeOf(kind, {x}), Shape({})) << OpName(kind);
  }
}

}  // namespace
}  // namespace s4tf
