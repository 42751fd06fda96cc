// Bit-exact determinism of the parallel CPU kernels: every kernel shards
// only disjoint output slices, so its result must be identical — not just
// close — for any intra-op thread count.
#include <gtest/gtest.h>

#include <vector>

#include "support/rng.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace s4tf {
namespace {

Literal RandomLiteral(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(static_cast<std::size_t>(shape.NumElements()));
  rng.FillUniform(values.data(), values.size(), -1.0f, 1.0f);
  return Literal::FromVector(shape, std::move(values));
}

// Evaluates `kind` with 1 thread and with 4, expecting bitwise-equal
// results (vector<float> operator== is exact; inputs are finite so there
// are no NaN comparisons to worry about).
void ExpectThreadCountInvariant(OpKind kind,
                                const std::vector<Literal>& inputs,
                                const OpAttrs& attrs = {}) {
  SetIntraOpParallelism(1);
  const std::vector<float> serial =
      EvalOpLiteral(kind, inputs, attrs).data.ToVector();
  SetIntraOpParallelism(4);
  const std::vector<float> parallel =
      EvalOpLiteral(kind, inputs, attrs).data.ToVector();
  SetIntraOpParallelism(0);
  EXPECT_EQ(serial, parallel) << "op " << OpName(kind);
}

TEST(ParallelKernelsTest, MatMulBitIdentical) {
  // Odd sizes so row shards don't divide evenly.
  const Literal a = RandomLiteral(Shape({37, 53}), 1);
  const Literal b = RandomLiteral(Shape({53, 29}), 2);
  ExpectThreadCountInvariant(OpKind::kMatMul, {a, b});
}

TEST(ParallelKernelsTest, Conv2DForwardAndGradsBitIdentical) {
  const Shape in_shape({3, 9, 11, 5});
  const Shape filter_shape({3, 3, 5, 7});
  const Literal input = RandomLiteral(in_shape, 3);
  const Literal filter = RandomLiteral(filter_shape, 4);
  OpAttrs attrs;
  attrs.padding = Padding::kSame;
  attrs.stride_h = attrs.stride_w = 2;
  ExpectThreadCountInvariant(OpKind::kConv2D, {input, filter}, attrs);

  const Shape out_shape =
      InferShape(OpKind::kConv2D, {in_shape, filter_shape}, attrs);
  const Literal grad_out = RandomLiteral(out_shape, 5);

  OpAttrs grad_in_attrs = attrs;
  grad_in_attrs.shape = in_shape.dims();
  ExpectThreadCountInvariant(OpKind::kConv2DBackpropInput,
                             {grad_out, filter}, grad_in_attrs);

  OpAttrs grad_filter_attrs = attrs;
  grad_filter_attrs.shape = filter_shape.dims();
  ExpectThreadCountInvariant(OpKind::kConv2DBackpropFilter,
                             {input, grad_out}, grad_filter_attrs);
}

TEST(ParallelKernelsTest, PoolingForwardAndGradsBitIdentical) {
  const Shape in_shape({3, 10, 10, 6});
  const Literal input = RandomLiteral(in_shape, 6);
  OpAttrs attrs;
  attrs.window_h = attrs.window_w = 3;
  attrs.stride_h = attrs.stride_w = 2;
  attrs.padding = Padding::kSame;  // overlapping windows + edge clipping
  ExpectThreadCountInvariant(OpKind::kMaxPool2D, {input}, attrs);
  ExpectThreadCountInvariant(OpKind::kAvgPool2D, {input}, attrs);

  const Shape out_shape = InferShape(OpKind::kMaxPool2D, {in_shape}, attrs);
  const Literal grad_out = RandomLiteral(out_shape, 7);
  ExpectThreadCountInvariant(OpKind::kMaxPool2DGrad, {input, grad_out},
                             attrs);
  OpAttrs avg_attrs = attrs;
  avg_attrs.shape = in_shape.dims();
  ExpectThreadCountInvariant(OpKind::kAvgPool2DGrad, {grad_out}, avg_attrs);
}

TEST(ParallelKernelsTest, ElementwiseAndSoftmaxBitIdentical) {
  const Literal x = RandomLiteral(Shape({33, 517}), 8);
  ExpectThreadCountInvariant(OpKind::kExp, {x});
  ExpectThreadCountInvariant(OpKind::kSigmoid, {x});
  ExpectThreadCountInvariant(OpKind::kSoftmax, {x});
  ExpectThreadCountInvariant(OpKind::kLogSoftmax, {x});

  const Literal y = RandomLiteral(Shape({33, 517}), 9);
  ExpectThreadCountInvariant(OpKind::kMul, {x, y});
  // Broadcast path exercises the run walker seeded at shard edges.
  const Literal row = RandomLiteral(Shape({517}), 10);
  ExpectThreadCountInvariant(OpKind::kAdd, {x, row});
  const Literal col = RandomLiteral(Shape({33, 1}), 11);
  ExpectThreadCountInvariant(OpKind::kDiv, {x, col});
}

}  // namespace
}  // namespace s4tf
