#include "ad/tape.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <gtest/gtest.h>

#include "ad/operators.h"
#include "gradient_check.h"
#include "obs/metrics.h"

namespace s4tf::ad {
namespace {

using testing::ExpectGradientsClose;
using testing::NumericalGradient;

TEST(TapeTest, GradientOfSquareSum) {
  // f(x) = sum(x^2); df/dx = 2x.
  const Tensor x = Tensor::FromVector(Shape({3}), {1, -2, 3});
  const auto [value, grad] =
      ValueWithGradient(x, [](const Tensor& t) { return ReduceSum(Square(t)); });
  EXPECT_NEAR(value.ScalarValue(), 14.0f, 1e-5);
  EXPECT_EQ(grad.ToVector(), (std::vector<float>{2, -4, 6}));
}

TEST(TapeTest, GradientThroughChain) {
  // f(x) = sum(exp(2x)); df/dx = 2 exp(2x).
  const Tensor x = Tensor::FromVector(Shape({2}), {0.0f, 1.0f});
  const Tensor grad =
      GradientAt(x, [](const Tensor& t) { return ReduceSum(Exp(t * 2.0f)); });
  const auto g = grad.ToVector();
  EXPECT_NEAR(g[0], 2.0f, 1e-4);
  EXPECT_NEAR(g[1], 2.0f * std::exp(2.0f), 1e-3);
}

TEST(TapeTest, ConstantsAreNotVaried) {
  // Ops on unwatched tensors are skipped (activity analysis: not varied).
  const Tensor x = Tensor::FromVector(Shape({2}), {1, 2});
  const Tensor c = Tensor::FromVector(Shape({2}), {5, 5});
  GradientTape tape;
  Tensor watched = x;
  tape.Watch(watched);
  Tensor loss;
  {
    RecorderScope scope(&tape);
    Tensor unrelated = c * c;  // must not be recorded
    loss = ReduceSum(watched * c) + ReduceSum(unrelated) * 0.0f;
  }
  const auto grads = tape.ComputeGradients(loss);
  EXPECT_EQ(tape.GradientFor(grads, watched).ToVector(),
            (std::vector<float>{5, 5}));
}

TEST(TapeTest, LossIndependentOfParameterGivesZeros) {
  const Tensor x = Tensor::FromVector(Shape({2}), {1, 2});
  const auto [value, grad] = ValueWithGradient(x, [](const Tensor&) {
    return Tensor::Full(Shape({}), 3.0f);
  });
  EXPECT_EQ(value.ScalarValue(), 3.0f);
  EXPECT_EQ(grad.ToVector(), (std::vector<float>{0, 0}));
}

TEST(TapeTest, StreamingHookFiresOncePerParamInTapeOrder) {
  // The gradient-ready hook fires exactly once per watched parameter,
  // with the final accumulated gradient, as soon as the reverse sweep
  // passes the parameter's lowest-id consumer. `b` is consumed later in
  // the tape than `a`, so its gradient is final earlier in the sweep and
  // its hook fires first — a pure function of the recorded tape.
  GradientTape tape;
  Tensor a = Tensor::FromVector(Shape({2}), {1, 2});
  Tensor b = Tensor::FromVector(Shape({2}), {3, 4});
  tape.Watch(a);
  tape.Watch(b);
  Tensor loss;
  {
    RecorderScope scope(&tape);
    const Tensor first = a * 2.0f;   // a's only consumer (early node)
    const Tensor second = first + b;  // b's only consumer (later node)
    loss = ReduceSum(second);
  }
  const auto reference = tape.ComputeGradients(loss);
  std::vector<std::int64_t> order;
  std::vector<std::vector<float>> streamed;
  (void)tape.ComputeGradients(loss,
                              [&](std::int64_t node_id, const Tensor* g) {
                                order.push_back(node_id);
                                ASSERT_NE(g, nullptr);
                                streamed.push_back(g->ToVector());
                              });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], b.grad_node());
  EXPECT_EQ(order[1], a.grad_node());
  EXPECT_EQ(streamed[0], tape.GradientFor(reference, b).ToVector());
  EXPECT_EQ(streamed[1], tape.GradientFor(reference, a).ToVector());
}

TEST(TapeTest, StreamingHookPassesNullForLossIndependentParam) {
  // A watched parameter the loss never consumed has no gradient slot;
  // the hook still fires for it (immediately — nothing can change it),
  // with a null gradient, so streaming callers can keep their explicit
  // zero convention.
  GradientTape tape;
  Tensor used = Tensor::FromVector(Shape({2}), {1, 2});
  Tensor unused = Tensor::FromVector(Shape({2}), {7, 7});
  tape.Watch(used);
  tape.Watch(unused);
  Tensor loss;
  {
    RecorderScope scope(&tape);
    loss = ReduceSum(Square(used));
  }
  std::vector<std::int64_t> order;
  std::vector<bool> has_grad;
  (void)tape.ComputeGradients(loss,
                              [&](std::int64_t node_id, const Tensor* g) {
                                order.push_back(node_id);
                                has_grad.push_back(g != nullptr);
                              });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], unused.grad_node());  // final before the sweep starts
  EXPECT_FALSE(has_grad[0]);
  EXPECT_EQ(order[1], used.grad_node());
  EXPECT_TRUE(has_grad[1]);
}

TEST(TapeTest, FanOutAccumulatesGradients) {
  // f(x) = sum(x * x) where x is used twice through separate paths.
  const Tensor x = Tensor::FromVector(Shape({2}), {3, 4});
  const Tensor grad = GradientAt(x, [](const Tensor& t) {
    const Tensor a = t * 2.0f;
    const Tensor b = t * 3.0f;
    return ReduceSum(a + b);  // d/dx = 5
  });
  EXPECT_EQ(grad.ToVector(), (std::vector<float>{5, 5}));
}

TEST(TapeTest, NonScalarLossRejected) {
  const Tensor x = Tensor::FromVector(Shape({2}), {1, 2});
  EXPECT_THROW(ValueWithGradient(x, [](const Tensor& t) { return t * 2.0f; }),
               InternalError);
}

TEST(TapeTest, SecondGradientCallIsIdempotent) {
  GradientTape tape;
  Tensor x = Tensor::FromVector(Shape({2}), {1, 2});
  tape.Watch(x);
  Tensor loss;
  {
    RecorderScope scope(&tape);
    loss = ReduceSum(Square(x));
  }
  const auto g1 = tape.ComputeGradients(loss);
  const auto g2 = tape.ComputeGradients(loss);
  EXPECT_EQ(tape.GradientFor(g1, x).ToVector(),
            tape.GradientFor(g2, x).ToVector());
}

TEST(TapeTest, UnbroadcastReducesCorrectAxes) {
  const Tensor g = Tensor::Ones(Shape({2, 3}));
  EXPECT_EQ(Unbroadcast(g, Shape({3})).ToVector(),
            (std::vector<float>{2, 2, 2}));
  EXPECT_EQ(Unbroadcast(g, Shape({2, 1})).ToVector(),
            (std::vector<float>{3, 3}));
  EXPECT_EQ(Unbroadcast(g, Shape({})).ScalarValue(), 6.0f);
  EXPECT_EQ(Unbroadcast(g, Shape({2, 3})).ToVector(),
            std::vector<float>(6, 1.0f));
}

TEST(TapeTest, BroadcastingOpsGetCorrectGradients) {
  // loss = sum(m + row): d(row) must sum over the broadcast rows.
  const Tensor m = Tensor::Zeros(Shape({4, 3}));
  const Tensor row = Tensor::FromVector(Shape({3}), {1, 2, 3});
  const auto [loss, grad] = ValueWithGradient(row, [&](const Tensor& r) {
    return ReduceSum(m + r);
  });
  EXPECT_EQ(grad.ToVector(), (std::vector<float>{4, 4, 4}));
}

TEST(TapeTest, CustomDerivativeOverridesDecomposition) {
  // Primal computes x^2 but the registered derivative claims 10x; the
  // reverse pass must use the custom rule (base-case termination, §2.1).
  auto f = WithCustomDerivative(
      [](const Tensor& x) { return ReduceSum(Square(x)); },
      [](const Tensor& x, const Tensor&, const Tensor& grad) {
        return grad * x * 10.0f;
      });
  const Tensor x = Tensor::FromVector(Shape({2}), {1, 2});
  const Tensor grad = GradientAt(x, f);
  EXPECT_EQ(grad.ToVector(), (std::vector<float>{10, 20}));
}

TEST(TapeTest, CustomDerivativeBodyIsNotRecorded) {
  // The primal body's internal ops must not appear on the tape.
  GradientTape tape;
  Tensor x = Tensor::FromVector(Shape({2}), {1, 2});
  tape.Watch(x);
  auto f = WithCustomDerivative(
      [](const Tensor& t) {
        Tensor acc = t;
        for (int i = 0; i < 20; ++i) acc = acc * 1.0f;  // 20 internal ops
        return ReduceSum(acc);
      },
      [](const Tensor&, const Tensor&, const Tensor& grad) {
        return grad * 1.0f;
      });
  {
    RecorderScope scope(&tape);
    f(x);
  }
  // 1 watch node + 1 custom-call node only.
  EXPECT_EQ(tape.num_nodes(), 2);
}

// ---------------------------------------------------------------------------
// Property test: analytic tape gradients match finite differences for a
// library of composite functions (the AD system's core correctness
// invariant).

struct GradCheckCase {
  const char* name;
  Shape shape;
  std::function<Tensor(const Tensor&)> f;
};

// gtest prints the parameter into the test's ctest name; without this it
// dumps the struct's bytes, whose pointers change on every run.
void PrintTo(const GradCheckCase& c, std::ostream* os) { *os << c.name; }

class TapeGradCheckTest : public ::testing::TestWithParam<GradCheckCase> {};

TEST_P(TapeGradCheckTest, MatchesFiniteDifferences) {
  const auto& c = GetParam();
  Rng rng(1234);
  // Inputs in (0.3, 1.3) keep log/sqrt/div well-conditioned.
  const Tensor x = Tensor::RandomUniform(c.shape, rng, 0.3f, 1.3f);
  const auto [value, grad] = ValueWithGradient(x, c.f);
  (void)value;
  const auto numeric = NumericalGradient(
      [&](const Tensor& t) { return c.f(t).ScalarValue(); }, x);
  ExpectGradientsClose(grad.ToVector(), numeric);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, TapeGradCheckTest,
    ::testing::Values(
        GradCheckCase{"sum_square", Shape({5}),
                      [](const Tensor& t) { return ReduceSum(Square(t)); }},
        GradCheckCase{"exp_log", Shape({4}),
                      [](const Tensor& t) {
                        return ReduceSum(Exp(t) + Log(t));
                      }},
        GradCheckCase{"tanh_sigmoid", Shape({6}),
                      [](const Tensor& t) {
                        return ReduceSum(Tanh(t) * Sigmoid(t));
                      }},
        GradCheckCase{"sqrt_rsqrt", Shape({4}),
                      [](const Tensor& t) {
                        return ReduceSum(Sqrt(t) + Rsqrt(t));
                      }},
        GradCheckCase{"div_chain", Shape({3}),
                      [](const Tensor& t) {
                        return ReduceSum(t / (t + 1.0f));
                      }},
        GradCheckCase{"relu_leaky", Shape({8}),
                      [](const Tensor& t) {
                        return ReduceSum(Relu(t - 0.8f) +
                                         LeakyRelu(t - 0.8f, 0.1f));
                      }},
        GradCheckCase{"softmax_weighted", Shape({2, 4}),
                      [](const Tensor& t) {
                        const Tensor w = Tensor::FromVector(
                            Shape({2, 4}),
                            {1, 2, 3, 4, 4, 3, 2, 1}, t.device());
                        return ReduceSum(Softmax(t) * w);
                      }},
        GradCheckCase{"log_softmax_pick", Shape({2, 3}),
                      [](const Tensor& t) {
                        const Tensor w = Tensor::FromVector(
                            Shape({2, 3}), {1, 0, 0, 0, 1, 0}, t.device());
                        return ReduceSum(LogSoftmax(t) * w);
                      }},
        GradCheckCase{"matmul_quadratic", Shape({3, 3}),
                      [](const Tensor& t) {
                        return ReduceSum(MatMul(t, Transposed(t)));
                      }},
        GradCheckCase{"reduce_mean_axes", Shape({2, 3}),
                      [](const Tensor& t) {
                        return ReduceSum(Square(ReduceMean(t, {0})));
                      }},
        GradCheckCase{"reduce_max", Shape({2, 3}),
                      [](const Tensor& t) {
                        return ReduceSum(ReduceMax(t * 3.0f, {1}));
                      }},
        GradCheckCase{"slice_pad", Shape({3, 4}),
                      [](const Tensor& t) {
                        return ReduceSum(
                            Square(Slice(t, {1, 1}, {2, 2})));
                      }},
        GradCheckCase{"concat_paths", Shape({2, 2}),
                      [](const Tensor& t) {
                        return ReduceSum(
                            Square(Concat({t, t * 2.0f}, 1)));
                      }},
        GradCheckCase{"transpose_mix", Shape({2, 3}),
                      [](const Tensor& t) {
                        return ReduceSum(Transpose(t, {1, 0}) *
                                         Transpose(Square(t), {1, 0}));
                      }},
        GradCheckCase{"broadcast_mul", Shape({3}),
                      [](const Tensor& t) {
                        const Tensor m = Tensor::Ones(Shape({4, 3}));
                        return ReduceSum(Square(m * t));
                      }},
        GradCheckCase{"maximum_minimum", Shape({6}),
                      [](const Tensor& t) {
                        return ReduceSum(Maximum(t, 0.8f - t) +
                                         Minimum(t * 2.0f, t + 0.1f));
                      }},
        GradCheckCase{"select_mask", Shape({5}),
                      [](const Tensor& t) {
                        const Tensor mask = Greater(t, 0.8f + t * 0.0f);
                        return ReduceSum(Select(mask, Square(t), t * 3.0f));
                      }},
        GradCheckCase{"pow_scalar", Shape({4}),
                      [](const Tensor& t) {
                        return ReduceSum(ApplyOp(OpKind::kPowScalar, {t},
                                                 OpAttrs{.scalar = 3.0f}));
                      }}),
    [](const ::testing::TestParamInfo<GradCheckCase>& info) {
      return info.param.name;
    });

struct ConvGradCase {
  const char* name;
  Shape input;
  std::function<Tensor(const Tensor&)> f;
};

void PrintTo(const ConvGradCase& c, std::ostream* os) { *os << c.name; }

class ConvPoolGradTest : public ::testing::TestWithParam<ConvGradCase> {};

TEST_P(ConvPoolGradTest, MatchesFiniteDifferences) {
  const auto& c = GetParam();
  Rng rng(77);
  const Tensor x = Tensor::RandomUniform(c.input, rng, -1.0f, 1.0f);
  const auto [value, grad] = ValueWithGradient(x, c.f);
  (void)value;
  const auto numeric = NumericalGradient(
      [&](const Tensor& t) { return c.f(t).ScalarValue(); }, x, 1e-2f);
  ExpectGradientsClose(grad.ToVector(), numeric, 5e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, ConvPoolGradTest,
    ::testing::Values(
        ConvGradCase{"conv_input", Shape({1, 5, 5, 2}),
                     [](const Tensor& t) {
                       Rng wrng(5);
                       const Tensor f = Tensor::RandomUniform(
                           Shape({3, 3, 2, 3}), wrng, -0.5f, 0.5f);
                       return ReduceSum(Square(Conv2D(t, f)));
                     }},
        ConvGradCase{"conv_filter", Shape({3, 3, 2, 2}),
                     [](const Tensor& t) {
                       Rng xrng(6);
                       const Tensor x = Tensor::RandomUniform(
                           Shape({1, 5, 5, 2}), xrng, -0.5f, 0.5f);
                       return ReduceSum(Square(
                           Conv2D(x, t, {.padding = Padding::kSame})));
                     }},
        ConvGradCase{"avg_pool", Shape({1, 4, 4, 2}),
                     [](const Tensor& t) {
                       return ReduceSum(Square(AvgPool2D(t)));
                     }},
        ConvGradCase{"max_pool", Shape({1, 4, 4, 1}),
                     [](const Tensor& t) {
                       return ReduceSum(Square(MaxPool2D(t)));
                     }}),
    [](const ::testing::TestParamInfo<ConvGradCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// The adjoint mask: OpPullback builds exactly the requested adjoints, and
// each one is the same tensor, bit for bit, as in the all-inputs call.

// Keeps the last op ApplyOp issues, so a case names its op through the
// public op surface and the test replays that op's pullback.
class LastOpRecorder final : public OpRecorder {
 public:
  void RecordOp(OpKind op_kind, const OpAttrs& op_attrs,
                const std::vector<Tensor>& op_inputs,
                Tensor& op_output) override {
    kind = op_kind;
    attrs = op_attrs;
    inputs = op_inputs;
    output = op_output;
  }

  OpKind kind = OpKind::kConstant;
  OpAttrs attrs;
  std::vector<Tensor> inputs;
  Tensor output;
};

struct MaskCase {
  const char* name;
  OpKind kind;  // the op `f`'s last call issues
  std::vector<Shape> shapes;
  std::function<Tensor(const std::vector<Tensor>&)> f;
};

void PrintTo(const MaskCase& c, std::ostream* os) { *os << c.name; }

bool SameBits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  const std::vector<float> av = a.ToVector();
  const std::vector<float> bv = b.ToVector();
  return std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)) == 0;
}

std::int64_t CounterDelta(const obs::MetricsSnapshot& before,
                          const std::string& name) {
  return obs::MetricsRegistry::Global().Snapshot().counter(name) -
         before.counter(name);
}

class AdjointMaskTest : public ::testing::TestWithParam<MaskCase> {};

TEST_P(AdjointMaskTest, BuildsExactlyTheRequestedAdjointsBitForBit) {
  const MaskCase& c = GetParam();
  Rng rng(2024);
  std::vector<Tensor> args;
  // Inputs in (0.3, 1.3) keep log, pow and div well-defined.
  for (const Shape& shape : c.shapes) {
    args.push_back(Tensor::RandomUniform(shape, rng, 0.3f, 1.3f));
  }
  LastOpRecorder op;
  {
    RecorderScope scope(&op);
    (void)c.f(args);
  }
  ASSERT_EQ(op.kind, c.kind) << OpName(op.kind);
  const Tensor grad =
      Tensor::RandomUniform(op.output.shape(), rng, -1.0f, 1.0f);
  const std::size_t n = op.inputs.size();
  ASSERT_LE(n, 8u);
  const auto full = OpPullback(op.kind, op.attrs, op.inputs, op.output, grad,
                               std::vector<bool>(n, true));
  ASSERT_EQ(full.size(), n);
  // Subset 0 requests nothing: no entry may be set and no kernel may run,
  // not even a one-input rule's.
  for (unsigned subset = 0; subset < (1u << n); ++subset) {
    std::vector<bool> needed(n);
    for (std::size_t i = 0; i < n; ++i) needed[i] = (subset >> i) & 1u;
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();
    const auto masked =
        OpPullback(op.kind, op.attrs, op.inputs, op.output, grad, needed);
    ASSERT_EQ(masked.size(), n);
    if (subset == 0) {
      EXPECT_EQ(CounterDelta(before, "tensor.kernel.dispatches"), 0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(::testing::Message() << "subset " << subset << " input "
                                        << i);
      if (!needed[i]) {
        EXPECT_FALSE(masked[i].has_value());
        continue;
      }
      ASSERT_EQ(masked[i].has_value(), full[i].has_value());
      if (full[i].has_value()) {
        EXPECT_TRUE(SameBits(*masked[i], *full[i]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BuiltinRules, AdjointMaskTest,
    ::testing::Values(
        MaskCase{"add_broadcast", OpKind::kAdd, {Shape({4, 8}), Shape({8})},
                 [](const auto& in) { return in[0] + in[1]; }},
        MaskCase{"sub_broadcast", OpKind::kSub, {Shape({4, 8}), Shape({4, 1})},
                 [](const auto& in) { return in[0] - in[1]; }},
        MaskCase{"mul_broadcast", OpKind::kMul, {Shape({4, 8}), Shape({8})},
                 [](const auto& in) { return in[0] * in[1]; }},
        MaskCase{"div_broadcast", OpKind::kDiv, {Shape({8}), Shape({4, 8})},
                 [](const auto& in) { return in[0] / in[1]; }},
        MaskCase{"maximum", OpKind::kMaximum, {Shape({4, 8}), Shape({4, 8})},
                 [](const auto& in) { return Maximum(in[0], in[1]); }},
        MaskCase{"minimum_broadcast", OpKind::kMinimum,
                 {Shape({4, 8}), Shape({8})},
                 [](const auto& in) { return Minimum(in[0], in[1]); }},
        MaskCase{"pow", OpKind::kPow, {Shape({32}), Shape({32})},
                 [](const auto& in) { return Pow(in[0], in[1]); }},
        MaskCase{"greater", OpKind::kGreater, {Shape({32}), Shape({32})},
                 [](const auto& in) { return Greater(in[0], in[1]); }},
        MaskCase{"select", OpKind::kSelect,
                 {Shape({32}), Shape({32}), Shape({32})},
                 [](const auto& in) {
                   return Select(Greater(in[0], in[1]), in[1], in[2]);
                 }},
        MaskCase{"neg", OpKind::kNeg, {Shape({4})},
                 [](const auto& in) { return -in[0]; }},
        MaskCase{"exp", OpKind::kExp, {Shape({4})},
                 [](const auto& in) { return Exp(in[0]); }},
        MaskCase{"log", OpKind::kLog, {Shape({4})},
                 [](const auto& in) { return Log(in[0]); }},
        MaskCase{"tanh", OpKind::kTanh, {Shape({4})},
                 [](const auto& in) { return Tanh(in[0]); }},
        MaskCase{"sqrt", OpKind::kSqrt, {Shape({4})},
                 [](const auto& in) { return Sqrt(in[0]); }},
        MaskCase{"rsqrt", OpKind::kRsqrt, {Shape({4})},
                 [](const auto& in) { return Rsqrt(in[0]); }},
        MaskCase{"square", OpKind::kSquare, {Shape({4})},
                 [](const auto& in) { return Square(in[0]); }},
        MaskCase{"relu", OpKind::kRelu, {Shape({6})},
                 [](const auto& in) { return Relu(in[0] - 0.8f); }},
        MaskCase{"sigmoid", OpKind::kSigmoid, {Shape({4})},
                 [](const auto& in) { return Sigmoid(in[0]); }},
        MaskCase{"abs", OpKind::kAbs, {Shape({6})},
                 [](const auto& in) { return Abs(in[0] - 0.8f); }},
        MaskCase{"add_scalar", OpKind::kAddScalar, {Shape({4})},
                 [](const auto& in) { return in[0] + 2.0f; }},
        MaskCase{"mul_scalar", OpKind::kMulScalar, {Shape({4})},
                 [](const auto& in) { return in[0] * 3.0f; }},
        MaskCase{"pow_scalar", OpKind::kPowScalar, {Shape({4})},
                 [](const auto& in) {
                   return ApplyOp(OpKind::kPowScalar, {in[0]},
                                  OpAttrs{.scalar = 3.0f});
                 }},
        MaskCase{"leaky_relu", OpKind::kLeakyRelu, {Shape({6})},
                 [](const auto& in) { return LeakyRelu(in[0] - 0.8f, 0.1f); }},
        MaskCase{"reshape", OpKind::kReshape, {Shape({2, 3})},
                 [](const auto& in) { return Reshape(in[0], Shape({3, 2})); }},
        MaskCase{"transpose", OpKind::kTranspose, {Shape({2, 3, 4})},
                 [](const auto& in) { return Transpose(in[0], {2, 0, 1}); }},
        MaskCase{"broadcast_to", OpKind::kBroadcastTo, {Shape({3})},
                 [](const auto& in) {
                   return BroadcastTo(in[0], Shape({2, 3}));
                 }},
        MaskCase{"slice", OpKind::kSlice, {Shape({3, 4})},
                 [](const auto& in) { return Slice(in[0], {1, 1}, {2, 2}); }},
        MaskCase{"pad", OpKind::kPad, {Shape({2, 3})},
                 [](const auto& in) { return Pad(in[0], {1, 0, 0, 2}); }},
        MaskCase{"concat", OpKind::kConcat,
                 {Shape({2, 1}), Shape({2, 3}), Shape({2, 2})},
                 [](const auto& in) { return Concat({in[0], in[1], in[2]}, 1); }},
        MaskCase{"reduce_sum", OpKind::kReduceSum, {Shape({2, 3})},
                 [](const auto& in) { return ReduceSum(in[0], {1}); }},
        MaskCase{"reduce_mean", OpKind::kReduceMean, {Shape({2, 3})},
                 [](const auto& in) { return ReduceMean(in[0], {0}, true); }},
        MaskCase{"reduce_max", OpKind::kReduceMax, {Shape({2, 3})},
                 [](const auto& in) { return ReduceMax(in[0], {1}); }},
        MaskCase{"argmax", OpKind::kArgMax, {Shape({2, 3})},
                 [](const auto& in) { return ArgMax(in[0], 1); }},
        MaskCase{"softmax", OpKind::kSoftmax, {Shape({2, 4})},
                 [](const auto& in) { return Softmax(in[0]); }},
        MaskCase{"log_softmax", OpKind::kLogSoftmax, {Shape({2, 4})},
                 [](const auto& in) { return LogSoftmax(in[0]); }},
        MaskCase{"matmul", OpKind::kMatMul, {Shape({4, 6}), Shape({6, 5})},
                 [](const auto& in) { return MatMul(in[0], in[1]); }},
        MaskCase{"conv2d", OpKind::kConv2D,
                 {Shape({2, 5, 5, 2}), Shape({3, 3, 2, 3})},
                 [](const auto& in) {
                   return Conv2D(in[0], in[1], {.padding = Padding::kSame});
                 }},
        MaskCase{"conv2d_strided", OpKind::kConv2D,
                 {Shape({1, 6, 6, 1}), Shape({3, 3, 1, 2})},
                 [](const auto& in) {
                   return Conv2D(in[0], in[1],
                                 {.stride_h = 2, .stride_w = 2});
                 }},
        MaskCase{"avg_pool", OpKind::kAvgPool2D, {Shape({1, 4, 4, 2})},
                 [](const auto& in) { return AvgPool2D(in[0]); }},
        MaskCase{"max_pool", OpKind::kMaxPool2D, {Shape({1, 4, 4, 2})},
                 [](const auto& in) { return MaxPool2D(in[0]); }},
        MaskCase{"cross_replica_sum", OpKind::kCrossReplicaSum, {Shape({3})},
                 [](const auto& in) { return CrossReplicaSum(in[0]); }}),
    [](const ::testing::TestParamInfo<MaskCase>& info) {
      return info.param.name;
    });

TEST(AdjointMaskTest, UnrequestedConvAdjointDispatchesNoKernel) {
  Rng rng(3);
  const Tensor images = Tensor::RandomUniform(Shape({2, 6, 6, 1}), rng);
  const Tensor filter = Tensor::RandomUniform(Shape({3, 3, 1, 4}), rng);
  const OpAttrs attrs{.padding = Padding::kSame};
  const Tensor out = ApplyOp(OpKind::kConv2D, {images, filter}, attrs);
  const Tensor grad = Tensor::Ones(out.shape());
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  const auto adjoints = OpPullback(OpKind::kConv2D, attrs, {images, filter},
                                   out, grad, {false, true});
  EXPECT_FALSE(adjoints[0].has_value());
  ASSERT_TRUE(adjoints[1].has_value());
  (void)adjoints[1]->ToVector();
  EXPECT_EQ(
      CounterDelta(before, "tensor.kernel.dispatch.conv2d_backprop_input"), 0);
  EXPECT_EQ(
      CounterDelta(before, "tensor.kernel.dispatch.conv2d_backprop_filter"),
      1);
  EXPECT_EQ(CounterDelta(before, "tensor.kernel.dispatches"), 1);
}

TEST(AdjointMaskTest, MaskArityMustMatchTheInputs) {
  const Tensor a = Tensor::Ones(Shape({2}));
  const Tensor out = a + a;
  EXPECT_THROW(OpPullback(OpKind::kAdd, {}, {a, a}, out, out, {true}),
               InternalError);
}

}  // namespace
}  // namespace s4tf::ad
