#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

#include "lazy/lazy_tensor.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "xla/compiler.h"

namespace s4tf::xla {
namespace {

TEST(AlgebraicSimplifyTest, RemovesScalarIdentities) {
  HloModule m;
  const HloId p = m.AddParameter(Shape({8}), 0);
  const HloId a = m.AddInstruction(OpKind::kMulScalar, {p},
                                   OpAttrs{.scalar = 1.0f});
  const HloId b = m.AddInstruction(OpKind::kAddScalar, {a},
                                   OpAttrs{.scalar = -0.0f});
  const HloId c = m.AddInstruction(OpKind::kPowScalar, {b},
                                   OpAttrs{.scalar = 1.0f});
  m.AddRoot(m.AddInstruction(OpKind::kRelu, {c}));
  EXPECT_EQ(RunHloAlgebraicSimplify(m), 3);
  EXPECT_EQ(m.instruction_count(), 2);  // param + relu
}

// -0 + (+0) is +0, so adding +0 is not an identity; adding -0 is. Both
// compiled programs must return EvalOpLiteral's bits, sign of zero
// included.
TEST(AlgebraicSimplifyTest, AddScalarKeepsTheSignOfZero) {
  const Literal input = Literal::FromVector(Shape({3}), {-0.0f, 0.0f, 1.0f});
  for (const float scalar : {0.0f, -0.0f}) {
    HloModule m;
    const HloId p = m.AddParameter(Shape({3}), 0);
    m.AddRoot(m.AddInstruction(OpKind::kAddScalar, {p},
                               OpAttrs{.scalar = scalar}));
    const Literal expected =
        EvalOpLiteral(OpKind::kAddScalar, {&input}, OpAttrs{.scalar = scalar});
    const Literal out = Compile(m).executable->Run({input})[0];
    ASSERT_EQ(out.shape, expected.shape);
    EXPECT_EQ(std::memcmp(out.data.data(), expected.data.data(),
                          3 * sizeof(float)),
              0)
        << "scalar " << (std::signbit(scalar) ? "-0" : "+0") << ": got "
        << (std::signbit(out.data[0]) ? "-0" : "+0") << " for -0";
    HloModule copy = m;
    EXPECT_EQ(RunHloAlgebraicSimplify(copy), std::signbit(scalar) ? 1 : 0);
  }
}

TEST(AlgebraicSimplifyTest, LeavesRealWorkAlone) {
  HloModule m;
  const HloId p = m.AddParameter(Shape({8}), 0);
  const HloId a = m.AddInstruction(OpKind::kMulScalar, {p},
                                   OpAttrs{.scalar = 2.0f});
  m.AddRoot(m.AddInstruction(OpKind::kAddScalar, {a},
                             OpAttrs{.scalar = -1.0f}));
  EXPECT_EQ(RunHloAlgebraicSimplify(m), 0);
  EXPECT_EQ(m.instruction_count(), 3);
}

TEST(AlgebraicSimplifyTest, DoubleNegation) {
  HloModule m;
  const HloId p = m.AddParameter(Shape({4}), 0);
  const HloId n1 = m.AddInstruction(OpKind::kNeg, {p});
  const HloId n2 = m.AddInstruction(OpKind::kNeg, {n1});
  m.AddRoot(m.AddInstruction(OpKind::kExp, {n2}));
  EXPECT_EQ(RunHloAlgebraicSimplify(m), 1);
  RunHloDce(m);
  EXPECT_EQ(m.instruction_count(), 2);  // param + exp
}

TEST(AlgebraicSimplifyTest, TrivialReshapeAndBroadcast) {
  HloModule m;
  const HloId p = m.AddParameter(Shape({2, 3}), 0);
  const HloId r = m.AddInstruction(OpKind::kReshape, {p},
                                   OpAttrs{.shape = {2, 3}});
  const HloId bcast = m.AddInstruction(OpKind::kBroadcastTo, {r},
                                       OpAttrs{.shape = {2, 3}});
  m.AddRoot(bcast);
  EXPECT_EQ(RunHloAlgebraicSimplify(m), 2);
}

TEST(AlgebraicSimplifyTest, NontrivialReshapeKept) {
  HloModule m;
  const HloId p = m.AddParameter(Shape({2, 3}), 0);
  m.AddRoot(m.AddInstruction(OpKind::kReshape, {p},
                             OpAttrs{.shape = {6}}));
  EXPECT_EQ(RunHloAlgebraicSimplify(m), 0);
}

TEST(AlgebraicSimplifyTest, InverseTransposePair) {
  HloModule m;
  const HloId p = m.AddParameter(Shape({2, 3, 4}), 0);
  const HloId t1 = m.AddInstruction(OpKind::kTranspose, {p},
                                    OpAttrs{.axes = {2, 0, 1}});
  const HloId t2 = m.AddInstruction(OpKind::kTranspose, {t1},
                                    OpAttrs{.axes = {1, 2, 0}});
  m.AddRoot(t2);
  EXPECT_EQ(RunHloAlgebraicSimplify(m), 1);
  // Non-inverse pair survives.
  HloModule m2;
  const HloId q = m2.AddParameter(Shape({2, 3, 4}), 0);
  const HloId u1 = m2.AddInstruction(OpKind::kTranspose, {q},
                                     OpAttrs{.axes = {2, 0, 1}});
  m2.AddRoot(m2.AddInstruction(OpKind::kTranspose, {u1},
                               OpAttrs{.axes = {2, 0, 1}}));
  EXPECT_EQ(RunHloAlgebraicSimplify(m2), 0);
}

TEST(AlgebraicSimplifyTest, ChainsResolveThroughBypassedInstructions) {
  // neg(neg(mul_scalar(x, 1))) collapses fully in one pass.
  HloModule m;
  const HloId p = m.AddParameter(Shape({4}), 0);
  const HloId id = m.AddInstruction(OpKind::kMulScalar, {p},
                                    OpAttrs{.scalar = 1.0f});
  const HloId n1 = m.AddInstruction(OpKind::kNeg, {id});
  const HloId n2 = m.AddInstruction(OpKind::kNeg, {n1});
  m.AddRoot(n2);
  EXPECT_EQ(RunHloAlgebraicSimplify(m), 2);
  // Result preserved.
  const auto compiled = Compile(std::move(m));
  const auto out = compiled.executable->Run(
      {Literal::FromVector(Shape({4}), {1, -2, 3, -4})});
  EXPECT_EQ(out[0].data.ToVector(), (std::vector<float>{1, -2, 3, -4}));
}

TEST(AlgebraicSimplifyTest, PreservesSemanticsInsideFullPipeline) {
  // A program salted with identities must compile to the same results
  // with and without the simplifier.
  auto build = [] {
    HloModule m;
    const HloId p = m.AddParameter(Shape({16}), 0);
    const HloId x1 = m.AddInstruction(OpKind::kMulScalar, {p},
                                      OpAttrs{.scalar = 1.0f});
    const HloId x2 = m.AddInstruction(OpKind::kTanh, {x1});
    const HloId x3 = m.AddInstruction(OpKind::kAddScalar, {x2},
                                      OpAttrs{.scalar = 0.0f});
    const HloId x4 = m.AddInstruction(OpKind::kNeg, {x3});
    const HloId x5 = m.AddInstruction(OpKind::kNeg, {x4});
    m.AddRoot(m.AddInstruction(OpKind::kSquare, {x5}));
    return m;
  };
  CompileOptions no_simplify;
  no_simplify.enable_algebraic_simplify = false;
  const auto a = Compile(build());
  const auto b = Compile(build(), no_simplify);
  EXPECT_LT(a.executable->module().instruction_count(),
            b.executable->module().instruction_count());
  const std::vector<Literal> params = {
      Literal::FromVector(Shape({16}), std::vector<float>(16, 0.37f))};
  EXPECT_EQ(a.executable->Run(params)[0].data.ToVector(),
            b.executable->Run(params)[0].data.ToVector());
}

TEST(AutoFlushTest, CutsRunawayTraces) {
  // The §3.4 future-work feature: with a threshold set, an unobserved
  // loop's trace is cut and compiled in bounded chunks automatically.
  LazyOptions options;
  options.auto_flush_threshold = 25;
  LazyBackend backend(options);
  const Device lazy = backend.device();
  Tensor x = Tensor::Ones(Shape({8}), lazy);
  for (int i = 0; i < 100; ++i) x = x * 1.001f;  // never observed
  // The window closes as the Nth op is recorded (not one op late), so
  // 100 ops at threshold 25 is exactly 4 flushes.
  EXPECT_EQ(backend.auto_flushes(), 4);
  EXPECT_GT(backend.kernels_launched(), 0);  // chunks really executed
  // And the value is still right once observed.
  EXPECT_NEAR(x.At({0}), std::pow(1.001f, 100.0f), 1e-3f);
}

TEST(AutoFlushTest, FlushesOnExactlyTheThresholdOp) {
  // Regression: the threshold check used to run *before* recording, so a
  // trace of exactly `threshold` ops never flushed (off by one), and the
  // op that finally tripped it was left out of the flushed program.
  LazyOptions options;
  options.auto_flush_threshold = 5;
  LazyBackend backend(options);
  const Device lazy = backend.device();
  Tensor x = Tensor::Ones(Shape({4}), lazy);
  for (int i = 0; i < 4; ++i) x = x + 1.0f;
  EXPECT_EQ(backend.auto_flushes(), 0);  // 4 ops: window still open
  x = x + 1.0f;                          // 5th op trips the threshold...
  EXPECT_EQ(backend.auto_flushes(), 1);
  // ...and is part of the flushed program: observing x afterwards reads
  // the materialized literal without launching anything new.
  const std::int64_t launched = backend.kernels_launched();
  EXPECT_GT(launched, 0);
  EXPECT_EQ(x.At({0}), 6.0f);
  EXPECT_EQ(backend.kernels_launched(), launched);
}

TEST(AutoFlushTest, ExplicitBarrierRestartsTheWindow) {
  // Regression: LazyTensorBarrier() used to leave ops_since_flush_
  // counting, so the next few recorded ops triggered a redundant second
  // flush of an almost-empty trace. Any cut restarts the window.
  LazyOptions options;
  options.auto_flush_threshold = 5;
  LazyBackend backend(options);
  const Device lazy = backend.device();
  Tensor x = Tensor::Ones(Shape({4}), lazy);
  for (int i = 0; i < 3; ++i) x = x + 1.0f;
  backend.Barrier();  // explicit cut at 3 ops
  EXPECT_EQ(backend.auto_flushes(), 0);
  for (int i = 0; i < 4; ++i) x = x + 1.0f;
  // 4 ops since the barrier: a full fresh window, no double flush.
  EXPECT_EQ(backend.auto_flushes(), 0);
  x = x + 1.0f;  // 5th op since the barrier
  EXPECT_EQ(backend.auto_flushes(), 1);
  EXPECT_EQ(x.At({0}), 9.0f);
}

TEST(AutoFlushTest, DisabledByDefault) {
  LazyBackend backend;
  const Device lazy = backend.device();
  Tensor x = Tensor::Ones(Shape({8}), lazy);
  for (int i = 0; i < 100; ++i) x = x * 1.001f;
  EXPECT_EQ(backend.auto_flushes(), 0);
  EXPECT_EQ(backend.kernels_launched(), 0);  // pure recording
}

}  // namespace
}  // namespace s4tf::xla
