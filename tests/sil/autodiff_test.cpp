#include "sil/autodiff.h"

#include <cmath>
#include <gtest/gtest.h>

#include "sil/interpreter.h"
#include "sil_testlib.h"

namespace s4tf::sil {
namespace {

// Central-difference reference.
double Numeric(const Module& m, const std::string& fn,
               std::vector<double> args, std::size_t index,
               double eps = 1e-6) {
  auto plus = args, minus = args;
  plus[index] += eps;
  minus[index] -= eps;
  return (Interpret(m, fn, plus).value() - Interpret(m, fn, minus).value()) /
         (2 * eps);
}

TEST(SilVjpTest, StraightLineGradient) {
  Module m;
  m.AddFunction(testing::SquarePlusOne());
  const auto grads = SilGradient(m, "square_plus_one", {3.0}).value();
  EXPECT_DOUBLE_EQ(grads[0], 6.0);
}

TEST(SilVjpTest, MultiArgGradientMatchesFiniteDifferences) {
  Module m;
  m.AddFunction(testing::SinMulExp());
  const std::vector<double> at = {0.7, 1.3};
  const auto grads = SilGradient(m, "sin_mul_exp", at).value();
  EXPECT_NEAR(grads[0], Numeric(m, "sin_mul_exp", at, 0), 1e-5);
  EXPECT_NEAR(grads[1], Numeric(m, "sin_mul_exp", at, 1), 1e-5);
}

TEST(SilVjpTest, PullbackIsFirstClassAndLinear) {
  Module m;
  m.AddFunction(testing::SquarePlusOne());
  auto vjp = SynthesizeVJP(m, "square_plus_one").value();
  auto result = vjp.Run({2.0}).value();
  EXPECT_DOUBLE_EQ(result.value, 5.0);
  EXPECT_DOUBLE_EQ(result.pullback(1.0)[0], 4.0);
  EXPECT_DOUBLE_EQ(result.pullback(3.0)[0], 12.0);  // reusable + linear
}

TEST(SilVjpTest, ControlFlowFollowsTakenBranch) {
  Module m;
  m.AddFunction(testing::AbsViaBranch());
  EXPECT_DOUBLE_EQ(SilGradient(m, "abs_branch", {2.5}).value()[0], 1.0);
  EXPECT_DOUBLE_EQ(SilGradient(m, "abs_branch", {-2.5}).value()[0], -1.0);
}

TEST(SilVjpTest, LoopGradientMatchesPowerRule) {
  // d/dx x^n = n x^(n-1); exercises per-iteration block records.
  for (int n : {0, 1, 2, 5, 9}) {
    Module m;
    m.AddFunction(testing::PowViaLoop(n));
    const double x = 1.37;
    const auto grads = SilGradient(m, "pow_loop", {x}).value();
    EXPECT_NEAR(grads[0], n * std::pow(x, n - 1), 1e-9) << "n=" << n;
  }
}

TEST(SilVjpTest, CallsAreRecursivelyTransformed) {
  const Module m = testing::CallModule();
  const double x = 0.9;
  const auto grads = SilGradient(m, "user", {x}).value();
  EXPECT_NEAR(grads[0], Numeric(m, "user", {x}, 0), 1e-5);
}

TEST(SilVjpTest, NonDifferentiableFunctionRejectedBeforeExecution) {
  Module m;
  m.AddFunction(testing::FloorTimesX());
  const auto vjp = SynthesizeVJP(m, "floor_times_x");
  EXPECT_FALSE(vjp.ok());
  EXPECT_EQ(vjp.status().code(), StatusCode::kInvalidArgument);
}

TEST(SilVjpTest, CustomDerivativeUsedAsBaseCase) {
  // floor_times_x gets a (mathematically chosen) custom derivative:
  // treat f(x) = floor(x)*x as having derivative floor(x) a.e.
  Module m;
  m.AddFunction(testing::FloorTimesX());
  FunctionBuilder b("caller", 1);
  const ValueId h = b.Call("floor_times_x", {b.Arg(0)});
  b.Return(b.Emit(InstKind::kMul, {h, h}));
  m.AddFunction(std::move(b).Build());

  DerivativeRegistry registry;
  registry.Register(
      "floor_times_x",
      CustomScalarDerivative{
          .vjp =
              [](const std::vector<double>& args) {
                const double x = args[0];
                const double value = std::floor(x) * x;
                return std::make_pair(
                    value, std::function<std::vector<double>(double)>(
                               [x](double seed) {
                                 return std::vector<double>{
                                     seed * std::floor(x)};
                               }));
              },
          .jvp =
              [](const std::vector<double>& args,
                 const std::vector<double>& dargs) {
                return std::make_pair(std::floor(args[0]) * args[0],
                                      std::floor(args[0]) * dargs[0]);
              }});

  const double x = 2.6;  // floor = 2; f = 5.2; caller = f^2
  const auto grads = SilGradient(m, "caller", {x}, registry).value();
  // d/dx f^2 = 2 f * f' = 2 * 5.2 * 2 = 20.8.
  EXPECT_NEAR(grads[0], 20.8, 1e-9);
}

TEST(SilVjpTest, WrtSubsetReturnsOnlyRequestedGradients) {
  Module m;
  m.AddFunction(testing::SinMulExp());
  auto vjp = SynthesizeVJP(m, "sin_mul_exp", {1}).value();
  auto result = vjp.Run({0.7, 1.3}).value();
  const auto grads = result.pullback(1.0);
  ASSERT_EQ(grads.size(), 1u);
  EXPECT_NEAR(grads[0], Numeric(m, "sin_mul_exp", {0.7, 1.3}, 1), 1e-5);
}

TEST(SilVjpTest, ActivityPruningShrinksAdjointCode) {
  // A function with a large dead subgraph: the synthesized adjoint must
  // not contain derivative instructions for it.
  FunctionBuilder b("mostly_dead", 1);
  const ValueId x = b.Arg(0);
  ValueId dead = b.Emit(InstKind::kExp, {x});
  for (int i = 0; i < 10; ++i) dead = b.Emit(InstKind::kSin, {dead});
  b.Return(b.Emit(InstKind::kMul, {x, x}));
  Module m;
  m.AddFunction(std::move(b).Build());
  auto vjp = SynthesizeVJP(m, "mostly_dead").value();
  const auto counts = vjp.AdjointInstructionCounts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 1);  // only the mul is active
}

TEST(SilJvpTest, ForwardModeMatchesReverse) {
  Module m;
  m.AddFunction(testing::SinMulExp());
  auto jvp = SynthesizeJVP(m, "sin_mul_exp").value();
  auto vjp = SynthesizeVJP(m, "sin_mul_exp").value();
  const std::vector<double> at = {0.4, 2.1};
  const std::vector<double> dir = {0.6, -0.8};
  const auto forward = jvp.Run(at, dir).value();
  const auto reverse = vjp.Run(at).value();
  const auto grads = reverse.pullback(1.0);
  EXPECT_NEAR(forward.value, reverse.value, 1e-12);
  EXPECT_NEAR(forward.tangent, grads[0] * dir[0] + grads[1] * dir[1], 1e-9);
}

TEST(SilJvpTest, LoopsAndBranches) {
  Module m;
  m.AddFunction(testing::PowViaLoop(4));
  auto jvp = SynthesizeJVP(m, "pow_loop").value();
  const auto result = jvp.Run({1.2}, {1.0}).value();
  EXPECT_NEAR(result.value, std::pow(1.2, 4), 1e-12);
  EXPECT_NEAR(result.tangent, 4 * std::pow(1.2, 3), 1e-9);
}

TEST(SilJvpTest, CallsRecursive) {
  const Module m = testing::CallModule();
  auto jvp = SynthesizeJVP(m, "user").value();
  const double x = 1.1;
  const auto result = jvp.Run({x}, {1.0}).value();
  EXPECT_NEAR(result.tangent, Numeric(m, "user", {x}, 0), 1e-5);
}

TEST(SilJvpTest, RejectsNonDifferentiable) {
  Module m;
  m.AddFunction(testing::FloorTimesX());
  EXPECT_FALSE(SynthesizeJVP(m, "floor_times_x").ok());
}

TEST(SilJvpTest, DirectionSizeChecked) {
  Module m;
  m.AddFunction(testing::SinMulExp());
  auto jvp = SynthesizeJVP(m, "sin_mul_exp").value();
  EXPECT_FALSE(jvp.Run({1.0, 2.0}, {1.0}).ok());
}

// Property sweep: VJP gradients match finite differences across a grid of
// evaluation points for every test program.
struct SilGradCase {
  const char* fn;
  int arity;
};

// gtest prints the parameter into the test's ctest name; without this it
// dumps the struct's bytes (the fn pointer and padding), which change on
// every relink.
void PrintTo(const SilGradCase& c, std::ostream* os) { *os << c.fn; }

class SilGradSweepTest : public ::testing::TestWithParam<SilGradCase> {};

TEST_P(SilGradSweepTest, MatchesFiniteDifferences) {
  Module m;
  m.AddFunction(testing::SquarePlusOne());
  m.AddFunction(testing::SinMulExp());
  m.AddFunction(testing::AbsViaBranch());
  m.AddFunction(testing::PowViaLoop(3));
  FunctionBuilder b("user", 1);
  const ValueId x = b.Arg(0);
  const ValueId s = b.Emit(InstKind::kSin, {x});
  const ValueId h = b.Call("square_plus_one", {s});
  b.Return(b.Emit(InstKind::kMul, {h, x}));
  m.AddFunction(std::move(b).Build());

  const auto& c = GetParam();
  const double points[] = {-1.7, -0.6, 0.4, 1.3, 2.2};
  for (double p0 : points) {
    std::vector<double> at = {p0};
    if (c.arity == 2) at.push_back(p0 * 0.5 + 1.1);
    const auto grads = SilGradient(m, c.fn, at).value();
    for (int i = 0; i < c.arity; ++i) {
      EXPECT_NEAR(grads[static_cast<std::size_t>(i)],
                  Numeric(m, c.fn, at, static_cast<std::size_t>(i)), 1e-4)
          << c.fn << " arg " << i << " at " << p0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, SilGradSweepTest,
    ::testing::Values(SilGradCase{"square_plus_one", 1},
                      SilGradCase{"sin_mul_exp", 2},
                      SilGradCase{"abs_branch", 1},
                      SilGradCase{"pow_loop", 1}, SilGradCase{"user", 1}),
    [](const ::testing::TestParamInfo<SilGradCase>& info) {
      return info.param.fn;
    });

}  // namespace
}  // namespace s4tf::sil
