// Cross-backend equivalence: the platform's central illusion (§3.3).
//
// "As long as the user's program does not observe the contents of a
// Tensor, the code cannot distinguish when a Tensor operation is actually
// executed." Operationally: the SAME program must produce the SAME numbers
// on the naive, eager, and lazy devices, whether the lazy JIT fuses or
// not, and the gradient tape must agree everywhere.
//
// These tests generate random tensor programs (a device-independent op
// plan from random_plan.h, drawn from a seeded PRNG), execute them on
// every backend, and compare results — hundreds of distinct programs
// across the parameterized sweep.
#include <cmath>
#include <gtest/gtest.h>

#include "ad/operators.h"
#include "eager/eager_backend.h"
#include "lazy/lazy_tensor.h"
#include "tensor/ops.h"
#include "tests/integration/random_plan.h"

namespace s4tf {
namespace {

// Executes the plan on `device`, reducing every produced value into one
// scalar "program checksum" (tanh-compressed so magnitudes stay finite).
Tensor ExecutePlan(const Plan& plan, const Device& device) {
  std::vector<Tensor> values;
  values.reserve(plan.inputs.size() + plan.steps.size());
  for (const Literal& input : plan.inputs) {
    values.push_back(Tensor::FromLiteral(input, device));
  }
  Tensor checksum = Tensor::Zeros(Shape({}), device);
  for (const PlanStep& step : plan.steps) {
    std::vector<Tensor> operands;
    for (int op : step.operands) {
      operands.push_back(values[static_cast<std::size_t>(op)]);
    }
    Tensor result = ApplyOp(step.kind, std::move(operands), step.attrs);
    checksum = Tanh(checksum + ReduceMean(result));
    values.push_back(std::move(result));
  }
  return checksum;
}

class CrossBackendTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossBackendTest, AllBackendsComputeIdenticalResults) {
  const Plan plan = GeneratePlan(GetParam(), /*num_steps=*/40);

  const float naive = ExecutePlan(plan, NaiveDevice()).ScalarValue();

  EagerBackend eager;
  const float eager_result =
      ExecutePlan(plan, eager.device()).ScalarValue();

  LazyBackend lazy;
  const float lazy_result = ExecutePlan(plan, lazy.device()).ScalarValue();

  LazyOptions unfused_options;
  unfused_options.compile.enable_fusion = false;
  unfused_options.compile.enable_algebraic_simplify = false;
  unfused_options.compile.enable_cse = false;
  LazyBackend unfused(unfused_options);
  const float unfused_result =
      ExecutePlan(plan, unfused.device()).ScalarValue();

  EXPECT_FLOAT_EQ(naive, eager_result);
  EXPECT_FLOAT_EQ(naive, lazy_result);
  EXPECT_FLOAT_EQ(naive, unfused_result);
  EXPECT_TRUE(std::isfinite(naive));
}

TEST_P(CrossBackendTest, GradientsAgreeAcrossBackends) {
  const Plan plan = GeneratePlan(GetParam() ^ 0xabcdef, /*num_steps=*/25);

  const auto grad_on = [&](const Device& device) {
    // Differentiate the checksum w.r.t. the first [2,3] input.
    Tensor x = Tensor::FromLiteral(plan.inputs[2], device);
    const auto [value, grad] =
        ad::ValueWithGradient(x, [&](const Tensor& watched) {
          Plan patched = plan;
          std::vector<Tensor> values;
          for (std::size_t i = 0; i < patched.inputs.size(); ++i) {
            values.push_back(i == 2 ? watched
                                    : Tensor::FromLiteral(patched.inputs[i],
                                                          device));
          }
          Tensor checksum = Tensor::Zeros(Shape({}), device);
          for (const PlanStep& step : patched.steps) {
            std::vector<Tensor> operands;
            for (int op : step.operands) {
              operands.push_back(values[static_cast<std::size_t>(op)]);
            }
            Tensor result = ApplyOp(step.kind, std::move(operands),
                                    step.attrs);
            checksum = Tanh(checksum + ReduceMean(result));
            values.push_back(std::move(result));
          }
          return checksum;
        });
    (void)value;
    return grad.ToVector();
  };

  const auto naive_grad = grad_on(NaiveDevice());
  LazyBackend lazy;
  const auto lazy_grad = grad_on(lazy.device());
  ASSERT_EQ(naive_grad.size(), lazy_grad.size());
  for (std::size_t i = 0; i < naive_grad.size(); ++i) {
    EXPECT_NEAR(naive_grad[i], lazy_grad[i],
                1e-5f * std::max(1.0f, std::fabs(naive_grad[i])))
        << "grad[" << i << "]";
  }
}

TEST_P(CrossBackendTest, RetracedPlanHitsProgramCache) {
  const Plan plan = GeneratePlan(GetParam() ^ 0x55aa, /*num_steps=*/20);
  LazyBackend lazy;
  const float first = ExecutePlan(plan, lazy.device()).ScalarValue();
  const float second = ExecutePlan(plan, lazy.device()).ScalarValue();
  EXPECT_FLOAT_EQ(first, second);
  EXPECT_EQ(lazy.cache_misses(), 1);
  EXPECT_GE(lazy.cache_hits(), 1);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, CrossBackendTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u, 11u, 12u, 13u, 14u, 15u,
                                           16u));

}  // namespace
}  // namespace s4tf
