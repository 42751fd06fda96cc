// Random tensor programs for differential tests: a device-independent plan
// of input literals plus a sequence of op applications, drawn from a
// seeded PRNG. tests/integration/cross_backend_test.cpp runs plans on every
// backend; tests/xla/fusion2_test.cpp builds HLO modules from them.
#pragma once

#include <cstdint>
#include <iterator>
#include <vector>

#include "support/rng.h"
#include "tensor/literal.h"
#include "tensor/op.h"

namespace s4tf {

// One op application referring to earlier values by index: the inputs
// first, then each step's result in order.
struct PlanStep {
  OpKind kind;
  OpAttrs attrs;
  std::vector<int> operands;  // indices into the value list
};

struct Plan {
  std::vector<Literal> inputs;
  std::vector<PlanStep> steps;
};

// Shapes used by the generator, grouped so binary ops can pick compatible
// operands. Positive-domain hazards (log, sqrt of negatives) are excluded
// from the op pool. About one input element in eight is a signed zero, and
// a scalar-attribute op draws +0, -0 or 1 half the time and a random
// scalar otherwise.
//
// Every MatMul result feeds a chain of up to three elementwise links:
// unary, scalar-attribute, or binary against a full-shape [2,4], a scalar
// or a last-dim [4] operand, either way round. No other step reads the
// MatMul result or a link that is not the chain's last, so each link is
// single-use and the chain can fold into the MatMul's epilogue.
inline Plan GeneratePlan(std::uint64_t seed, int num_steps) {
  Rng rng(seed);
  Plan plan;
  const Shape shapes[] = {Shape({}), Shape({4}), Shape({2, 3}),
                          Shape({3, 4})};
  // Shape of each value (inputs + step results), and whether later steps
  // may read it.
  std::vector<Shape> value_shapes;
  std::vector<bool> readable;

  const auto add_input = [&](const Shape& shape) {
    std::vector<float> values(static_cast<std::size_t>(shape.NumElements()));
    rng.FillUniform(values.data(), values.size(), -1.0f, 1.0f);
    for (float& v : values) {
      const std::uint64_t draw = rng.NextBelow(16);
      if (draw < 2) v = draw == 0 ? 0.0f : -0.0f;
    }
    plan.inputs.push_back(Literal::FromVector(shape, std::move(values)));
    value_shapes.push_back(shape);
    readable.push_back(true);
  };
  for (const Shape& shape : shapes) add_input(shape);
  add_input(Shape({2, 3}));  // a second [2,3] so binaries have pairs
  add_input(Shape({4}));
  add_input(Shape({2, 4}));  // a full-shape operand for MatMul chains

  const auto pick_with_shape = [&](const Shape* shape) -> int {
    // Uniform over readable candidates (of `shape` unless null); -1 when
    // there are none.
    std::vector<int> candidates;
    for (std::size_t i = 0; i < value_shapes.size(); ++i) {
      if (readable[i] && (shape == nullptr || value_shapes[i] == *shape)) {
        candidates.push_back(static_cast<int>(i));
      }
    }
    if (candidates.empty()) return -1;
    return candidates[rng.NextBelow(candidates.size())];
  };
  const auto pick_value = [&] { return pick_with_shape(nullptr); };
  const auto draw_scalar = [&]() -> float {
    switch (rng.NextBelow(6)) {
      case 0: return 0.0f;
      case 1: return -0.0f;
      case 2: return 1.0f;
      default: return static_cast<float>(rng.Uniform(-1.5, 1.5));
    }
  };
  const auto push = [&](PlanStep step) {
    std::vector<Shape> operand_shapes;
    for (int op : step.operands) {
      operand_shapes.push_back(value_shapes[static_cast<std::size_t>(op)]);
    }
    value_shapes.push_back(InferShape(step.kind, operand_shapes, step.attrs));
    readable.push_back(true);
    plan.steps.push_back(std::move(step));
    return static_cast<int>(value_shapes.size()) - 1;
  };

  const OpKind unary_pool[] = {OpKind::kNeg,     OpKind::kTanh,
                               OpKind::kRelu,    OpKind::kSigmoid,
                               OpKind::kAbs,     OpKind::kSquare,
                               OpKind::kSoftmax, OpKind::kLogSoftmax};
  // The elementwise prefix of unary_pool: the ops a chain link may be.
  constexpr std::size_t kElementwiseUnary = 6;
  const OpKind binary_pool[] = {OpKind::kAdd, OpKind::kSub, OpKind::kMul,
                                OpKind::kMaximum, OpKind::kMinimum};
  const OpKind scalar_pool[] = {OpKind::kMulScalar, OpKind::kAddScalar};

  while (static_cast<int>(plan.steps.size()) < num_steps) {
    PlanStep step;
    const std::uint64_t category = rng.NextBelow(10);
    if (category < 3) {  // unary
      step.kind = unary_pool[rng.NextBelow(std::size(unary_pool))];
      step.operands = {pick_value()};
      if ((step.kind == OpKind::kSoftmax ||
           step.kind == OpKind::kLogSoftmax) &&
          value_shapes[static_cast<std::size_t>(step.operands[0])].rank() ==
              0) {
        step.kind = OpKind::kTanh;  // softmax needs rank >= 1
      }
    } else if (category < 6) {  // binary with equal shapes or vs scalar
      step.kind = binary_pool[rng.NextBelow(std::size(binary_pool))];
      const int a = pick_value();
      const Shape scalar({});
      const int b = pick_with_shape(
          rng.NextBelow(2) == 0 ? &value_shapes[static_cast<std::size_t>(a)]
                                : &scalar);
      step.operands = {a, b < 0 ? a : b};
    } else if (category < 8) {  // scalar-attribute op
      step.kind = scalar_pool[rng.NextBelow(std::size(scalar_pool))];
      step.attrs.scalar = draw_scalar();
      step.operands = {pick_value()};
    } else if (category == 8) {  // matmul [2,3] x [3,4], then its chain
      const Shape lhs({2, 3}), rhs({3, 4});
      const int a = pick_with_shape(&lhs);
      const int b = pick_with_shape(&rhs);
      if (a < 0 || b < 0) {
        step.kind = OpKind::kTanh;
        step.operands = {pick_value()};
      } else {
        step.kind = OpKind::kMatMul;
        step.operands = {a, b};
        int tail = push(std::move(step));
        const int links = static_cast<int>(rng.NextBelow(4));
        for (int l = 0; l < links &&
                        static_cast<int>(plan.steps.size()) < num_steps;
             ++l) {
          readable[static_cast<std::size_t>(tail)] = false;
          PlanStep link;
          link.operands = {tail};
          switch (rng.NextBelow(3)) {
            case 0:
              link.kind = unary_pool[rng.NextBelow(kElementwiseUnary)];
              break;
            case 1:
              link.kind = scalar_pool[rng.NextBelow(std::size(scalar_pool))];
              link.attrs.scalar = draw_scalar();
              break;
            default: {
              link.kind = binary_pool[rng.NextBelow(std::size(binary_pool))];
              const Shape operand_shapes[] = {Shape({2, 4}), Shape({}),
                                              Shape({4})};
              const int other = pick_with_shape(
                  &operand_shapes[rng.NextBelow(std::size(operand_shapes))]);
              if (rng.NextBelow(2) == 0) {
                link.operands.push_back(other);
              } else {
                link.operands.insert(link.operands.begin(), other);
              }
            }
          }
          tail = push(std::move(link));
        }
        continue;
      }
    } else {  // reduction
      step.kind = rng.NextBelow(2) == 0 ? OpKind::kReduceSum
                                        : OpKind::kReduceMean;
      step.operands = {pick_value()};
    }
    push(std::move(step));
  }
  return plan;
}

}  // namespace s4tf
