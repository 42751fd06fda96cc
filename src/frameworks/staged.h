// Staged (graph-mode) training steps: the TensorFlow / JAX baseline of
// Tables 2-3. StageTrainStep is the only code in src/ and bench/ that
// stages a training step.
//
// Unlike S4TF's LazyTensor — which re-traces the user's program every
// iteration and relies on the program cache (§3.4) — TF's @tf.function and
// JAX's @jit stage the step *once* into their IR and then repeatedly
// execute the compiled program with fresh inputs. StageTrainStep traces
// one pure-functional SGD step (weights..., batch) -> (loss, new_weights...)
// on a scratch lazy device and lowers it; the table harnesses compile and
// price that module. StagedTrainStep compiles it once, then re-binds
// parameters and runs it with no per-op host work at all — only a fixed
// per-step session/dispatch overhead.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "ad/operators.h"
#include "lazy/lazy_tensor.h"
#include "nn/losses.h"
#include "nn/training.h"
#include "xla/compiler.h"

namespace s4tf::frameworks {

// Host cost of one executable invocation (session.run / jitted-call
// dispatch).
inline constexpr double kSessionOverheadSeconds = 30e-6;

// Where one parameter of a staged step's module takes its value from.
struct StagedBinding {
  enum Role { kWeight, kImages, kOneHot, kCaptured } role = kCaptured;
  std::size_t slot = 0;  // kWeight: the index in VisitParameters order
  Literal captured;      // kCaptured: a constant the trace closed over
};

// One traced SGD step, lowered but not optimized or compiled. The roots
// are the loss, then each updated weight in VisitParameters order.
struct StagedStep {
  xla::HloModule module;
  std::vector<StagedBinding> bindings;  // one per module parameter
  std::int64_t trace_ops = 0;           // host ops recorded by the trace
  std::int64_t parameter_count = 0;     // model parameters (elements)
};

namespace internal {
inline std::shared_ptr<LazyNode> LazyNodeOf(const Tensor& t) {
  auto* impl = dynamic_cast<LazyImpl*>(t.impl().get());
  S4TF_CHECK(impl != nullptr) << "staged tracing requires lazy tensors";
  return impl->node();
}
}  // namespace internal

// Stages one SGD step (softmax cross-entropy, new_w = w - lr * g) for
// `model` on batches of `image_batch_shape` with `num_classes` outputs.
template <ad::DifferentiableStruct M>
StagedStep StageTrainStep(const M& model, const Shape& image_batch_shape,
                          int num_classes, float learning_rate) {
  LazyBackend backend;
  const Device lazy = backend.device();

  // Weights and batch are lazy leaves; every other leaf of the trace is a
  // constant it captured.
  M staged = model;
  nn::MoveModelTo(staged, lazy);
  const Tensor images = Tensor::Zeros(image_batch_shape, lazy);
  const Tensor one_hot = Tensor::Zeros(
      Shape({image_batch_shape.dim(0), num_classes}), lazy);
  std::map<const LazyNode*, StagedBinding> inputs = {
      {internal::LazyNodeOf(images).get(), {StagedBinding::kImages}},
      {internal::LazyNodeOf(one_hot).get(), {StagedBinding::kOneHot}}};
  std::size_t slot = 0;
  staged.VisitParameters([&](Tensor& p) {
    inputs[internal::LazyNodeOf(p).get()] = {StagedBinding::kWeight, slot++};
  });

  auto [loss, grads] = ad::ValueWithGradient(staged, [&](const M& m) {
    return nn::SoftmaxCrossEntropy(m(images), one_hot);
  });

  // Pure-functional update (XLA's immutable model; cf. §4.2's discussion
  // of input-output aliasing). A weight without a gradient is returned
  // unchanged.
  StagedStep step;
  std::vector<std::shared_ptr<LazyNode>> roots = {internal::LazyNodeOf(loss)};
  staged.VisitWithTangent(grads, [&](Tensor& p, Tensor& g) {
    step.parameter_count += p.NumElements();
    roots.push_back(internal::LazyNodeOf(
        g.shape() == p.shape() ? p - g * learning_rate : p));
  });

  std::vector<std::shared_ptr<LazyNode>> leaves;
  step.module = LowerTrace(roots, &leaves);
  step.trace_ops = backend.ops_traced();

  for (const auto& leaf : leaves) {
    const auto input = inputs.find(leaf.get());
    step.bindings.push_back(input != inputs.end()
                                ? input->second
                                : StagedBinding{.captured = leaf->LeafValue()});
  }
  return step;
}

// Graph-mode execution of a staged step: compiled once, then run with
// fresh batches while the weights update in this object's state.
class StagedTrainStep {
 public:
  template <ad::DifferentiableStruct M>
  StagedTrainStep(const M& model, const Shape& image_batch_shape,
                  int num_classes, float learning_rate) {
    StagedStep step = StageTrainStep(model, image_batch_shape, num_classes,
                                     learning_rate);
    const xla::CompileResult compiled =
        xla::Compile(std::move(step.module), {});
    executable_ = compiled.executable;
    compile_seconds_ = compiled.compile_seconds;
    bindings_ = std::move(step.bindings);
    model.VisitParameters(
        [&](const Tensor& p) { weights_.push_back(p.ToLiteral()); });
  }

  // Executes one step on a batch and returns its loss.
  float Run(const Literal& images, const Literal& one_hot) {
    host_seconds_ += kSessionOverheadSeconds;
    std::vector<Literal> parameters;
    parameters.reserve(bindings_.size());
    for (const StagedBinding& binding : bindings_) {
      switch (binding.role) {
        case StagedBinding::kImages: parameters.push_back(images); break;
        case StagedBinding::kOneHot: parameters.push_back(one_hot); break;
        case StagedBinding::kWeight:
          parameters.push_back(weights_[binding.slot]);
          break;
        case StagedBinding::kCaptured:
          parameters.push_back(binding.captured);
          break;
      }
    }
    std::vector<Literal> outputs = executable_->Run(parameters);
    for (std::size_t i = 0; i + 1 < outputs.size(); ++i) {
      weights_[i] = std::move(outputs[i + 1]);
    }
    ++steps_;
    return outputs[0].data[0];
  }

  double host_seconds() const { return host_seconds_; }
  double compile_seconds() const { return compile_seconds_; }
  std::int64_t steps() const { return steps_; }
  std::int64_t program_size() const {
    return executable_->module().instruction_count();
  }
  const xla::Executable& executable() const { return *executable_; }
  const std::vector<Literal>& weights() const { return weights_; }

 private:
  std::shared_ptr<xla::Executable> executable_;
  std::vector<StagedBinding> bindings_;
  std::vector<Literal> weights_;
  double host_seconds_ = 0.0;
  double compile_seconds_ = 0.0;
  std::int64_t steps_ = 0;
};

}  // namespace s4tf::frameworks
