// Layer probes, run after the timed loop of a traced run. Each one times a
// public call of one layer on the workload's own program or shapes:
//
//  * kernel replay: one step (or one served batch) lowered to HLO the way
//    bench/step_program.h lowers it, every instruction re-run through
//    EvalOpLiteral on the step's real values, time grouped by op family;
//  * xla: a cold xla::Compile of that module, a CompileCache hit, and
//    Executable::Run on the same values;
//  * support: an empty-body ParallelForRange at 1 and 4 threads;
//  * dist: a 4-rank RingCommunicator all-reduce at the LeNet gradient size;
//  * serve: XlaServable::RunBatch at padded batch 1 and 8.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ad/operators.h"
#include "common.h"
#include "lazy/lazy_tensor.h"
#include "nn/datasets.h"
#include "nn/losses.h"
#include "nn/optimizers.h"
#include "nn/training.h"
#include "serve/mlp.h"
#include "support/error.h"
#include "xla/compiler.h"

namespace perfbench {

// The served model: an MLP 256 -> 1024 -> 10.
inline constexpr int kMlpIn = 256;
inline constexpr int kMlpHidden = 1024;
inline constexpr int kMlpOut = 10;
s4tf::serve::MlpModel MakeServedModel(std::uint64_t seed);

// One step of a workload lowered to HLO, with the real values of its
// parameters (weights, optimizer state, batch) in parameter order.
struct LoweredStep {
  s4tf::xla::HloModule module;
  std::vector<s4tf::Literal> parameters;
  double lower_ms = 0.0;  // median LowerTrace time
};

// Lowers the traced roots and times LowerTrace (median of three).
LoweredStep LowerRoots(const std::vector<s4tf::Tensor>& roots);

// Forward + backward + SGD-momentum update of `model` on `batch`, traced
// on a private lazy device from copies of the model and optimizer state.
template <s4tf::ad::DifferentiableStruct M>
LoweredStep LowerTrainingStep(const M& model,
                              const s4tf::nn::SGD<M>& optimizer,
                              const s4tf::nn::LabeledBatch& batch) {
  using namespace s4tf;
  LazyBackend backend;
  const Device lazy = backend.device();
  M staged = model;
  nn::MoveModelTo(staged, lazy);
  nn::SGD<M> staged_optimizer = optimizer;
  struct MoveState {
    const Device& device;
    void Scalar(const char*, std::int64_t&) {}
    void TensorSlots(const char*, std::vector<Tensor>& slots) {
      for (Tensor& t : slots) t = t.To(device);
    }
  };
  staged_optimizer.VisitState(MoveState{lazy});
  const Tensor images = batch.images.To(lazy);
  const Tensor one_hot = batch.one_hot.To(lazy);
  auto [loss, grads] = ad::ValueWithGradient(staged, [&](const M& m) {
    return nn::SoftmaxCrossEntropy(m(images), one_hot);
  });
  staged_optimizer.Update(staged, grads);

  std::vector<Tensor> roots = {loss};
  staged.VisitParameters([&](Tensor& p) { roots.push_back(p); });
  struct CollectState {
    std::vector<Tensor>& roots;
    void Scalar(const char*, std::int64_t&) {}
    void TensorSlots(const char*, std::vector<Tensor>& slots) {
      for (Tensor& t : slots) roots.push_back(t);
    }
  };
  staged_optimizer.VisitState(CollectState{roots});
  return LowerRoots(roots);
}

// Median microseconds of XlaServable::RunBatch at padded batch 1 and 8.
struct RunBatchProbe {
  double b1_us = 0.0;
  double b8_us = 0.0;
};

// Counter-derived per-layer metrics every workload reports over its timed
// window, per step or per request (`items`).
void AddCounterMetrics(Report& report, const CounterWindow& window,
                       double items, double tape_nodes);

// Adds the probe and replay metrics every workload reports and returns the
// RunBatch probe. `executed_is_compiled` says which module the workload's
// backend runs op by op: the compiled one (XLA) or the raw lowered step
// (naive and eager devices). `per_item_divisor` turns a module's replay
// into per-step or per-request figures. The probes leave the intra-op
// thread setting at `restore_threads`.
RunBatchProbe AddStepProgramMetrics(Report& report, const LoweredStep& step,
                                    bool executed_is_compiled,
                                    double per_item_divisor,
                                    std::uint64_t seed, int restore_threads);

// LeNet's gradient size in floats (the all-reduce probe's buffer).
std::int64_t LenetParameterCount();

}  // namespace perfbench
