// Reverse-mode gradient tape over Tensor programs.
//
// Swift for TensorFlow performs reverse-mode AD by *compile-time code
// transformation on SIL* (§2.2); C++ offers no compiler hook, so this tape
// is the runtime stand-in that synthesizes the same pullback composition
// the Swift compiler would have emitted (the compile-time algorithms
// themselves — activity analysis, differentiability checking, derivative
// synthesis — are reproduced faithfully on an SSA IR in src/sil).
//
// The tape hooks `ApplyOp` through the OpRecorder interface, so it works
// identically on the naïve, eager, and lazy devices — on the lazy device
// the recorded pullback graph itself becomes part of the trace that the
// XLA-like JIT fuses, exactly as in the paper's training benchmarks.
//
// Activity analysis appears here in runtime form: an op is recorded only
// if one of its inputs is *varied* (reaches a watched parameter), and
// pullbacks are propagated only through nodes that are *useful*
// (reached backwards from the loss). Within a useful node, the reverse
// sweep passes OpPullback an adjoint mask that requests only the varied
// inputs, so no adjoint is built for a constant input: a first conv
// layer never computes the gradient of its images.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "tensor/ops.h"
#include "tensor/recording.h"
#include "tensor/tensor.h"

namespace s4tf::ad {

// Pullback signature for user-registered derivatives: given the saved
// primal inputs/output and the incoming gradient, produce a gradient per
// input (unset entries mean "no gradient flows to this input").
using CustomPullback = std::function<std::vector<std::optional<Tensor>>(
    const std::vector<Tensor>& inputs, const Tensor& output,
    const Tensor& grad)>;

class GradientTape final : public OpRecorder {
 public:
  GradientTape() = default;

  // Marks `t` as a differentiation root. Subsequent ops consuming it (or
  // values derived from it) are recorded.
  void Watch(Tensor& t);

  // Records a call with a user-specified derivative (the paper's
  // @derivative(of:) attribute): the reverse pass will invoke `pullback`
  // instead of decomposing the call into per-op rules, terminating the
  // derivative-synthesis recursion exactly as in §2.1.
  void RecordCustomCall(const std::vector<Tensor>& inputs, Tensor& output,
                        CustomPullback pullback);

  // OpRecorder: called by ApplyOp while a RecorderScope is active.
  void RecordOp(OpKind kind, const OpAttrs& attrs,
                const std::vector<Tensor>& inputs, Tensor& output) override;

  // Reverse pass: gradients of scalar `loss` with respect to every
  // recorded node. Entry i corresponds to node id i; nodes the loss does
  // not depend on hold nullopt ("not useful" in activity-analysis terms).
  std::vector<std::optional<Tensor>> ComputeGradients(const Tensor& loss);

  // Fires while the reverse sweep is still running, the moment a watched
  // parameter's gradient can no longer change (the sweep has passed the
  // earliest node that consumes it). `grad` is the final accumulated
  // gradient, or nullptr when the loss does not depend on the parameter.
  // The firing order is a pure function of the recorded tape — never of
  // thread scheduling — which is what lets nn::ReplicaGroup overlap
  // gradient communication with the rest of the backward pass while
  // keeping bucket submission deterministic.
  using GradientReadyHook =
      std::function<void(std::int64_t node_id, const Tensor* grad)>;

  // As ComputeGradients(loss), additionally invoking `on_final` once per
  // watched (kParameter) node at the deterministic point described above.
  // Passing a null hook is identical to the plain overload.
  std::vector<std::optional<Tensor>> ComputeGradients(
      const Tensor& loss, const GradientReadyHook& on_final);

  // Gradient of `loss` for a watched tensor, given ComputeGradients'
  // output. Returns zeros of the parameter's shape if the loss did not
  // depend on it.
  Tensor GradientFor(const std::vector<std::optional<Tensor>>& grads,
                     const Tensor& watched) const;

  std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(nodes_.size());
  }

 private:
  struct Node {
    OpKind kind;
    OpAttrs attrs;
    // Tape ids of the inputs; -1 marks a non-varied (constant) input.
    std::vector<std::int64_t> input_ids;
    // Saved primal values needed by the pullback.
    std::vector<Tensor> inputs;
    Tensor output;
    // When set, overrides the per-op rule (custom derivative).
    CustomPullback custom;
  };

  std::vector<Node> nodes_;
};

// Per-op VJP rule: given the node's saved primal values and the incoming
// gradient, produces the gradient of each input i for which `needed[i]`
// is set (the adjoint mask; one flag per input). Only the requested
// adjoints and the intermediates they read are built; every other entry
// is left unset, as are entries of inputs with no derivative (a select's
// condition). A requested adjoint is the same expression, bit for bit,
// whatever else is requested. Exposed for direct unit testing.
std::vector<std::optional<Tensor>> OpPullback(OpKind kind,
                                              const OpAttrs& attrs,
                                              const std::vector<Tensor>& inputs,
                                              const Tensor& output,
                                              const Tensor& grad,
                                              const std::vector<bool>& needed);

// Sum-reduces `grad` back to `target` shape after broadcasting (the
// adjoint of NumPy broadcasting).
Tensor Unbroadcast(const Tensor& grad, const Shape& target);

}  // namespace s4tf::ad
