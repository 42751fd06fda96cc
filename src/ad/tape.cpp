#include "ad/tape.h"

#include <algorithm>
#include <cmath>

namespace s4tf::ad {

// Re-expands a reduced gradient to the pre-reduction shape: reshape to the
// keep_dims form, then broadcast.
Tensor BroadcastLikeInput(const Tensor& reduced, const Tensor& input,
                          const OpAttrs& attrs);

namespace {

// Gradient mask for reduce_max: 1 where the input equals the broadcasted
// max. Ties share the gradient (split evenly is not required for
// correctness of subgradients; we give each maximal entry the full share,
// matching XLA's select-and-scatter-free formulation used with distinct
// maxima in practice).
Tensor EqualMask(const Tensor& a, const Tensor& b) {
  const Tensor gt = Greater(a, b);
  const Tensor lt = Greater(b, a);
  return (1.0f - gt) * (1.0f - lt);
}

}  // namespace

Tensor Unbroadcast(const Tensor& grad, const Shape& target) {
  if (grad.shape() == target) return grad;
  const auto axes = BroadcastReductionAxes(grad.shape(), target);
  Tensor reduced = ReduceSum(grad, axes, /*keep_dims=*/true);
  return Reshape(reduced, target);
}

std::vector<std::optional<Tensor>> OpPullback(
    OpKind kind, const OpAttrs& attrs, const std::vector<Tensor>& inputs,
    const Tensor& output, const Tensor& grad,
    const std::vector<bool>& needed) {
  S4TF_CHECK_EQ(needed.size(), inputs.size())
      << "adjoint mask arity for op " << OpName(kind);
  std::vector<std::optional<Tensor>> result(inputs.size());
  // Nothing requested, nothing built. Past this point a one-input rule
  // may assume its input is requested; a multi-input rule builds only the
  // requested adjoints and the intermediates they read.
  if (std::none_of(needed.begin(), needed.end(), [](bool n) { return n; })) {
    return result;
  }
  switch (kind) {
    case OpKind::kAdd:
      if (needed[0]) result[0] = Unbroadcast(grad, inputs[0].shape());
      if (needed[1]) result[1] = Unbroadcast(grad, inputs[1].shape());
      break;
    case OpKind::kSub:
      if (needed[0]) result[0] = Unbroadcast(grad, inputs[0].shape());
      if (needed[1]) result[1] = Unbroadcast(-grad, inputs[1].shape());
      break;
    case OpKind::kMul:
      if (needed[0]) {
        result[0] = Unbroadcast(grad * inputs[1], inputs[0].shape());
      }
      if (needed[1]) {
        result[1] = Unbroadcast(grad * inputs[0], inputs[1].shape());
      }
      break;
    case OpKind::kDiv:
      if (needed[0]) {
        result[0] = Unbroadcast(grad / inputs[1], inputs[0].shape());
      }
      if (needed[1]) {
        result[1] = Unbroadcast(-grad * inputs[0] / Square(inputs[1]),
                                inputs[1].shape());
      }
      break;
    case OpKind::kMaximum: {
      const Tensor mask = Greater(inputs[0], inputs[1]);
      if (needed[0]) {
        result[0] = Unbroadcast(grad * mask, inputs[0].shape());
      }
      if (needed[1]) {
        result[1] = Unbroadcast(grad * (1.0f - mask), inputs[1].shape());
      }
      break;
    }
    case OpKind::kMinimum: {
      const Tensor mask = Greater(inputs[1], inputs[0]);
      if (needed[0]) {
        result[0] = Unbroadcast(grad * mask, inputs[0].shape());
      }
      if (needed[1]) {
        result[1] = Unbroadcast(grad * (1.0f - mask), inputs[1].shape());
      }
      break;
    }
    case OpKind::kPow: {
      // d/da a^b = b a^(b-1);  d/db a^b = a^b ln a  (a > 0 domain).
      if (needed[0]) {
        result[0] = Unbroadcast(
            grad * inputs[1] * Pow(inputs[0], inputs[1] - 1.0f),
            inputs[0].shape());
      }
      if (needed[1]) {
        result[1] = Unbroadcast(grad * output * Log(inputs[0]),
                                inputs[1].shape());
      }
      break;
    }
    case OpKind::kGreater:
      // Boolean output: zero derivative everywhere it exists.
      break;
    case OpKind::kSelect: {
      // The condition is boolean and gets no adjoint.
      const Tensor& cond = inputs[0];
      if (needed[1]) {
        result[1] = Unbroadcast(grad * cond, inputs[1].shape());
      }
      if (needed[2]) {
        result[2] = Unbroadcast(grad * (1.0f - cond), inputs[2].shape());
      }
      break;
    }

    case OpKind::kNeg:
      result[0] = -grad;
      break;
    case OpKind::kExp:
      result[0] = grad * output;
      break;
    case OpKind::kLog:
      result[0] = grad / inputs[0];
      break;
    case OpKind::kTanh:
      result[0] = grad * (1.0f - Square(output));
      break;
    case OpKind::kSqrt:
      result[0] = grad * 0.5f / output;
      break;
    case OpKind::kRsqrt:
      result[0] = grad * (-0.5f) * output * output * output;
      break;
    case OpKind::kSquare:
      result[0] = grad * 2.0f * inputs[0];
      break;
    case OpKind::kRelu:
      result[0] = grad * Greater(inputs[0], Tensor::Zeros(Shape({}),
                                                          inputs[0].device()));
      break;
    case OpKind::kSigmoid:
      result[0] = grad * output * (1.0f - output);
      break;
    case OpKind::kAbs: {
      const Tensor zero = Tensor::Zeros(Shape({}), inputs[0].device());
      result[0] =
          grad * (Greater(inputs[0], zero) - Greater(zero, inputs[0]));
      break;
    }
    case OpKind::kAddScalar:
      result[0] = grad;
      break;
    case OpKind::kMulScalar:
      result[0] = grad * attrs.scalar;
      break;
    case OpKind::kPowScalar:
      result[0] = grad * attrs.scalar *
                  ApplyOp(OpKind::kPowScalar, {inputs[0]},
                          OpAttrs{.scalar = attrs.scalar - 1.0f});
      break;
    case OpKind::kLeakyRelu: {
      const Tensor mask = Greater(inputs[0], Tensor::Zeros(Shape({}),
                                                           inputs[0].device()));
      result[0] = grad * (mask + attrs.scalar * (1.0f - mask));
      break;
    }

    case OpKind::kReshape:
      result[0] = Reshape(grad, inputs[0].shape());
      break;
    case OpKind::kTranspose: {
      std::vector<std::int64_t> inverse(attrs.axes.size());
      for (std::size_t i = 0; i < attrs.axes.size(); ++i) {
        inverse[static_cast<std::size_t>(attrs.axes[i])] =
            static_cast<std::int64_t>(i);
      }
      result[0] = Transpose(grad, std::move(inverse));
      break;
    }
    case OpKind::kBroadcastTo:
      result[0] = Unbroadcast(grad, inputs[0].shape());
      break;
    case OpKind::kSlice: {
      // Scatter the gradient back into a zero tensor of the input shape.
      const Shape& in_shape = inputs[0].shape();
      std::vector<std::int64_t> pads;
      for (int d = 0; d < in_shape.rank(); ++d) {
        const auto sd = static_cast<std::size_t>(d);
        pads.push_back(attrs.starts[sd]);
        pads.push_back(in_shape.dim(d) - attrs.starts[sd] - attrs.shape[sd]);
      }
      result[0] = Pad(grad, std::move(pads), 0.0f);
      break;
    }
    case OpKind::kPad: {
      const Shape& in_shape = inputs[0].shape();
      std::vector<std::int64_t> starts;
      for (int d = 0; d < in_shape.rank(); ++d) {
        starts.push_back(attrs.pads[static_cast<std::size_t>(2 * d)]);
      }
      result[0] = Slice(grad, std::move(starts), in_shape.dims());
      break;
    }
    case OpKind::kConcat: {
      std::int64_t offset = 0;
      const int axis = static_cast<int>(attrs.axis);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const Shape& in_shape = inputs[i].shape();
        if (needed[i]) {
          std::vector<std::int64_t> starts(
              static_cast<std::size_t>(in_shape.rank()), 0);
          starts[static_cast<std::size_t>(axis)] = offset;
          result[i] = Slice(grad, std::move(starts), in_shape.dims());
        }
        offset += in_shape.dim(axis);
      }
      break;
    }

    case OpKind::kReduceSum: {
      result[0] = Unbroadcast(BroadcastLikeInput(grad, inputs[0], attrs),
                              inputs[0].shape());
      break;
    }
    case OpKind::kReduceMean: {
      const std::int64_t count =
          inputs[0].NumElements() / output.NumElements();
      result[0] = BroadcastLikeInput(grad, inputs[0], attrs) *
                  (1.0f / static_cast<float>(count));
      break;
    }
    case OpKind::kReduceMax: {
      const Tensor max_b = BroadcastLikeInput(output, inputs[0], attrs);
      const Tensor mask = EqualMask(inputs[0], max_b);
      result[0] = mask * BroadcastLikeInput(grad, inputs[0], attrs);
      break;
    }
    case OpKind::kArgMax:
      // Integer-valued output: non-differentiable, no gradient flows.
      break;

    case OpKind::kSoftmax: {
      const Tensor gy = grad * output;
      const Tensor sums = ReduceSum(
          gy, {static_cast<std::int64_t>(output.rank() - 1)},
          /*keep_dims=*/true);
      result[0] = gy - output * sums;
      break;
    }
    case OpKind::kLogSoftmax: {
      const Tensor softmax = Exp(output);
      const Tensor sums = ReduceSum(
          grad, {static_cast<std::int64_t>(output.rank() - 1)},
          /*keep_dims=*/true);
      result[0] = grad - softmax * sums;
      break;
    }

    case OpKind::kMatMul:
      if (needed[0]) result[0] = MatMul(grad, Transposed(inputs[1]));
      if (needed[1]) result[1] = MatMul(Transposed(inputs[0]), grad);
      break;

    case OpKind::kConv2D: {
      // A first layer's input (the images) is never on the tape, and its
      // input gradient is the costliest conv call of a LeNet step.
      if (needed[0]) {
        OpAttrs input_attrs = attrs;
        input_attrs.shape = inputs[0].shape().dims();
        result[0] = ApplyOp(OpKind::kConv2DBackpropInput, {grad, inputs[1]},
                            input_attrs);
      }
      if (needed[1]) {
        OpAttrs filter_attrs = attrs;
        filter_attrs.shape = inputs[1].shape().dims();
        result[1] = ApplyOp(OpKind::kConv2DBackpropFilter, {inputs[0], grad},
                            filter_attrs);
      }
      break;
    }
    case OpKind::kAvgPool2D: {
      OpAttrs grad_attrs = attrs;
      grad_attrs.shape = inputs[0].shape().dims();
      result[0] = ApplyOp(OpKind::kAvgPool2DGrad, {grad}, grad_attrs);
      break;
    }
    case OpKind::kMaxPool2D:
      result[0] =
          ApplyOp(OpKind::kMaxPool2DGrad, {inputs[0], grad}, attrs);
      break;

    case OpKind::kCrossReplicaSum:
      // The adjoint of an all-reduce sum is an all-reduce sum.
      result[0] = CrossReplicaSum(grad);
      break;

    default:
      S4TF_UNREACHABLE() << "no pullback rule for op " << OpName(kind)
                         << " (non-differentiable instruction reached the "
                            "reverse pass; the differentiability check "
                            "should have rejected it)";
  }
  return result;
}

Tensor BroadcastLikeInput(const Tensor& reduced, const Tensor& input,
                          const OpAttrs& attrs) {
  std::vector<std::int64_t> axes = attrs.axes;
  if (axes.empty()) {
    for (int i = 0; i < input.rank(); ++i) axes.push_back(i);
  }
  Tensor g = reduced;
  if (!attrs.keep_dims) {
    std::vector<bool> is_reduced(static_cast<std::size_t>(input.rank()),
                                 false);
    for (std::int64_t a : axes) is_reduced[static_cast<std::size_t>(a)] = true;
    std::vector<std::int64_t> keep_shape;
    for (int i = 0; i < input.rank(); ++i) {
      keep_shape.push_back(is_reduced[static_cast<std::size_t>(i)]
                               ? 1
                               : input.shape().dim(i));
    }
    g = Reshape(g, Shape(std::move(keep_shape)));
  }
  return BroadcastTo(g, input.shape());
}

void GradientTape::Watch(Tensor& t) {
  const std::int64_t id = static_cast<std::int64_t>(nodes_.size());
  nodes_.push_back(Node{OpKind::kParameter, OpAttrs{}, {}, {}, t});
  t.set_grad_node(id);
}

void GradientTape::RecordOp(OpKind kind, const OpAttrs& attrs,
                            const std::vector<Tensor>& inputs,
                            Tensor& output) {
  // Runtime "varied" check: skip ops with no path from a watched value.
  bool varied = false;
  for (const Tensor& in : inputs) {
    if (in.grad_node() >= 0) {
      varied = true;
      break;
    }
  }
  if (!varied) return;

  Node node;
  node.kind = kind;
  node.attrs = attrs;
  node.inputs = inputs;
  node.output = output;
  node.input_ids.reserve(inputs.size());
  for (const Tensor& in : inputs) node.input_ids.push_back(in.grad_node());
  const std::int64_t id = static_cast<std::int64_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  output.set_grad_node(id);
}

void GradientTape::RecordCustomCall(const std::vector<Tensor>& inputs,
                                    Tensor& output,
                                    CustomPullback pullback) {
  bool varied = false;
  for (const Tensor& in : inputs) {
    if (in.grad_node() >= 0) {
      varied = true;
      break;
    }
  }
  if (!varied) return;
  Node node;
  node.kind = OpKind::kConstant;  // placeholder; custom takes precedence
  node.inputs = inputs;
  node.output = output;
  node.custom = std::move(pullback);
  node.input_ids.reserve(inputs.size());
  for (const Tensor& in : inputs) node.input_ids.push_back(in.grad_node());
  const std::int64_t id = static_cast<std::int64_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  output.set_grad_node(id);
}

std::vector<std::optional<Tensor>> GradientTape::ComputeGradients(
    const Tensor& loss) {
  return ComputeGradients(loss, GradientReadyHook{});
}

std::vector<std::optional<Tensor>> GradientTape::ComputeGradients(
    const Tensor& loss, const GradientReadyHook& on_final) {
  std::vector<std::optional<Tensor>> grads(nodes_.size());
  const std::int64_t loss_node = loss.grad_node();
  if (loss_node < 0) {
    // Loss independent of watched values: every parameter's gradient is
    // (vacuously) final right away.
    if (on_final) {
      for (std::size_t id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id].kind == OpKind::kParameter) {
          on_final(static_cast<std::int64_t>(id), nullptr);
        }
      }
    }
    return grads;
  }
  S4TF_CHECK_LT(loss_node, static_cast<std::int64_t>(nodes_.size()));

  // Finalization analysis for the streaming hook: a parameter's gradient
  // slot receives its last accumulation when the reverse sweep processes
  // the *lowest-id* node that consumes it (the sweep walks ids downward,
  // so lower-id consumers run later). Once the sweep moves below that
  // consumer the slot can never change again. Consumers above the loss
  // node are never processed and do not count. The resulting schedule
  // depends only on the recorded tape, never on kernel timing.
  struct Ready {
    std::int64_t min_consumer;  // fire once the sweep has passed this id
    std::int64_t param_id;
  };
  std::vector<Ready> schedule;
  std::size_t next_ready = 0;
  if (on_final) {
    const auto sentinel = static_cast<std::int64_t>(nodes_.size());
    std::vector<std::int64_t> min_consumer(nodes_.size(), sentinel);
    for (std::int64_t n = loss_node; n >= 0; --n) {
      for (const std::int64_t in : nodes_[static_cast<std::size_t>(n)]
                                       .input_ids) {
        // Descending scan: the last write wins, i.e. the minimum id.
        if (in >= 0) min_consumer[static_cast<std::size_t>(in)] = n;
      }
    }
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].kind == OpKind::kParameter) {
        schedule.push_back(
            Ready{min_consumer[id], static_cast<std::int64_t>(id)});
      }
    }
    // Highest min-consumer first (fires earliest); ties in watch order.
    std::sort(schedule.begin(), schedule.end(),
              [](const Ready& a, const Ready& b) {
                if (a.min_consumer != b.min_consumer) {
                  return a.min_consumer > b.min_consumer;
                }
                return a.param_id < b.param_id;
              });
  }
  // Fires every scheduled parameter whose final accumulation has already
  // happened by the time the sweep is about to process `current`.
  const auto fire_ready = [&](std::int64_t current) {
    while (next_ready < schedule.size() &&
           schedule[next_ready].min_consumer > current) {
      const auto pid =
          static_cast<std::size_t>(schedule[next_ready].param_id);
      const auto& slot = grads[pid];
      on_final(schedule[next_ready].param_id,
               slot.has_value() ? &*slot : nullptr);
      ++next_ready;
    }
  };

  // Derivative computation must not be re-recorded onto this tape (§2.3:
  // the transformation does not transform its own output).
  NoRecordScope no_record;

  grads[static_cast<std::size_t>(loss_node)] =
      Tensor::Full(loss.shape(), 1.0f, loss.device());

  for (std::int64_t id = loss_node; id >= 0; --id) {
    if (on_final) fire_ready(id);
    const auto sid = static_cast<std::size_t>(id);
    if (!grads[sid].has_value()) continue;  // not useful: skip
    const Node& node = nodes_[sid];
    if (node.kind == OpKind::kParameter) continue;

    // Runtime activity analysis: only inputs on the tape get an adjoint.
    std::vector<bool> needed(node.input_ids.size());
    for (std::size_t i = 0; i < needed.size(); ++i) {
      needed[i] = node.input_ids[i] >= 0;
    }
    const auto input_grads =
        node.custom
            ? node.custom(node.inputs, node.output, *grads[sid])
            : OpPullback(node.kind, node.attrs, node.inputs, node.output,
                         *grads[sid], needed);
    S4TF_CHECK_EQ(input_grads.size(), node.input_ids.size())
        << "pullback returned wrong arity";
    for (std::size_t i = 0; i < node.input_ids.size(); ++i) {
      const std::int64_t in_id = node.input_ids[i];
      if (in_id < 0 || !input_grads[i].has_value()) continue;
      auto& slot = grads[static_cast<std::size_t>(in_id)];
      if (!slot.has_value()) {
        slot = *input_grads[i];
      } else {
        // Accumulate in place when storage is unique (§4.3's inout-style
        // accumulation — no zero tensors are materialized on this path).
        Tensor& acc = *slot;
        if (acc.shape() == input_grads[i]->shape()) {
          acc.InPlaceAxpy(1.0f, *input_grads[i]);
        } else {
          acc = acc + *input_grads[i];
        }
      }
    }
    // Release saved values for this node early? Kept: Tensor copies are
    // O(1) handles, actual buffers free when the tape is destroyed.
  }
  if (on_final) fire_ready(-1);  // drain: every remaining slot is final
  return grads;
}

Tensor GradientTape::GradientFor(
    const std::vector<std::optional<Tensor>>& grads,
    const Tensor& watched) const {
  const std::int64_t id = watched.grad_node();
  if (id < 0) return Tensor::Zeros(watched.shape(), watched.device());
  const auto& slot = grads[static_cast<std::size_t>(id)];
  if (!slot.has_value()) {
    return Tensor::Zeros(watched.shape(), watched.device());
  }
  return *slot;
}

}  // namespace s4tf::ad
