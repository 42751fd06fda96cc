#include "tensor/op.h"

#include <algorithm>

#include "support/hashing.h"

namespace s4tf {
namespace {

// Output spatial extent of a convolution/pooling window.
std::int64_t WindowOutput(std::int64_t input, std::int64_t window,
                          std::int64_t stride, Padding padding) {
  S4TF_CHECK_GT(stride, 0);
  S4TF_CHECK_GT(window, 0);
  if (padding == Padding::kSame) {
    return (input + stride - 1) / stride;
  }
  S4TF_CHECK_GE(input, window) << "VALID window larger than input";
  return (input - window) / stride + 1;
}

Shape ReduceShape(const Shape& input, std::vector<std::int64_t> axes,
                  bool keep_dims) {
  if (axes.empty()) {
    for (int i = 0; i < input.rank(); ++i) axes.push_back(i);
  }
  std::vector<bool> reduced(static_cast<std::size_t>(input.rank()), false);
  for (std::int64_t a : axes) {
    S4TF_CHECK_GE(a, 0);
    S4TF_CHECK_LT(a, input.rank());
    reduced[static_cast<std::size_t>(a)] = true;
  }
  std::vector<std::int64_t> dims;
  for (int i = 0; i < input.rank(); ++i) {
    if (reduced[static_cast<std::size_t>(i)]) {
      if (keep_dims) dims.push_back(1);
    } else {
      dims.push_back(input.dim(i));
    }
  }
  return Shape(std::move(dims));
}

}  // namespace

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kConstant: return "constant";
    case OpKind::kParameter: return "parameter";
    case OpKind::kNeg: return "neg";
    case OpKind::kExp: return "exp";
    case OpKind::kLog: return "log";
    case OpKind::kTanh: return "tanh";
    case OpKind::kSqrt: return "sqrt";
    case OpKind::kRsqrt: return "rsqrt";
    case OpKind::kSquare: return "square";
    case OpKind::kRelu: return "relu";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kAbs: return "abs";
    case OpKind::kAddScalar: return "add_scalar";
    case OpKind::kMulScalar: return "mul_scalar";
    case OpKind::kPowScalar: return "pow_scalar";
    case OpKind::kLeakyRelu: return "leaky_relu";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kDiv: return "div";
    case OpKind::kMaximum: return "maximum";
    case OpKind::kMinimum: return "minimum";
    case OpKind::kPow: return "pow";
    case OpKind::kGreater: return "greater";
    case OpKind::kSelect: return "select";
    case OpKind::kReshape: return "reshape";
    case OpKind::kTranspose: return "transpose";
    case OpKind::kBroadcastTo: return "broadcast_to";
    case OpKind::kSlice: return "slice";
    case OpKind::kPad: return "pad";
    case OpKind::kConcat: return "concat";
    case OpKind::kReduceSum: return "reduce_sum";
    case OpKind::kReduceMean: return "reduce_mean";
    case OpKind::kReduceMax: return "reduce_max";
    case OpKind::kArgMax: return "arg_max";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kLogSoftmax: return "log_softmax";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kConv2D: return "conv2d";
    case OpKind::kConv2DBackpropInput: return "conv2d_backprop_input";
    case OpKind::kConv2DBackpropFilter: return "conv2d_backprop_filter";
    case OpKind::kAvgPool2D: return "avg_pool2d";
    case OpKind::kAvgPool2DGrad: return "avg_pool2d_grad";
    case OpKind::kMaxPool2D: return "max_pool2d";
    case OpKind::kMaxPool2DGrad: return "max_pool2d_grad";
    case OpKind::kCrossReplicaSum: return "cross_replica_sum";
    case OpKind::kNumOps: break;
  }
  S4TF_UNREACHABLE() << "bad OpKind";
}

int OpArity(OpKind kind) {
  switch (kind) {
    case OpKind::kConstant:
    case OpKind::kParameter:
      return 0;
    case OpKind::kNeg:
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kTanh:
    case OpKind::kSqrt:
    case OpKind::kRsqrt:
    case OpKind::kSquare:
    case OpKind::kRelu:
    case OpKind::kSigmoid:
    case OpKind::kAbs:
    case OpKind::kAddScalar:
    case OpKind::kMulScalar:
    case OpKind::kPowScalar:
    case OpKind::kLeakyRelu:
    case OpKind::kReshape:
    case OpKind::kTranspose:
    case OpKind::kBroadcastTo:
    case OpKind::kSlice:
    case OpKind::kPad:
    case OpKind::kReduceSum:
    case OpKind::kReduceMean:
    case OpKind::kReduceMax:
    case OpKind::kArgMax:
    case OpKind::kSoftmax:
    case OpKind::kLogSoftmax:
    case OpKind::kAvgPool2D:
    case OpKind::kAvgPool2DGrad:
    case OpKind::kCrossReplicaSum:
      return 1;
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kMaximum:
    case OpKind::kMinimum:
    case OpKind::kPow:
    case OpKind::kGreater:
    case OpKind::kMatMul:
    case OpKind::kConv2D:
    case OpKind::kConv2DBackpropInput:
    case OpKind::kConv2DBackpropFilter:
    case OpKind::kMaxPool2DGrad:
      return 2;
    case OpKind::kSelect:
      return 3;
    case OpKind::kMaxPool2D:
      return 1;
    case OpKind::kConcat:
      return -1;
    case OpKind::kNumOps:
      break;
  }
  S4TF_UNREACHABLE() << "bad OpKind";
}

bool IsElementwise(OpKind kind) {
  switch (kind) {
    case OpKind::kNeg:
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kTanh:
    case OpKind::kSqrt:
    case OpKind::kRsqrt:
    case OpKind::kSquare:
    case OpKind::kRelu:
    case OpKind::kSigmoid:
    case OpKind::kAbs:
    case OpKind::kAddScalar:
    case OpKind::kMulScalar:
    case OpKind::kPowScalar:
    case OpKind::kLeakyRelu:
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kMaximum:
    case OpKind::kMinimum:
    case OpKind::kPow:
    case OpKind::kGreater:
    case OpKind::kSelect:
      return true;
    default:
      return false;
  }
}

Shape InferShape(OpKind kind, const std::vector<Shape>& inputs,
                 const OpAttrs& attrs) {
  const int arity = OpArity(kind);
  if (arity >= 0) {
    S4TF_CHECK_EQ(static_cast<int>(inputs.size()), arity)
        << "op " << OpName(kind);
  }
  switch (kind) {
    case OpKind::kConstant:
    case OpKind::kParameter:
      return Shape(attrs.shape);

    case OpKind::kNeg:
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kTanh:
    case OpKind::kSqrt:
    case OpKind::kRsqrt:
    case OpKind::kSquare:
    case OpKind::kRelu:
    case OpKind::kSigmoid:
    case OpKind::kAbs:
    case OpKind::kAddScalar:
    case OpKind::kMulScalar:
    case OpKind::kPowScalar:
    case OpKind::kLeakyRelu:
    case OpKind::kSoftmax:
    case OpKind::kLogSoftmax:
    case OpKind::kCrossReplicaSum:
      return inputs[0];

    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kMaximum:
    case OpKind::kMinimum:
    case OpKind::kPow:
    case OpKind::kGreater:
      return BroadcastShapes(inputs[0], inputs[1]);

    case OpKind::kSelect:
      return BroadcastShapes(BroadcastShapes(inputs[0], inputs[1]), inputs[2]);

    case OpKind::kReshape: {
      const Shape target(attrs.shape);
      S4TF_CHECK_EQ(target.NumElements(), inputs[0].NumElements())
          << "reshape " << inputs[0] << " -> " << target;
      return target;
    }

    case OpKind::kTranspose: {
      const Shape& in = inputs[0];
      S4TF_CHECK_EQ(static_cast<int>(attrs.axes.size()), in.rank());
      std::vector<std::int64_t> dims(attrs.axes.size());
      std::vector<bool> seen(attrs.axes.size(), false);
      for (std::size_t i = 0; i < attrs.axes.size(); ++i) {
        const std::int64_t p = attrs.axes[i];
        S4TF_CHECK_GE(p, 0);
        S4TF_CHECK_LT(p, in.rank());
        S4TF_CHECK(!seen[static_cast<std::size_t>(p)]) << "dup axis in perm";
        seen[static_cast<std::size_t>(p)] = true;
        dims[i] = in.dim(static_cast<int>(p));
      }
      return Shape(std::move(dims));
    }

    case OpKind::kBroadcastTo: {
      const Shape target(attrs.shape);
      S4TF_CHECK(AreBroadcastCompatible(inputs[0], target))
          << inputs[0] << " -> " << target;
      S4TF_CHECK_EQ(BroadcastShapes(inputs[0], target), target);
      return target;
    }

    case OpKind::kSlice: {
      const Shape& in = inputs[0];
      S4TF_CHECK_EQ(static_cast<int>(attrs.starts.size()), in.rank());
      S4TF_CHECK_EQ(static_cast<int>(attrs.shape.size()), in.rank());
      for (int i = 0; i < in.rank(); ++i) {
        const auto si = static_cast<std::size_t>(i);
        S4TF_CHECK_GE(attrs.starts[si], 0);
        S4TF_CHECK_LE(attrs.starts[si] + attrs.shape[si], in.dim(i))
            << "slice out of range on axis " << i;
      }
      return Shape(attrs.shape);
    }

    case OpKind::kPad: {
      const Shape& in = inputs[0];
      S4TF_CHECK_EQ(static_cast<int>(attrs.pads.size()), 2 * in.rank());
      std::vector<std::int64_t> dims;
      for (int i = 0; i < in.rank(); ++i) {
        const auto si = static_cast<std::size_t>(i);
        dims.push_back(in.dim(i) + attrs.pads[2 * si] + attrs.pads[2 * si + 1]);
      }
      return Shape(std::move(dims));
    }

    case OpKind::kConcat: {
      S4TF_CHECK_GE(inputs.size(), 1u);
      const Shape& first = inputs[0];
      const int axis = static_cast<int>(attrs.axis);
      S4TF_CHECK_GE(axis, 0);
      S4TF_CHECK_LT(axis, first.rank());
      std::vector<std::int64_t> dims = first.dims();
      for (std::size_t i = 1; i < inputs.size(); ++i) {
        S4TF_CHECK_EQ(inputs[i].rank(), first.rank());
        for (int d = 0; d < first.rank(); ++d) {
          if (d == axis) continue;
          S4TF_CHECK_EQ(inputs[i].dim(d), first.dim(d));
        }
        dims[static_cast<std::size_t>(axis)] += inputs[i].dim(axis);
      }
      return Shape(std::move(dims));
    }

    case OpKind::kReduceSum:
    case OpKind::kReduceMean:
    case OpKind::kReduceMax:
      return ReduceShape(inputs[0], attrs.axes, attrs.keep_dims);

    case OpKind::kArgMax: {
      const int axis = static_cast<int>(attrs.axis);
      S4TF_CHECK_GE(axis, 0);
      S4TF_CHECK_LT(axis, inputs[0].rank());
      // An empty axis has no largest element, so no index to return.
      S4TF_CHECK_GT(inputs[0].dim(axis), 0)
          << "arg_max of " << inputs[0] << " over empty axis " << axis;
      return ReduceShape(inputs[0], {attrs.axis}, /*keep_dims=*/false);
    }

    case OpKind::kMatMul: {
      const Shape& a = inputs[0];
      const Shape& b = inputs[1];
      S4TF_CHECK_EQ(a.rank(), 2) << "matmul lhs " << a;
      S4TF_CHECK_EQ(b.rank(), 2) << "matmul rhs " << b;
      S4TF_CHECK_EQ(a.dim(1), b.dim(0))
          << "matmul contraction mismatch: " << a << " x " << b;
      return Shape({a.dim(0), b.dim(1)});
    }

    case OpKind::kConv2D: {
      const Shape& in = inputs[0];   // NHWC
      const Shape& filt = inputs[1];  // HWIO
      S4TF_CHECK_EQ(in.rank(), 4) << "conv input " << in;
      S4TF_CHECK_EQ(filt.rank(), 4) << "conv filter " << filt;
      S4TF_CHECK_EQ(in.dim(3), filt.dim(2))
          << "conv channel mismatch: " << in << " vs " << filt;
      const std::int64_t oh =
          WindowOutput(in.dim(1), filt.dim(0), attrs.stride_h, attrs.padding);
      const std::int64_t ow =
          WindowOutput(in.dim(2), filt.dim(1), attrs.stride_w, attrs.padding);
      return Shape({in.dim(0), oh, ow, filt.dim(3)});
    }

    case OpKind::kConv2DBackpropInput: {
      // inputs: (grad_out, filter); attrs.shape = original input shape.
      S4TF_CHECK_EQ(static_cast<int>(attrs.shape.size()), 4);
      return Shape(attrs.shape);
    }

    case OpKind::kConv2DBackpropFilter: {
      // inputs: (input, grad_out); attrs.shape = filter shape.
      S4TF_CHECK_EQ(static_cast<int>(attrs.shape.size()), 4);
      return Shape(attrs.shape);
    }

    case OpKind::kAvgPool2D:
    case OpKind::kMaxPool2D: {
      const Shape& in = inputs[0];
      S4TF_CHECK_EQ(in.rank(), 4) << "pool input " << in;
      const std::int64_t oh =
          WindowOutput(in.dim(1), attrs.window_h, attrs.stride_h, attrs.padding);
      const std::int64_t ow =
          WindowOutput(in.dim(2), attrs.window_w, attrs.stride_w, attrs.padding);
      return Shape({in.dim(0), oh, ow, in.dim(3)});
    }

    case OpKind::kAvgPool2DGrad:
      // input: grad_out; attrs.shape = original input shape.
      S4TF_CHECK_EQ(static_cast<int>(attrs.shape.size()), 4);
      return Shape(attrs.shape);

    case OpKind::kMaxPool2DGrad:
      // inputs: (original input, grad_out); output has input's shape.
      return inputs[0];

    case OpKind::kNumOps:
      break;
  }
  S4TF_UNREACHABLE() << "bad OpKind";
}

std::int64_t OpFlops(OpKind kind, const std::vector<Shape>& inputs,
                     const Shape& output, const OpAttrs& attrs) {
  switch (kind) {
    case OpKind::kConstant:
    case OpKind::kParameter:
    case OpKind::kReshape:
      return 0;
    case OpKind::kMatMul:
      return 2 * inputs[0].dim(0) * inputs[0].dim(1) * inputs[1].dim(1);
    case OpKind::kConv2D: {
      // 2 * output elements * window volume * input channels.
      const Shape& filt = inputs[1];
      return 2 * output.NumElements() * filt.dim(0) * filt.dim(1) *
             filt.dim(2);
    }
    case OpKind::kConv2DBackpropInput: {
      const Shape& filt = inputs[1];
      return 2 * inputs[0].NumElements() * filt.dim(0) * filt.dim(1) *
             filt.dim(3);
    }
    case OpKind::kConv2DBackpropFilter:
      return 2 * inputs[1].NumElements() * attrs.shape[0] * attrs.shape[1] *
             attrs.shape[2];
    case OpKind::kAvgPool2D:
    case OpKind::kMaxPool2D:
      return output.NumElements() * attrs.window_h * attrs.window_w;
    case OpKind::kAvgPool2DGrad:
      return inputs[0].NumElements() * attrs.window_h * attrs.window_w;
    case OpKind::kMaxPool2DGrad:
      return inputs[0].NumElements() * attrs.window_h * attrs.window_w;
    case OpKind::kSoftmax:
    case OpKind::kLogSoftmax:
      return 5 * output.NumElements();
    case OpKind::kReduceSum:
    case OpKind::kReduceMean:
    case OpKind::kReduceMax:
    case OpKind::kArgMax:
      return inputs[0].NumElements();
    case OpKind::kCrossReplicaSum:
      return inputs[0].NumElements();
    default:
      // Elementwise and data movement: one flop per output element.
      return output.NumElements();
  }
}

std::uint64_t OpAttrs::Hash(std::uint64_t seed) const {
  std::uint64_t h = seed;
  h = HashCombine(h, HashSpan(axes));
  h = HashCombine(h, HashSpan(shape));
  h = HashCombine(h, HashSpan(starts));
  h = HashCombine(h, HashSpan(pads));
  h = HashCombine(h, static_cast<std::uint64_t>(keep_dims));
  h = HashCombine(h, static_cast<std::uint64_t>(axis));
  h = HashCombine(h, static_cast<std::uint64_t>(window_h));
  h = HashCombine(h, static_cast<std::uint64_t>(window_w));
  h = HashCombine(h, static_cast<std::uint64_t>(stride_h));
  h = HashCombine(h, static_cast<std::uint64_t>(stride_w));
  h = HashCombine(h, static_cast<std::uint64_t>(padding));
  h = HashCombine(h, HashValue(scalar));
  return h;
}

}  // namespace s4tf
