#include "tensor/kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/threadpool.h"

namespace s4tf {
namespace {

// Counters for the single mathematical choke point of the platform: every
// execution strategy (naive/eager/lazy-fused/framework baselines) funnels
// kernel evaluation through EvalOpLiteral, so these counts are the
// hardware-independent "ops dispatched / bytes moved" signal the benches
// and counter-backed tests assert on. Per-kind counters are cached in an
// array indexed by OpKind so the hot path pays one relaxed RMW, not a map
// lookup.
struct KernelMetrics {
  obs::Counter* dispatches;
  obs::Counter* bytes;
  obs::Counter* by_kind[static_cast<std::size_t>(OpKind::kNumOps)];

  obs::Counter* fused_dispatches;
  obs::Counter* fused_folded_ops;

  KernelMetrics() {
    dispatches = obs::GetCounter("tensor.kernel.dispatches");
    bytes = obs::GetCounter("tensor.kernel.bytes");
    fused_dispatches = obs::GetCounter("tensor.kernel.dispatch.fused_epilogue");
    fused_folded_ops = obs::GetCounter("tensor.kernel.fused.epilogue_ops");
    for (std::size_t k = 0; k < static_cast<std::size_t>(OpKind::kNumOps);
         ++k) {
      by_kind[k] = obs::GetCounter(
          std::string("tensor.kernel.dispatch.") +
          OpName(static_cast<OpKind>(k)));
    }
  }

  static KernelMetrics& Get() {
    static KernelMetrics metrics;
    return metrics;
  }
};

}  // namespace

namespace {

// Intra-op sharding policy. Every parallel kernel below shards a
// *disjoint* slice of its output across the global pool and accumulates
// into each output element on a single thread in a fixed order, so results
// are bit-identical for any thread count (see DESIGN.md, "Intra-op
// threading"). Reduction axes are never split.
//
// Grain size: shards of fewer than ~16K flop-equivalents cost more in
// queueing than they recover, so size shards to at least that much work.
std::int64_t GrainFor(std::int64_t cost_per_item) {
  constexpr std::int64_t kMinShardCost = 16 * 1024;
  return std::max<std::int64_t>(1, kMinShardCost / std::max<std::int64_t>(cost_per_item, 1));
}

// Strides of `in` aligned to the (broadcast) output rank, with 0 stride on
// broadcast dimensions — the standard NumPy broadcasting iteration trick.
std::vector<std::int64_t> BroadcastStrides(const Shape& in,
                                           const Shape& out) {
  const auto in_strides = in.Strides();
  std::vector<std::int64_t> strides(static_cast<std::size_t>(out.rank()), 0);
  const int offset = out.rank() - in.rank();
  for (int i = 0; i < in.rank(); ++i) {
    const auto oi = static_cast<std::size_t>(offset + i);
    strides[oi] = in.dim(i) == 1 ? 0 : in_strides[static_cast<std::size_t>(i)];
  }
  return strides;
}

// A strided iteration space cut into runs: the walked shape's dims, each
// with every operand's stride on it (0 on broadcast axes). Size-1 dims are
// dropped, and every adjacent pair of dims that all operands walk
// contiguously — the outer stride equals the inner stride times the inner
// dim, which two zero strides satisfy too — is merged into one, so the
// innermost dim, along which the runs go, is as long as the layouts allow.
// A space with no dim above 1 becomes one dim of size 1.
template <std::size_t NumInputs>
struct RunSpace {
  using Strides = std::array<std::int64_t, NumInputs>;
  std::vector<std::int64_t> dims;
  std::vector<Strides> strides;  // strides[d][i]: operand i along dims[d]
};

template <std::size_t NumInputs>
RunSpace<NumInputs> MergeRuns(
    const Shape& walked,
    const std::array<std::vector<std::int64_t>, NumInputs>& strides) {
  RunSpace<NumInputs> space;
  for (int d = 0; d < walked.rank(); ++d) {
    const std::int64_t dim = walked.dim(d);
    if (dim == 1) continue;
    typename RunSpace<NumInputs>::Strides s;
    bool contiguous = !space.dims.empty();
    for (std::size_t i = 0; i < NumInputs; ++i) {
      s[i] = strides[i][static_cast<std::size_t>(d)];
      contiguous = contiguous && space.strides.back()[i] == s[i] * dim;
    }
    if (contiguous) {
      space.dims.back() *= dim;
      space.strides.back() = s;
    } else {
      space.dims.push_back(dim);
      space.strides.push_back(s);
    }
  }
  if (space.dims.empty()) {
    space.dims.push_back(1);
    space.strides.push_back({});
  }
  return space;
}

using UnitStride = std::integral_constant<std::int64_t, 1>;
using ZeroStride = std::integral_constant<std::int64_t, 0>;

// Calls fn(s...) with each operand's inner stride, passing 1 and 0 as the
// compile-time UnitStride and ZeroStride: a run loop indexed by `k * s`
// then instantiates as a unit-stride or loop-invariant access, which GCC
// vectorizes. Any other stride stays a runtime value.
template <std::size_t I = 0, std::size_t N, typename Fn, typename... S>
void WithInnerStrides(const std::array<std::int64_t, N>& strides, Fn&& fn,
                      S... fixed) {
  if constexpr (I == N) {
    fn(fixed...);
  } else if (strides[I] == 1) {
    WithInnerStrides<I + 1>(strides, fn, fixed..., UnitStride());
  } else if (strides[I] == 0) {
    WithInnerStrides<I + 1>(strides, fn, fixed..., ZeroStride());
  } else {
    WithInnerStrides<I + 1>(strides, fn, fixed..., strides[I]);
  }
}

// Walks the flat range [begin, end) of `space` run by run, each run a
// stretch along the innermost dim: run(flat, offsets, len, s...) covers
// flat indices [flat, flat + len), and operand i's k-th element of the run
// is at offsets[i] + k * s_i, s_i its inner stride (see WithInnerStrides).
// Seeded from `begin`, so disjoint ranges can run on different threads.
// This is the one strided walker: the parallel broadcasts call it per
// shard, and the serial Reduce/Transpose/Slice/Pad kernels call it once
// over their whole range.
template <std::size_t NumInputs, typename Run>
void ForEachRun(const RunSpace<NumInputs>& space, std::int64_t begin,
                std::int64_t end, Run&& run) {
  // An empty range may come from a zero-size dim, which the seeding below
  // would divide by.
  if (begin >= end) return;
  const int outer = static_cast<int>(space.dims.size()) - 1;
  const std::int64_t inner = space.dims.back();
  const auto& inner_strides = space.strides.back();
  // The outer dims' odometer, and each operand's offset at the start of
  // the current row of the innermost dim.
  std::vector<std::int64_t> index(static_cast<std::size_t>(outer), 0);
  typename RunSpace<NumInputs>::Strides row{};
  std::int64_t rem = begin / inner;
  for (int d = outer - 1; d >= 0; --d) {
    const auto sd = static_cast<std::size_t>(d);
    index[sd] = rem % space.dims[sd];
    rem /= space.dims[sd];
    for (std::size_t i = 0; i < NumInputs; ++i) {
      row[i] += index[sd] * space.strides[sd][i];
    }
  }
  WithInnerStrides(inner_strides, [&](auto... s) {
    std::int64_t j = begin % inner;  // only the first run starts mid-row
    for (std::int64_t flat = begin;;) {
      typename RunSpace<NumInputs>::Strides offs;
      for (std::size_t i = 0; i < NumInputs; ++i) {
        offs[i] = row[i] + j * inner_strides[i];
      }
      const std::int64_t len = std::min(inner - j, end - flat);
      run(flat, offs, len, s...);
      flat += len;
      if (flat >= end) return;
      j = 0;
      for (int d = outer - 1; d >= 0; --d) {
        const auto sd = static_cast<std::size_t>(d);
        ++index[sd];
        for (std::size_t i = 0; i < NumInputs; ++i) {
          row[i] += space.strides[sd][i];
        }
        if (index[sd] < space.dims[sd]) break;
        index[sd] = 0;
        for (std::size_t i = 0; i < NumInputs; ++i) {
          row[i] -= space.strides[sd][i] * space.dims[sd];
        }
      }
    }
  });
}

// Parallel walk over all of `out`, sharded by contiguous flat ranges. The
// dims merge once per call, before the region opens.
template <std::size_t NumInputs, typename Run>
void ForEachBroadcast(
    const Shape& out,
    const std::array<std::vector<std::int64_t>, NumInputs>& strides,
    Run&& run) {
  const RunSpace<NumInputs> space = MergeRuns<NumInputs>(out, strides);
  if (out.rank() == 0) {
    ForEachRun(space, 0, 1, run);
    return;
  }
  ParallelForRange(out.NumElements(), GrainFor(2),
                   [&](std::int64_t begin, std::int64_t end) {
                     ForEachRun(space, begin, end, run);
                   });
}

// The run body of a copy that gathers from `src` into contiguous `dst`.
auto GatherRun(float* dst, const float* src) {
  return [dst, src](std::int64_t o, const std::array<std::int64_t, 1>& i,
                    std::int64_t len, auto s) {
    for (std::int64_t k = 0; k < len; ++k) dst[o + k] = src[i[0] + k * s];
  };
}

// The elementwise op table: one definition per op. Each visitor hands
// `visit` the op's per-element functor, and both callers run through it —
// the standalone UnaryElementwise/BinaryBroadcast kernels and the fused
// MatMul/Conv2D epilogue (ApplyEpilogueTile) — so a fused chain evaluates
// exactly the unfused float expressions and fused == unfused bitwise by
// construction.
template <typename Visit>
auto VisitUnaryOp(OpKind kind, const OpAttrs& attrs, Visit&& visit) {
  const float s = attrs.scalar;
  switch (kind) {
    case OpKind::kNeg: return visit([](float x) { return -x; });
    case OpKind::kExp: return visit([](float x) { return std::exp(x); });
    case OpKind::kLog: return visit([](float x) { return std::log(x); });
    case OpKind::kTanh: return visit([](float x) { return std::tanh(x); });
    case OpKind::kSqrt: return visit([](float x) { return std::sqrt(x); });
    case OpKind::kRsqrt:
      return visit([](float x) { return 1.0f / std::sqrt(x); });
    case OpKind::kSquare: return visit([](float x) { return x * x; });
    case OpKind::kRelu:
      return visit([](float x) { return x > 0.0f ? x : 0.0f; });
    case OpKind::kSigmoid:
      return visit([](float x) { return 1.0f / (1.0f + std::exp(-x)); });
    case OpKind::kAbs: return visit([](float x) { return std::fabs(x); });
    case OpKind::kAddScalar: return visit([s](float x) { return x + s; });
    case OpKind::kMulScalar: return visit([s](float x) { return x * s; });
    case OpKind::kPowScalar:
      return visit([s](float x) { return std::pow(x, s); });
    case OpKind::kLeakyRelu:
      return visit([s](float x) { return x > 0.0f ? x : s * x; });
    default: break;
  }
  S4TF_UNREACHABLE() << "not a unary elementwise op: " << OpName(kind);
}

template <typename Visit>
auto VisitBinaryOp(OpKind kind, Visit&& visit) {
  switch (kind) {
    case OpKind::kAdd: return visit([](float a, float b) { return a + b; });
    case OpKind::kSub: return visit([](float a, float b) { return a - b; });
    case OpKind::kMul: return visit([](float a, float b) { return a * b; });
    case OpKind::kDiv: return visit([](float a, float b) { return a / b; });
    case OpKind::kMaximum:
      return visit([](float a, float b) { return std::max(a, b); });
    case OpKind::kMinimum:
      return visit([](float a, float b) { return std::min(a, b); });
    case OpKind::kPow:
      return visit([](float a, float b) { return std::pow(a, b); });
    case OpKind::kGreater:
      return visit([](float a, float b) { return a > b ? 1.0f : 0.0f; });
    default: break;
  }
  S4TF_UNREACHABLE() << "not a binary elementwise op: " << OpName(kind);
}

template <typename Fn>
Literal BinaryBroadcast(const Literal& a, const Literal& b, Fn fn) {
  const Shape out = BroadcastShapes(a.shape, b.shape);
  Literal result = Literal::ForOverwrite(out);
  float* r = result.data.mutable_data();
  const float* pa = a.data.data();
  const float* pb = b.data.data();
  if (a.shape == b.shape && a.shape == out) {
    ParallelForRange(out.NumElements(), GrainFor(1),
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         r[i] = fn(pa[i], pb[i]);
                       }
                     });
    return result;
  }
  ForEachBroadcast<2>(
      out, {BroadcastStrides(a.shape, out), BroadcastStrides(b.shape, out)},
      [&](std::int64_t o, const std::array<std::int64_t, 2>& in,
          std::int64_t len, auto sa, auto sb) {
        for (std::int64_t k = 0; k < len; ++k) {
          r[o + k] = fn(pa[in[0] + k * sa], pb[in[1] + k * sb]);
        }
      });
  return result;
}

template <typename Fn>
Literal UnaryElementwise(const Literal& a, Fn fn) {
  Literal result = Literal::ForOverwrite(a.shape);
  float* r = result.data.mutable_data();
  const float* p = a.data.data();
  ParallelForRange(a.size(), GrainFor(1),
                   [&](std::int64_t begin, std::int64_t end) {
                     for (std::int64_t i = begin; i < end; ++i) {
                       r[i] = fn(p[i]);
                     }
                   });
  return result;
}

Literal Reduce(const Literal& in, const OpAttrs& attrs, OpKind kind) {
  std::vector<std::int64_t> axes = attrs.axes;
  if (axes.empty()) {
    for (int i = 0; i < in.shape.rank(); ++i) axes.push_back(i);
  }
  const Shape out_shape = InferShape(kind, {in.shape}, attrs);
  const int rank = in.shape.rank();
  std::vector<bool> reduced(static_cast<std::size_t>(rank), false);
  std::int64_t reduce_count = 1;
  for (std::int64_t a : axes) {
    reduced[static_cast<std::size_t>(a)] = true;
    reduce_count *= in.shape.dim(static_cast<int>(a));
  }
  // Strides of the *output* laid over input axes: reduced axes get 0 (with
  // keep_dims too, whose kept axis has size 1), so walking the input maps
  // each element to its output slot.
  std::array<std::vector<std::int64_t>, 1> out_strides;
  out_strides[0].assign(static_cast<std::size_t>(rank), 0);
  std::int64_t running = 1;
  for (int i = rank - 1; i >= 0; --i) {
    if (!reduced[static_cast<std::size_t>(i)]) {
      out_strides[0][static_cast<std::size_t>(i)] = running;
      running *= in.shape.dim(i);
    }
  }

  const float init = kind == OpKind::kReduceMax
                         ? -std::numeric_limits<float>::infinity()
                         : 0.0f;
  Literal result = Literal::Full(out_shape, init);
  float* r = result.data.mutable_data();
  const float* p = in.data.data();
  const RunSpace<1> space = MergeRuns<1>(in.shape, out_strides);
  // Serial: every output accumulates its inputs in ascending input order.
  // Along a run the input is contiguous and the output either moves with
  // it, so the run adds elementwise across outputs (which vectorizes), or
  // stays on one output, which the run folds into one scalar in order.
  const auto accumulate = [&](auto op) {
    ForEachRun(space, 0, in.size(),
               [&](std::int64_t flat, const std::array<std::int64_t, 1>& out,
                   std::int64_t len, auto s) {
                 const float* x = p + flat;
                 float* y = r + out[0];
                 if constexpr (std::is_same_v<decltype(s), ZeroStride>) {
                   float acc = *y;
                   for (std::int64_t k = 0; k < len; ++k) acc = op(acc, x[k]);
                   *y = acc;
                 } else {
                   for (std::int64_t k = 0; k < len; ++k) {
                     y[k * s] = op(y[k * s], x[k]);
                   }
                 }
               });
  };
  if (kind == OpKind::kReduceMax) {
    accumulate([](float acc, float x) { return std::max(acc, x); });
  } else {
    accumulate([](float acc, float x) { return acc + x; });
  }
  if (kind == OpKind::kReduceMean) {
    const float scale = 1.0f / static_cast<float>(reduce_count);
    const std::int64_t m = result.size();
    for (std::int64_t i = 0; i < m; ++i) r[i] *= scale;
  }
  return result;
}

Literal ArgMax(const Literal& in, const OpAttrs& attrs) {
  const Shape out_shape = InferShape(OpKind::kArgMax, {in.shape}, attrs);
  Literal result = Literal::ForOverwrite(out_shape);
  float* r = result.data.mutable_data();
  const float* p = in.data.data();

  const int axis = static_cast<int>(attrs.axis);
  const auto strides = in.shape.Strides();
  const std::int64_t axis_dim = in.shape.dim(axis);
  const std::int64_t axis_stride = strides[static_cast<std::size_t>(axis)];

  // outer: product of dims before axis; inner: product after axis.
  std::int64_t outer = 1, inner = 1;
  for (int i = 0; i < axis; ++i) outer *= in.shape.dim(i);
  for (int i = axis + 1; i < in.shape.rank(); ++i) inner *= in.shape.dim(i);

  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t i = 0; i < inner; ++i) {
      const std::int64_t base = o * axis_dim * inner + i;
      std::int64_t best = 0;
      float best_val = p[base];
      for (std::int64_t a = 1; a < axis_dim; ++a) {
        const float v = p[base + a * axis_stride];
        if (v > best_val) {
          best_val = v;
          best = a;
        }
      }
      r[o * inner + i] = static_cast<float>(best);
    }
  }
  return result;
}

Literal SoftmaxLike(const Literal& in, bool log_space) {
  S4TF_CHECK_GE(in.shape.rank(), 1) << "softmax needs rank >= 1";
  Literal result = Literal::ForOverwrite(in.shape);
  float* r = result.data.mutable_data();
  const float* p = in.data.data();
  const std::int64_t cols = in.shape.dim(in.shape.rank() - 1);
  const std::int64_t rows = in.size() / cols;
  // Each row is one output slice: the max/sum reductions stay within a
  // single shard, so the split is over rows only.
  ParallelForRange(rows, GrainFor(4 * cols), [&](std::int64_t row_begin,
                                                 std::int64_t row_end) {
    for (std::int64_t row = row_begin; row < row_end; ++row) {
      const float* x = p + row * cols;
      float* y = r + row * cols;
      float max_val = -std::numeric_limits<float>::infinity();
      for (std::int64_t c = 0; c < cols; ++c) max_val = std::max(max_val, x[c]);
      float sum = 0.0f;
      for (std::int64_t c = 0; c < cols; ++c) {
        const float e = std::exp(x[c] - max_val);
        y[c] = e;
        sum += e;
      }
      if (log_space) {
        const float log_sum = std::log(sum) + max_val;
        for (std::int64_t c = 0; c < cols; ++c) y[c] = x[c] - log_sum;
      } else {
        const float inv = 1.0f / sum;
        for (std::int64_t c = 0; c < cols; ++c) y[c] *= inv;
      }
    }
  });
  return result;
}

Literal Transpose(const Literal& in, const OpAttrs& attrs) {
  const Shape out_shape = InferShape(OpKind::kTranspose, {in.shape}, attrs);
  Literal result = Literal::ForOverwrite(out_shape);
  float* r = result.data.mutable_data();
  const float* p = in.data.data();
  const auto in_strides = in.shape.Strides();
  // Input strides permuted into output axis order.
  std::array<std::vector<std::int64_t>, 1> strides;
  for (std::int64_t axis : attrs.axes) {
    strides[0].push_back(in_strides[static_cast<std::size_t>(axis)]);
  }
  ForEachRun(MergeRuns<1>(out_shape, strides), 0, out_shape.NumElements(),
             GatherRun(r, p));
  return result;
}

Literal BroadcastTo(const Literal& in, const Shape& out) {
  Literal result = Literal::ForOverwrite(out);
  float* r = result.data.mutable_data();
  const float* p = in.data.data();
  ForEachBroadcast<1>(out, {BroadcastStrides(in.shape, out)},
                      GatherRun(r, p));
  return result;
}

Literal SliceOp(const Literal& in, const OpAttrs& attrs) {
  const Shape out_shape = InferShape(OpKind::kSlice, {in.shape}, attrs);
  Literal result = Literal::ForOverwrite(out_shape);
  float* r = result.data.mutable_data();
  const float* p = in.data.data();
  const std::array<std::vector<std::int64_t>, 1> in_strides = {
      in.shape.Strides()};
  std::int64_t base = 0;
  for (int d = 0; d < out_shape.rank(); ++d) {
    base += attrs.starts[static_cast<std::size_t>(d)] *
            in_strides[0][static_cast<std::size_t>(d)];
  }
  ForEachRun(MergeRuns<1>(out_shape, in_strides), 0,
             out_shape.NumElements(), GatherRun(r, p + base));
  return result;
}

Literal PadOp(const Literal& in, const OpAttrs& attrs) {
  const Shape out_shape = InferShape(OpKind::kPad, {in.shape}, attrs);
  Literal result = Literal::Full(out_shape, attrs.scalar);
  float* r = result.data.mutable_data();
  const float* p = in.data.data();
  const std::array<std::vector<std::int64_t>, 1> out_strides = {
      out_shape.Strides()};
  std::int64_t base = 0;
  for (int d = 0; d < in.shape.rank(); ++d) {
    base += attrs.pads[static_cast<std::size_t>(2 * d)] *
            out_strides[0][static_cast<std::size_t>(d)];
  }
  ForEachRun(MergeRuns<1>(in.shape, out_strides), 0, in.size(),
             [&](std::int64_t i, const std::array<std::int64_t, 1>& o,
                 std::int64_t len, auto s) {
               float* y = r + base + o[0];
               for (std::int64_t k = 0; k < len; ++k) y[k * s] = p[i + k];
             });
  return result;
}

Literal ConcatOp(const std::vector<const Literal*>& inputs,
                 const OpAttrs& attrs) {
  std::vector<Shape> shapes;
  shapes.reserve(inputs.size());
  for (const auto* in : inputs) shapes.push_back(in->shape);
  const Shape out_shape = InferShape(OpKind::kConcat, shapes, attrs);
  Literal result = Literal::ForOverwrite(out_shape);
  float* r = result.data.mutable_data();

  const int axis = static_cast<int>(attrs.axis);
  std::int64_t outer = 1, inner = 1;
  for (int i = 0; i < axis; ++i) outer *= out_shape.dim(i);
  for (int i = axis + 1; i < out_shape.rank(); ++i) inner *= out_shape.dim(i);
  const std::int64_t out_axis = out_shape.dim(axis);

  std::int64_t axis_offset = 0;
  for (const auto* in : inputs) {
    const std::int64_t in_axis = in->shape.dim(axis);
    const float* p = in->data.data();
    for (std::int64_t o = 0; o < outer; ++o) {
      const float* src = p + o * in_axis * inner;
      float* dst = r + (o * out_axis + axis_offset) * inner;
      std::copy(src, src + in_axis * inner, dst);
    }
    axis_offset += in_axis;
  }
  return result;
}

struct PoolGeometry {
  std::int64_t batch, in_h, in_w, channels;
  std::int64_t out_h, out_w;
  std::int64_t pad_h, pad_w;
};

PoolGeometry MakePoolGeometry(const Shape& in, const Shape& out,
                              const OpAttrs& attrs) {
  PoolGeometry g;
  g.batch = in.dim(0);
  g.in_h = in.dim(1);
  g.in_w = in.dim(2);
  g.channels = in.dim(3);
  g.out_h = out.dim(1);
  g.out_w = out.dim(2);
  g.pad_h = kernels::PadLow(g.in_h, g.out_h, attrs.window_h, attrs.stride_h,
                            attrs.padding);
  g.pad_w = kernels::PadLow(g.in_w, g.out_w, attrs.window_w, attrs.stride_w,
                            attrs.padding);
  return g;
}

// The one pooling window walk: calls tap(input_index) for every in-bounds
// tap of output pixel (b, oh, ow) in channel c, in (kh, kw) order.
template <typename Tap>
void ForEachWindowTap(const PoolGeometry& g, const OpAttrs& attrs,
                      std::int64_t b, std::int64_t oh, std::int64_t ow,
                      std::int64_t c, Tap&& tap) {
  for (std::int64_t kh = 0; kh < attrs.window_h; ++kh) {
    const std::int64_t ih = oh * attrs.stride_h + kh - g.pad_h;
    if (ih < 0 || ih >= g.in_h) continue;
    for (std::int64_t kw = 0; kw < attrs.window_w; ++kw) {
      const std::int64_t iw = ow * attrs.stride_w + kw - g.pad_w;
      if (iw < 0 || iw >= g.in_w) continue;
      tap(((b * g.in_h + ih) * g.in_w + iw) * g.channels + c);
    }
  }
}

Literal Pool2D(const Literal& in, const OpAttrs& attrs, bool is_max) {
  const OpKind kind = is_max ? OpKind::kMaxPool2D : OpKind::kAvgPool2D;
  const Shape out_shape = InferShape(kind, {in.shape}, attrs);
  Literal result = Literal::ForOverwrite(out_shape);
  float* r = result.data.mutable_data();
  const float* p = in.data.data();
  const PoolGeometry g = MakePoolGeometry(in.shape, out_shape, attrs);

  // Disjoint output rows: shard over (batch, out_h).
  const std::int64_t pool_row_cost =
      g.out_w * g.channels * attrs.window_h * attrs.window_w;
  ParallelForRange(g.batch * g.out_h, GrainFor(pool_row_cost), [&](
                       std::int64_t row_begin, std::int64_t row_end) {
    for (std::int64_t row = row_begin; row < row_end; ++row) {
      const std::int64_t b = row / g.out_h;
      const std::int64_t oh = row % g.out_h;
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        for (std::int64_t c = 0; c < g.channels; ++c) {
          float acc = is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
          std::int64_t count = 0;
          ForEachWindowTap(g, attrs, b, oh, ow, c, [&](std::int64_t i) {
            acc = is_max ? std::max(acc, p[i]) : acc + p[i];
            ++count;
          });
          const std::int64_t out_idx =
              ((b * g.out_h + oh) * g.out_w + ow) * g.channels + c;
          r[out_idx] = is_max ? acc : acc / static_cast<float>(count);
        }
      }
    }
  });
  return result;
}

Literal AvgPool2DGrad(const Literal& grad_out, const OpAttrs& attrs) {
  const Shape in_shape(attrs.shape);
  Literal result = Literal::Zeros(in_shape);
  float* r = result.data.mutable_data();
  const float* g_out = grad_out.data.data();
  const PoolGeometry g = MakePoolGeometry(in_shape, grad_out.shape, attrs);
  // Overlapping windows scatter across input rows, so the only disjoint
  // output slice is a whole image: shard over batch.
  ParallelForRange(g.batch, 1, [&](std::int64_t b_begin, std::int64_t b_end) {
  for (std::int64_t b = b_begin; b < b_end; ++b) {
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        for (std::int64_t c = 0; c < g.channels; ++c) {
          // Count valid taps (matches forward's divisor).
          std::int64_t count = 0;
          ForEachWindowTap(g, attrs, b, oh, ow, c,
                           [&](std::int64_t) { ++count; });
          const float share =
              g_out[((b * g.out_h + oh) * g.out_w + ow) * g.channels + c] /
              static_cast<float>(count);
          ForEachWindowTap(g, attrs, b, oh, ow, c,
                           [&](std::int64_t i) { r[i] += share; });
        }
      }
    }
  }
  });
  return result;
}

Literal MaxPool2DGrad(const Literal& input, const Literal& grad_out,
                      const OpAttrs& attrs) {
  Literal result = Literal::Zeros(input.shape);
  float* r = result.data.mutable_data();
  const float* p = input.data.data();
  const float* g_out = grad_out.data.data();
  const PoolGeometry g = MakePoolGeometry(input.shape, grad_out.shape, attrs);
  // Same disjointness argument as AvgPool2DGrad: shard over batch.
  ParallelForRange(g.batch, 1, [&](std::int64_t b_begin, std::int64_t b_end) {
  for (std::int64_t b = b_begin; b < b_end; ++b) {
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        for (std::int64_t c = 0; c < g.channels; ++c) {
          // Route the gradient to the window's (first) argmax, recomputed
          // from the forward input.
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = -1;
          ForEachWindowTap(g, attrs, b, oh, ow, c, [&](std::int64_t i) {
            if (p[i] > best) {
              best = p[i];
              best_idx = i;
            }
          });
          if (best_idx >= 0) {
            r[best_idx] +=
                g_out[((b * g.out_h + oh) * g.out_w + ow) * g.channels + c];
          }
        }
      }
    }
  }
  });
  return result;
}

// Applies the whole epilogue chain to one accumulator tile of `count`
// elements, each link through the elementwise table. `last_begin` is the
// tile's offset inside the output's last dimension (for kLastDim bias
// broadcasts — tiles never straddle the last dim); `flat_begin` its flat
// offset into the output (for kFull residuals).
void ApplyEpilogueTile(const std::vector<kernels::EpilogueOp>& epilogue,
                       float* v, std::int64_t count, std::int64_t last_begin,
                       std::int64_t flat_begin) {
  using Map = kernels::EpilogueOp::Map;
  for (const kernels::EpilogueOp& op : epilogue) {
    if (op.map == Map::kNone) {
      VisitUnaryOp(op.kind, op.attrs, [&](auto fn) {
        for (std::int64_t t = 0; t < count; ++t) v[t] = fn(v[t]);
      });
      continue;
    }
    // Tile element t pairs with o[t * step]: one scalar, or a run of the
    // bias row / residual starting at the tile's offset.
    const std::int64_t step = op.map == Map::kScalar ? 0 : 1;
    const float* o = op.operand + (op.map == Map::kLastDim ? last_begin
                                   : op.map == Map::kFull  ? flat_begin
                                                           : 0);
    VisitBinaryOp(op.kind, [&](auto fn) {
      for (std::int64_t t = 0; t < count; ++t) {
        v[t] = op.commuted ? fn(o[t * step], v[t]) : fn(v[t], o[t * step]);
      }
    });
  }
}

// --- Conv microkernels -----------------------------------------------------
//
// The three conv kernels run register-blocked blocks of 4-wide GCC/Clang
// generic vectors, which lower to SSE2 on baseline x86-64 with no
// intrinsics. Each keeps every output element's accumulation order of the
// serial loop nest (DESIGN.md decision 6; the loop nests live on as the
// reference in tests/tensor/conv_kernels_test.cpp). The forward and the
// filter gradient skip a term whose input value is zero, as the loop nest
// does, in one of two ways, both without a branch per term:
//   - Masked: a block whose lanes are pixels or filter taps adds a masked
//     product instead. That is exact: an accumulator starts at +0.0f, and
//     a round-to-nearest sum is -0 only when both addends are, so an
//     accumulator is never -0 and acc + (+0.0f) is acc bit for bit (a NaN
//     stays NaN).
//   - Gathered: when out_c is wide, lanes are output channels. The nonzero
//     terms of one reduction are first gathered, in order, with the offset
//     of the row they multiply, and the block adds only those.
typedef float F4 __attribute__((vector_size(16)));
typedef std::int32_t I4 __attribute__((vector_size(16)));

// Lanes per vector: pixels in a masked forward block, consecutive filter
// taps in a masked filter-gradient block.
constexpr std::int64_t kConvLanes = 4;
// Output channels per masked block.
constexpr std::int64_t kMaskedChannels = 8;
// Output channels per gathered block (8 vectors), and the narrowest out_c
// that is gathered. Below it the gather costs more than the masked
// products it saves (LeNet conv1, 6 channels, is 1.6x slower gathered).
constexpr std::int64_t kGatheredChannels = 32;
constexpr std::int64_t kMinGatheredChannels = 16;
// Shards per conv region at most. Each shard pays an atomic claim, a
// counter bump, a trace check and its scratch setup (DESIGN.md
// decision 6).
constexpr std::int64_t kConvMaxShards = 64;

std::int64_t CeilDiv(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

std::int64_t ConvGrain(std::int64_t units, std::int64_t cost_per_unit) {
  return std::max(GrainFor(cost_per_unit), CeilDiv(units, kConvMaxShards));
}

// Gathered blocks read whole vectors of a row of out_c channels.
bool Gathered(std::int64_t out_c) {
  return out_c >= kMinGatheredChannels && out_c % kConvLanes == 0;
}

struct ConvGeometry {
  std::int64_t batch, in_h, in_w, in_c;
  std::int64_t f_h, f_w, out_c;
  std::int64_t out_h, out_w;
  std::int64_t stride_h, stride_w, pad_h, pad_w;
  std::int64_t k_len;  // one filter row: k = kw * in_c + ic
};

ConvGeometry MakeConvGeometry(const Shape& in, const Shape& filter,
                              const Shape& out, std::int64_t stride_h,
                              std::int64_t stride_w, Padding padding) {
  ConvGeometry g;
  g.batch = in.dim(0);
  g.in_h = in.dim(1);
  g.in_w = in.dim(2);
  g.in_c = in.dim(3);
  g.f_h = filter.dim(0);
  g.f_w = filter.dim(1);
  g.out_c = filter.dim(3);
  g.out_h = out.dim(1);
  g.out_w = out.dim(2);
  g.stride_h = stride_h;
  g.stride_w = stride_w;
  g.pad_h = kernels::PadLow(g.in_h, g.out_h, g.f_h, stride_h, padding);
  g.pad_w = kernels::PadLow(g.in_w, g.out_w, g.f_w, stride_w, padding);
  g.k_len = g.f_w * g.in_c;
  return g;
}

F4 Load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// x * y in the lanes `keep` sets, else +0.0f. The product is masked, not
// x: 0 * Inf is NaN, and the reference skips that term.
F4 MaskedProduct(F4 x, float y, I4 keep) {
  return reinterpret_cast<F4>(reinterpret_cast<I4>(x * y) & keep);
}

// Calls fn(std::integral_constant<int, N>) with N = min(n, 8): a block
// runs with its exact width as a compile-time constant, so a partial
// block has no spare accumulators and reads nothing past its last channel.
template <typename Fn>
void WithBlockWidth(std::int64_t n, Fn&& fn) {
  switch (n) {
    case 1: return fn(std::integral_constant<int, 1>{});
    case 2: return fn(std::integral_constant<int, 2>{});
    case 3: return fn(std::integral_constant<int, 3>{});
    case 4: return fn(std::integral_constant<int, 4>{});
    case 5: return fn(std::integral_constant<int, 5>{});
    case 6: return fn(std::integral_constant<int, 6>{});
    case 7: return fn(std::integral_constant<int, 7>{});
    default: return fn(std::integral_constant<int, 8>{});
  }
}

// A nonzero term of a gathered reduction: the input value, and the offset
// of the out_c-wide row it multiplies (a filter row for the forward, a
// grad_out pixel for the filter gradient).
struct Term {
  std::int64_t row;
  float value;
};

// Appends term (row, value) to `terms` at n, keeping it iff value != 0
// (NaN is kept, as the reference keeps it). Branch-free.
void PushTerm(Term* terms, std::size_t& n, std::int64_t row, float value) {
  terms[n] = {row, value};
  n += value != 0.0f;
}

// One gathered block: acc (4 * V channels starting at `base`) += each
// term's value times its row, in term order.
template <int V>
void AccumulateTerms(const Term* terms, std::size_t n, const float* base,
                     F4 (&acc)[V]) {
  for (std::size_t e = 0; e < n; ++e) {
    const float* row = base + terms[e].row;
    for (int u = 0; u < V; ++u) acc[u] += terms[e].value * Load4(row + 4 * u);
  }
}

// Runs block(acc, c0, count) for each gathered block of out_c channels,
// with acc holding the block's reduction over `terms`.
template <typename Block>
void ForEachGatheredBlock(const Term* terms, std::size_t n, const float* rows,
                          std::int64_t out_c, Block&& block) {
  for (std::int64_t c0 = 0; c0 < out_c; c0 += kGatheredChannels) {
    const std::int64_t count = std::min(kGatheredChannels, out_c - c0);
    WithBlockWidth(count / kConvLanes, [&](auto vectors) {
      constexpr int kV = decltype(vectors)::value;
      F4 acc[kV] = {};
      AccumulateTerms<kV>(terms, n, rows + c0, acc);
      float lanes[kConvLanes * kV];
      std::memcpy(lanes, acc, sizeof(lanes));
      block(lanes, c0, count);
    });
  }
}

// Copies one NHWC input row to `dst` with `padded_w` columns: column c
// holds input column c - pad_w, or zeros outside the image.
void CopyPaddedRow(const float* src, std::int64_t in_w, std::int64_t in_c,
                   std::int64_t pad_w, std::int64_t padded_w, float* dst) {
  const std::int64_t lead = std::clamp<std::int64_t>(pad_w, 0, padded_w);
  const std::int64_t body =
      std::clamp<std::int64_t>(padded_w - pad_w, 0, in_w);
  std::fill(dst, dst + lead * in_c, 0.0f);
  std::copy(src, src + body * in_c, dst + lead * in_c);
  std::fill(dst + (lead + body) * in_c, dst + padded_w * in_c, 0.0f);
}

// The output positions [begin, end) whose window covers padded input
// position `t` (input index + low padding) along one spatial dim.
std::pair<std::int64_t, std::int64_t> CoveringOutputs(std::int64_t t,
                                                      std::int64_t window,
                                                      std::int64_t stride,
                                                      std::int64_t out) {
  const std::int64_t begin = t < window ? 0 : (t - window + stride) / stride;
  return {begin, std::max(begin, std::min(out, t / stride + 1))};
}

// The output columns [begin, end) whose filter column kw lands inside the
// image (0 <= ow * stride_w - pad_w + kw < in_w).
std::pair<std::int64_t, std::int64_t> InsideColumns(const ConvGeometry& g,
                                                    std::int64_t kw) {
  const std::int64_t first = g.pad_w - kw;
  const std::int64_t last = g.in_w - 1 + g.pad_w - kw;
  const std::int64_t begin =
      std::min(g.out_w, first <= 0 ? 0 : CeilDiv(first, g.stride_w));
  return {begin, std::clamp<std::int64_t>(
                     last < 0 ? 0 : last / g.stride_w + 1, begin, g.out_w)};
}

// Masked forward, for narrow out_c: a block is 4 pixels of one output row
// (the lanes) x up to 8 channels. For each valid kh, k walks the filter
// row, which for each pixel is one contiguous run of its zero-padded input
// row; padding taps and the last block's spare lanes read zeros.
void ConvForwardMasked(const ConvGeometry& g, const float* input,
                       const float* filter, float* out,
                       const std::vector<kernels::EpilogueOp>& epilogue) {
  const std::int64_t padded_w = std::max<std::int64_t>(
      (CeilDiv(g.out_w, kConvLanes) * kConvLanes - 1) * g.stride_w + g.f_w, 0);
  const std::int64_t row_len = padded_w * g.in_c;
  const std::int64_t step = g.stride_w * g.in_c;  // between lanes' runs

  const std::int64_t rows = g.batch * g.out_h;
  const std::int64_t row_cost = g.out_w * g.f_h * g.k_len * g.out_c * 2;
  ParallelForRange(rows, ConvGrain(rows, row_cost), [&](
                       std::int64_t row_begin, std::int64_t row_end) {
    std::vector<float> padded(static_cast<std::size_t>(g.f_h * row_len));
    for (std::int64_t row = row_begin; row < row_end; ++row) {
      const std::int64_t b = row / g.out_h;
      const std::int64_t ih0 = row % g.out_h * g.stride_h - g.pad_h;
      const std::int64_t kh_begin = std::max<std::int64_t>(0, -ih0);
      const std::int64_t kh_end = std::min(g.f_h, g.in_h - ih0);
      for (std::int64_t kh = kh_begin; kh < kh_end; ++kh) {
        CopyPaddedRow(input + (b * g.in_h + ih0 + kh) * g.in_w * g.in_c,
                      g.in_w, g.in_c, g.pad_w, padded_w,
                      padded.data() + kh * row_len);
      }
      for (std::int64_t c0 = 0; c0 < g.out_c; c0 += kMaskedChannels) {
        WithBlockWidth(g.out_c - c0, [&](auto channels) {
          constexpr int kN = decltype(channels)::value;
          for (std::int64_t ow0 = 0; ow0 < g.out_w; ow0 += kConvLanes) {
            F4 acc[kN] = {};
            for (std::int64_t kh = kh_begin; kh < kh_end; ++kh) {
              const float* r = padded.data() + kh * row_len + ow0 * step;
              const float* f = filter + kh * g.k_len * g.out_c + c0;
              for (std::int64_t k = 0; k < g.k_len; ++k) {
                const F4 iv = {r[k], r[k + step], r[k + 2 * step],
                               r[k + 3 * step]};
                const I4 keep = iv != 0.0f;
                const float* fk = f + k * g.out_c;
                for (int c = 0; c < kN; ++c) {
                  acc[c] += MaskedProduct(iv, fk[c], keep);
                }
              }
            }
            const std::int64_t pixels =
                std::min(kConvLanes, g.out_w - ow0);
            for (std::int64_t p = 0; p < pixels; ++p) {
              const std::int64_t at = (row * g.out_w + ow0 + p) * g.out_c + c0;
              float tile[kN];
              for (int c = 0; c < kN; ++c) tile[c] = acc[c][p];
              ApplyEpilogueTile(epilogue, tile, kN, c0, at);
              std::copy(tile, tile + kN, out + at);
            }
          }
        });
      }
    }
  });
}

// Gathered forward, for wide out_c: per output pixel, the nonzero input
// values of its window in (kh, kw, ic) order, each with its filter row.
void ConvForwardGathered(const ConvGeometry& g, const float* input,
                         const float* filter, float* out,
                         const std::vector<kernels::EpilogueOp>& epilogue) {
  const std::int64_t rows = g.batch * g.out_h;
  const std::int64_t row_cost = g.out_w * g.f_h * g.k_len * g.out_c * 2;
  ParallelForRange(rows, ConvGrain(rows, row_cost), [&](
                       std::int64_t row_begin, std::int64_t row_end) {
    std::vector<Term> terms(static_cast<std::size_t>(g.f_h * g.k_len));
    for (std::int64_t row = row_begin; row < row_end; ++row) {
      const std::int64_t b = row / g.out_h;
      const std::int64_t ih0 = row % g.out_h * g.stride_h - g.pad_h;
      const std::int64_t kh_begin = std::max<std::int64_t>(0, -ih0);
      const std::int64_t kh_end = std::min(g.f_h, g.in_h - ih0);
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        const std::int64_t iw0 = ow * g.stride_w - g.pad_w;
        const std::int64_t k_begin = std::max<std::int64_t>(0, -iw0) * g.in_c;
        const std::int64_t k_end = std::min(g.f_w, g.in_w - iw0) * g.in_c;
        std::size_t n = 0;
        for (std::int64_t kh = kh_begin; kh < kh_end; ++kh) {
          // Input element of tap k; k >= k_begin keeps it inside the row.
          const std::int64_t at =
              ((b * g.in_h + ih0 + kh) * g.in_w + iw0) * g.in_c;
          for (std::int64_t k = k_begin; k < k_end; ++k) {
            PushTerm(terms.data(), n, (kh * g.k_len + k) * g.out_c,
                     input[at + k]);
          }
        }
        const std::int64_t at = (row * g.out_w + ow) * g.out_c;
        ForEachGatheredBlock(
            terms.data(), n, filter, g.out_c,
            [&](float* tile, std::int64_t c0, std::int64_t count) {
              ApplyEpilogueTile(epilogue, tile, count, c0, at + c0);
              std::copy(tile, tile + count, out + at + c0);
            });
      }
    }
  });
}

// One grad_in pixel from its n contributing (output pixel, tap) pairs in
// ascending (oh, ow) order: g_taps[i] is the output pixel's gradient row,
// f_taps[i] the tap's [oc][ic_padded] transposed filter. Each dot runs
// oc ascending from +0.0f over 4 * V channels; when V < 4, the dots of
// 4 / V taps run together so four independent chains stay in flight, and
// are then added to the accumulator in order.
template <int V>
void GatherInputGrad(const float* const* g_taps, const float* const* f_taps,
                     std::size_t n, std::int64_t out_c, std::int64_t ic_padded,
                     std::int64_t in_c, float* grad_in) {
  constexpr std::size_t kTaps = 4 / V;
  for (std::int64_t ic0 = 0; ic0 < in_c; ic0 += 4 * V) {
    F4 acc[V] = {};
    std::size_t i = 0;
    for (; i + kTaps <= n; i += kTaps) {
      F4 dot[kTaps][V] = {};
      for (std::int64_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t t = 0; t < kTaps; ++t) {
          const float gv = g_taps[i + t][oc];
          const float* f = f_taps[i + t] + oc * ic_padded + ic0;
          for (int u = 0; u < V; ++u) dot[t][u] += gv * Load4(f + 4 * u);
        }
      }
      for (std::size_t t = 0; t < kTaps; ++t) {
        for (int u = 0; u < V; ++u) acc[u] += dot[t][u];
      }
    }
    for (; i < n; ++i) {
      F4 dot[V] = {};
      for (std::int64_t oc = 0; oc < out_c; ++oc) {
        const float gv = g_taps[i][oc];
        const float* f = f_taps[i] + oc * ic_padded + ic0;
        for (int u = 0; u < V; ++u) dot[u] += gv * Load4(f + 4 * u);
      }
      for (int u = 0; u < V; ++u) acc[u] += dot[u];
    }
    float lanes[4 * V];
    std::memcpy(lanes, acc, sizeof(lanes));
    std::copy(lanes, lanes + std::min<std::int64_t>(4 * V, in_c - ic0),
              grad_in + ic0);
  }
}

// Masked filter gradient, for narrow out_c: one unit is grad_filter rows
// k0..k0+3 of filter row kh (the lanes) x up to 8 channels, summed over
// (b, oh, ow) ascending. Rows whose ih is outside the image are skipped.
// Where all four lanes' columns are inside the image one load reads them;
// at the borders, lanes outside the image (or past the filter row) read
// zero, and zero lanes are masked.
template <int N>
void FilterGradMaskedUnit(const ConvGeometry& g, const float* input,
                          const float* grad_out, float* grad_filter,
                          std::int64_t kh, std::int64_t k0, std::int64_t c0) {
  std::int64_t lane_kw[kConvLanes], lane_ic[kConvLanes];
  for (std::int64_t l = 0; l < kConvLanes; ++l) {
    lane_kw[l] = (k0 + l) / g.in_c;
    lane_ic[l] = (k0 + l) % g.in_c;
  }
  const std::int64_t lanes = std::min(kConvLanes, g.k_len - k0);
  // Inside: lane 0's column >= 0 and the last lane's column < in_w.
  const std::int64_t ow_lo = InsideColumns(g, lane_kw[0]).first;
  const std::int64_t ow_hi = std::max(
      ow_lo, InsideColumns(g, lane_kw[kConvLanes - 1]).second);
  F4 acc[N] = {};
  for (std::int64_t b = 0; b < g.batch; ++b) {
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      const std::int64_t ih = oh * g.stride_h + kh - g.pad_h;
      if (ih < 0 || ih >= g.in_h) continue;
      const float* in_row = input + (b * g.in_h + ih) * g.in_w * g.in_c;
      const float* g_row =
          grad_out + (b * g.out_h + oh) * g.out_w * g.out_c + c0;
      const auto add = [&](std::int64_t ow, F4 iv) {
        const I4 keep = iv != 0.0f;
        const float* gp = g_row + ow * g.out_c;
        for (int c = 0; c < N; ++c) acc[c] += MaskedProduct(iv, gp[c], keep);
      };
      const auto border = [&](std::int64_t ow) {
        F4 iv = {};
        for (std::int64_t l = 0; l < lanes; ++l) {
          const std::int64_t iw = ow * g.stride_w - g.pad_w + lane_kw[l];
          if (iw >= 0 && iw < g.in_w) iv[l] = in_row[iw * g.in_c + lane_ic[l]];
        }
        add(ow, iv);
      };
      for (std::int64_t ow = 0; ow < ow_lo; ++ow) border(ow);
      for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow) {
        add(ow, Load4(in_row + ((ow * g.stride_w - g.pad_w) * g.in_c + k0)));
      }
      for (std::int64_t ow = ow_hi; ow < g.out_w; ++ow) border(ow);
    }
  }
  for (std::int64_t l = 0; l < lanes; ++l) {
    float* gf = grad_filter + (kh * g.k_len + k0 + l) * g.out_c + c0;
    for (int c = 0; c < N; ++c) gf[c] = acc[c][l];
  }
}

// Gathered filter gradient, for wide out_c: one unit is grad_filter row
// (kh, k): the nonzero inputs at that tap over (b, oh, ow) ascending, each
// with its grad_out pixel row.
void FilterGradGatheredUnit(const ConvGeometry& g, const float* input,
                            const float* grad_out, float* grad_filter,
                            std::int64_t kh, std::int64_t k, Term* terms) {
  const std::int64_t kw = k / g.in_c, ic = k % g.in_c;
  const auto [ow_begin, ow_end] = InsideColumns(g, kw);
  std::size_t n = 0;
  for (std::int64_t b = 0; b < g.batch; ++b) {
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      const std::int64_t ih = oh * g.stride_h + kh - g.pad_h;
      if (ih < 0 || ih >= g.in_h) continue;
      // Input element of output column ow; ow >= ow_begin keeps it inside
      // the row.
      const std::int64_t at =
          ((b * g.in_h + ih) * g.in_w + kw - g.pad_w) * g.in_c + ic;
      const std::int64_t pixel0 = (b * g.out_h + oh) * g.out_w;
      for (std::int64_t ow = ow_begin; ow < ow_end; ++ow) {
        PushTerm(terms, n, (pixel0 + ow) * g.out_c,
                 input[at + ow * g.stride_w * g.in_c]);
      }
    }
  }
  float* gf = grad_filter + (kh * g.k_len + k) * g.out_c;
  ForEachGatheredBlock(terms, n, grad_out, g.out_c,
                       [&](float* tile, std::int64_t c0, std::int64_t count) {
                         std::copy(tile, tile + count, gf + c0);
                       });
}

}  // namespace

namespace kernels {

std::int64_t PadLow(std::int64_t input, std::int64_t output,
                    std::int64_t window, std::int64_t stride,
                    Padding padding) {
  if (padding == Padding::kValid) return 0;
  const std::int64_t pad_total =
      std::max<std::int64_t>((output - 1) * stride + window - input, 0);
  return pad_total / 2;
}

// Register tile width for the cache-tiled MatMul inner loop: a
// stack-resident accumulator block the compiler can keep in registers /
// L1. Tiling only regroups WHICH output elements are in flight together —
// each element's k-reduction still runs ascending on one thread with the
// same zero-skip — so tiled results are bit-identical to the untiled
// reference loop nest for every shape and thread count.
constexpr std::int64_t kEpilogueTile = 64;

void MatMul(const float* a, const float* b, float* out, std::int64_t m,
            std::int64_t k, std::int64_t n,
            const std::vector<EpilogueOp>& epilogue) {
  // Each shard owns a contiguous block of output rows; the k-reduction for
  // a row stays on one thread, in the serial order. Within a row, a
  // kEpilogueTile-wide accumulator block walks the columns: the whole
  // reduction for those columns finishes in registers, the epilogue is
  // applied, and only then does the tile spill to memory.
  ParallelForRange(m, GrainFor(2 * k * n), [&](std::int64_t i_begin,
                                               std::int64_t i_end) {
    float acc[kEpilogueTile];
    for (std::int64_t i = i_begin; i < i_end; ++i) {
      const float* arow = a + i * k;
      for (std::int64_t j0 = 0; j0 < n; j0 += kEpilogueTile) {
        const std::int64_t jn = std::min(kEpilogueTile, n - j0);
        std::fill(acc, acc + jn, 0.0f);
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* brow = b + kk * n + j0;
          for (std::int64_t jt = 0; jt < jn; ++jt) acc[jt] += av * brow[jt];
        }
        ApplyEpilogueTile(epilogue, acc, jn, j0, i * n + j0);
        std::copy(acc, acc + jn, out + i * n + j0);
      }
    }
  });
}

void Conv2D(const float* input, const Shape& in_shape, const float* filter,
            const Shape& filter_shape, float* out, const Shape& out_shape,
            std::int64_t stride_h, std::int64_t stride_w, Padding padding,
            const std::vector<EpilogueOp>& epilogue) {
  // Disjoint output rows: shard over (batch, out_h). A block finishes its
  // whole reduction in registers, takes the epilogue per pixel, then
  // spills.
  const ConvGeometry g = MakeConvGeometry(in_shape, filter_shape, out_shape,
                                          stride_h, stride_w, padding);
  if (Gathered(g.out_c)) {
    ConvForwardGathered(g, input, filter, out, epilogue);
  } else {
    ConvForwardMasked(g, input, filter, out, epilogue);
  }
}

void Conv2DBackpropInput(const float* grad_out, const Shape& grad_shape,
                         const float* filter, const Shape& filter_shape,
                         float* grad_in, const Shape& in_shape,
                         std::int64_t stride_h, std::int64_t stride_w,
                         Padding padding) {
  const ConvGeometry g = MakeConvGeometry(in_shape, filter_shape, grad_shape,
                                          stride_h, stride_w, padding);
  // Each input element is +0.0f plus one oc-ascending dot per output pixel
  // whose window covers it, added in ascending (oh, ow) order: the order
  // the scatter form adds them in. The gather computes the dots for 4 * V
  // input channels at once against the filter transposed per tap to
  // [tap][oc][ic], with ic padded to a whole number of groups.
  const int v = g.in_c <= 4 ? 1 : g.in_c <= 8 ? 2 : 4;
  const std::int64_t ic_padded = CeilDiv(g.in_c, 4 * v) * 4 * v;
  const std::int64_t taps = g.f_h * g.f_w;
  std::vector<float> transposed(
      static_cast<std::size_t>(taps * g.out_c * ic_padded), 0.0f);
  for (std::int64_t tap = 0; tap < taps; ++tap) {
    for (std::int64_t ic = 0; ic < g.in_c; ++ic) {
      for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
        transposed[static_cast<std::size_t>(
            (tap * g.out_c + oc) * ic_padded + ic)] =
            filter[(tap * g.in_c + ic) * g.out_c + oc];
      }
    }
  }

  // Disjoint input rows: shard over (batch, in_h), with at least one row
  // per image so that the call opens a region iff batch > 0.
  const std::int64_t rows_per_image = std::max<std::int64_t>(g.in_h, 1);
  const std::int64_t rows = g.batch * rows_per_image;
  const std::int64_t row_cost = g.in_w * taps * g.in_c * g.out_c * 2 /
                                (g.stride_h * g.stride_w);
  const auto run = [&](auto group) {
    constexpr int kV = decltype(group)::value;
    ParallelForRange(rows, ConvGrain(rows, row_cost), [&](
                         std::int64_t row_begin, std::int64_t row_end) {
      std::vector<const float*> g_taps(static_cast<std::size_t>(taps));
      std::vector<const float*> f_taps(g_taps.size());
      for (std::int64_t row = row_begin; row < row_end; ++row) {
        const std::int64_t b = row / rows_per_image;
        const std::int64_t ih = row % rows_per_image;
        if (ih >= g.in_h) continue;
        const auto [oh_begin, oh_end] =
            CoveringOutputs(ih + g.pad_h, g.f_h, g.stride_h, g.out_h);
        for (std::int64_t iw = 0; iw < g.in_w; ++iw) {
          const auto [ow_begin, ow_end] =
              CoveringOutputs(iw + g.pad_w, g.f_w, g.stride_w, g.out_w);
          std::size_t n = 0;
          for (std::int64_t oh = oh_begin; oh < oh_end; ++oh) {
            const std::int64_t kh = ih + g.pad_h - oh * g.stride_h;
            for (std::int64_t ow = ow_begin; ow < ow_end; ++ow) {
              const std::int64_t kw = iw + g.pad_w - ow * g.stride_w;
              g_taps[n] =
                  grad_out + ((b * g.out_h + oh) * g.out_w + ow) * g.out_c;
              f_taps[n] =
                  transposed.data() + (kh * g.f_w + kw) * g.out_c * ic_padded;
              ++n;
            }
          }
          GatherInputGrad<kV>(
              g_taps.data(), f_taps.data(), n, g.out_c, ic_padded, g.in_c,
              grad_in + ((b * g.in_h + ih) * g.in_w + iw) * g.in_c);
        }
      }
    });
  };
  if (v == 1) {
    run(std::integral_constant<int, 1>{});
  } else if (v == 2) {
    run(std::integral_constant<int, 2>{});
  } else {
    run(std::integral_constant<int, 4>{});
  }
}

void Conv2DBackpropFilter(const float* input, const Shape& in_shape,
                          const float* grad_out, const Shape& grad_shape,
                          float* grad_filter, const Shape& filter_shape,
                          std::int64_t stride_h, std::int64_t stride_w,
                          Padding padding) {
  const ConvGeometry g = MakeConvGeometry(in_shape, filter_shape, grad_shape,
                                          stride_h, stride_w, padding);
  // Units own disjoint grad_filter blocks and keep them in registers while
  // they walk (b, oh, ow) ascending, so each element is written once. A
  // gathered unit is one filter row (kh, k); a masked unit is (kh, 4
  // consecutive k, up to 8 channels). The call opens a region iff
  // f_h * f_w > 0, even when in_c or out_c is 0: the region counter is
  // exact-gated in the artifacts.
  const bool gathered = Gathered(g.out_c);
  const std::int64_t k_blocks = CeilDiv(g.k_len, kConvLanes);
  const std::int64_t c_blocks = CeilDiv(g.out_c, kMaskedChannels);
  const std::int64_t units =
      gathered ? g.f_h * g.k_len : g.f_h * k_blocks * c_blocks;
  const std::int64_t pixels = g.batch * g.out_h * g.out_w;
  const std::int64_t unit_cost =
      pixels * 2 * (gathered ? g.out_c : kConvLanes * kMaskedChannels);
  const std::int64_t regions = g.f_h * g.f_w > 0 ? 1 : 0;
  ParallelForRange(std::max(units, regions), ConvGrain(units, unit_cost), [&](
                       std::int64_t unit_begin, std::int64_t unit_end) {
    if (units == 0) return;
    std::vector<Term> terms(static_cast<std::size_t>(gathered ? pixels : 0));
    for (std::int64_t unit = unit_begin; unit < unit_end; ++unit) {
      if (gathered) {
        FilterGradGatheredUnit(g, input, grad_out, grad_filter,
                               unit / g.k_len, unit % g.k_len, terms.data());
        continue;
      }
      const std::int64_t c0 = unit % c_blocks * kMaskedChannels;
      const std::int64_t k0 = unit / c_blocks % k_blocks * kConvLanes;
      const std::int64_t kh = unit / (c_blocks * k_blocks);
      WithBlockWidth(g.out_c - c0, [&](auto channels) {
        FilterGradMaskedUnit<decltype(channels)::value>(
            g, input, grad_out, grad_filter, kh, k0, c0);
      });
    }
  });
}

bool AllFiniteSpan(const float* data, std::int64_t n) {
  if (n <= 0) return true;
  // One flag per shard would also work, but a single relaxed atomic flag
  // is simpler and still order-independent: shards only ever clear it,
  // and AND is commutative, so the verdict cannot depend on scheduling.
  std::atomic<bool> all_finite{true};
  ParallelForRange(n, GrainFor(1), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      if (!std::isfinite(data[static_cast<std::size_t>(i)])) {
        all_finite.store(false, std::memory_order_relaxed);
        return;
      }
    }
  });
  return all_finite.load(std::memory_order_relaxed);
}

}  // namespace kernels

namespace {

// MatMul/Conv2D with `epilogue` folded into their output tiles (none for
// the standalone ops).
Literal AnchorKernel(OpKind kind, const std::vector<const Literal*>& inputs,
                     const OpAttrs& attrs,
                     const std::vector<kernels::EpilogueOp>& epilogue) {
  const Shape out =
      InferShape(kind, {inputs[0]->shape, inputs[1]->shape}, attrs);
  Literal result = Literal::ForOverwrite(out);
  if (kind == OpKind::kMatMul) {
    kernels::MatMul(inputs[0]->data.data(), inputs[1]->data.data(),
                    result.data.mutable_data(), inputs[0]->shape.dim(0),
                    inputs[0]->shape.dim(1), inputs[1]->shape.dim(1),
                    epilogue);
  } else {
    kernels::Conv2D(inputs[0]->data.data(), inputs[0]->shape,
                    inputs[1]->data.data(), inputs[1]->shape,
                    result.data.mutable_data(), out, attrs.stride_h,
                    attrs.stride_w, attrs.padding, epilogue);
  }
  return result;
}

Literal EvalOpLiteralImpl(OpKind kind,
                          const std::vector<const Literal*>& inputs,
                          const OpAttrs& attrs) {
  const int arity = OpArity(kind);
  if (arity >= 0) {
    S4TF_CHECK_EQ(static_cast<int>(inputs.size()), arity)
        << "op " << OpName(kind);
  }
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
      return VisitUnaryOp(kind, attrs, [&](auto fn) {
        return UnaryElementwise(*inputs[0], fn);
      });

    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kMaximum:
    case OpKind::kMinimum:
    case OpKind::kPow:
    case OpKind::kGreater:
      return VisitBinaryOp(kind, [&](auto fn) {
        return BinaryBroadcast(*inputs[0], *inputs[1], fn);
      });

    case OpKind::kSelect: {
      const Shape out = InferShape(kind, {inputs[0]->shape, inputs[1]->shape,
                                          inputs[2]->shape},
                                   attrs);
      Literal result = Literal::ForOverwrite(out);
      float* r = result.data.mutable_data();
      const float* pc = inputs[0]->data.data();
      const float* pa = inputs[1]->data.data();
      const float* pb = inputs[2]->data.data();
      ForEachBroadcast<3>(
          out,
          {BroadcastStrides(inputs[0]->shape, out),
           BroadcastStrides(inputs[1]->shape, out),
           BroadcastStrides(inputs[2]->shape, out)},
          [&](std::int64_t o, const std::array<std::int64_t, 3>& in,
              std::int64_t len, auto sc, auto sa, auto sb) {
            for (std::int64_t k = 0; k < len; ++k) {
              r[o + k] = pc[in[0] + k * sc] != 0.0f ? pa[in[1] + k * sa]
                                                     : pb[in[2] + k * sb];
            }
          });
      return result;
    }

    case OpKind::kReshape:
      // Same buffer, new shape: O(1) thanks to CowArray sharing.
      return Literal(Shape(attrs.shape), inputs[0]->data);

    case OpKind::kTranspose:
      return Transpose(*inputs[0], attrs);

    case OpKind::kBroadcastTo:
      return BroadcastTo(*inputs[0], Shape(attrs.shape));

    case OpKind::kSlice:
      return SliceOp(*inputs[0], attrs);

    case OpKind::kPad:
      return PadOp(*inputs[0], attrs);

    case OpKind::kConcat:
      return ConcatOp(inputs, attrs);

    case OpKind::kReduceSum:
    case OpKind::kReduceMean:
    case OpKind::kReduceMax:
      return Reduce(*inputs[0], attrs, kind);

    case OpKind::kArgMax:
      return ArgMax(*inputs[0], attrs);

    case OpKind::kSoftmax:
      return SoftmaxLike(*inputs[0], /*log_space=*/false);
    case OpKind::kLogSoftmax:
      return SoftmaxLike(*inputs[0], /*log_space=*/true);

    case OpKind::kMatMul:
    case OpKind::kConv2D:
      return AnchorKernel(kind, inputs, attrs, {});

    case OpKind::kConv2DBackpropInput: {
      const Shape in_shape(attrs.shape);
      Literal result = Literal::ForOverwrite(in_shape);
      kernels::Conv2DBackpropInput(
          inputs[0]->data.data(), inputs[0]->shape, inputs[1]->data.data(),
          inputs[1]->shape, result.data.mutable_data(), in_shape,
          attrs.stride_h, attrs.stride_w, attrs.padding);
      return result;
    }

    case OpKind::kConv2DBackpropFilter: {
      const Shape filter_shape(attrs.shape);
      Literal result = Literal::ForOverwrite(filter_shape);
      kernels::Conv2DBackpropFilter(
          inputs[0]->data.data(), inputs[0]->shape, inputs[1]->data.data(),
          inputs[1]->shape, result.data.mutable_data(), filter_shape,
          attrs.stride_h, attrs.stride_w, attrs.padding);
      return result;
    }

    case OpKind::kAvgPool2D:
      return Pool2D(*inputs[0], attrs, /*is_max=*/false);
    case OpKind::kMaxPool2D:
      return Pool2D(*inputs[0], attrs, /*is_max=*/true);
    case OpKind::kAvgPool2DGrad:
      return AvgPool2DGrad(*inputs[0], attrs);
    case OpKind::kMaxPool2DGrad:
      return MaxPool2DGrad(*inputs[0], *inputs[1], attrs);

    case OpKind::kCrossReplicaSum:
      // Identity on a single replica; the cluster backend sums across
      // replicas before dispatching here.
      return *inputs[0];

    case OpKind::kConstant:
    case OpKind::kParameter:
    case OpKind::kNumOps:
      break;
  }
  S4TF_UNREACHABLE() << "EvalOpLiteral: unsupported op " << OpName(kind);
}

}  // namespace

Literal EvalOpLiteral(OpKind kind, const std::vector<const Literal*>& inputs,
                      const OpAttrs& attrs) {
  KernelMetrics& metrics = KernelMetrics::Get();
  metrics.dispatches->Increment();
  metrics.by_kind[static_cast<std::size_t>(kind)]->Increment();

  std::int64_t elements = 0;
  for (const Literal* in : inputs) elements += in->size();

  obs::TraceSpan span(OpName(kind), "kernel", "input_elements", elements);
  Literal result = EvalOpLiteralImpl(kind, inputs, attrs);

  // Bytes moved = every input read once + the output written once. This is
  // a lower bound (broadcasts and matmul re-read), but it is deterministic,
  // backend-independent, and matches the cost model the scheduler uses.
  metrics.bytes->Add((elements + result.size()) *
                     static_cast<std::int64_t>(sizeof(float)));
  return result;
}

Literal EvalOpLiteral(OpKind kind, const std::vector<Literal>& inputs,
                      const OpAttrs& attrs) {
  std::vector<const Literal*> ptrs;
  ptrs.reserve(inputs.size());
  for (const Literal& in : inputs) ptrs.push_back(&in);
  return EvalOpLiteral(kind, ptrs, attrs);
}

Literal EvalFusedOpLiteral(OpKind anchor_kind,
                           const std::vector<const Literal*>& inputs,
                           const OpAttrs& attrs,
                           const std::vector<kernels::EpilogueOp>& epilogue) {
  S4TF_CHECK(anchor_kind == OpKind::kMatMul || anchor_kind == OpKind::kConv2D)
      << "fused epilogue anchor must be MatMul/Conv2D, got "
      << OpName(anchor_kind);
  KernelMetrics& metrics = KernelMetrics::Get();
  metrics.dispatches->Increment();
  metrics.by_kind[static_cast<std::size_t>(anchor_kind)]->Increment();
  metrics.fused_dispatches->Increment();
  metrics.fused_folded_ops->Add(static_cast<std::int64_t>(epilogue.size()));

  // External traffic only: the anchor's inputs, each epilogue operand, and
  // the single output. The folded intermediates live in the register tile.
  std::int64_t elements = 0;
  for (const Literal* in : inputs) elements += in->size();
  for (const kernels::EpilogueOp& op : epilogue) {
    elements += op.operand_elements;
  }

  obs::TraceSpan span("fused_epilogue", "kernel", "input_elements", elements);
  Literal result = AnchorKernel(anchor_kind, inputs, attrs, epilogue);
  metrics.bytes->Add((elements + result.size()) *
                     static_cast<std::int64_t>(sizeof(float)));
  return result;
}

}  // namespace s4tf
