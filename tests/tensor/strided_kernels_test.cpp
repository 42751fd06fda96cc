// Differential test for every kernel that walks a strided iteration space:
// broadcasting binary ops, Select, BroadcastTo, the reductions, Transpose,
// Slice and Pad. Each is compared with a reference written here from
// flat-index divide/modulo arithmetic, independent of the kernels' walker.
//
// The shapes have interior size-1 dims, so the walker's dim merging is
// exercised, and one shape has odd dims and more than 2 x 8192 elements, so
// that at 4 threads the shard edges of the parallel kernels cut runs. Every
// case runs at 1 and at 4 intra-op threads. Non-NaN outputs must match the
// reference bit for bit, including the sign of zero; a NaN output must be
// NaN, but its sign and payload are not compared.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/rng.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace s4tf {
namespace {

using Dims = std::vector<std::int64_t>;

const std::vector<Shape>& TestShapes() {
  static const std::vector<Shape> shapes = {
      Shape({3, 1, 4, 5}),
      Shape({2, 5, 1, 3}),
      Shape({5, 1, 37, 93}),  // 17205 elements: shard edges cut runs
  };
  return shapes;
}

bool IsLarge(const Shape& shape) { return shape.NumElements() > 1000; }

constexpr int kThreadCounts[] = {1, 4};

// Finite values in [-2, 2), with one element in eight drawn from NaN, +-Inf,
// -0 and subnormals when `specials` is set.
Literal Values(const Shape& shape, std::uint64_t seed, bool specials) {
  static const float kSpecials[] = {
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -3.0f * std::numeric_limits<float>::denorm_min(),
      1.0e-40f,
  };
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(shape.NumElements()));
  for (float& x : v) {
    if (specials && rng.NextBelow(8) == 0) {
      x = kSpecials[rng.NextBelow(std::size(kSpecials))];
    } else {
      x = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
  }
  return Literal::FromVector(shape, std::move(v));
}

std::string Describe(const Shape& shape) {
  std::ostringstream out;
  out << shape;
  return out.str();
}

std::uint32_t Bits(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Non-NaN outputs as bit patterns; NaN wherever the reference is NaN.
void ExpectMatches(const std::vector<float>& want, const Literal& got,
                   const std::string& what) {
  const std::vector<float> g = got.data.ToVector();
  ASSERT_EQ(want.size(), g.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const bool ok = std::isnan(want[i]) ? std::isnan(g[i])
                                        : Bits(want[i]) == Bits(g[i]);
    if (!ok) {
      ADD_FAILURE() << what << ": element " << i << " is " << g[i]
                    << " (bits " << std::hex << Bits(g[i]) << "), reference "
                    << want[i] << " (bits " << Bits(want[i]) << ")";
      return;
    }
  }
}

// Evaluates at every thread count and compares with `want`.
void Check(OpKind kind, const std::vector<Literal>& inputs,
           const OpAttrs& attrs, const std::vector<float>& want,
           const std::string& what) {
  for (int threads : kThreadCounts) {
    SetIntraOpParallelism(threads);
    ExpectMatches(want, EvalOpLiteral(kind, inputs, attrs),
                  what + " at " + std::to_string(threads) + " threads");
  }
  SetIntraOpParallelism(0);
}

// Every operand shape that broadcasts to `out`: a subset of its dims set to
// 1, then 0..rank leading dims dropped.
std::vector<Shape> BroadcastOperands(const Shape& out) {
  std::set<Dims> seen;
  std::vector<Shape> shapes;
  const int rank = out.rank();
  for (int mask = 0; mask < (1 << rank); ++mask) {
    Dims dims = out.dims();
    for (int d = 0; d < rank; ++d) {
      if (mask & (1 << d)) dims[static_cast<std::size_t>(d)] = 1;
    }
    for (int drop = 0; drop <= rank; ++drop) {
      Dims kept(dims.begin() + drop, dims.end());
      if (seen.insert(kept).second) shapes.emplace_back(kept);
    }
  }
  return shapes;
}

// Flat index into operand shape `in` (right-aligned, size-1 dims
// broadcast) of element `flat` of `out`.
std::int64_t BroadcastSource(std::int64_t flat, const Shape& out,
                             const Shape& in) {
  std::int64_t src = 0, stride = 1, rem = flat;
  for (int d = out.rank() - 1; d >= 0; --d) {
    const std::int64_t index = rem % out.dim(d);
    rem /= out.dim(d);
    const int e = d - (out.rank() - in.rank());
    if (e < 0) continue;
    if (in.dim(e) != 1) src += index * stride;
    stride *= in.dim(e);
  }
  return src;
}

template <typename Fn>
std::vector<float> ReferenceBroadcast(const std::vector<Literal>& inputs,
                                      Fn fn) {
  Shape out = inputs[0].shape;
  for (const Literal& in : inputs) out = BroadcastShapes(out, in.shape);
  std::vector<float> want(static_cast<std::size_t>(out.NumElements()));
  for (std::int64_t o = 0; o < out.NumElements(); ++o) {
    std::array<float, 3> x{};
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      x[i] = inputs[i].data.data()[BroadcastSource(o, out, inputs[i].shape)];
    }
    want[static_cast<std::size_t>(o)] = fn(x);
  }
  return want;
}

TEST(StridedKernelsTest, BinaryBroadcastMatchesReference) {
  const auto sub = [](const std::array<float, 3>& x) { return x[0] - x[1]; };
  const auto greater = [](const std::array<float, 3>& x) {
    return x[0] > x[1] ? 1.0f : 0.0f;
  };
  for (const Shape& out : TestShapes()) {
    const std::vector<Shape> operands = BroadcastOperands(out);
    // Small shapes pair every two operand shapes; the large one pairs each
    // with the full shape, in both orders.
    std::vector<std::pair<Shape, Shape>> pairs;
    for (const Shape& a : operands) {
      if (IsLarge(out)) {
        pairs.emplace_back(out, a);
        pairs.emplace_back(a, out);
      } else {
        for (const Shape& b : operands) pairs.emplace_back(a, b);
      }
    }
    for (const auto& [sa, sb] : pairs) {
      const std::vector<Literal> in = {Values(sa, 1, true),
                                       Values(sb, 2, true)};
      const std::string shapes = Describe(sa) + " op " + Describe(sb);
      Check(OpKind::kSub, in, {}, ReferenceBroadcast(in, sub),
            "sub " + shapes);
      Check(OpKind::kGreater, in, {}, ReferenceBroadcast(in, greater),
            "greater " + shapes);
    }
  }
}

// A Select condition: every third element is a zero of alternating sign,
// and the rest include NaN and +-Inf.
Literal Condition(const Shape& shape) {
  std::vector<float> v = Values(shape, 3, true).data.ToVector();
  for (std::size_t i = 0; i < v.size(); i += 3) v[i] = i % 2 ? -0.0f : 0.0f;
  return Literal::FromVector(shape, std::move(v));
}

TEST(StridedKernelsTest, SelectMatchesReference) {
  const auto select = [](const std::array<float, 3>& x) {
    return x[0] != 0.0f ? x[1] : x[2];
  };
  for (const Shape& out : TestShapes()) {
    for (const Shape& s : BroadcastOperands(out)) {
      const std::vector<std::vector<Shape>> slots = {
          {s, out, out}, {out, s, out}, {out, out, s}, {s, out, s}};
      for (const std::vector<Shape>& shapes : slots) {
        const std::vector<Literal> in = {Condition(shapes[0]),
                                         Values(shapes[1], 4, true),
                                         Values(shapes[2], 5, true)};
        Check(OpKind::kSelect, in, {}, ReferenceBroadcast(in, select),
              "select " + Describe(shapes[0]) + " ? " + Describe(shapes[1]) +
                  " : " + Describe(shapes[2]));
      }
    }
  }
}

TEST(StridedKernelsTest, BroadcastToMatchesReference) {
  const auto identity = [](const std::array<float, 3>& x) { return x[0]; };
  for (const Shape& out : TestShapes()) {
    for (const Shape& s : BroadcastOperands(out)) {
      const Literal in = Values(s, 6, true);
      // Broadcasting against zeros of the target shape yields the target
      // shape; the reference keeps `in`'s element.
      const std::vector<float> want =
          ReferenceBroadcast({in, Literal::Zeros(out)}, identity);
      Check(OpKind::kBroadcastTo, {in}, OpAttrs{.shape = out.dims()}, want,
            "broadcast_to " + Describe(s) + " -> " + Describe(out));
    }
  }
}

TEST(StridedKernelsTest, ReduceMatchesReference) {
  for (const Shape& in_shape : TestShapes()) {
    const int rank = in_shape.rank();
    for (OpKind kind :
         {OpKind::kReduceSum, OpKind::kReduceMean, OpKind::kReduceMax}) {
      const Literal in =
          Values(in_shape, 7, /*specials=*/kind != OpKind::kReduceMean);
      const float* p = in.data.data();
      // mask 0 is the empty axis list, which reduces every axis.
      for (int mask = 0; mask < (1 << rank); ++mask) {
        std::vector<std::int64_t> axes;
        std::vector<bool> reduced(static_cast<std::size_t>(rank), mask == 0);
        std::int64_t count = 1;
        for (int d = 0; d < rank; ++d) {
          if (mask & (1 << d)) {
            axes.push_back(d);
            reduced[static_cast<std::size_t>(d)] = true;
          }
          if (reduced[static_cast<std::size_t>(d)]) count *= in_shape.dim(d);
        }
        std::int64_t outputs = in_shape.NumElements() / count;
        std::vector<float> want(
            static_cast<std::size_t>(outputs),
            kind == OpKind::kReduceMax ? -std::numeric_limits<float>::infinity()
                                       : 0.0f);
        // Each output accumulates its inputs in ascending input order.
        for (std::int64_t i = 0; i < in_shape.NumElements(); ++i) {
          std::int64_t o = 0, stride = 1, rem = i;
          for (int d = rank - 1; d >= 0; --d) {
            const std::int64_t index = rem % in_shape.dim(d);
            rem /= in_shape.dim(d);
            if (reduced[static_cast<std::size_t>(d)]) continue;
            o += index * stride;
            stride *= in_shape.dim(d);
          }
          float& acc = want[static_cast<std::size_t>(o)];
          acc = kind == OpKind::kReduceMax ? std::max(acc, p[i]) : acc + p[i];
        }
        if (kind == OpKind::kReduceMean) {
          const float scale = 1.0f / static_cast<float>(count);
          for (float& w : want) w *= scale;
        }
        for (bool keep_dims : {false, true}) {
          std::ostringstream what;
          what << OpName(kind) << " " << in_shape << " mask " << mask
               << (keep_dims ? " keep_dims" : "");
          Check(kind, {in}, OpAttrs{.axes = axes, .keep_dims = keep_dims},
                want, what.str());
        }
      }
    }
  }
}

TEST(StridedKernelsTest, TransposeMatchesReference) {
  for (const Shape& in_shape : TestShapes()) {
    const Literal in = Values(in_shape, 8, true);
    const Dims in_strides = in_shape.Strides();
    std::vector<std::int64_t> perm = {0, 1, 2, 3};
    int permutations = 0;
    do {
      ++permutations;
      Dims out_dims;
      for (std::int64_t axis : perm) {
        out_dims.push_back(in_shape.dim(static_cast<int>(axis)));
      }
      const Shape out(out_dims);
      std::vector<float> want(static_cast<std::size_t>(out.NumElements()));
      for (std::int64_t o = 0; o < out.NumElements(); ++o) {
        std::int64_t src = 0, rem = o;
        for (int d = out.rank() - 1; d >= 0; --d) {
          src += (rem % out.dim(d)) *
                 in_strides[static_cast<std::size_t>(perm[static_cast<std::size_t>(d)])];
          rem /= out.dim(d);
        }
        want[static_cast<std::size_t>(o)] = in.data.data()[src];
      }
      std::ostringstream what;
      what << "transpose " << in_shape << " perm";
      for (std::int64_t axis : perm) what << " " << axis;
      Check(OpKind::kTranspose, {in}, OpAttrs{.axes = perm}, want, what.str());
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(permutations, 24);
  }
}

// Per dim: the whole dim, an interior stretch, or a single element.
struct Window {
  std::int64_t start, size;
};

std::vector<Window> WindowsOf(std::int64_t dim) {
  std::vector<Window> windows = {{0, dim}};
  if (dim > 2) windows.push_back({1, dim - 2});
  if (dim > 1) windows.push_back({dim / 2, 1});
  return windows;
}

TEST(StridedKernelsTest, SliceMatchesReference) {
  for (const Shape& in_shape : TestShapes()) {
    const Literal in = Values(in_shape, 9, true);
    const Dims in_strides = in_shape.Strides();
    std::vector<std::vector<Window>> choices;
    for (int d = 0; d < in_shape.rank(); ++d) {
      choices.push_back(WindowsOf(in_shape.dim(d)));
    }
    // Odometer over one window choice per dim.
    std::vector<std::size_t> pick(choices.size(), 0);
    while (true) {
      OpAttrs attrs;
      for (std::size_t d = 0; d < choices.size(); ++d) {
        attrs.starts.push_back(choices[d][pick[d]].start);
        attrs.shape.push_back(choices[d][pick[d]].size);
      }
      const Shape out(attrs.shape);
      std::vector<float> want(static_cast<std::size_t>(out.NumElements()));
      for (std::int64_t o = 0; o < out.NumElements(); ++o) {
        std::int64_t src = 0, rem = o;
        for (int d = out.rank() - 1; d >= 0; --d) {
          const auto sd = static_cast<std::size_t>(d);
          src += (attrs.starts[sd] + rem % out.dim(d)) * in_strides[sd];
          rem /= out.dim(d);
        }
        want[static_cast<std::size_t>(o)] = in.data.data()[src];
      }
      std::ostringstream what;
      what << "slice " << in_shape << " -> " << out << " at";
      for (std::int64_t s : attrs.starts) what << " " << s;
      Check(OpKind::kSlice, {in}, attrs, want, what.str());

      std::size_t d = 0;
      while (d < pick.size() && ++pick[d] == choices[d].size()) pick[d++] = 0;
      if (d == pick.size()) break;
    }
  }
}

TEST(StridedKernelsTest, PadMatchesReference) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> pad_choices = {
      {0, 0}, {1, 2}, {0, 3}};
  for (const Shape& in_shape : TestShapes()) {
    const Literal in = Values(in_shape, 10, true);
    const int rank = in_shape.rank();
    int combos = 1;
    for (int d = 0; d < rank; ++d) combos *= 3;
    for (int combo = 0; combo < combos; ++combo) {
      OpAttrs attrs;
      attrs.scalar = 0.5f;
      Dims out_dims;
      for (int d = 0, c = combo; d < rank; ++d, c /= 3) {
        const auto [lo, hi] = pad_choices[static_cast<std::size_t>(c % 3)];
        attrs.pads.push_back(lo);
        attrs.pads.push_back(hi);
        out_dims.push_back(lo + in_shape.dim(d) + hi);
      }
      const Shape out(out_dims);
      const Dims out_strides = out.Strides();
      std::vector<float> want(static_cast<std::size_t>(out.NumElements()),
                              attrs.scalar);
      for (std::int64_t i = 0; i < in_shape.NumElements(); ++i) {
        std::int64_t dst = 0, rem = i;
        for (int d = rank - 1; d >= 0; --d) {
          const auto sd = static_cast<std::size_t>(d);
          dst += (attrs.pads[2 * sd] + rem % in_shape.dim(d)) * out_strides[sd];
          rem /= in_shape.dim(d);
        }
        want[static_cast<std::size_t>(dst)] = in.data.data()[i];
      }
      std::ostringstream what;
      what << "pad " << in_shape << " ->" << out;
      Check(OpKind::kPad, {in}, attrs, want, what.str());
    }
  }
}

}  // namespace
}  // namespace s4tf
