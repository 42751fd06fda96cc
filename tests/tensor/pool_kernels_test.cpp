// Differential test for the pooling kernels: AvgPool2D, MaxPool2D and the
// two pooling gradients. The reference is the plain per-channel loop nest
// of each op, written here and never calling kernels::*:
//   - forward: per output element, the valid taps of its window in
//     (kh, kw) order, folded from -Inf with std::max (max) or from +0.0f
//     with + and then divided by the tap count (avg);
//   - avg gradient: per output element, grad / tap count added to each
//     valid tap, over output pixels in ascending (b, oh, ow);
//   - max gradient: per output element, grad added to the window's first
//     tap holding the largest value (a NaN never wins), over output pixels
//     in ascending (b, oh, ow).
//
// The cases cover windows 1-3 and strides 1-3 (so windows overlap, touch
// and leave gaps), SAME and VALID, and channel counts 1, 6, 16 and 17.
// Inputs hold NaN, +-Inf, +-0 and subnormals, or values drawn from a small
// set so that max windows have ties. Each case runs at 1 and 4 intra-op
// threads through EvalOpLiteral. Non-NaN outputs must match the reference
// bit for bit, including the sign of zero; a NaN output must be NaN, but
// its sign and payload are not compared. The fixture turns on the overwrite
// poison, and no output element may keep it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/rng.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "tests/tensor/overwrite_poison.h"

namespace s4tf {
namespace {

constexpr int kThreadCounts[] = {1, 4};

class PoolKernelsTest : public ::testing::Test {
  OverwritePoisonScope poison_;
};

struct Geometry {
  std::int64_t batch, in_h, in_w, channels;
  OpAttrs attrs;
  std::int64_t out_h, out_w, pad_h, pad_w;
};

Geometry MakeGeometry(std::int64_t batch, std::int64_t in_h, std::int64_t in_w,
                      std::int64_t channels, std::int64_t window_h,
                      std::int64_t window_w, std::int64_t stride,
                      Padding padding) {
  Geometry g{batch, in_h, in_w, channels, {}, 0, 0, 0, 0};
  g.attrs.window_h = window_h;
  g.attrs.window_w = window_w;
  g.attrs.stride_h = g.attrs.stride_w = stride;
  g.attrs.padding = padding;
  const Shape out = InferShape(OpKind::kAvgPool2D,
                               {Shape({batch, in_h, in_w, channels})}, g.attrs);
  g.out_h = out.dim(1);
  g.out_w = out.dim(2);
  g.pad_h = kernels::PadLow(in_h, g.out_h, window_h, stride, padding);
  g.pad_w = kernels::PadLow(in_w, g.out_w, window_w, stride, padding);
  return g;
}

Shape InShape(const Geometry& g) {
  return Shape({g.batch, g.in_h, g.in_w, g.channels});
}
Shape OutShape(const Geometry& g) {
  return Shape({g.batch, g.out_h, g.out_w, g.channels});
}

// Calls tap(input_index) for every in-bounds tap of output pixel
// (b, oh, ow) in channel c, in (kh, kw) order.
template <typename Tap>
void ForEachTap(const Geometry& g, std::int64_t b, std::int64_t oh,
                std::int64_t ow, std::int64_t c, Tap&& tap) {
  for (std::int64_t kh = 0; kh < g.attrs.window_h; ++kh) {
    const std::int64_t ih = oh * g.attrs.stride_h + kh - g.pad_h;
    if (ih < 0 || ih >= g.in_h) continue;
    for (std::int64_t kw = 0; kw < g.attrs.window_w; ++kw) {
      const std::int64_t iw = ow * g.attrs.stride_w + kw - g.pad_w;
      if (iw < 0 || iw >= g.in_w) continue;
      tap(static_cast<std::size_t>(((b * g.in_h + ih) * g.in_w + iw) *
                                       g.channels +
                                   c));
    }
  }
}

// Calls fn(b, oh, ow, c, out_index) for every output element in order.
template <typename Fn>
void ForEachOutput(const Geometry& g, Fn&& fn) {
  for (std::int64_t b = 0; b < g.batch; ++b) {
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        for (std::int64_t c = 0; c < g.channels; ++c) {
          fn(b, oh, ow, c,
             static_cast<std::size_t>(((b * g.out_h + oh) * g.out_w + ow) *
                                          g.channels +
                                      c));
        }
      }
    }
  }
}

std::vector<float> ReferencePool(const Geometry& g,
                                 const std::vector<float>& input,
                                 bool is_max) {
  std::vector<float> out(static_cast<std::size_t>(OutShape(g).NumElements()));
  ForEachOutput(g, [&](std::int64_t b, std::int64_t oh, std::int64_t ow,
                       std::int64_t c, std::size_t o) {
    float acc = is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
    std::int64_t count = 0;
    ForEachTap(g, b, oh, ow, c, [&](std::size_t i) {
      acc = is_max ? std::max(acc, input[i]) : acc + input[i];
      ++count;
    });
    out[o] = is_max ? acc : acc / static_cast<float>(count);
  });
  return out;
}

std::vector<float> ReferenceAvgPoolGrad(const Geometry& g,
                                        const std::vector<float>& grad_out) {
  std::vector<float> grad_in(
      static_cast<std::size_t>(InShape(g).NumElements()), 0.0f);
  ForEachOutput(g, [&](std::int64_t b, std::int64_t oh, std::int64_t ow,
                       std::int64_t c, std::size_t o) {
    std::int64_t count = 0;
    ForEachTap(g, b, oh, ow, c, [&](std::size_t) { ++count; });
    const float share = grad_out[o] / static_cast<float>(count);
    ForEachTap(g, b, oh, ow, c, [&](std::size_t i) { grad_in[i] += share; });
  });
  return grad_in;
}

std::vector<float> ReferenceMaxPoolGrad(const Geometry& g,
                                        const std::vector<float>& input,
                                        const std::vector<float>& grad_out) {
  std::vector<float> grad_in(
      static_cast<std::size_t>(InShape(g).NumElements()), 0.0f);
  ForEachOutput(g, [&](std::int64_t b, std::int64_t oh, std::int64_t ow,
                       std::int64_t c, std::size_t o) {
    float best = -std::numeric_limits<float>::infinity();
    std::size_t best_idx = 0;
    bool found = false;
    ForEachTap(g, b, oh, ow, c, [&](std::size_t i) {
      if (input[i] > best) {
        best = input[i];
        best_idx = i;
        found = true;
      }
    });
    if (found) grad_in[best_idx] += grad_out[o];
  });
  return grad_in;
}

enum class Values { kSpecials, kTies };

const char* ValuesName(Values v) {
  return v == Values::kSpecials ? "specials" : "ties";
}

// kSpecials: values in [-2, 2), one in four drawn from NaN, +-Inf, +-0 and
// subnormals. kTies: values from {-1, -0, +0, 0.5, 1}, so most max windows
// hold their maximum more than once.
std::vector<float> MakeValues(std::int64_t n, Values kind,
                              std::uint64_t seed) {
  static const float kSpecials[] = {
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -3.0f * std::numeric_limits<float>::denorm_min(),
      1e-39f,
  };
  static const float kTieValues[] = {-1.0f, -0.0f, 0.0f, 0.5f, 1.0f};
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) {
    if (kind == Values::kTies) {
      x = kTieValues[rng.NextBelow(std::size(kTieValues))];
    } else if (rng.NextBelow(4) == 0) {
      x = kSpecials[rng.NextBelow(std::size(kSpecials))];
    } else {
      x = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
  }
  return v;
}

std::uint32_t Bits(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Non-NaN outputs as bit patterns; NaN wherever the reference is NaN.
void ExpectMatches(const std::vector<float>& want,
                   const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const bool ok =
        !Literal::IsOverwritePoison(got[i]) &&
        (std::isnan(want[i]) ? std::isnan(got[i])
                             : Bits(want[i]) == Bits(got[i]));
    if (!ok) {
      ADD_FAILURE() << what << ": element " << i << " is " << got[i]
                    << " (bits " << std::hex << Bits(got[i])
                    << "), reference " << want[i] << " (bits " << Bits(want[i])
                    << ")";
      return;
    }
  }
}

void CheckCase(const Geometry& g, Values kind, std::uint64_t seed) {
  std::ostringstream name;
  name << "in " << InShape(g) << " window " << g.attrs.window_h << "x"
       << g.attrs.window_w << " stride " << g.attrs.stride_h
       << (g.attrs.padding == Padding::kSame ? " SAME" : " VALID") << ", "
       << ValuesName(kind);

  const std::vector<float> input =
      MakeValues(InShape(g).NumElements(), kind, seed);
  const std::vector<float> grad_out =
      MakeValues(OutShape(g).NumElements(), Values::kSpecials, seed + 1);
  const std::vector<float> want_avg = ReferencePool(g, input, false);
  const std::vector<float> want_max = ReferencePool(g, input, true);
  const std::vector<float> want_avg_grad = ReferenceAvgPoolGrad(g, grad_out);
  const std::vector<float> want_max_grad =
      ReferenceMaxPoolGrad(g, input, grad_out);
  const Literal in_lit = Literal::FromVector(InShape(g), input);
  const Literal grad_lit = Literal::FromVector(OutShape(g), grad_out);

  for (int threads : kThreadCounts) {
    SetIntraOpParallelism(threads);
    const std::string at =
        " " + name.str() + " at " + std::to_string(threads) + " threads";
    OpAttrs attrs = g.attrs;
    const auto eval = [&](OpKind kind, const std::vector<Literal>& operands) {
      return EvalOpLiteral(kind, operands, attrs).data.ToVector();
    };
    ExpectMatches(want_avg, eval(OpKind::kAvgPool2D, {in_lit}),
                  "AvgPool2D" + at);
    ExpectMatches(want_max, eval(OpKind::kMaxPool2D, {in_lit}),
                  "MaxPool2D" + at);
    ExpectMatches(want_max_grad,
                  eval(OpKind::kMaxPool2DGrad, {in_lit, grad_lit}),
                  "MaxPool2DGrad" + at);
    attrs.shape = InShape(g).dims();
    ExpectMatches(want_avg_grad, eval(OpKind::kAvgPool2DGrad, {grad_lit}),
                  "AvgPool2DGrad" + at);
  }
  SetIntraOpParallelism(0);
}

TEST_F(PoolKernelsTest, MatchReferenceBitForBit) {
  const std::int64_t kChannels[] = {1, 6, 16, 17};
  const std::int64_t kWindows[] = {1, 2, 3};
  const std::int64_t kStrides[] = {1, 2, 3};
  const Padding kPaddings[] = {Padding::kSame, Padding::kValid};
  std::uint64_t seed = 500;
  for (std::int64_t channels : kChannels) {
    for (std::int64_t window : kWindows) {
      for (std::int64_t stride : kStrides) {
        for (Padding padding : kPaddings) {
          // A 7x8 image: odd and even extents, so SAME pads both unevenly
          // and evenly.
          const Geometry g = MakeGeometry(3, 7, 8, channels, window, window,
                                          stride, padding);
          CheckCase(g, Values::kSpecials, seed++);
          CheckCase(g, Values::kTies, seed++);
          if (HasFailure()) return;
        }
      }
    }
  }
}

// Windows that are not square, and images large enough that the forward
// splits its rows into several shards at 4 threads.
TEST_F(PoolKernelsTest, RectangularWindowsAndNetworkShapesMatchReference) {
  struct Case {
    std::int64_t batch, in_h, in_w, channels, window_h, window_w, stride;
    Padding padding;
  };
  const Case kCases[] = {
      {2, 9, 6, 6, 3, 1, 1, Padding::kSame},
      {2, 6, 9, 17, 1, 3, 2, Padding::kValid},
      {2, 8, 7, 16, 2, 3, 3, Padding::kSame},
      {8, 28, 28, 6, 2, 2, 2, Padding::kValid},   // LeNet pool 1
      {8, 10, 10, 16, 2, 2, 2, Padding::kValid},  // LeNet pool 2
      {4, 32, 32, 17, 3, 3, 1, Padding::kSame},
  };
  std::uint64_t seed = 900;
  for (const Case& c : kCases) {
    const Geometry g = MakeGeometry(c.batch, c.in_h, c.in_w, c.channels,
                                    c.window_h, c.window_w, c.stride,
                                    c.padding);
    CheckCase(g, Values::kSpecials, seed++);
    CheckCase(g, Values::kTies, seed++);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace s4tf
