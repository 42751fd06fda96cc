// Differential test for the three conv kernels: Conv2D, Conv2DBackpropInput
// and Conv2DBackpropFilter. The reference is the plain serial loop nest of
// each op, written here and never calling kernels::*. Its per-element
// accumulation order is the contract of DESIGN.md decision 6:
//   - forward: per output element, (kh, kw, ic) ascending over the valid
//     taps from +0.0f, skipping every term whose input value is zero;
//   - input gradient: per input element, +0.0f plus one oc-ascending dot
//     per contributing output pixel, in ascending (oh, ow) order;
//   - filter gradient: per filter element, (b, oh, ow) ascending from
//     +0.0f, skipping every term whose input value is zero.
//
// The cases cover the cross product of in_c and out_c in {1, 3, 6, 16, 64},
// 1x1, 3x3 and 5x5 filters, stride 1 and 2, SAME and VALID, with widths
// that are not a multiple of 4 pixels and channel counts that are not a
// multiple of 8. Inputs are post-ReLU (zeros of both signs), dense, or hold
// NaN, +-Inf and +-0; filters are dense or hold the same special values.
// Each case runs at 1 and 4 intra-op threads, on the raw kernels and
// through EvalOpLiteral. Non-NaN outputs must match the reference bit for
// bit, including the sign of zero; a NaN output must be NaN, but its sign
// and payload are not compared. Every output element must be written: the
// raw kernels' outputs start as kPoison, and the fixture turns on the
// overwrite poison for EvalOpLiteral's results.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "support/rng.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "tests/tensor/overwrite_poison.h"

namespace s4tf {
namespace {

constexpr int kThreadCounts[] = {1, 4};

class ConvKernelsTest : public ::testing::Test {
  OverwritePoisonScope poison_;
};

struct Geometry {
  std::int64_t batch, in_h, in_w, in_c;
  std::int64_t f_h, f_w, out_c;
  std::int64_t stride;
  Padding padding;
  std::int64_t out_h, out_w, pad_h, pad_w;
};

Geometry MakeGeometry(std::int64_t batch, std::int64_t in_h, std::int64_t in_w,
                      std::int64_t in_c, std::int64_t f, std::int64_t out_c,
                      std::int64_t stride, Padding padding) {
  Geometry g{batch, in_h, in_w, in_c, f, f, out_c, stride, padding,
             0,     0,    0,    0};
  OpAttrs attrs;
  attrs.stride_h = attrs.stride_w = stride;
  attrs.padding = padding;
  const Shape out = InferShape(OpKind::kConv2D,
                               {Shape({batch, in_h, in_w, in_c}),
                                Shape({f, f, in_c, out_c})},
                               attrs);
  g.out_h = out.dim(1);
  g.out_w = out.dim(2);
  g.pad_h = kernels::PadLow(in_h, g.out_h, f, stride, padding);
  g.pad_w = kernels::PadLow(in_w, g.out_w, f, stride, padding);
  return g;
}

Shape InShape(const Geometry& g) {
  return Shape({g.batch, g.in_h, g.in_w, g.in_c});
}
Shape FilterShape(const Geometry& g) {
  return Shape({g.f_h, g.f_w, g.in_c, g.out_c});
}
Shape OutShape(const Geometry& g) {
  return Shape({g.batch, g.out_h, g.out_w, g.out_c});
}

std::vector<float> ReferenceForward(const Geometry& g,
                                    const std::vector<float>& input,
                                    const std::vector<float>& filter) {
  std::vector<float> out(static_cast<std::size_t>(OutShape(g).NumElements()));
  for (std::int64_t b = 0; b < g.batch; ++b) {
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
          float acc = 0.0f;
          for (std::int64_t kh = 0; kh < g.f_h; ++kh) {
            const std::int64_t ih = oh * g.stride + kh - g.pad_h;
            if (ih < 0 || ih >= g.in_h) continue;
            for (std::int64_t kw = 0; kw < g.f_w; ++kw) {
              const std::int64_t iw = ow * g.stride + kw - g.pad_w;
              if (iw < 0 || iw >= g.in_w) continue;
              for (std::int64_t ic = 0; ic < g.in_c; ++ic) {
                const float iv = input[static_cast<std::size_t>(
                    ((b * g.in_h + ih) * g.in_w + iw) * g.in_c + ic)];
                if (iv == 0.0f) continue;
                acc += iv * filter[static_cast<std::size_t>(
                                ((kh * g.f_w + kw) * g.in_c + ic) * g.out_c +
                                oc)];
              }
            }
          }
          out[static_cast<std::size_t>(
              ((b * g.out_h + oh) * g.out_w + ow) * g.out_c + oc)] = acc;
        }
      }
    }
  }
  return out;
}

std::vector<float> ReferenceBackpropInput(const Geometry& g,
                                          const std::vector<float>& grad_out,
                                          const std::vector<float>& filter) {
  std::vector<float> grad_in(
      static_cast<std::size_t>(InShape(g).NumElements()), 0.0f);
  for (std::int64_t b = 0; b < g.batch; ++b) {
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        const float* g_px =
            grad_out.data() + ((b * g.out_h + oh) * g.out_w + ow) * g.out_c;
        for (std::int64_t kh = 0; kh < g.f_h; ++kh) {
          const std::int64_t ih = oh * g.stride + kh - g.pad_h;
          if (ih < 0 || ih >= g.in_h) continue;
          for (std::int64_t kw = 0; kw < g.f_w; ++kw) {
            const std::int64_t iw = ow * g.stride + kw - g.pad_w;
            if (iw < 0 || iw >= g.in_w) continue;
            float* gi_px =
                grad_in.data() + ((b * g.in_h + ih) * g.in_w + iw) * g.in_c;
            const float* f_px =
                filter.data() + (kh * g.f_w + kw) * g.in_c * g.out_c;
            for (std::int64_t ic = 0; ic < g.in_c; ++ic) {
              const float* f_row = f_px + ic * g.out_c;
              float acc = 0.0f;
              for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
                acc += g_px[oc] * f_row[oc];
              }
              gi_px[ic] += acc;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

std::vector<float> ReferenceBackpropFilter(const Geometry& g,
                                           const std::vector<float>& input,
                                           const std::vector<float>& grad_out) {
  std::vector<float> grad_filter(
      static_cast<std::size_t>(FilterShape(g).NumElements()), 0.0f);
  for (std::int64_t kh = 0; kh < g.f_h; ++kh) {
    for (std::int64_t kw = 0; kw < g.f_w; ++kw) {
      float* gf_px = grad_filter.data() + (kh * g.f_w + kw) * g.in_c * g.out_c;
      for (std::int64_t b = 0; b < g.batch; ++b) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
          const std::int64_t ih = oh * g.stride + kh - g.pad_h;
          if (ih < 0 || ih >= g.in_h) continue;
          for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
            const std::int64_t iw = ow * g.stride + kw - g.pad_w;
            if (iw < 0 || iw >= g.in_w) continue;
            const float* g_px =
                grad_out.data() + ((b * g.out_h + oh) * g.out_w + ow) * g.out_c;
            const float* in_px =
                input.data() + ((b * g.in_h + ih) * g.in_w + iw) * g.in_c;
            for (std::int64_t ic = 0; ic < g.in_c; ++ic) {
              const float iv = in_px[ic];
              if (iv == 0.0f) continue;
              float* gf_row = gf_px + ic * g.out_c;
              for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
                gf_row[oc] += iv * g_px[oc];
              }
            }
          }
        }
      }
    }
  }
  return grad_filter;
}

enum class Values { kPostRelu, kDense, kSpecials };

const char* ValuesName(Values v) {
  switch (v) {
    case Values::kPostRelu: return "post-relu";
    case Values::kDense: return "dense";
    case Values::kSpecials: return "specials";
  }
  return "?";
}

std::vector<float> MakeValues(std::int64_t n, Values kind,
                              std::uint64_t seed) {
  static const float kSpecials[] = {
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      0.0f,
      -0.0f,
  };
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) {
    x = static_cast<float>(rng.Uniform(-2.0, 2.0));
    switch (kind) {
      case Values::kPostRelu:
        // About half zeros, a quarter of them -0 (relu(-0) and the
        // gradient mask both produce it).
        if (x <= 0.0f) x = rng.NextBelow(4) == 0 ? -0.0f : 0.0f;
        break;
      case Values::kDense:
        break;
      case Values::kSpecials:
        if (rng.NextBelow(8) == 0) {
          x = kSpecials[rng.NextBelow(std::size(kSpecials))];
        }
        break;
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

// A poison value the kernels must overwrite: every output element is
// written, including ones no tap reaches.
constexpr float kPoison = -12345.0f;

void CheckCase(const Geometry& g, Values in_kind, Values f_kind,
               std::uint64_t seed) {
  std::ostringstream name;
  name << "in " << InShape(g) << " filter " << FilterShape(g) << " stride "
       << g.stride << (g.padding == Padding::kSame ? " SAME" : " VALID")
       << ", " << ValuesName(in_kind) << " input, " << ValuesName(f_kind)
       << " filter";

  const std::vector<float> input =
      MakeValues(InShape(g).NumElements(), in_kind, seed);
  const std::vector<float> filter =
      MakeValues(FilterShape(g).NumElements(), f_kind, seed + 1);
  // The output gradient is dense, or holds specials along with the
  // filter, so the input gradient also sees NaN and Inf.
  const std::vector<float> grad_out =
      MakeValues(OutShape(g).NumElements(), f_kind, seed + 2);

  const std::vector<float> want_out = ReferenceForward(g, input, filter);
  const std::vector<float> want_gi =
      ReferenceBackpropInput(g, grad_out, filter);
  const std::vector<float> want_gf =
      ReferenceBackpropFilter(g, input, grad_out);
  const Literal in_lit = Literal::FromVector(InShape(g), input);
  const Literal filter_lit = Literal::FromVector(FilterShape(g), filter);
  const Literal grad_lit = Literal::FromVector(OutShape(g), grad_out);

  for (int threads : kThreadCounts) {
    SetIntraOpParallelism(threads);
    const std::string at = " at " + std::to_string(threads) + " threads";
    std::vector<float> out(want_out.size(), kPoison);
    kernels::Conv2D(input.data(), InShape(g), filter.data(), FilterShape(g),
                    out.data(), OutShape(g), g.stride, g.stride, g.padding);
    ExpectMatches(want_out, out, "Conv2D " + name.str() + at);

    std::vector<float> gi(want_gi.size(), kPoison);
    kernels::Conv2DBackpropInput(grad_out.data(), OutShape(g), filter.data(),
                                 FilterShape(g), gi.data(), InShape(g),
                                 g.stride, g.stride, g.padding);
    ExpectMatches(want_gi, gi, "Conv2DBackpropInput " + name.str() + at);

    std::vector<float> gf(want_gf.size(), kPoison);
    kernels::Conv2DBackpropFilter(input.data(), InShape(g), grad_out.data(),
                                  OutShape(g), gf.data(), FilterShape(g),
                                  g.stride, g.stride, g.padding);
    ExpectMatches(want_gf, gf, "Conv2DBackpropFilter " + name.str() + at);

    OpAttrs attrs;
    attrs.stride_h = attrs.stride_w = g.stride;
    attrs.padding = g.padding;
    const auto eval = [&](OpKind kind, const std::vector<Literal>& operands) {
      return EvalOpLiteral(kind, operands, attrs).data.ToVector();
    };
    const std::string literal = " through EvalOpLiteral";
    ExpectMatches(want_out, eval(OpKind::kConv2D, {in_lit, filter_lit}),
                  "Conv2D " + name.str() + at + literal);
    attrs.shape = InShape(g).dims();
    ExpectMatches(want_gi,
                  eval(OpKind::kConv2DBackpropInput, {grad_lit, filter_lit}),
                  "Conv2DBackpropInput " + name.str() + at + literal);
    attrs.shape = FilterShape(g).dims();
    ExpectMatches(want_gf,
                  eval(OpKind::kConv2DBackpropFilter, {in_lit, grad_lit}),
                  "Conv2DBackpropFilter " + name.str() + at + literal);
  }
  SetIntraOpParallelism(0);
}

// The full cross product is 300 geometries x 3 input kinds x 2 filter
// kinds. Each geometry runs all three input kinds and alternates the filter
// kind between them; the alternation shifts by one per (in_c, out_c) pair,
// so both filter kinds meet every channel count, filter size, stride and
// padding. The image width rotates through 5, 9 and 13 columns (none a
// multiple of 4 output pixels at stride 1) the same way.
TEST_F(ConvKernelsTest, MatchReferenceBitForBit) {
  const std::int64_t kChannels[] = {1, 3, 6, 16, 64};
  const std::int64_t kFilters[] = {1, 3, 5};
  const std::int64_t kStrides[] = {1, 2};
  const Padding kPaddings[] = {Padding::kSame, Padding::kValid};
  const Values kInputs[] = {Values::kPostRelu, Values::kDense,
                            Values::kSpecials};
  const Values kFilterValues[] = {Values::kDense, Values::kSpecials};
  const std::int64_t kWidths[] = {5, 9, 13};

  std::uint64_t index = 0;
  for (std::int64_t in_c : kChannels) {
    for (std::int64_t out_c : kChannels) {
      for (std::int64_t f : kFilters) {
        for (std::int64_t stride : kStrides) {
          for (Padding padding : kPaddings) {
            const std::uint64_t block = index / 12;  // one (in_c, out_c)
            const std::int64_t in_w = kWidths[(index / 2 + block) % 3];
            // Keep the widest channel pairs on small images.
            const std::int64_t in_h = in_c * out_c >= 1024 ? 5 : 7;
            const Geometry g = MakeGeometry(2, in_h, in_w, in_c, f, out_c,
                                            stride, padding);
            for (std::uint64_t i = 0; i < 3; ++i) {
              CheckCase(g, kInputs[i], kFilterValues[(index + block + i) % 2],
                        1000 + 3 * index + i);
            }
            if (HasFailure()) return;
            ++index;
          }
        }
      }
    }
  }
}

// Wider images, so the row shards, the pixel blocks and the k-blocks of
// the filter gradient all have several edges, at LeNet and ResNet shapes.
TEST_F(ConvKernelsTest, NetworkShapesMatchReference) {
  struct Case {
    std::int64_t batch, in_hw, in_c, f, out_c, stride;
    Padding padding;
  };
  const Case kCases[] = {
      {3, 28, 1, 5, 6, 1, Padding::kSame},     // LeNet conv1
      {3, 14, 6, 5, 16, 1, Padding::kValid},   // LeNet conv2
      {2, 18, 16, 3, 16, 1, Padding::kSame},   // ResNet stage 1
      {2, 10, 32, 3, 32, 1, Padding::kSame},   // ResNet stage 2
      {2, 8, 16, 1, 32, 2, Padding::kSame},    // ResNet 1x1 projection
      {2, 17, 16, 3, 32, 2, Padding::kSame},   // odd width, stride 2
  };
  std::uint64_t seed = 77;
  for (const Case& c : kCases) {
    const Geometry g = MakeGeometry(c.batch, c.in_hw, c.in_hw, c.in_c, c.f,
                                    c.out_c, c.stride, c.padding);
    CheckCase(g, Values::kPostRelu, Values::kDense, seed++);
    CheckCase(g, Values::kSpecials, Values::kSpecials, seed++);
    if (HasFailure()) return;
  }
}

// Each conv call opens exactly one parallel region when its sharded
// dimension is non-empty (the region counter is an artifact counter), and
// zero-size dims produce empty or zero-filled outputs.
TEST_F(ConvKernelsTest, OneRegionPerCallIncludingZeroSizeDims) {
  obs::Counter* regions = obs::GetCounter("support.parallel_for.regions");
  SetIntraOpParallelism(4);
  struct Case {
    std::int64_t batch, in_hw, in_c, out_c;
  };
  const Case kCases[] = {{2, 6, 3, 4}, {2, 6, 0, 4}, {2, 6, 3, 0}};
  for (const Case& c : kCases) {
    const Geometry g =
        MakeGeometry(c.batch, c.in_hw, c.in_hw, c.in_c, 3, c.out_c, 1,
                     Padding::kSame);
    const std::vector<float> input(
        static_cast<std::size_t>(InShape(g).NumElements()), 1.0f);
    const std::vector<float> filter(
        static_cast<std::size_t>(FilterShape(g).NumElements()), 1.0f);
    const std::vector<float> grad_out(
        static_cast<std::size_t>(OutShape(g).NumElements()), 1.0f);
    std::vector<float> out(grad_out.size(), kPoison);
    std::vector<float> gi(input.size(), kPoison);
    std::vector<float> gf(filter.size(), kPoison);

    std::int64_t before = regions->value();
    kernels::Conv2D(input.data(), InShape(g), filter.data(), FilterShape(g),
                    out.data(), OutShape(g), 1, 1, g.padding);
    EXPECT_EQ(regions->value() - before, 1);
    ExpectMatches(ReferenceForward(g, input, filter), out, "Conv2D");

    before = regions->value();
    kernels::Conv2DBackpropInput(grad_out.data(), OutShape(g), filter.data(),
                                 FilterShape(g), gi.data(), InShape(g), 1, 1,
                                 g.padding);
    EXPECT_EQ(regions->value() - before, 1);
    ExpectMatches(ReferenceBackpropInput(g, grad_out, filter), gi,
                  "Conv2DBackpropInput");

    before = regions->value();
    kernels::Conv2DBackpropFilter(input.data(), InShape(g), grad_out.data(),
                                  OutShape(g), gf.data(), FilterShape(g), 1, 1,
                                  g.padding);
    EXPECT_EQ(regions->value() - before, 1);
    ExpectMatches(ReferenceBackpropFilter(g, input, grad_out), gf,
                  "Conv2DBackpropFilter");
  }
  // An empty batch opens no region in any of the three.
  const Geometry g = MakeGeometry(0, 6, 6, 3, 3, 4, 1, Padding::kSame);
  const std::vector<float> filter(
      static_cast<std::size_t>(FilterShape(g).NumElements()), 1.0f);
  std::vector<float> gf(filter.size(), kPoison);
  const std::int64_t before = regions->value();
  kernels::Conv2D(nullptr, InShape(g), filter.data(), FilterShape(g), nullptr,
                  OutShape(g), 1, 1, g.padding);
  kernels::Conv2DBackpropInput(nullptr, OutShape(g), filter.data(),
                               FilterShape(g), nullptr, InShape(g), 1, 1,
                               g.padding);
  EXPECT_EQ(regions->value() - before, 0);
  // The filter gradient opens a region whenever the filter has taps, and
  // its output is zeros.
  kernels::Conv2DBackpropFilter(nullptr, InShape(g), nullptr, OutShape(g),
                                gf.data(), FilterShape(g), 1, 1, g.padding);
  EXPECT_EQ(regions->value() - before, 1);
  for (float v : gf) EXPECT_EQ(Bits(v), Bits(0.0f));
  SetIntraOpParallelism(0);
}

}  // namespace
}  // namespace s4tf
