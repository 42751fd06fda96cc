// Compiler-depth suite: epilogue fusion into MatMul/Conv2D, the
// liveness-based buffer-reuse planner, and the tiled inner loops.
//
// The load-bearing contract under test is bit-determinism: an
// epilogue-fused program must produce results byte-identical to its
// unfused twin for ANY intra-op thread count, because the fused kernels
// evaluate the exact same float expressions in the exact same order —
// only the trips through memory change. Everything else (kernel counts,
// byte counters, arena footprints) is the deterministic perf signal.
#include "xla/compiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "lazy/lazy_tensor.h"
#include "obs/metrics.h"
#include "support/rng.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tests/ad/gradient_check.h"
#include "tests/integration/random_plan.h"
#include "tests/tensor/overwrite_poison.h"

namespace s4tf::xla {
namespace {

Literal RandomLiteral(const Shape& shape, std::uint64_t seed,
                      float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  std::vector<float> values(static_cast<std::size_t>(shape.NumElements()));
  rng.FillUniform(values.data(), values.size(), lo, hi);
  return Literal::FromVector(shape, std::move(values));
}

// relu(matmul(a, b) + bias): the canonical dense-layer epilogue chain.
// ids: a=0, b=1, bias=2, matmul=3, add=4, relu=5 (root).
HloModule MatMulBiasRelu(std::int64_t m = 5, std::int64_t k = 7,
                         std::int64_t n = 66) {
  HloModule mod("matmul_bias_relu");
  const HloId a = mod.AddParameter(Shape({m, k}), 0);
  const HloId b = mod.AddParameter(Shape({k, n}), 1);
  const HloId bias = mod.AddParameter(Shape({n}), 2);
  const HloId mm = mod.AddInstruction(OpKind::kMatMul, {a, b});
  const HloId add = mod.AddInstruction(OpKind::kAdd, {mm, bias});
  mod.AddRoot(mod.AddInstruction(OpKind::kRelu, {add}));
  return mod;
}

// relu(conv2d(x, f) + bias) over NHWC.
HloModule ConvBiasRelu() {
  HloModule mod("conv_bias_relu");
  const HloId x = mod.AddParameter(Shape({2, 5, 6, 3}), 0);
  const HloId f = mod.AddParameter(Shape({3, 3, 3, 66}), 1);
  const HloId bias = mod.AddParameter(Shape({66}), 2);
  OpAttrs attrs;
  attrs.stride_h = 1;
  attrs.stride_w = 1;
  attrs.padding = Padding::kSame;
  const HloId conv = mod.AddInstruction(OpKind::kConv2D, {x, f}, attrs);
  const HloId add = mod.AddInstruction(OpKind::kAdd, {conv, bias});
  mod.AddRoot(mod.AddInstruction(OpKind::kRelu, {add}));
  return mod;
}

std::vector<Literal> MatMulBiasReluInputs(std::int64_t m = 5,
                                          std::int64_t k = 7,
                                          std::int64_t n = 66) {
  return {RandomLiteral(Shape({m, k}), 11), RandomLiteral(Shape({k, n}), 12),
          RandomLiteral(Shape({n}), 13)};
}

CompileOptions Unfused() {
  CompileOptions options;
  options.enable_fusion = false;
  return options;
}

CompileOptions NoEpilogue() {
  CompileOptions options;
  options.enable_epilogue_fusion = false;
  return options;
}

std::int64_t DeltaOf(const std::map<std::string, std::int64_t>& delta,
                     const std::string& name) {
  auto it = delta.find(name);
  return it == delta.end() ? 0 : it->second;
}

// --- Epilogue chain analysis. ----------------------------------------------

TEST(EpilogueChainTest, MatMulBiasReluFormsOneChain) {
  const HloModule m = MatMulBiasRelu();
  const auto chains = ComputeEpilogueChains(m);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchor, 3);
  EXPECT_EQ(chains[0].ops, (std::vector<HloId>{4, 5}));
  EXPECT_EQ(chains[0].result(), 5);
}

TEST(EpilogueChainTest, ResidualAndScaleExtendTheChain) {
  // relu(residual + matmul(a, b) * 0.5): a commuted full-shape add plus a
  // scalar-attr scale, both folding into the anchor.
  HloModule m("residual");
  const HloId a = m.AddParameter(Shape({4, 8}), 0);
  const HloId b = m.AddParameter(Shape({8, 16}), 1);
  const HloId res = m.AddParameter(Shape({4, 16}), 2);
  const HloId mm = m.AddInstruction(OpKind::kMatMul, {a, b});
  const HloId scale =
      m.AddInstruction(OpKind::kMulScalar, {mm}, OpAttrs{.scalar = 0.5f});
  const HloId add = m.AddInstruction(OpKind::kAdd, {res, scale});  // commuted
  m.AddRoot(m.AddInstruction(OpKind::kRelu, {add}));
  const auto chains = ComputeEpilogueChains(m);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchor, mm);
  EXPECT_EQ(chains[0].ops, (std::vector<HloId>{scale, add, add + 1}));

  // And the whole thing executes as one kernel with correct numerics.
  const auto fused = Compile(m).executable;
  EXPECT_EQ(fused->kernel_count(), 1);
  EXPECT_EQ(fused->epilogue_folded_ops(), 3);
  const std::vector<Literal> inputs = {RandomLiteral(Shape({4, 8}), 21),
                                       RandomLiteral(Shape({8, 16}), 22),
                                       RandomLiteral(Shape({4, 16}), 23)};
  const auto unfused = Compile(m, Unfused()).executable;
  EXPECT_EQ(fused->Run(inputs)[0].data.ToVector(),
            unfused->Run(inputs)[0].data.ToVector());
}

TEST(EpilogueChainTest, MultiUseValueEndsTheChainButStillMaterializes) {
  // The add feeds both the relu and a second root. It can still be the
  // chain RESULT (results materialize), but the chain must stop there —
  // the relu reads the materialized add like any other consumer.
  HloModule m("multi_use");
  const HloId a = m.AddParameter(Shape({4, 4}), 0);
  const HloId mm = m.AddInstruction(OpKind::kMatMul, {a, a});
  const HloId add = m.AddInstruction(OpKind::kAdd, {mm, a});
  const HloId relu = m.AddInstruction(OpKind::kRelu, {add});
  m.AddRoot(relu);
  m.AddRoot(add);
  const auto chains = ComputeEpilogueChains(m);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchor, mm);
  EXPECT_EQ(chains[0].ops, (std::vector<HloId>{add}));
  // Both roots come out right: the multi-use add really materialized.
  const std::vector<Literal> inputs = {RandomLiteral(Shape({4, 4}), 33)};
  const auto fused_out = Compile(m).executable->Run(inputs);
  const auto unfused_out = Compile(m, Unfused()).executable->Run(inputs);
  ASSERT_EQ(fused_out.size(), 2u);
  EXPECT_EQ(fused_out[0].data.ToVector(), unfused_out[0].data.ToVector());
  EXPECT_EQ(fused_out[1].data.ToVector(), unfused_out[1].data.ToVector());
}

TEST(EpilogueChainTest, ChainStopsAtShapeChange) {
  // reduce_sum changes shape; the chain ends at the relu before it.
  HloModule m("shape_change");
  const HloId a = m.AddParameter(Shape({4, 4}), 0);
  const HloId mm = m.AddInstruction(OpKind::kMatMul, {a, a});
  const HloId relu = m.AddInstruction(OpKind::kRelu, {mm});
  m.AddRoot(m.AddInstruction(OpKind::kReduceSum, {relu}));
  const auto chains = ComputeEpilogueChains(m);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].ops, (std::vector<HloId>{relu}));
}

TEST(EpilogueChainTest, TwoAnchorsMeetingAtOneAddDoNotBothFold) {
  // add(mm1, mm2): whichever chain claims the add, the OTHER matmul's
  // output must still materialize — a chain may not reference a folded
  // (never-materialized) value as its external operand.
  HloModule m("two_anchors");
  const HloId a = m.AddParameter(Shape({4, 4}), 0);
  const HloId b = m.AddParameter(Shape({4, 4}), 1);
  const HloId mm1 = m.AddInstruction(OpKind::kMatMul, {a, b});
  const HloId mm2 = m.AddInstruction(OpKind::kMatMul, {b, a});
  m.AddRoot(m.AddInstruction(OpKind::kAdd, {mm1, mm2}));
  const auto chains = ComputeEpilogueChains(m);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchor, mm1);  // id order: mm1 wins the add
  const std::vector<Literal> inputs = {RandomLiteral(Shape({4, 4}), 31),
                                       RandomLiteral(Shape({4, 4}), 32)};
  EXPECT_EQ(Compile(m).executable->Run(inputs)[0].data.ToVector(),
            Compile(m, Unfused()).executable->Run(inputs)[0].data.ToVector());
}

// --- Fused execution: kernel counts, counters, bitwise equality. -----------

TEST(EpilogueExecTest, FusedProgramIsOneKernelInsteadOfThree) {
  const HloModule m = MatMulBiasRelu();
  const auto fused = Compile(m).executable;
  const auto unfused = Compile(m, Unfused()).executable;
  EXPECT_EQ(fused->kernel_count(), 1);
  EXPECT_EQ(fused->epilogue_folded_ops(), 2);
  EXPECT_EQ(unfused->kernel_count(), 3);
  EXPECT_EQ(unfused->epilogue_folded_ops(), 0);
}

TEST(EpilogueExecTest, FusedMatchesUnfusedBitwiseForAnyThreadCount) {
  const HloModule m = MatMulBiasRelu();
  const auto fused = Compile(m).executable;
  const auto unfused = Compile(m, Unfused()).executable;
  const auto inputs = MatMulBiasReluInputs();
  SetIntraOpParallelism(1);
  const std::vector<float> reference =
      unfused->Run(inputs)[0].data.ToVector();
  for (int threads : {1, 2, 4}) {
    SetIntraOpParallelism(threads);
    EXPECT_EQ(fused->Run(inputs)[0].data.ToVector(), reference)
        << "fused, threads=" << threads;
    EXPECT_EQ(unfused->Run(inputs)[0].data.ToVector(), reference)
        << "unfused, threads=" << threads;
  }
  SetIntraOpParallelism(0);
}

TEST(EpilogueExecTest, ConvBiasReluFusedBitwise) {
  const HloModule m = ConvBiasRelu();
  const auto fused = Compile(m).executable;
  const auto unfused = Compile(m, Unfused()).executable;
  EXPECT_EQ(fused->kernel_count(), 1);
  const std::vector<Literal> inputs = {
      RandomLiteral(Shape({2, 5, 6, 3}), 41),
      RandomLiteral(Shape({3, 3, 3, 66}), 42),
      RandomLiteral(Shape({66}), 43)};
  SetIntraOpParallelism(1);
  const std::vector<float> reference =
      unfused->Run(inputs)[0].data.ToVector();
  for (int threads : {1, 2, 4}) {
    SetIntraOpParallelism(threads);
    EXPECT_EQ(fused->Run(inputs)[0].data.ToVector(), reference)
        << "threads=" << threads;
  }
  SetIntraOpParallelism(0);
}

TEST(EpilogueExecTest, FusedDispatchAndByteCountersShrink) {
  // Satellite: tensor.kernel.bytes must reflect that the fused kernel
  // only touches external operands — bias + output once instead of the
  // matmul result spilling and reloading through two elementwise ops.
  const std::int64_t m = 5, k = 7, n = 66;
  const HloModule mod = MatMulBiasRelu(m, k, n);
  const auto inputs = MatMulBiasReluInputs(m, k, n);
  const auto fused = Compile(mod).executable;
  const auto unfused = Compile(mod, Unfused()).executable;

  const auto before_fused = obs::MetricsRegistry::Global().Snapshot();
  (void)fused->Run(inputs);
  const auto fused_delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before_fused);
  const auto before_unfused = obs::MetricsRegistry::Global().Snapshot();
  (void)unfused->Run(inputs);
  const auto unfused_delta = obs::MetricsRegistry::Global()
                                 .Snapshot()
                                 .CounterDeltaSince(before_unfused);

  EXPECT_EQ(DeltaOf(fused_delta, "tensor.kernel.dispatches"), 1);
  EXPECT_EQ(DeltaOf(fused_delta, "tensor.kernel.dispatch.fused_epilogue"), 1);
  EXPECT_EQ(DeltaOf(fused_delta, "tensor.kernel.fused.epilogue_ops"), 2);
  EXPECT_EQ(DeltaOf(unfused_delta, "tensor.kernel.dispatches"), 3);
  EXPECT_EQ(DeltaOf(unfused_delta, "tensor.kernel.dispatch.fused_epilogue"),
            0);

  // Exact byte accounting (4 bytes/element). Fused: a + b + bias + out.
  // Unfused adds the matmul result spilling once and reloading twice.
  const std::int64_t out = m * n;
  const std::int64_t fused_bytes = 4 * (m * k + k * n + n + out);
  const std::int64_t unfused_bytes =
      4 * ((m * k + k * n + out) + (out + n + out) + (out + out));
  EXPECT_EQ(DeltaOf(fused_delta, "tensor.kernel.bytes"), fused_bytes);
  EXPECT_EQ(DeltaOf(unfused_delta, "tensor.kernel.bytes"), unfused_bytes);
  EXPECT_LT(fused_bytes, unfused_bytes);
}

TEST(EpilogueExecTest, FusedKernelChargesLessDeviceTime) {
  const HloModule m = MatMulBiasRelu();
  SimAccelerator fused_acc(AcceleratorSpec::TpuV3Core());
  SimAccelerator unfused_acc(AcceleratorSpec::TpuV3Core());
  Compile(m).executable->ChargeTo(fused_acc);
  Compile(m, Unfused()).executable->ChargeTo(unfused_acc);
  EXPECT_LT(fused_acc.elapsed_seconds(), unfused_acc.elapsed_seconds());
  EXPECT_EQ(fused_acc.kernels_launched(), 1);
  EXPECT_EQ(unfused_acc.kernels_launched(), 3);
}

// --- Every elementwise op as an epilogue link. -----------------------------
//
// Each case folds one link into a MatMul anchor and into a Conv2D anchor
// (EvalFusedOpLiteral) and compares the result, bit for bit, with the
// anchor evaluated alone followed by the standalone op (EvalOpLiteral).
// The output width 70 splits the 64-wide register tile.

constexpr std::int64_t kLinkWidth = 70;

// Anchor outputs and epilogue operands cycle through these, so every float
// expression sees NaN, +-Inf, -0, subnormals and negatives.
std::vector<float> SpecialFloats(bool finite_only = false) {
  std::vector<float> values = {std::numeric_limits<float>::quiet_NaN(),
                               std::numeric_limits<float>::infinity(),
                               -std::numeric_limits<float>::infinity(),
                               -0.0f,
                               std::numeric_limits<float>::denorm_min(),
                               -3.0e-39f,
                               -2.5f,
                               -0.75f,
                               0.5f,
                               3.0f};
  if (finite_only) {
    std::erase_if(values, [](float v) { return !std::isfinite(v); });
  }
  return values;
}

// Uniform values in [-2, 2] with SpecialFloats() written over every third
// element.
Literal SpecialLiteral(const Shape& shape, std::uint64_t seed,
                       bool finite_only = false) {
  std::vector<float> values =
      RandomLiteral(shape, seed, -2.0f, 2.0f).data.ToVector();
  const std::vector<float> specials = SpecialFloats(finite_only);
  for (std::size_t i = 0; i < values.size(); i += 3) {
    values[i] = specials[(i / 3) % specials.size()];
  }
  return Literal::FromVector(shape, std::move(values));
}

Literal Identity(std::int64_t n, const Shape& shape) {
  std::vector<float> values(static_cast<std::size_t>(n * n), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    values[static_cast<std::size_t>(i * n + i)] = 1.0f;
  }
  return Literal::FromVector(shape, std::move(values));
}

struct LinkAnchor {
  const char* name;
  OpKind kind;
  std::vector<Literal> inputs;
  OpAttrs attrs;
  Shape out;
};

// identity x B: with the kernel's zero-skip every output element is
// 0 + 1 * B[i][j], so B's NaNs, infinities and subnormals reach the
// epilogue unchanged.
LinkAnchor MatMulLinkAnchor() {
  const std::int64_t m = 6;
  return {"matmul",
          OpKind::kMatMul,
          {Identity(m, Shape({m, m})),
           SpecialLiteral(Shape({m, kLinkWidth}), 91)},
          {},
          Shape({m, kLinkWidth})};
}

// A 1x1 identity filter over finite inputs: an infinite input would turn
// its off-diagonal taps (Inf * 0) into NaN.
LinkAnchor Conv2DLinkAnchor() {
  const std::int64_t c = kLinkWidth;
  return {"conv2d",
          OpKind::kConv2D,
          {SpecialLiteral(Shape({1, 2, 3, c}), 92, /*finite_only=*/true),
           Identity(c, Shape({1, 1, c, c}))},
          {},
          Shape({1, 2, 3, c})};
}

std::vector<std::uint32_t> Bits(const Literal& literal) {
  const std::vector<float> values = literal.data.ToVector();
  std::vector<std::uint32_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(float));
  return bits;
}

// Fused anchor + link vs. the anchor alone followed by the standalone op,
// at 1 and 4 intra-op threads. `operand` is the link's external operand
// (nullptr for unary links).
void ExpectLinkMatchesStandalone(const LinkAnchor& anchor,
                                 const kernels::EpilogueOp& link,
                                 const Literal* operand) {
  std::vector<const Literal*> inputs;
  for (const Literal& in : anchor.inputs) inputs.push_back(&in);
  for (int threads : {1, 4}) {
    SetIntraOpParallelism(threads);
    const Literal value = EvalOpLiteral(anchor.kind, inputs, anchor.attrs);
    std::vector<const Literal*> link_inputs = {&value};
    if (operand != nullptr) {
      link_inputs.push_back(operand);
      if (link.commuted) std::swap(link_inputs[0], link_inputs[1]);
    }
    const std::vector<std::uint32_t> standalone =
        Bits(EvalOpLiteral(link.kind, link_inputs, link.attrs));
    const std::vector<std::uint32_t> fused =
        Bits(EvalFusedOpLiteral(anchor.kind, inputs, anchor.attrs, {link}));
    ASSERT_EQ(fused.size(), standalone.size());
    const auto diff =
        std::mismatch(fused.begin(), fused.end(), standalone.begin());
    EXPECT_TRUE(diff.first == fused.end())
        << anchor.name << " + " << OpName(link.kind)
        << " map=" << static_cast<int>(link.map)
        << " commuted=" << link.commuted << " threads=" << threads
        << ": element " << (diff.first - fused.begin()) << " differs";
  }
  SetIntraOpParallelism(0);
}

TEST(EpilogueLinkTest, EveryUnaryLinkMatchesStandaloneBitwise) {
  struct Unary {
    OpKind kind;
    float scalar;
  };
  const Unary unaries[] = {
      {OpKind::kNeg, 0.0f},        {OpKind::kExp, 0.0f},
      {OpKind::kLog, 0.0f},        {OpKind::kTanh, 0.0f},
      {OpKind::kSqrt, 0.0f},       {OpKind::kRsqrt, 0.0f},
      {OpKind::kSquare, 0.0f},     {OpKind::kRelu, 0.0f},
      {OpKind::kSigmoid, 0.0f},    {OpKind::kAbs, 0.0f},
      {OpKind::kAddScalar, 0.25f}, {OpKind::kMulScalar, -3.0f},
      {OpKind::kPowScalar, 0.5f},  {OpKind::kLeakyRelu, 0.1f}};
  for (const LinkAnchor& anchor : {MatMulLinkAnchor(), Conv2DLinkAnchor()}) {
    for (const Unary& unary : unaries) {
      kernels::EpilogueOp link;
      link.kind = unary.kind;
      link.attrs.scalar = unary.scalar;
      ExpectLinkMatchesStandalone(anchor, link, nullptr);
    }
  }
}

TEST(EpilogueLinkTest, EveryBinaryLinkMatchesStandaloneBitwise) {
  using Map = kernels::EpilogueOp::Map;
  const OpKind binaries[] = {OpKind::kAdd,     OpKind::kSub,
                             OpKind::kMul,     OpKind::kDiv,
                             OpKind::kMaximum, OpKind::kMinimum,
                             OpKind::kPow,     OpKind::kGreater};
  for (const LinkAnchor& anchor : {MatMulLinkAnchor(), Conv2DLinkAnchor()}) {
    // One scalar operand per special value, then a bias row and a residual.
    std::vector<std::pair<Map, Literal>> operands;
    for (float v : SpecialFloats()) {
      operands.emplace_back(Map::kScalar, Literal::FromVector(Shape({}), {v}));
    }
    operands.emplace_back(Map::kLastDim,
                          SpecialLiteral(Shape({kLinkWidth}), 93));
    operands.emplace_back(Map::kFull, SpecialLiteral(anchor.out, 94));
    for (OpKind kind : binaries) {
      for (const auto& [map, operand] : operands) {
        for (bool commuted : {false, true}) {
          kernels::EpilogueOp link;
          link.kind = kind;
          link.map = map;
          link.commuted = commuted;
          link.operand = operand.data.data();
          link.operand_elements = operand.size();
          ExpectLinkMatchesStandalone(anchor, link, &operand);
        }
      }
    }
  }
}

// --- External-bytes accounting (the double-count fix). ---------------------

TEST(ExternalBytesTest, SharedInputCountedOncePerFusedGroup) {
  // Both links of the fused elementwise group read parameter c; the
  // group's external traffic must count c once, not twice.
  HloModule m("shared_input");
  const HloId p = m.AddParameter(Shape({64}), 0);
  const HloId c = m.AddParameter(Shape({64}), 1);
  const HloId e = m.AddInstruction(OpKind::kExp, {p});
  const HloId mul = m.AddInstruction(OpKind::kMul, {e, c});
  m.AddRoot(m.AddInstruction(OpKind::kAdd, {mul, c}));
  CompileOptions options;
  options.enable_epilogue_fusion = false;  // plain elementwise group
  const auto exe = Compile(m, options).executable;
  ASSERT_EQ(exe->kernel_count(), 1);
  // Externals: p, c (deduped) in; the root out. 3 * 64 floats.
  EXPECT_EQ(exe->kernels()[0].external_bytes, 3 * 64 * 4);
}

TEST(ExternalBytesTest, SingletonKernelsKeepPerOccurrenceBytes) {
  // With fusion off every kernel is a singleton and keeps the legacy
  // roofline accounting: add(e, e) reads its operand twice.
  HloModule m("singleton");
  const HloId p = m.AddParameter(Shape({64}), 0);
  const HloId e = m.AddInstruction(OpKind::kExp, {p});
  m.AddRoot(m.AddInstruction(OpKind::kAdd, {e, e}));
  const auto exe = Compile(m, Unfused()).executable;
  ASSERT_EQ(exe->kernel_count(), 2);
  EXPECT_EQ(exe->kernels()[1].external_bytes, 3 * 64 * 4);  // e + e + out
}

// --- Deterministic partitions. ---------------------------------------------

TEST(DeterminismTest, PipelineTwiceYieldsIdenticalPartitions) {
  // CSE -> DCE -> fusion run twice over the same trace must produce
  // identical, canonical fused-kernel partitions.
  auto build = [] {
    HloModule m("dup_trace");
    const HloId a = m.AddParameter(Shape({4, 8}), 0);
    const HloId b = m.AddParameter(Shape({8, 66}), 1);
    const HloId bias = m.AddParameter(Shape({66}), 2);
    const HloId mm1 = m.AddInstruction(OpKind::kMatMul, {a, b});
    const HloId mm2 = m.AddInstruction(OpKind::kMatMul, {a, b});  // CSE bait
    const HloId add = m.AddInstruction(OpKind::kAdd, {mm1, bias});
    (void)m.AddInstruction(OpKind::kExp, {mm2});  // DCE bait
    m.AddRoot(m.AddInstruction(OpKind::kRelu, {add}));
    return m;
  };
  const auto first = Compile(build()).executable;
  const auto second = Compile(build()).executable;
  ASSERT_EQ(first->kernel_count(), second->kernel_count());
  for (std::int64_t i = 0; i < first->kernel_count(); ++i) {
    EXPECT_EQ(first->kernels()[i].instructions,
              second->kernels()[i].instructions);
    EXPECT_EQ(first->kernels()[i].external_bytes,
              second->kernels()[i].external_bytes);
  }
}

TEST(DeterminismTest, GroupIdsAreCanonicalizedToMinMember) {
  const HloModule m = MatMulBiasRelu();
  const auto groups = ComputeFusionGroups(m, ComputeEpilogueChains(m));
  // matmul=3, add=4, relu=5 all carry the minimum member id.
  EXPECT_EQ(groups[3], 3);
  EXPECT_EQ(groups[4], 3);
  EXPECT_EQ(groups[5], 3);
}

// --- Pass gating (legacy byte-identity). -----------------------------------

TEST(PassGatingTest, FusionOffDisablesEpiloguesAndArena) {
  const HloModule m = MatMulBiasRelu();
  const auto exe = Compile(m, Unfused()).executable;
  EXPECT_EQ(exe->kernel_count(), 3);  // one singleton per non-param op
  for (const FusedKernel& k : exe->kernels()) {
    EXPECT_EQ(k.instructions.size(), 1u);
  }
  EXPECT_EQ(exe->epilogue_folded_ops(), 0);
  EXPECT_EQ(exe->arena_peak_bytes(), 0);
  EXPECT_EQ(exe->arena_unreused_bytes(), 0);
  EXPECT_EQ(exe->arena_charge_bytes(), 0);
}

TEST(PassGatingTest, EpilogueOffStillFusesElementwise) {
  const HloModule m = MatMulBiasRelu();
  const auto exe = Compile(m, NoEpilogue()).executable;
  // add + relu fuse as a plain elementwise group; the matmul stays alone.
  EXPECT_EQ(exe->kernel_count(), 2);
  EXPECT_EQ(exe->epilogue_folded_ops(), 0);
  EXPECT_GT(exe->arena_charge_bytes(), 0);  // arena still applies
  const auto inputs = MatMulBiasReluInputs();
  EXPECT_EQ(exe->Run(inputs)[0].data.ToVector(),
            Compile(m).executable->Run(inputs)[0].data.ToVector());
}

// --- Buffer-reuse planner. -------------------------------------------------

TEST(BufferPlanTest, ChainOfMatMulsReusesSlots) {
  // m3(m2(m1(p,p),p),p): three 64x64 intermediates, but only two are ever
  // live at once, so the arena peaks at 2 slots.
  HloModule m("matmul_chain");
  const HloId p = m.AddParameter(Shape({64, 64}), 0);
  const HloId m1 = m.AddInstruction(OpKind::kMatMul, {p, p});
  const HloId m2 = m.AddInstruction(OpKind::kMatMul, {m1, p});
  m.AddRoot(m.AddInstruction(OpKind::kMatMul, {m2, p}));
  const BufferPlan plan = PlanBuffers(m, {});
  const std::int64_t value_bytes = 64 * 64 * 4;
  EXPECT_EQ(plan.unreused_bytes, 3 * value_bytes);
  EXPECT_EQ(plan.peak_arena_bytes, 2 * value_bytes);
  EXPECT_EQ(plan.arena_slots, 2);
  // m1 dies at m2, m2 dies at the root; the root itself is never
  // released.
  ASSERT_EQ(plan.release_after.size(), m.instructions().size());
  EXPECT_EQ(plan.release_after[static_cast<std::size_t>(m2)],
            (std::vector<HloId>{m1}));

  // Releasing buffers mid-run must not perturb the numerics.
  const std::vector<Literal> inputs = {RandomLiteral(Shape({64, 64}), 51)};
  const auto reuse = Compile(m).executable;
  EXPECT_EQ(reuse->arena_charge_bytes(), 2 * value_bytes);
  CompileOptions no_reuse;
  no_reuse.enable_buffer_reuse = false;
  const auto keep = Compile(m, no_reuse).executable;
  EXPECT_EQ(keep->arena_charge_bytes(), 3 * value_bytes);
  EXPECT_EQ(reuse->Run(inputs)[0].data.ToVector(),
            keep->Run(inputs)[0].data.ToVector());

  // And the smaller footprint is cheaper on the simulated device.
  SimAccelerator reuse_acc(AcceleratorSpec::TpuV3Core());
  SimAccelerator keep_acc(AcceleratorSpec::TpuV3Core());
  reuse->ChargeTo(reuse_acc);
  keep->ChargeTo(keep_acc);
  EXPECT_LT(reuse_acc.elapsed_seconds(), keep_acc.elapsed_seconds());
}

TEST(BufferPlanTest, ChainMembersExecuteAtResultSite) {
  // The epilogue chain's bias operand stays live until the chain RESULT
  // executes, not until the (skipped) add's own position.
  const HloModule m = MatMulBiasRelu();
  const auto chains = ComputeEpilogueChains(m);
  const BufferPlan plan = PlanBuffers(m, chains);
  // Only the chain result (relu, id 5) defines a value; anchor and add
  // are folded, parameters are not arena values.
  EXPECT_EQ(plan.unreused_bytes, 5 * 66 * 4);
  EXPECT_EQ(plan.peak_arena_bytes, 5 * 66 * 4);
  EXPECT_EQ(plan.arena_slots, 1);
}

TEST(BufferPlanTest, ArenaGaugeTracksCompiledCharge) {
  const HloModule m = MatMulBiasRelu();
  const auto exe = Compile(m).executable;
  EXPECT_EQ(obs::GetGauge("xla.arena.peak_bytes")->value(),
            exe->arena_charge_bytes());
}

// --- Tiled kernels vs. a straightforward serial reference. -----------------

void ReferenceMatMul(const std::vector<float>& a, const std::vector<float>& b,
                     std::vector<float>& out, std::int64_t m, std::int64_t k,
                     std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = a[static_cast<std::size_t>(i * k + kk)];
        if (av == 0.0f) continue;  // the kernels' sparsity skip, verbatim
        acc += av * b[static_cast<std::size_t>(kk * n + j)];
      }
      out[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
}

TEST(TiledKernelTest, MatMulBitwiseMatchesReferenceAcrossShapes) {
  // Shapes straddle the 64-wide register tile: under, exactly at, one
  // over, and a degenerate m=1/k=1. Zeros exercise the skip path.
  struct Case {
    std::int64_t m, k, n;
  };
  for (const Case& c : {Case{3, 5, 63}, Case{4, 7, 64}, Case{5, 9, 65},
                        Case{1, 1, 130}, Case{7, 16, 127}}) {
    Literal a = RandomLiteral(Shape({c.m, c.k}), 61 + c.n);
    const Literal b = RandomLiteral(Shape({c.k, c.n}), 62 + c.n);
    // Sprinkle exact zeros into a.
    {
      std::vector<float> av = a.data.ToVector();
      for (std::size_t i = 0; i < av.size(); i += 3) av[i] = 0.0f;
      a = Literal::FromVector(a.shape, std::move(av));
    }
    std::vector<float> expected(
        static_cast<std::size_t>(c.m * c.n));
    ReferenceMatMul(a.data.ToVector(), b.data.ToVector(), expected, c.m, c.k,
                    c.n);
    for (int threads : {1, 2, 4}) {
      SetIntraOpParallelism(threads);
      const Literal out = EvalOpLiteral(OpKind::kMatMul, {a, b}, {});
      EXPECT_EQ(out.data.ToVector(), expected)
          << "m=" << c.m << " k=" << c.k << " n=" << c.n
          << " threads=" << threads;
    }
    SetIntraOpParallelism(0);
  }
}

TEST(TiledKernelTest, Conv2DBitwiseAcrossThreadCountsAndTileEdges) {
  // out_c = 5 (single partial tile) and 70 (full tile + partial).
  for (const std::int64_t out_c : {std::int64_t{5}, std::int64_t{70}}) {
    const Literal input = RandomLiteral(Shape({2, 6, 7, 3}), 71);
    const Literal filter =
        RandomLiteral(Shape({3, 3, 3, out_c}), 72 + out_c);
    OpAttrs attrs;
    attrs.stride_h = 1;
    attrs.stride_w = 1;
    attrs.padding = Padding::kSame;
    SetIntraOpParallelism(1);
    const std::vector<float> serial =
        EvalOpLiteral(OpKind::kConv2D, {input, filter}, attrs)
            .data.ToVector();
    for (int threads : {2, 4}) {
      SetIntraOpParallelism(threads);
      EXPECT_EQ(
          EvalOpLiteral(OpKind::kConv2D, {input, filter}, attrs)
              .data.ToVector(),
          serial)
          << "out_c=" << out_c << " threads=" << threads;
    }
    SetIntraOpParallelism(0);
  }
}

// --- Finite-difference gradients through epilogue-fused programs. ----------

TEST(EpilogueGradientTest, MatMulBiasReluOnLazyBackend) {
  // Positive inputs keep every pre-activation away from the ReLU kink so
  // central differences are well-conditioned.
  LazyBackend backend;
  const Device lazy = backend.device();
  Rng rng(81);
  const Tensor w =
      Tensor::RandomUniform(Shape({3, 4}), rng, 0.5f, 1.5f).To(lazy);
  const Tensor bias =
      Tensor::RandomUniform(Shape({4}), rng, 0.1f, 0.5f).To(lazy);
  const Tensor x =
      Tensor::RandomUniform(Shape({2, 3}), rng, 0.5f, 1.5f).To(lazy);
  ad::testing::CheckInputGradient(
      [&](const Tensor& t) { return ReduceSum(Relu(MatMul(t, w) + bias)); },
      x);
}

TEST(EpilogueGradientTest, ConvBiasReluOnLazyBackend) {
  LazyBackend backend;
  const Device lazy = backend.device();
  Rng rng(82);
  const Tensor filter =
      Tensor::RandomUniform(Shape({2, 2, 2, 3}), rng, 0.2f, 0.8f).To(lazy);
  const Tensor bias =
      Tensor::RandomUniform(Shape({3}), rng, 0.1f, 0.4f).To(lazy);
  const Tensor x =
      Tensor::RandomUniform(Shape({1, 4, 4, 2}), rng, 0.5f, 1.5f).To(lazy);
  ad::testing::CheckInputGradient(
      [&](const Tensor& t) {
        return ReduceSum(Relu(Conv2D(t, filter) + bias));
      },
      x);
}

// --- Random HLO programs vs. the interpreter. -------------------------------

// One HLO module per plan: a parameter per input and an instruction per
// step, so a plan value's index is its HloId. The roots are the values no
// later step reads, so MatMul chains are single-use and fold, and the
// other values die at their last use.
HloModule ModuleFromPlan(const Plan& plan) {
  HloModule module("random_hlo");
  for (std::size_t i = 0; i < plan.inputs.size(); ++i) {
    module.AddParameter(plan.inputs[i].shape, static_cast<int>(i));
  }
  std::vector<bool> read(plan.inputs.size() + plan.steps.size(), false);
  for (const PlanStep& step : plan.steps) {
    for (int op : step.operands) read[static_cast<std::size_t>(op)] = true;
    module.AddInstruction(step.kind,
                          std::vector<HloId>(step.operands.begin(),
                                             step.operands.end()),
                          step.attrs);
  }
  for (std::size_t v = plan.inputs.size(); v < read.size(); ++v) {
    if (!read[v]) module.AddRoot(static_cast<HloId>(v));
  }
  return module;
}

// The uncompiled module's instructions evaluated in id order.
std::vector<Literal> InterpretRoots(const HloModule& module,
                                    const std::vector<Literal>& parameters) {
  std::vector<Literal> env;
  for (const HloInstruction& inst : module.instructions()) {
    if (inst.kind == OpKind::kParameter) {
      env.push_back(
          parameters[static_cast<std::size_t>(inst.parameter_index)]);
      continue;
    }
    std::vector<const Literal*> inputs;
    for (HloId op : inst.operands) {
      inputs.push_back(&env[static_cast<std::size_t>(op)]);
    }
    env.push_back(EvalOpLiteral(inst.kind, inputs, inst.attrs));
  }
  std::vector<Literal> roots;
  for (HloId root : module.roots()) {
    roots.push_back(env[static_cast<std::size_t>(root)]);
  }
  return roots;
}

// Same bits, except that any NaN matches any NaN.
// Equal bits, or NaN on both sides; never the overwrite poison.
bool SameBitsOrBothNaN(const Literal& a, const Literal& b) {
  if (a.shape != b.shape) return false;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const float x = a.data[static_cast<std::size_t>(i)];
    const float y = b.data[static_cast<std::size_t>(i)];
    if (Literal::IsOverwritePoison(x) || Literal::IsOverwritePoison(y)) {
      return false;
    }
    if (std::memcmp(&x, &y, sizeof(float)) != 0 &&
        !(std::isnan(x) && std::isnan(y))) {
      return false;
    }
  }
  return true;
}

// Every kernel result starts as the overwrite poison, so an element a
// kernel leaves unwritten reaches a root as the poison's NaN.
class RandomHloTest : public ::testing::Test {
  OverwritePoisonScope poison_;
};

// Compiled with and without fusion, at 1, 2 and 4 intra-op threads, every
// root of every random program equals the interpreter's, bit for bit. The
// sweep must also fold links of each operand map and release values, so a
// step list that releases a value early or drops a link cannot pass.
TEST_F(RandomHloTest, CompiledProgramsMatchTheInterpreterBitwise) {
  std::int64_t folded_by_map[4] = {0, 0, 0, 0};
  std::int64_t released = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const Plan plan = GeneratePlan(seed, /*num_steps=*/30);
    const HloModule module = ModuleFromPlan(plan);
    const std::vector<Literal> expected = InterpretRoots(module, plan.inputs);
    const auto fused = Compile(module).executable;
    const auto unfused = Compile(module, Unfused()).executable;
    for (const Executable::Step& step : fused->steps()) {
      for (const kernels::EpilogueOp& op : step.ops) {
        ++folded_by_map[static_cast<std::size_t>(op.map)];
      }
      released += static_cast<std::int64_t>(step.release.size());
    }
    for (int threads : {1, 2, 4}) {
      SetIntraOpParallelism(threads);
      for (const auto& [name, exe] : {std::pair{"fused", fused.get()},
                                      std::pair{"unfused", unfused.get()}}) {
        const std::vector<Literal> got = exe->Run(plan.inputs);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t r = 0; r < got.size(); ++r) {
          EXPECT_TRUE(SameBitsOrBothNaN(got[r], expected[r]))
              << "seed " << seed << ", " << name << ", threads " << threads
              << ": root " << r << " (id " << module.roots()[r] << ", "
              << OpName(module.instruction(module.roots()[r]).kind)
              << ") differs";
        }
      }
    }
  }
  SetIntraOpParallelism(0);
  using Map = kernels::EpilogueOp::Map;
  for (const Map map : {Map::kNone, Map::kScalar, Map::kLastDim, Map::kFull}) {
    EXPECT_GT(folded_by_map[static_cast<std::size_t>(map)], 0)
        << "no link with map " << static_cast<int>(map) << " folded";
  }
  EXPECT_GT(released, 0);
}

}  // namespace
}  // namespace s4tf::xla
