#include "xla/compiler.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>
#include <gtest/gtest.h>

namespace s4tf::xla {
namespace {

// relu(a*b + c) elementwise over [64].
HloModule ElementwiseChain() {
  HloModule m("chain");
  const HloId a = m.AddParameter(Shape({64}), 0);
  const HloId b = m.AddParameter(Shape({64}), 1);
  const HloId c = m.AddParameter(Shape({64}), 2);
  const HloId mul = m.AddInstruction(OpKind::kMul, {a, b});
  const HloId add = m.AddInstruction(OpKind::kAdd, {mul, c});
  m.AddRoot(m.AddInstruction(OpKind::kRelu, {add}));
  return m;
}

TEST(HloCseTest, DeduplicatesIdenticalSubexpressions) {
  HloModule m;
  const HloId p = m.AddParameter(Shape({8}), 0);
  const HloId s1 = m.AddInstruction(OpKind::kSquare, {p});
  const HloId s2 = m.AddInstruction(OpKind::kSquare, {p});
  const HloId e1 = m.AddInstruction(OpKind::kExp, {s1});
  const HloId e2 = m.AddInstruction(OpKind::kExp, {s2});
  m.AddRoot(m.AddInstruction(OpKind::kAdd, {e1, e2}));
  const std::int64_t before = m.instruction_count();
  int eliminated = 0;
  // Iterate: chains dedupe one level per pass.
  for (int i = 0; i < 4; ++i) eliminated += RunHloCse(m);
  EXPECT_EQ(eliminated, 2);
  EXPECT_EQ(m.instruction_count(), before - 2);
  // Semantics preserved: exp(x^2)*2.
  const auto out = Compile(m).executable->Run({Literal::Full(Shape({8}), 2.f)});
  EXPECT_NEAR(out[0].data[0], 2 * std::exp(4.0f), 1e-2);
}

// Every instruction gets the same key, so every pair collides and only the
// identity compare stands between CSE and a wrong merge.
std::uint64_t CollideAll(std::uint64_t) { return 0; }

TEST(HloCseTest, CollidingHashesMergeOnlyIdenticalInstructions) {
  HloModule m;
  const HloId p = m.AddParameter(Shape({8}), 0);
  const HloId q = m.AddParameter(Shape({8}), 1);
  // Each instruction after the first of a group differs from it in one
  // field, except the two marked identical.
  const std::vector<HloId> roots = {
      m.AddInstruction(OpKind::kExp, {p}),
      m.AddInstruction(OpKind::kExp, {p}),  // identical: merges
      m.AddInstruction(OpKind::kTanh, {p}),
      m.AddInstruction(OpKind::kExp, {q}),
      m.AddInstruction(OpKind::kMulScalar, {p}, OpAttrs{.scalar = 0.0f}),
      m.AddInstruction(OpKind::kMulScalar, {p}, OpAttrs{.scalar = -0.0f}),
      m.AddInstruction(OpKind::kMulScalar, {p}, OpAttrs{.scalar = 2.0f}),
      m.AddInstruction(OpKind::kReshape, {p}, OpAttrs{.shape = {2, 4}}),
      m.AddInstruction(OpKind::kReshape, {p}, OpAttrs{.shape = {4, 2}}),
      m.AddConstant(Literal::Full(Shape({8}), 1.0f)),
      m.AddConstant(Literal::Full(Shape({8}), 2.0f)),
      m.AddConstant(Literal::Full(Shape({2, 4}), 1.0f)),
      m.AddConstant(Literal::Full(Shape({8}), 1.0f)),  // identical: merges
  };
  for (HloId r : roots) m.AddRoot(r);
  HloModule colliding = m;
  EXPECT_EQ(internal::RunHloCseKeyed(colliding, CollideAll), 2);
  EXPECT_EQ(colliding.instruction_count(), m.instruction_count() - 2);
  HloModule hashed = m;
  EXPECT_EQ(RunHloCse(hashed), 2);
  EXPECT_TRUE(colliding.SameProgramAs(hashed));

  // The merged module computes what the original does, bit for bit.
  CompileOptions no_cse;
  no_cse.enable_cse = false;
  const std::vector<Literal> params = {
      Literal::FromVector(Shape({8}), {-2, -1, -0.0f, 0, 0.5f, 1, 2, 3}),
      Literal::FromVector(Shape({8}), {3, 2, 1, 0, -0.0f, -1, -2, -3})};
  const auto want = Compile(m, no_cse).executable->Run(params);
  const auto got = Compile(colliding, no_cse).executable->Run(params);
  ASSERT_EQ(want.size(), roots.size());
  ASSERT_EQ(got.size(), roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(got[i].shape, want[i].shape) << "root " << i;
    const std::vector<float> a = want[i].data.ToVector();
    const std::vector<float> b = got[i].data.ToVector();
    ASSERT_EQ(a.size(), b.size()) << "root " << i;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << "root " << i;
  }
}

TEST(HloDceTest, DropsUnreachableInstructions) {
  HloModule m;
  const HloId p = m.AddParameter(Shape({4}), 0);
  const HloId live = m.AddInstruction(OpKind::kRelu, {p});
  const HloId dead = m.AddInstruction(OpKind::kExp, {p});
  (void)m.AddInstruction(OpKind::kTanh, {dead});  // dead chain
  m.AddRoot(live);
  EXPECT_EQ(RunHloDce(m), 2);
  EXPECT_EQ(m.instruction_count(), 2);
}

TEST(FusionTest, ChainsFuseIntoOneGroup) {
  const HloModule m = ElementwiseChain();
  const auto groups = ComputeFusionGroups(m);
  // mul (3), add (4), relu (5) share a group.
  EXPECT_EQ(groups[3], groups[4]);
  EXPECT_EQ(groups[4], groups[5]);
}

TEST(FusionTest, MultiUseProducerIsNotFused) {
  HloModule m;
  const HloId p = m.AddParameter(Shape({8}), 0);
  const HloId shared = m.AddInstruction(OpKind::kSquare, {p});
  const HloId u1 = m.AddInstruction(OpKind::kRelu, {shared});
  const HloId u2 = m.AddInstruction(OpKind::kTanh, {shared});
  m.AddRoot(u1);
  m.AddRoot(u2);
  const auto groups = ComputeFusionGroups(m);
  EXPECT_NE(groups[static_cast<std::size_t>(shared)],
            groups[static_cast<std::size_t>(u1)]);
  EXPECT_NE(groups[static_cast<std::size_t>(shared)],
            groups[static_cast<std::size_t>(u2)]);
}

TEST(FusionTest, NonElementwiseBreaksFusion) {
  HloModule m;
  const HloId a = m.AddParameter(Shape({4, 4}), 0);
  const HloId doubled = m.AddInstruction(OpKind::kMulScalar, {a},
                                         OpAttrs{.scalar = 2.0f});
  const HloId mm = m.AddInstruction(OpKind::kMatMul, {doubled, doubled});
  m.AddRoot(m.AddInstruction(OpKind::kRelu, {mm}));
  const auto groups = ComputeFusionGroups(m);
  EXPECT_NE(groups[static_cast<std::size_t>(doubled)],
            groups[static_cast<std::size_t>(mm)]);
  EXPECT_NE(groups[static_cast<std::size_t>(mm)], groups[3]);
}

TEST(CompileTest, FusionReducesKernelCount) {
  CompileOptions fused_opts;
  CompileOptions unfused_opts;
  unfused_opts.enable_fusion = false;
  const auto fused = Compile(ElementwiseChain(), fused_opts);
  const auto unfused = Compile(ElementwiseChain(), unfused_opts);
  EXPECT_EQ(fused.executable->kernel_count(), 1);
  EXPECT_EQ(unfused.executable->kernel_count(), 3);
}

TEST(CompileTest, FusedAndUnfusedProduceIdenticalResults) {
  CompileOptions unfused_opts;
  unfused_opts.enable_fusion = false;
  const auto fused = Compile(ElementwiseChain());
  const auto unfused = Compile(ElementwiseChain(), unfused_opts);
  std::vector<Literal> params = {Literal::Full(Shape({64}), 0.5f),
                                 Literal::Full(Shape({64}), -3.0f),
                                 Literal::Full(Shape({64}), 2.0f)};
  const auto a = fused.executable->Run(params);
  const auto b = unfused.executable->Run(params);
  EXPECT_EQ(a[0].data.ToVector(), b[0].data.ToVector());
}

TEST(CompileTest, FusedExecutionIsCheaperOnAccelerator) {
  const auto fused = Compile(ElementwiseChain());
  CompileOptions unfused_opts;
  unfused_opts.enable_fusion = false;
  const auto unfused = Compile(ElementwiseChain(), unfused_opts);
  std::vector<Literal> params = {Literal::Full(Shape({64}), 1.f),
                                 Literal::Full(Shape({64}), 1.f),
                                 Literal::Full(Shape({64}), 1.f)};
  SimAccelerator a1(AcceleratorSpec::Gtx1080());
  SimAccelerator a2(AcceleratorSpec::Gtx1080());
  fused.executable->Run(params, &a1);
  unfused.executable->Run(params, &a2);
  EXPECT_LT(a1.elapsed_seconds(), a2.elapsed_seconds());
}

TEST(CompileTest, CompileCostScalesWithProgramSize) {
  HloModule small;
  HloId v = small.AddParameter(Shape({4}), 0);
  small.AddRoot(small.AddInstruction(OpKind::kRelu, {v}));
  HloModule big;
  v = big.AddParameter(Shape({4}), 0);
  for (int i = 0; i < 100; ++i) v = big.AddInstruction(OpKind::kTanh, {v});
  big.AddRoot(v);
  EXPECT_GT(Compile(big).compile_seconds, Compile(small).compile_seconds);
}

TEST(CompileCacheTest, HitsOnIdenticalStructure) {
  CompileCache cache;
  double cost1 = 0.0, cost2 = 0.0;
  const auto e1 = cache.GetOrCompile(ElementwiseChain(), &cost1);
  const auto e2 = cache.GetOrCompile(ElementwiseChain(), &cost2);
  EXPECT_EQ(e1.get(), e2.get());
  EXPECT_GT(cost1, 0.0);
  EXPECT_EQ(cost2, 0.0);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(CompileCacheTest, ShapeChangeMisses) {
  CompileCache cache;
  auto build = [](std::int64_t n) {
    HloModule m;
    const HloId p = m.AddParameter(Shape({n}), 0);
    m.AddRoot(m.AddInstruction(OpKind::kRelu, {p}));
    return m;
  };
  cache.GetOrCompile(build(8));
  cache.GetOrCompile(build(16));
  cache.GetOrCompile(build(8));
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 2u);
}

// Fingerprint() skips constant payloads, so programs that differ only in a
// constant share a cache key. The cache must still tell them apart: the
// second program is a miss with its own executable, and each later lookup
// hits the entry whose payload matches.
TEST(CompileCacheTest, ConstantPayloadIsPartOfIdentity) {
  auto build = [](float constant) {
    HloModule m;
    const HloId p = m.AddParameter(Shape({1}), 0);
    const HloId c = m.AddConstant(Literal::Full(Shape({1}), constant));
    m.AddRoot(m.AddInstruction(OpKind::kAdd, {p, c}));
    return m;
  };
  ASSERT_EQ(build(1.0f).Fingerprint(), build(100.0f).Fingerprint());
  CompileCache cache;
  const auto one = cache.GetOrCompile(build(1.0f));
  const auto hundred = cache.GetOrCompile(build(100.0f));
  const std::vector<Literal> p = {Literal::Full(Shape({1}), 1.0f)};
  EXPECT_EQ(hundred->Run(p)[0].data[0], 101.0f);
  EXPECT_EQ(one->Run(p)[0].data[0], 2.0f);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.size(), 2u);

  EXPECT_EQ(cache.GetOrCompile(build(100.0f)).get(), hundred.get());
  EXPECT_EQ(cache.GetOrCompile(build(1.0f)).get(), one.get());
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 2);
}

// Attribute scalars compare by their bits, as the fingerprint hashes them:
// a NaN scalar matches itself, and -0 is a different program from +0.
TEST(CompileCacheTest, ScalarAttributesCompareByBits) {
  auto build = [](float scalar) {
    HloModule m;
    const HloId p = m.AddParameter(Shape({4}), 0);
    m.AddRoot(m.AddInstruction(OpKind::kAddScalar, {p},
                               OpAttrs{.scalar = scalar}));
    return m;
  };
  CompileCache cache;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(cache.GetOrCompile(build(nan)).get(),
            cache.GetOrCompile(build(nan)).get());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  cache.GetOrCompile(build(0.0f));
  cache.GetOrCompile(build(-0.0f));
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.size(), 3u);
}

// Regression test for the documented Clear() semantics: dropping the
// compiled programs must also zero the hit/miss/compile-time statistics,
// so counter-based ablations that Clear() between runs start from a clean
// slate instead of inheriting the previous run's totals.
TEST(CompileCacheTest, ClearResetsStatisticsWithPrograms) {
  CompileCache cache;
  cache.GetOrCompile(ElementwiseChain());
  cache.GetOrCompile(ElementwiseChain());
  ASSERT_EQ(cache.misses(), 1);
  ASSERT_EQ(cache.hits(), 1);
  ASSERT_GT(cache.total_compile_seconds(), 0.0);
  ASSERT_EQ(cache.size(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(cache.total_compile_seconds(), 0.0);
  EXPECT_EQ(cache.size(), 0u);

  // A post-Clear run observes exactly its own traffic: the same program
  // is a fresh miss (it was evicted), then a hit.
  cache.GetOrCompile(ElementwiseChain());
  cache.GetOrCompile(ElementwiseChain());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(ExecutableTest, ParameterCountChecked) {
  const auto compiled = Compile(ElementwiseChain());
  EXPECT_THROW(compiled.executable->Run({Literal::Full(Shape({64}), 1.f)}),
               InternalError);
}

TEST(ExecutableTest, MatMulProgramComputesCorrectly) {
  HloModule m;
  const HloId a = m.AddParameter(Shape({2, 3}), 0);
  const HloId b = m.AddParameter(Shape({3, 2}), 1);
  m.AddRoot(m.AddInstruction(OpKind::kMatMul, {a, b}));
  const auto compiled = Compile(std::move(m));
  const auto out = compiled.executable->Run(
      {Literal::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6}),
       Literal::FromVector(Shape({3, 2}), {7, 8, 9, 10, 11, 12})});
  EXPECT_EQ(out[0].data.ToVector(), (std::vector<float>{58, 64, 139, 154}));
}

}  // namespace
}  // namespace s4tf::xla
