// Microbenchmarks of the reference CPU kernels shared by every backend.
//
// The *Threads benchmarks sweep the intra-op pool size (Arg = thread
// count) on fixed hot-kernel workloads, so the threads=1 vs threads=N
// rows measure the speedup from ParallelForRange sharding directly.
// Compare the wall-clock "Time" column (UseRealTime): CPU time stays
// roughly constant while wall time shrinks. The BM_Strided cases report
// the achieved GB/s of the broadcast, reduction and transpose kernels, and
// the BM_ConvKernel cases the achieved FLOP/s of the three conv kernels.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>

#include "device/cost_model.h"
#include "gbench_main.h"
#include "support/rng.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace s4tf {
namespace {

Literal RandomLiteral(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(static_cast<std::size_t>(shape.NumElements()));
  rng.FillUniform(values.data(), values.size(), -1.0f, 1.0f);
  return Literal::FromVector(shape, std::move(values));
}

// Deterministic artifact: one fixed evaluation per hot kernel, recording
// counter deltas (dispatches, bytes moved) plus a checksum of the output —
// any change to kernel numerics or bookkeeping shows as an exact diff.
bool EmitArtifact() {
  using namespace s4tf::bench;
  BenchReport report("micro_kernels");

  struct Case {
    const char* label;
    OpKind kind;
    std::vector<Literal> inputs;
    OpAttrs attrs;
  };
  OpAttrs conv_attrs;
  conv_attrs.padding = Padding::kSame;
  OpAttrs reduce_attrs;
  reduce_attrs.axes = {0};
  OpAttrs pool_attrs;
  pool_attrs.window_h = pool_attrs.window_w = 2;
  pool_attrs.stride_h = pool_attrs.stride_w = 2;
  std::vector<Case> cases;
  cases.push_back({"matmul_128", OpKind::kMatMul,
                   {RandomLiteral(Shape({128, 128}), 1),
                    RandomLiteral(Shape({128, 128}), 2)},
                   {}});
  cases.push_back({"conv2d_16x16", OpKind::kConv2D,
                   {RandomLiteral(Shape({1, 16, 16, 8}), 3),
                    RandomLiteral(Shape({3, 3, 8, 8}), 4)},
                   conv_attrs});
  cases.push_back({"softmax_8x1000", OpKind::kSoftmax,
                   {RandomLiteral(Shape({8, 1000}), 5)},
                   {}});
  cases.push_back({"broadcast_add_64x256", OpKind::kAdd,
                   {RandomLiteral(Shape({64, 256}), 6),
                    RandomLiteral(Shape({256}), 7)},
                   {}});
  cases.push_back({"reduce_sum_64x256", OpKind::kReduceSum,
                   {RandomLiteral(Shape({64, 256}), 8)},
                   reduce_attrs});
  cases.push_back({"maxpool_16x16", OpKind::kMaxPool2D,
                   {RandomLiteral(Shape({4, 16, 16, 16}), 9)},
                   pool_attrs});

  for (const Case& c : cases) {
    bench::MetricsDelta counters;
    const Literal out = EvalOpLiteral(c.kind, c.inputs, c.attrs);
    counters.Capture();
    double checksum = 0.0;
    for (float v : out.data) checksum += static_cast<double>(v);
    BenchRow& row = report.AddRow(std::string("kernel/") + c.label);
    row.SetCounters(counters);
    row.SetCounter("out_elements", out.shape.NumElements());
    row.SetValue("out_checksum", checksum);
  }

  // The fused-epilogue entry point: matmul + bias + relu in ONE dispatch.
  // Its checksum must equal the unfused chain's exactly — the epilogue
  // evaluates the same float expressions in the same order.
  {
    const Literal a = RandomLiteral(Shape({64, 64}), 10);
    const Literal b = RandomLiteral(Shape({64, 96}), 11);
    const Literal bias = RandomLiteral(Shape({96}), 12);
    std::vector<kernels::EpilogueOp> epilogue(2);
    epilogue[0].kind = OpKind::kAdd;
    epilogue[0].map = kernels::EpilogueOp::Map::kLastDim;
    epilogue[0].operand = bias.data.data();
    epilogue[0].operand_elements = bias.shape.NumElements();
    epilogue[1].kind = OpKind::kRelu;
    bench::MetricsDelta counters;
    const Literal out = EvalFusedOpLiteral(OpKind::kMatMul, {&a, &b}, {},
                                           epilogue);
    counters.Capture();
    const Literal unfused = EvalOpLiteral(
        OpKind::kRelu,
        {EvalOpLiteral(OpKind::kAdd,
                       {EvalOpLiteral(OpKind::kMatMul, {a, b}, {}), bias},
                       {})},
        {});
    double checksum = 0.0;
    for (float v : out.data) checksum += static_cast<double>(v);
    BenchRow& row = report.AddRow("kernel/matmul_bias_relu_fused");
    row.SetCounters(counters);
    row.SetCounter("out_elements", out.shape.NumElements());
    row.SetCounter("bitwise_equals_unfused",
                   out.data.ToVector() == unfused.data.ToVector() ? 1 : 0);
    row.SetValue("out_checksum", checksum);
  }

  return report.Write();
}

void BM_MatMul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Literal a = RandomLiteral(Shape({n, n}), 1);
  const Literal b = RandomLiteral(Shape({n, n}), 2);
  for (auto _ : state) {
    Literal out = EvalOpLiteral(OpKind::kMatMul, {a, b}, {});
    benchmark::DoNotOptimize(out.data.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv2D(benchmark::State& state) {
  const std::int64_t hw = state.range(0);
  const Literal input = RandomLiteral(Shape({1, hw, hw, 8}), 3);
  const Literal filter = RandomLiteral(Shape({3, 3, 8, 8}), 4);
  OpAttrs attrs;
  attrs.padding = Padding::kSame;
  for (auto _ : state) {
    Literal out = EvalOpLiteral(OpKind::kConv2D, {input, filter}, attrs);
    benchmark::DoNotOptimize(out.data.data());
  }
}
BENCHMARK(BM_Conv2D)->Arg(8)->Arg(16)->Arg(32);

void BM_MatMul512Threads(benchmark::State& state) {
  SetIntraOpParallelism(static_cast<int>(state.range(0)));
  const std::int64_t n = 512;
  const Literal a = RandomLiteral(Shape({n, n}), 1);
  const Literal b = RandomLiteral(Shape({n, n}), 2);
  for (auto _ : state) {
    Literal out = EvalOpLiteral(OpKind::kMatMul, {a, b}, {});
    benchmark::DoNotOptimize(out.data.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  SetIntraOpParallelism(0);
}
BENCHMARK(BM_MatMul512Threads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Conv2DBatch8Threads(benchmark::State& state) {
  SetIntraOpParallelism(static_cast<int>(state.range(0)));
  const Literal input = RandomLiteral(Shape({8, 32, 32, 16}), 3);
  const Literal filter = RandomLiteral(Shape({3, 3, 16, 32}), 4);
  OpAttrs attrs;
  attrs.padding = Padding::kSame;
  for (auto _ : state) {
    Literal out = EvalOpLiteral(OpKind::kConv2D, {input, filter}, attrs);
    benchmark::DoNotOptimize(out.data.data());
  }
  SetIntraOpParallelism(0);
}
BENCHMARK(BM_Conv2DBatch8Threads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Softmax(benchmark::State& state) {
  const Literal x = RandomLiteral(Shape({state.range(0), 1000}), 5);
  for (auto _ : state) {
    Literal out = EvalOpLiteral(OpKind::kSoftmax, {x}, {});
    benchmark::DoNotOptimize(out.data.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(8)->Arg(64);

void BM_ElementwiseBroadcast(benchmark::State& state) {
  const Literal m = RandomLiteral(Shape({state.range(0), 256}), 6);
  const Literal row = RandomLiteral(Shape({256}), 7);
  for (auto _ : state) {
    Literal out = EvalOpLiteral(OpKind::kAdd, {m, row}, {});
    benchmark::DoNotOptimize(out.data.data());
  }
}
BENCHMARK(BM_ElementwiseBroadcast)->Arg(64)->Arg(512);

void BM_ReduceSumAxis(benchmark::State& state) {
  const Literal m = RandomLiteral(Shape({state.range(0), 256}), 8);
  OpAttrs attrs;
  attrs.axes = {0};
  for (auto _ : state) {
    Literal out = EvalOpLiteral(OpKind::kReduceSum, {m}, attrs);
    benchmark::DoNotOptimize(out.data.data());
  }
}
BENCHMARK(BM_ReduceSumAxis)->Arg(64)->Arg(512);

void BM_MaxPool(benchmark::State& state) {
  const Literal x = RandomLiteral(Shape({4, state.range(0), state.range(0), 16}), 9);
  OpAttrs attrs;
  attrs.window_h = attrs.window_w = 2;
  attrs.stride_h = attrs.stride_w = 2;
  for (auto _ : state) {
    Literal out = EvalOpLiteral(OpKind::kMaxPool2D, {x}, attrs);
    benchmark::DoNotOptimize(out.data.data());
  }
}
BENCHMARK(BM_MaxPool)->Arg(16)->Arg(32);

// The kernels the strided run walker drives, on the shapes batch norm and
// NHWC bias broadcasts produce, at one thread. Bytes per iteration come
// from the cost model's OpBytes (inputs read once, output written once),
// so bytes_per_second is the achieved bandwidth.
void BM_Strided(benchmark::State& state, OpKind kind,
                const std::vector<Shape>& shapes, const OpAttrs& attrs) {
  SetIntraOpParallelism(1);
  std::vector<Literal> inputs;
  for (const Shape& shape : shapes) {
    inputs.push_back(RandomLiteral(shape, 20 + inputs.size()));
  }
  const Shape out = InferShape(kind, shapes, attrs);
  for (auto _ : state) {
    Literal result = EvalOpLiteral(kind, inputs, attrs);
    benchmark::DoNotOptimize(result.data.data());
  }
  state.SetBytesProcessed(state.iterations() * OpBytes(shapes, out));
  SetIntraOpParallelism(0);
}
BENCHMARK_CAPTURE(BM_Strided, add_c, OpKind::kAdd,
                  {Shape({8, 32, 32, 16}), Shape({16})}, OpAttrs{});
BENCHMARK_CAPTURE(BM_Strided, mul_1x1x1xc, OpKind::kMul,
                  {Shape({8, 32, 32, 16}), Shape({1, 1, 1, 16})}, OpAttrs{});
BENCHMARK_CAPTURE(BM_Strided, greater_scalar, OpKind::kGreater,
                  {Shape({8, 32, 32, 16}), Shape()}, OpAttrs{});
BENCHMARK_CAPTURE(BM_Strided, broadcast_to_nhwc, OpKind::kBroadcastTo,
                  {Shape({1, 1, 1, 16})}, OpAttrs{.shape = {8, 32, 32, 16}});
BENCHMARK_CAPTURE(BM_Strided, reduce_sum_nhw_keep_dims, OpKind::kReduceSum,
                  {Shape({8, 32, 32, 16})},
                  OpAttrs{.axes = {0, 1, 2}, .keep_dims = true});
BENCHMARK_CAPTURE(BM_Strided, reduce_sum_last_axis, OpKind::kReduceSum,
                  {Shape({8, 32, 32, 16})}, OpAttrs{.axes = {3}});
BENCHMARK_CAPTURE(BM_Strided, transpose_400x120, OpKind::kTranspose,
                  {Shape({400, 120})}, OpAttrs{.axes = {1, 0}});

// The three conv kernels on the LeNet (batch 32) and ResNet-20 (batch 8)
// layer shapes, at one thread, named BM_ConvKernel/<kernel>/<layer>. The
// forward and filter-gradient inputs are post-ReLU (about half zeros), as
// in training. The three kernels do the same multiply-adds, so each
// reports the forward's OpFlops and items/s reads as FLOP/s.
void BM_ConvKernel(benchmark::State& state, OpKind kind, const Shape& in,
                   const Shape& filter, std::int64_t stride, Padding padding) {
  SetIntraOpParallelism(1);
  OpAttrs attrs;
  attrs.stride_h = attrs.stride_w = stride;
  attrs.padding = padding;
  const Shape out = InferShape(OpKind::kConv2D, {in, filter}, attrs);
  std::vector<float> relu = RandomLiteral(in, 30).data.ToVector();
  for (float& x : relu) x = std::max(x, 0.0f);
  const Literal input = Literal::FromVector(in, std::move(relu));
  std::vector<Literal> inputs;
  if (kind == OpKind::kConv2D) {
    inputs = {input, RandomLiteral(filter, 31)};
  } else if (kind == OpKind::kConv2DBackpropInput) {
    inputs = {RandomLiteral(out, 32), RandomLiteral(filter, 31)};
    attrs.shape = in.dims();
  } else {
    inputs = {input, RandomLiteral(out, 32)};
    attrs.shape = filter.dims();
  }
  for (auto _ : state) {
    Literal result = EvalOpLiteral(kind, inputs, attrs);
    benchmark::DoNotOptimize(result.data.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          OpFlops(OpKind::kConv2D, {in, filter}, out, attrs));
  SetIntraOpParallelism(0);
}

const bool kConvKernelBenchmarks = [] {
  struct Layer {
    const char* name;
    Shape in, filter;
    std::int64_t stride;
    Padding padding;
  };
  const Layer layers[] = {
      {"lenet_conv1_5x5_1to6_same", Shape({32, 28, 28, 1}),
       Shape({5, 5, 1, 6}), 1, Padding::kSame},
      {"lenet_conv2_5x5_6to16_valid", Shape({32, 14, 14, 6}),
       Shape({5, 5, 6, 16}), 1, Padding::kValid},
      {"resnet_3x3_16to16_32px", Shape({8, 32, 32, 16}),
       Shape({3, 3, 16, 16}), 1, Padding::kSame},
      {"resnet_3x3_32to32_16px", Shape({8, 16, 16, 32}),
       Shape({3, 3, 32, 32}), 1, Padding::kSame},
      {"resnet_3x3_64to64_8px", Shape({8, 8, 8, 64}), Shape({3, 3, 64, 64}),
       1, Padding::kSame},
      {"resnet_1x1_16to32_stride2", Shape({8, 32, 32, 16}),
       Shape({1, 1, 16, 32}), 2, Padding::kSame},
  };
  const std::pair<const char*, OpKind> kernels[] = {
      {"forward", OpKind::kConv2D},
      {"backprop_input", OpKind::kConv2DBackpropInput},
      {"backprop_filter", OpKind::kConv2DBackpropFilter},
  };
  for (const auto& [kernel, kind] : kernels) {
    for (const Layer& layer : layers) {
      const std::string name =
          std::string("BM_ConvKernel/") + kernel + "/" + layer.name;
      benchmark::RegisterBenchmark(name.c_str(), BM_ConvKernel, kind,
                                   layer.in, layer.filter, layer.stride,
                                   layer.padding);
    }
  }
  return true;
}();

}  // namespace
}  // namespace s4tf

S4TF_BENCH_MAIN_WITH_ARTIFACT(s4tf::EmitArtifact)
