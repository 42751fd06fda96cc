// Ablation: operation fusion (the §3.3 motivation for LazyTensor), now
// with the compiler-depth axes broken out.
//
// Per traced training-step program, four compile variants are priced on
// the simulated GTX 1080:
//   unfused      — enable_fusion off (eager op-by-op cost shape);
//   elementwise  — fusion on, epilogue fusion + buffer reuse off (the
//                  original pass);
//   epilogue     — elementwise + MatMul/Conv2D epilogue fusion;
//   all          — epilogue + liveness-based buffer reuse (the default).
//
// The micro rows are the exact-gated acceptance checks: an epilogue-fused
// MatMul+bias+ReLU really is ONE kernel (vs 3), strictly cheaper on the
// cost model, with a lower arena footprint than the no-reuse baseline —
// and bitwise-identical outputs for any intra-op thread count. A non-"ok"
// verdict fails the run (exit 1), not just the artifact diff.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "device/sim_accelerator.h"
#include "nn/models/lenet.h"
#include "nn/models/resnet.h"
#include "report.h"
#include "step_program.h"
#include "support/rng.h"
#include "tensor/kernels.h"

namespace s4tf::bench {
namespace {

xla::CompileOptions ElementwiseOnly() {
  xla::CompileOptions options;
  options.enable_epilogue_fusion = false;
  options.enable_buffer_reuse = false;
  return options;
}

xla::CompileOptions EpilogueNoReuse() {
  xla::CompileOptions options;
  options.enable_buffer_reuse = false;
  return options;
}

xla::CompileOptions Unfused() {
  xla::CompileOptions options;
  options.enable_fusion = false;
  return options;
}

double DeviceMs(const xla::Executable& exe) {
  SimAccelerator device(AcceleratorSpec::Gtx1080());
  exe.ChargeTo(device);
  return device.elapsed_seconds() * 1e3;
}

Literal RandomLiteral(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(static_cast<std::size_t>(shape.NumElements()));
  rng.FillUniform(values.data(), values.size(), -1.0f, 1.0f);
  return Literal::FromVector(shape, std::move(values));
}

// FNV-1a over the output's IEEE-754 bytes: a deterministic fingerprint of
// the exact bits, comparable across machines and thread counts.
std::int64_t BitChecksum(const std::vector<float>& values) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const float v : values) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return static_cast<std::int64_t>(hash & 0x7fffffffffffffffull);
}

void ReportModel(const char* name, const StepProgram& program,
                 BenchReport& report) {
  const auto elementwise =
      xla::Compile(program.module, ElementwiseOnly()).executable;
  const auto epilogue =
      xla::Compile(program.module, EpilogueNoReuse()).executable;
  const auto& all = program.fused;  // default options: epilogue + reuse

  const double unfused_ms = DeviceMs(*program.unfused);
  const double elementwise_ms = DeviceMs(*elementwise);
  const double epilogue_ms = DeviceMs(*epilogue);
  const double all_ms = DeviceMs(*all);
  std::printf(
      "%-28s kernels %5lld -> %5lld -> %5lld   device ms %8.3f -> %8.3f -> "
      "%8.3f -> %8.3f (%.2fx)\n",
      name, static_cast<long long>(program.unfused->kernel_count()),
      static_cast<long long>(elementwise->kernel_count()),
      static_cast<long long>(all->kernel_count()), unfused_ms, elementwise_ms,
      epilogue_ms, all_ms, unfused_ms / all_ms);
  std::printf(
      "%-28s epilogue folded %5lld ops   arena %9lld bytes peak (vs %9lld "
      "unreused)\n",
      "", static_cast<long long>(all->epilogue_folded_ops()),
      static_cast<long long>(all->arena_peak_bytes()),
      static_cast<long long>(all->arena_unreused_bytes()));

  BenchRow& row = report.AddRow(std::string("model/") + name);
  row.SetCounter("kernels_unfused", program.unfused->kernel_count());
  row.SetCounter("kernels_elementwise", elementwise->kernel_count());
  row.SetCounter("kernels_fused", all->kernel_count());
  row.SetCounter("epilogue_folded_ops", all->epilogue_folded_ops());
  row.SetCounter("arena_peak_bytes", all->arena_peak_bytes());
  row.SetCounter("arena_unreused_bytes", all->arena_unreused_bytes());
  row.SetCounter("step.trace_ops", program.trace_ops);
  row.SetCounter("step.hlo_instructions", program.module.instruction_count());
  row.SetValue("cost.device_ms_unfused", unfused_ms);
  row.SetValue("cost.device_ms_elementwise", elementwise_ms);
  row.SetValue("cost.device_ms_epilogue", epilogue_ms);
  row.SetValue("cost.device_ms_fused", all_ms);
  row.SetValue("fusion_speedup", unfused_ms / all_ms);
  row.SetValue("epilogue_speedup", elementwise_ms / all_ms);
}

// Runs `fused` and `unfused` on `inputs` across thread counts 1/2/4 and
// verifies every output is bitwise-identical to the single-thread unfused
// reference. Returns the reference bits' checksum through *checksum.
bool BitwiseAcrossThreads(const xla::Executable& fused,
                          const xla::Executable& unfused,
                          const std::vector<Literal>& inputs,
                          std::int64_t* checksum) {
  SetIntraOpParallelism(1);
  const std::vector<float> reference =
      unfused.Run(inputs)[0].data.ToVector();
  *checksum = BitChecksum(reference);
  bool ok = true;
  for (const int threads : {1, 2, 4}) {
    SetIntraOpParallelism(threads);
    ok = ok && fused.Run(inputs)[0].data.ToVector() == reference;
    ok = ok && unfused.Run(inputs)[0].data.ToVector() == reference;
  }
  SetIntraOpParallelism(0);
  return ok;
}

// The acceptance micro-row: relu(matmul+bias) (or conv) compiled fused vs
// unfused, with every claim in the row exact-gated.
bool ReportEpilogueMicro(const char* label, xla::HloModule module,
                         const std::vector<Literal>& inputs,
                         BenchReport& report) {
  const auto all = xla::Compile(module).executable;
  const auto unfused = xla::Compile(module, Unfused()).executable;
  // "No reuse" baseline for the arena comparison: same fusion groups, no
  // epilogues, every intermediate materialized and kept.
  const auto no_reuse =
      xla::Compile(module, ElementwiseOnly()).executable;

  std::int64_t checksum = 0;
  const bool bitwise = BitwiseAcrossThreads(*all, *unfused, inputs, &checksum);
  const double fused_ms = DeviceMs(*all);
  const double unfused_ms = DeviceMs(*unfused);
  const bool ok = bitwise && all->kernel_count() == 1 &&
                  unfused->kernel_count() == 3 && fused_ms < unfused_ms &&
                  all->arena_charge_bytes() < no_reuse->arena_charge_bytes();

  std::printf(
      "%-28s kernels %lld -> %lld   device ms %8.4f -> %8.4f   arena %6lld "
      "-> %6lld bytes   bitwise(1/2/4 threads): %s\n",
      label, static_cast<long long>(unfused->kernel_count()),
      static_cast<long long>(all->kernel_count()), unfused_ms, fused_ms,
      static_cast<long long>(no_reuse->arena_charge_bytes()),
      static_cast<long long>(all->arena_charge_bytes()),
      bitwise ? "ok" : "MISMATCH");

  BenchRow& row = report.AddRow(label);
  row.SetCounter("kernels_unfused", unfused->kernel_count());
  row.SetCounter("kernels_fused", all->kernel_count());
  row.SetCounter("epilogue_folded_ops", all->epilogue_folded_ops());
  row.SetCounter("arena_peak_bytes", all->arena_charge_bytes());
  row.SetCounter("arena_no_reuse_bytes", no_reuse->arena_charge_bytes());
  row.SetCounter("output_checksum", checksum);
  row.SetValue("cost.device_ms_fused", fused_ms);
  row.SetValue("cost.device_ms_unfused", unfused_ms);
  row.SetText("bitwise_any_threads", bitwise ? "ok" : "MISMATCH");
  row.SetText("verdict", ok ? "ok" : "FAIL");
  return ok;
}

xla::HloModule MatMulBiasReluModule() {
  xla::HloModule m("matmul_bias_relu");
  const xla::HloId a = m.AddParameter(Shape({8, 24}), 0);
  const xla::HloId b = m.AddParameter(Shape({24, 96}), 1);
  const xla::HloId bias = m.AddParameter(Shape({96}), 2);
  const xla::HloId mm = m.AddInstruction(OpKind::kMatMul, {a, b});
  const xla::HloId add = m.AddInstruction(OpKind::kAdd, {mm, bias});
  m.AddRoot(m.AddInstruction(OpKind::kRelu, {add}));
  return m;
}

xla::HloModule ConvBiasReluModule() {
  xla::HloModule m("conv2d_bias_relu");
  const xla::HloId x = m.AddParameter(Shape({2, 8, 8, 4}), 0);
  const xla::HloId f = m.AddParameter(Shape({3, 3, 4, 96}), 1);
  const xla::HloId bias = m.AddParameter(Shape({96}), 2);
  OpAttrs attrs;
  attrs.stride_h = 1;
  attrs.stride_w = 1;
  attrs.padding = Padding::kSame;
  const xla::HloId conv = m.AddInstruction(OpKind::kConv2D, {x, f}, attrs);
  const xla::HloId add = m.AddInstruction(OpKind::kAdd, {conv, bias});
  m.AddRoot(m.AddInstruction(OpKind::kRelu, {add}));
  return m;
}

// Buffer-reuse micro: a 3-layer MLP chain where only two activations are
// ever live at once, so the arena peaks below the unreused sum even with
// the epilogues folding every relu.
bool ReportArenaMicro(BenchReport& report) {
  xla::HloModule m("mlp_chain");
  const xla::HloId x = m.AddParameter(Shape({32, 64}), 0);
  const xla::HloId w1 = m.AddParameter(Shape({64, 64}), 1);
  const xla::HloId w2 = m.AddParameter(Shape({64, 64}), 2);
  const xla::HloId w3 = m.AddParameter(Shape({64, 64}), 3);
  xla::HloId h = x;
  for (const xla::HloId w : {w1, w2, w3}) {
    h = m.AddInstruction(OpKind::kRelu,
                         {m.AddInstruction(OpKind::kMatMul, {h, w})});
  }
  m.AddRoot(h);

  const auto reuse = xla::Compile(m).executable;
  xla::CompileOptions keep_options;
  keep_options.enable_buffer_reuse = false;
  const auto keep = xla::Compile(m, keep_options).executable;
  const std::vector<Literal> inputs = {
      RandomLiteral(Shape({32, 64}), 91), RandomLiteral(Shape({64, 64}), 92),
      RandomLiteral(Shape({64, 64}), 93), RandomLiteral(Shape({64, 64}), 94)};
  const bool bitwise = reuse->Run(inputs)[0].data.ToVector() ==
                       keep->Run(inputs)[0].data.ToVector();
  const bool ok = bitwise &&
                  reuse->arena_peak_bytes() < reuse->arena_unreused_bytes() &&
                  DeviceMs(*reuse) < DeviceMs(*keep);
  std::printf(
      "%-28s arena %6lld bytes peak vs %6lld unreused (%lld slots), "
      "reuse==keep bitwise: %s\n",
      "arena/mlp_chain", static_cast<long long>(reuse->arena_peak_bytes()),
      static_cast<long long>(reuse->arena_unreused_bytes()),
      static_cast<long long>(xla::PlanBuffers(
                                 reuse->module(),
                                 xla::ComputeEpilogueChains(reuse->module()))
                                 .arena_slots),
      bitwise ? "ok" : "MISMATCH");
  BenchRow& row = report.AddRow("arena/mlp_chain");
  row.SetCounter("arena_peak_bytes", reuse->arena_peak_bytes());
  row.SetCounter("arena_unreused_bytes", reuse->arena_unreused_bytes());
  row.SetValue("cost.device_ms_reuse", DeviceMs(*reuse));
  row.SetValue("cost.device_ms_no_reuse", DeviceMs(*keep));
  row.SetText("verdict", ok ? "ok" : "FAIL");
  return ok;
}

// Tiled-kernel micro: the register-blocked MatMul against a plain serial
// triple loop, bitwise, across thread counts and tile-straddling widths.
bool ReportTilingMicro(BenchReport& report) {
  bool ok = true;
  std::uint64_t combined = 1469598103934665603ull;
  for (const auto& [mm, kk, nn] :
       {std::tuple<std::int64_t, std::int64_t, std::int64_t>{5, 9, 63},
        {7, 16, 64},
        {4, 11, 65},
        {1, 1, 130},
        {6, 13, 127}}) {
    const Literal a = RandomLiteral(Shape({mm, kk}), 101 + nn);
    const Literal b = RandomLiteral(Shape({kk, nn}), 102 + nn);
    const std::vector<float> av = a.data.ToVector();
    const std::vector<float> bv = b.data.ToVector();
    std::vector<float> reference(static_cast<std::size_t>(mm * nn), 0.0f);
    for (std::int64_t i = 0; i < mm; ++i) {
      for (std::int64_t j = 0; j < nn; ++j) {
        float acc = 0.0f;
        for (std::int64_t k = 0; k < kk; ++k) {
          const float x = av[static_cast<std::size_t>(i * kk + k)];
          if (x == 0.0f) continue;
          acc += x * bv[static_cast<std::size_t>(k * nn + j)];
        }
        reference[static_cast<std::size_t>(i * nn + j)] = acc;
      }
    }
    for (const int threads : {1, 2, 4}) {
      SetIntraOpParallelism(threads);
      ok = ok &&
           EvalOpLiteral(OpKind::kMatMul, {a, b}, {}).data.ToVector() ==
               reference;
    }
    SetIntraOpParallelism(0);
    combined ^= static_cast<std::uint64_t>(BitChecksum(reference));
    combined *= 1099511628211ull;
  }
  std::printf("%-28s tiled == serial reference, 5 shapes x {1,2,4} threads: "
              "%s\n",
              "tiling/matmul_tile_sweep", ok ? "ok" : "MISMATCH");
  BenchRow& row = report.AddRow("tiling/matmul_tile_sweep");
  row.SetCounter("output_checksum",
                 static_cast<std::int64_t>(combined & 0x7fffffffffffffffull));
  row.SetText("verdict", ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace
}  // namespace s4tf::bench

int main() {
  using namespace s4tf;
  using namespace s4tf::bench;

  std::printf("== Ablation: fusion depth (elementwise -> epilogue -> buffer "
              "reuse) on traced training steps ==\n\n");

  BenchReport report("ablation_fusion");
  report.SetConfig("accelerator", std::string("gtx1080_sim"));
  report.SetConfig("variants",
                   std::string("unfused,elementwise,epilogue,all"));

  {
    Rng rng(1);
    const nn::LeNet model(rng);
    ReportModel("LeNet-5 (batch 32)",
                BuildStepProgram(model, Shape({32, 28, 28, 1}), 10, 0.1f),
                report);
  }
  {
    Rng rng(2);
    const nn::ResNet model(nn::ResNetConfig::Cifar(20), rng);
    ReportModel("ResNet-20 (batch 32)",
                BuildStepProgram(model, Shape({32, 32, 32, 3}), 10, 0.1f),
                report);
  }
  {
    Rng rng(3);
    const nn::ResNet model(nn::ResNetConfig::Cifar(56), rng);
    ReportModel("ResNet-56 (batch 128)",
                BuildStepProgram(model, Shape({128, 32, 32, 3}), 10, 0.1f),
                report);
  }

  std::printf("\n-- exact-gated micro rows --\n");
  bool ok = true;
  {
    const std::vector<Literal> inputs = {RandomLiteral(Shape({8, 24}), 71),
                                         RandomLiteral(Shape({24, 96}), 72),
                                         RandomLiteral(Shape({96}), 73)};
    ok &= ReportEpilogueMicro("epilogue/matmul_bias_relu",
                              MatMulBiasReluModule(), inputs, report);
  }
  {
    const std::vector<Literal> inputs = {
        RandomLiteral(Shape({2, 8, 8, 4}), 81),
        RandomLiteral(Shape({3, 3, 4, 96}), 82),
        RandomLiteral(Shape({96}), 83)};
    ok &= ReportEpilogueMicro("epilogue/conv2d_bias_relu",
                              ConvBiasReluModule(), inputs, report);
  }
  ok &= ReportArenaMicro(report);
  ok &= ReportTilingMicro(report);

  std::printf(
      "\nEpilogue fusion folds the bias/activation tail of every dense and "
      "conv layer into\nthe producing kernel (one launch, no intermediate "
      "spills); the buffer planner then\nbounds the surviving intermediates "
      "to the live-set peak. Both are bit-exact: the\nfused kernels evaluate "
      "the same float expressions in the same order as the unfused\n"
      "program, for any thread count.\n");
  if (!ok) std::fprintf(stderr, "ablation_fusion: exact gate FAILED\n");
  return (report.Write() && ok) ? 0 : 1;
}
