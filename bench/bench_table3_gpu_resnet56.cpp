// Table 3: "Training performance for ResNet-56 on CIFAR-10 on an Nvidia
// GTX 1080 GPU."
//
//   paper:  PyTorch 2462 ex/s | TensorFlow 2390 | S4TF eager 730 |
//           S4TF LazyTensor 1827
//   shape:  PyTorch ~ TensorFlow > S4TF-Lazy > S4TF-Eager, with fusion
//           closing most (not all) of the eager gap.
//
// Method: the full ResNet-56 SGD training step is traced at the paper's
// batch size (128) through the tape + lazy tracer and compiled by the
// XLA-like JIT — giving the real program's op counts and per-kernel
// flop/byte costs — then each framework row prices one step under its
// execution strategy (per-op dispatch, per-step retrace, or staged
// replay) on the simulated GTX 1080. Numeric equivalence of the four
// strategies is covered by the test suite at small shapes.
#include <cstdio>

#include "device/sim_accelerator.h"
#include "report.h"
#include "frameworks/profiles.h"
#include "nn/models/resnet.h"
#include "step_program.h"

namespace s4tf::bench {
namespace {

struct Row {
  std::string framework;
  double throughput;
};

Row PriceStrategy(const frameworks::FrameworkProfile& profile,
                  const StepProgram& program, std::int64_t batch,
                  const AcceleratorSpec& spec) {
  SimAccelerator device(spec);
  double host_seconds = 0.0;
  // Post-warmup steady state: the one-time JIT compile amortizes to ~zero
  // over a 10-epoch run; the paper also measures post-warmup throughput.
  const double amortized_compile = 0.0;
  switch (profile.strategy) {
    case frameworks::ExecutionStrategy::kEagerOpByOp:
      host_seconds = static_cast<double>(program.trace_ops) *
                     profile.per_op_host_seconds;
      program.unfused->ChargeTo(device);
      break;
    case frameworks::ExecutionStrategy::kLazyRetrace:
      // Re-trace every step; compile amortizes over the (post-warmup)
      // steady state via the program cache, but materialization overhead
      // per step remains.
      host_seconds = static_cast<double>(program.trace_ops) *
                     profile.per_op_host_seconds;
      program.fused->ChargeTo(device);
      break;
    case frameworks::ExecutionStrategy::kStagedGraph:
      host_seconds = profile.per_step_host_seconds;
      program.fused->ChargeTo(device);
      break;
  }
  const double device_seconds =
      device.elapsed_seconds() / profile.device_efficiency;
  // Host tracing/dispatch and device execution cannot fully overlap for a
  // retraced program (the trace must exist before dispatch): lazy pays
  // host + device serially; eager pipelines (max); staged is device-bound.
  double step_seconds = 0.0;
  switch (profile.strategy) {
    case frameworks::ExecutionStrategy::kEagerOpByOp:
      step_seconds = std::max(host_seconds, device_seconds);
      break;
    case frameworks::ExecutionStrategy::kLazyRetrace:
      step_seconds = host_seconds + device_seconds;
      break;
    case frameworks::ExecutionStrategy::kStagedGraph:
      step_seconds = host_seconds + device_seconds;
      break;
  }
  step_seconds += amortized_compile;
  return Row{profile.name, static_cast<double>(batch) / step_seconds};
}

}  // namespace
}  // namespace s4tf::bench

int main() {
  using namespace s4tf;
  using namespace s4tf::bench;

  std::printf(
      "== Table 3: ResNet-56 / CIFAR-10 training throughput on a "
      "(simulated) GTX 1080 ==\n\n");

  const std::int64_t batch = 128;
  Rng rng(1);
  const nn::ResNet model(nn::ResNetConfig::Cifar(56), rng);
  std::printf("model: ResNet-56, %lld parameters\n",
              static_cast<long long>(model.ParameterCount()));

  BenchReport report("table3_gpu_resnet56");
  report.SetConfig("batch", batch);
  report.SetConfig("model", std::string("resnet56_cifar10"));
  report.SetConfig("accelerator", std::string("gtx1080_sim"));

  WallTimer build_timer;
  MetricsDelta counters;
  const StepProgram program = BuildStepProgram(
      model, Shape({batch, 32, 32, 3}), 10, /*learning_rate=*/0.1f);
  counters.Capture();
  std::printf(
      "traced SGD step at batch %lld: %lld ops -> %lld HLO instructions "
      "-> %lld fused kernels (built in %.1f ms)\n%s\n\n",
      static_cast<long long>(batch),
      static_cast<long long>(program.trace_ops),
      static_cast<long long>(program.module.instruction_count()),
      static_cast<long long>(program.fused->kernel_count()),
      build_timer.Milliseconds(), counters.Summary().c_str());
  {
    BenchRow& row = report.AddRow("step_program");
    row.SetCounters(counters);
    row.SetCounter("step.trace_ops", program.trace_ops);
    row.SetCounter("step.hlo_instructions", program.module.instruction_count());
    row.SetCounter("step.fused_kernels", program.fused->kernel_count());
    row.SetCounter("step.parameters", program.parameter_count);
    row.SetValue("cost.compile_seconds", program.compile_seconds);
    row.SetWall("build_step_program", MeasureWall(3, [&] {
                  BuildStepProgram(model, Shape({batch, 32, 32, 3}), 10,
                                   /*learning_rate=*/0.1f);
                }));
  }

  TablePrinter table({"Framework", "Throughput (examples/s)"}, {34, 24});
  table.PrintHeader();
  const AcceleratorSpec gpu = AcceleratorSpec::Gtx1080();
  std::vector<Row> rows = {
      PriceStrategy(frameworks::PyTorchLikeProfile(), program, batch, gpu),
      PriceStrategy(frameworks::TensorFlowGraphProfile(), program, batch,
                    gpu),
      PriceStrategy(frameworks::S4tfEagerProfile(), program, batch, gpu),
      PriceStrategy(frameworks::S4tfLazyProfile(), program, batch, gpu),
  };
  for (const Row& row : rows) {
    table.PrintRow({row.framework, FormatF(row.throughput, 0)});
    report.AddRow("framework/" + row.framework)
        .SetValue("throughput_ex_per_s", row.throughput);
  }
  table.PrintRule();

  std::printf(
      "\npaper reference:  pytorch 2462 | tensorflow 2390 | s4tf eager 730 "
      "| s4tf lazytensor 1827\n");
  std::printf(
      "expected shape:   pytorch ~ tensorflow > s4tf-lazytensor > "
      "s4tf-eager\n");
  const bool shape_holds = rows[0].throughput > rows[3].throughput &&
                           rows[1].throughput > rows[3].throughput &&
                           rows[3].throughput > rows[2].throughput;
  std::printf("shape holds:      %s\n", shape_holds ? "YES" : "NO");
  report.AddRow("verdicts").SetText("shape_holds", shape_holds ? "YES" : "NO");
  const bool artifact_ok = report.Write();
  return (shape_holds && artifact_ok) ? 0 : 1;
}
