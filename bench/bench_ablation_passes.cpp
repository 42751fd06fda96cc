// Ablation: the XLA-like compiler's optimization passes over AD-generated
// programs.
//
// The paper (§2.2): "the code generated by the AD system is fully amenable
// to the same set of compile-time optimizations as regular Swift code."
// This bench runs the passes over full training-step programs as
// frameworks::StageTrainStep lowers them (forward + backward + SGD
// update, straight from the gradient tape) and reports how much each pass
// removes: AD output really is full of x*1 seeds, duplicate
// subexpressions, and dead values.
#include <cstdio>

#include "frameworks/staged.h"
#include "nn/models/lenet.h"
#include "nn/models/resnet.h"
#include "report.h"
#include "xla/compiler.h"

namespace s4tf::bench {
namespace {

template <ad::DifferentiableStruct M>
void Report(const char* name, const M& model, const Shape& batch_shape,
            BenchReport& report) {
  xla::HloModule module =
      frameworks::StageTrainStep(model, batch_shape, 10, 0.1f).module;
  const std::int64_t raw = module.instruction_count();
  const int simplified = xla::RunHloAlgebraicSimplify(module);
  int cse = 0;
  for (int i = 0; i < 6; ++i) {
    const int round = xla::RunHloCse(module);
    cse += round;
    if (round == 0) break;
  }
  const int dce = xla::RunHloDce(module);
  // The depth passes run on the optimized module: how many elementwise
  // consumers fold into MatMul/Conv2D epilogues, and how far the
  // liveness-based arena shrinks the intermediate footprint.
  const auto chains = xla::ComputeEpilogueChains(module);
  std::int64_t folded = 0;
  for (const auto& chain : chains) {
    folded += static_cast<std::int64_t>(chain.ops.size());
  }
  const xla::BufferPlan plan = xla::PlanBuffers(module, chains);
  std::printf(
      "%-24s raw %6lld | simplify -%4d | cse -%4d | dce -%4d | final %6lld "
      "(%.1f%% smaller)\n",
      name, static_cast<long long>(raw), simplified, cse, dce,
      static_cast<long long>(module.instruction_count()),
      100.0 * (1.0 - static_cast<double>(module.instruction_count()) /
                         static_cast<double>(raw)));
  std::printf(
      "%-24s epilogue: %3zu chains, %3lld folded ops | arena: %lld bytes "
      "peak vs %lld unreused\n",
      "", chains.size(), static_cast<long long>(folded),
      static_cast<long long>(plan.peak_arena_bytes),
      static_cast<long long>(plan.unreused_bytes));
  BenchRow& row = report.AddRow(std::string("model/") + name);
  row.SetCounter("instructions_raw", raw);
  row.SetCounter("removed_simplify", simplified);
  row.SetCounter("removed_cse", cse);
  row.SetCounter("removed_dce", dce);
  row.SetCounter("instructions_final", module.instruction_count());
  row.SetCounter("epilogue_chains", static_cast<std::int64_t>(chains.size()));
  row.SetCounter("epilogue_folded_ops", folded);
  row.SetCounter("arena_peak_bytes", plan.peak_arena_bytes);
  row.SetCounter("arena_unreused_bytes", plan.unreused_bytes);
  row.SetValue("shrink_percent",
               100.0 * (1.0 - static_cast<double>(module.instruction_count()) /
                                  static_cast<double>(raw)));
}

}  // namespace
}  // namespace s4tf::bench

int main() {
  using namespace s4tf;
  using namespace s4tf::bench;

  std::printf("== Ablation: compiler passes over AD-generated training-step "
              "programs ==\n\n");

  BenchReport report("ablation_passes");
  report.SetConfig("passes", std::string("simplify,cse,dce,epilogue,arena"));

  Rng lenet_rng(1);
  Report("LeNet-5 step (batch 16)", nn::LeNet(lenet_rng),
         Shape({16, 28, 28, 1}), report);
  Rng resnet_rng(2);
  Report("ResNet-20 step (batch 16)",
         nn::ResNet(nn::ResNetConfig::Cifar(20), resnet_rng),
         Shape({16, 32, 32, 3}), report);

  std::printf(
      "\nThe removed instructions are AD artifacts: ones-seeds multiplied "
      "in, repeated\nsubexpressions from pullback composition, and values "
      "only the forward pass used.\n");
  return report.Write() ? 0 : 1;
}
