#include "frameworks/staged.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "nn/datasets.h"
#include "nn/models/lenet.h"
#include "nn/models/resnet.h"
#include "frameworks/profiles.h"
#include "obs/metrics.h"

namespace s4tf::frameworks {
namespace {

bool SameBits(const Literal& a, const Literal& b) {
  return a.shape == b.shape &&
         std::memcmp(a.data.data(), b.data.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// Graph-mode staged execution must compute the exact training trajectory
// of the direct tape loop (nn::TrainStep with plain SGD on the naive
// device): every loss and every weight, bit for bit.
template <ad::DifferentiableStruct M>
void ExpectStagedMatchesDirectTraining(
    const std::function<M()>& make_model,
    const nn::SyntheticImageDataset& dataset, int batch_size, int steps) {
  const float lr = 0.05f;
  M reference = make_model();
  nn::SGD<M> sgd(lr);
  const auto first = dataset.Batch(0, batch_size, NaiveDevice());
  StagedTrainStep staged(make_model(), first.images.shape(),
                         dataset.num_classes(), lr);
  for (int step = 0; step < steps; ++step) {
    const auto batch = dataset.Batch(step, batch_size, NaiveDevice());
    const float expected =
        nn::TrainStep(reference, sgd, [&batch](const M& m) {
          return nn::SoftmaxCrossEntropy(m(batch.images), batch.one_hot);
        });
    const float loss =
        staged.Run(batch.images.ToLiteral(), batch.one_hot.ToLiteral());
    EXPECT_EQ(std::memcmp(&loss, &expected, sizeof(float)), 0)
        << "step " << step << ": staged " << loss << ", direct " << expected;
  }
  std::size_t slot = 0;
  reference.VisitParameters([&](const Tensor& p) {
    ASSERT_LT(slot, staged.weights().size());
    EXPECT_TRUE(SameBits(staged.weights()[slot], p.ToLiteral()))
        << "weight " << slot;
    ++slot;
  });
  EXPECT_EQ(slot, staged.weights().size());
}

TEST(StagedTrainStepTest, MatchesDirectTrainingLossTrajectory) {
  ExpectStagedMatchesDirectTraining<nn::LeNet>(
      [] {
        Rng rng(7);
        return nn::LeNet(rng);
      },
      nn::SyntheticImageDataset::Mnist(32, 99), /*batch_size=*/8,
      /*steps=*/3);
}

// The conv / batch-norm / residual program the tables price.
TEST(StagedTrainStepTest, MatchesDirectResNetTrainingBitwise) {
  ExpectStagedMatchesDirectTraining<nn::ResNet>(
      [] {
        Rng rng(5);
        return nn::ResNet(nn::ResNetConfig::Cifar(8), rng);
      },
      nn::SyntheticImageDataset::Cifar10(16, 98), /*batch_size=*/4,
      /*steps=*/2);
}

TEST(StageTrainStepTest, BindsEveryModuleParameter) {
  Rng rng(11);
  const nn::LeNet model(rng);
  const StagedStep step =
      StageTrainStep(model, Shape({4, 28, 28, 1}), 10, 0.1f);
  int weights = 0, images = 0, one_hot = 0;
  std::vector<bool> slot_seen;
  for (const StagedBinding& binding : step.bindings) {
    switch (binding.role) {
      case StagedBinding::kWeight:
        ++weights;
        slot_seen.resize(std::max(slot_seen.size(), binding.slot + 1));
        EXPECT_FALSE(slot_seen[binding.slot]);
        slot_seen[binding.slot] = true;
        break;
      case StagedBinding::kImages:
        ++images;
        break;
      case StagedBinding::kOneHot:
        ++one_hot;
        break;
      case StagedBinding::kCaptured:
        break;
    }
  }
  int model_weights = 0;
  std::int64_t model_parameters = 0;
  model.VisitParameters([&](const Tensor& p) {
    ++model_weights;
    model_parameters += p.NumElements();
  });
  EXPECT_EQ(step.bindings.size(),
            static_cast<std::size_t>(step.module.num_parameters()));
  EXPECT_EQ(weights, model_weights);
  EXPECT_EQ(static_cast<int>(slot_seen.size()), model_weights);
  EXPECT_EQ(images, 1);
  EXPECT_EQ(one_hot, 1);
  EXPECT_EQ(step.module.roots().size(),
            static_cast<std::size_t>(1 + model_weights));
  EXPECT_EQ(step.parameter_count, model_parameters);
  EXPECT_GT(step.trace_ops, 0);
}

std::int64_t CounterDelta(const obs::MetricsSnapshot& before,
                          const std::string& name) {
  return obs::MetricsRegistry::Global().Snapshot().counter(name) -
         before.counter(name);
}

// A warm run of the compiled LeNet-5 step dispatches one kernel per
// instruction, except parameters, constants and the links folded into
// MatMul/Conv2D epilogues, and one fused dispatch per chain.
TEST(StagedTrainStepTest, WarmRunDispatchesOneKernelPerUnfoldedInstruction) {
  Rng rng(12);
  StagedTrainStep staged(nn::LeNet(rng), Shape({4, 28, 28, 1}), 10, 0.05f);
  const xla::HloModule& module = staged.executable().module();
  std::int64_t constants = 0;
  for (const xla::HloInstruction& inst : module.instructions()) {
    if (inst.kind == OpKind::kConstant) ++constants;
  }
  const std::vector<xla::EpilogueChain> chains =
      xla::ComputeEpilogueChains(module);
  std::int64_t folded_links = 0;
  for (const xla::EpilogueChain& chain : chains) {
    folded_links += static_cast<std::int64_t>(chain.ops.size());
  }

  const auto batch =
      nn::SyntheticImageDataset::Mnist(16, 5).Batch(0, 4, NaiveDevice());
  const Literal images = batch.images.ToLiteral();
  const Literal one_hot = batch.one_hot.ToLiteral();
  staged.Run(images, one_hot);  // warm
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  staged.Run(images, one_hot);
  EXPECT_EQ(CounterDelta(before, "tensor.kernel.dispatches"),
            module.instruction_count() - module.num_parameters() - constants -
                folded_links);
  EXPECT_EQ(CounterDelta(before, "tensor.kernel.dispatch.fused_epilogue"),
            static_cast<std::int64_t>(chains.size()));
  // The program as staged today: 106 instructions, 17 parameters, no
  // constants, and 10 chains folding 13 links.
  EXPECT_EQ(module.instruction_count(), 106);
  EXPECT_EQ(module.num_parameters(), 17);
  EXPECT_EQ(chains.size(), 10u);
  EXPECT_EQ(folded_links, 13);
}

TEST(StagedTrainStepTest, CompilesExactlyOnce) {
  Rng rng(8);
  const nn::LeNet model(rng);
  StagedTrainStep staged(model, Shape({4, 28, 28, 1}), 10, 0.05f);
  const double compile_cost = staged.compile_seconds();
  EXPECT_GT(compile_cost, 0.0);
  const auto dataset = nn::SyntheticImageDataset::Mnist(16, 3);
  for (int step = 0; step < 4; ++step) {
    const auto batch = dataset.Batch(step, 4, NaiveDevice());
    staged.Run(batch.images.ToLiteral(), batch.one_hot.ToLiteral());
  }
  EXPECT_EQ(staged.compile_seconds(), compile_cost);  // no recompiles
  EXPECT_EQ(staged.steps(), 4);
}

TEST(StagedTrainStepTest, HostCostIsPerStepNotPerOp) {
  Rng rng(9);
  const nn::LeNet model(rng);
  StagedTrainStep staged(model, Shape({4, 28, 28, 1}), 10, 0.05f);
  const auto dataset = nn::SyntheticImageDataset::Mnist(16, 3);
  for (int step = 0; step < 5; ++step) {
    const auto batch = dataset.Batch(step, 4, NaiveDevice());
    staged.Run(batch.images.ToLiteral(), batch.one_hot.ToLiteral());
  }
  EXPECT_NEAR(staged.host_seconds(), 5 * kSessionOverheadSeconds, 1e-12);
  // The program has hundreds of instructions; per-op pricing would cost
  // orders of magnitude more host time.
  EXPECT_GT(staged.program_size(), 100);
}

TEST(StagedTrainStepTest, WeightsEvolve) {
  Rng rng(10);
  const nn::LeNet model(rng);
  StagedTrainStep staged(model, Shape({4, 28, 28, 1}), 10, 0.05f);
  const auto before = staged.weights()[0].data.ToVector();
  const auto dataset = nn::SyntheticImageDataset::Mnist(16, 4);
  const auto batch = dataset.Batch(0, 4, NaiveDevice());
  staged.Run(batch.images.ToLiteral(), batch.one_hot.ToLiteral());
  EXPECT_NE(staged.weights()[0].data.ToVector(), before);
}

TEST(ProfilesTest, Table3OrderingConstants) {
  // The host-cost constants must preserve the paper's structure: S4TF
  // eager has the heaviest per-op path; PyTorch the lightest; lazy traces
  // cheaper than eager dispatches.
  EXPECT_GT(S4tfEagerProfile().per_op_host_seconds,
            S4tfLazyProfile().per_op_host_seconds);
  EXPECT_GT(S4tfEagerProfile().per_op_host_seconds,
            PyTorchLikeProfile().per_op_host_seconds);
  EXPECT_FALSE(PyTorchLikeProfile().fusion);
  EXPECT_TRUE(S4tfLazyProfile().fusion);
  EXPECT_EQ(TensorFlowGraphProfile().strategy,
            ExecutionStrategy::kStagedGraph);
}

TEST(ProfilesTest, Table2EfficiencyOrdering) {
  EXPECT_GT(Table2TensorFlowProfile().device_efficiency,
            Table2JaxFlaxProfile().device_efficiency);
  EXPECT_NEAR(Table2JaxFlaxProfile().device_efficiency,
              Table2S4tfProfile().device_efficiency, 0.1);
}

}  // namespace
}  // namespace s4tf::frameworks
