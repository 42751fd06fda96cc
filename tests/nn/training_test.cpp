#include "nn/training.h"

#include <cmath>
#include <gtest/gtest.h>

#include "nn/datasets.h"
#include "nn/models/lenet.h"
#include "nn/models/spline.h"
#include "obs/metrics.h"

namespace s4tf::nn {
namespace {

TEST(OptimizerTest, SGDStepMovesAgainstGradient) {
  Rng rng(1);
  SplineModel model(4, rng);
  model.control_points = Tensor::FromVector(Shape({4, 1}), {1, 1, 1, 1});
  SGD<SplineModel> sgd(0.5f);
  SplineModel::TangentVector grads;
  grads.control_points = Tensor::FromVector(Shape({4, 1}), {2, 0, -2, 4});
  sgd.Update(model, grads);
  EXPECT_EQ(model.control_points.ToVector(),
            (std::vector<float>{0, 1, 2, -1}));
}

TEST(OptimizerTest, SGDUpdateDoesNotCopyParameters) {
  // The §4.2 claim: the optimizer borrows the model uniquely and updates
  // in place — zero deep copies of parameter buffers.
  Rng rng(2);
  LeNet model(rng);
  const Tensor x = Tensor::RandomUniform(Shape({2, 28, 28, 1}), rng, 0, 1);
  const Tensor labels = OneHot({0, 1}, 10, x.device());
  SGD<LeNet> sgd(0.01f);
  auto [loss, grads] = ad::ValueWithGradient(model, [&](const LeNet& m) {
    return SoftmaxCrossEntropy(m(x), labels);
  });
  (void)loss;
  vs::CowStatsScope stats;
  sgd.Update(model, grads);
  EXPECT_EQ(stats.delta().deep_copies, 0);
  EXPECT_GT(stats.delta().unique_mutations, 0);  // in-place fast path taken
}

TEST(OptimizerTest, MomentumAcceleratesAlongPersistentDirection) {
  Rng rng(3);
  SplineModel model(1, rng);
  model.control_points = Tensor::FromVector(Shape({1, 1}), {0.0f});
  SGD<SplineModel> sgd(0.1f, /*momentum=*/0.9f);
  SplineModel::TangentVector grads;
  grads.control_points = Tensor::FromVector(Shape({1, 1}), {1.0f});
  sgd.Update(model, grads);
  const float after_one = model.control_points.ToVector()[0];
  sgd.Update(model, grads);
  const float after_two = model.control_points.ToVector()[0];
  // Second step is larger than the first (velocity accumulates).
  EXPECT_LT(after_two - after_one, after_one - 0.0f - 1e-6f);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Rng rng(4);
  SplineModel model(4, rng);
  const Tensor basis = BuildSplineBasis({0.0f, 0.33f, 0.67f, 1.0f}, 4);
  const Tensor targets = Tensor::FromVector(Shape({4, 1}), {1, -1, 2, 0});
  Adam<SplineModel> adam(0.1f);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 200; ++i) {
    auto [loss, grads] = ad::ValueWithGradient(
        model, [&](const SplineModel& m) {
          return SplineLoss(m, basis, targets);
        });
    if (i == 0) first = loss.ScalarValue();
    last = loss.ScalarValue();
    adam.Update(model, grads);
  }
  EXPECT_LT(last, first * 0.01f);
}

TEST(OptimizerTest, BacktrackingLineSearchDecreasesLoss) {
  Rng rng(5);
  SplineModel model(8, rng);
  const SplineData data = MakeGlobalSplineData(64, 99);
  const Tensor basis = BuildSplineBasis(data.xs, 8);
  BacktrackingLineSearch<SplineModel> search;
  auto loss_fn = [&](const SplineModel& m) {
    return SplineLoss(m, basis, data.targets);
  };
  float previous = loss_fn(model).ScalarValue();
  for (int i = 0; i < 20; ++i) {
    const float now = search.Step(model, loss_fn);
    EXPECT_LE(now, previous + 1e-6f);
    previous = now;
  }
  EXPECT_LT(previous, 0.02f);  // converged near the noise floor
}

TEST(DatasetTest, BatchesAreDeterministicAndShaped) {
  const auto dataset = SyntheticImageDataset::Mnist(64, 7);
  const auto a = dataset.Batch(0, 8, NaiveDevice());
  const auto b = dataset.Batch(0, 8, NaiveDevice());
  EXPECT_EQ(a.images.shape(), Shape({8, 28, 28, 1}));
  EXPECT_EQ(a.one_hot.shape(), Shape({8, 10}));
  EXPECT_EQ(a.images.ToVector(), b.images.ToVector());
  EXPECT_EQ(a.labels, b.labels);
}

TEST(DatasetTest, DifferentBatchesDiffer) {
  const auto dataset = SyntheticImageDataset::Cifar10(64, 8);
  const auto a = dataset.Batch(0, 8, NaiveDevice());
  const auto b = dataset.Batch(1, 8, NaiveDevice());
  EXPECT_NE(a.images.ToVector(), b.images.ToVector());
}

TEST(DatasetTest, LabelsAreWithinRange) {
  const auto dataset = SyntheticImageDataset::ImageNetScaled(32, 9, 16, 100);
  const auto batch = dataset.Batch(0, 32, NaiveDevice());
  for (int label : batch.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 100);
  }
}

TEST(DatasetTest, OneHotMatchesLabels) {
  const auto dataset = SyntheticImageDataset::Mnist(16, 10);
  const auto batch = dataset.Batch(0, 16, NaiveDevice());
  const auto one_hot = batch.one_hot.ToVector();
  for (std::size_t i = 0; i < batch.labels.size(); ++i) {
    for (int c = 0; c < 10; ++c) {
      const float expected =
          c == batch.labels[i] ? 1.0f : 0.0f;
      EXPECT_EQ(one_hot[i * 10 + static_cast<std::size_t>(c)], expected);
    }
  }
}

TEST(LossTest, CrossEntropyOfPerfectPredictionIsSmall) {
  const Tensor confident = Tensor::FromVector(
      Shape({2, 3}), {100, 0, 0, 0, 100, 0});
  const Tensor labels = OneHot({0, 1}, 3, NaiveDevice());
  EXPECT_NEAR(SoftmaxCrossEntropy(confident, labels).ScalarValue(), 0.0f,
              1e-5);
}

TEST(LossTest, CrossEntropyOfUniformIsLogC) {
  const Tensor uniform = Tensor::Zeros(Shape({4, 10}));
  const Tensor labels = OneHot({0, 3, 5, 9}, 10, NaiveDevice());
  EXPECT_NEAR(SoftmaxCrossEntropy(uniform, labels).ScalarValue(),
              std::log(10.0f), 1e-5);
}

TEST(LossTest, AccuracyCountsArgmaxMatches) {
  const Tensor logits = Tensor::FromVector(
      Shape({3, 2}), {5, 1, 1, 5, 5, 1});
  EXPECT_FLOAT_EQ(Accuracy(logits, {0, 1, 0}), 1.0f);
  EXPECT_NEAR(Accuracy(logits, {1, 1, 0}), 2.0f / 3.0f, 1e-6);
}

TEST(TrainingIntegrationTest, LeNetLearnsSyntheticMnist) {
  Rng rng(42);
  LeNet model(rng);
  const auto dataset = SyntheticImageDataset::Mnist(64, 4242);
  SGD<LeNet> sgd(0.05f, 0.9f);
  const float before = Evaluate(model, dataset, 16, 4);
  float loss = 0.0f;
  for (int epoch = 0; epoch < 3; ++epoch) {
    loss = TrainEpoch(model, sgd, dataset, 16);
  }
  const float after = Evaluate(model, dataset, 16, 4);
  EXPECT_LT(loss, std::log(10.0f));
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.6f);  // synthetic classes are easily separable
}

TEST(TrainingIntegrationTest, LeNetStepSkipsTheImageGradient) {
  // The images are not on the tape, so the reverse sweep asks conv1's
  // pullback for its filter adjoint only: one input gradient (conv2's)
  // and two filter gradients per step.
  Rng rng(11);
  LeNet model(rng);
  const auto dataset = SyntheticImageDataset::Mnist(8, 13);
  const auto batch = dataset.Batch(0, 8, NaiveDevice());
  SGD<LeNet> sgd(0.05f);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  (void)TrainStep(model, sgd, [&batch](const LeNet& m) {
    return SoftmaxCrossEntropy(m(batch.images), batch.one_hot);
  });
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  auto delta = [&](const std::string& name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(delta("tensor.kernel.dispatch.conv2d_backprop_input"), 1);
  EXPECT_EQ(delta("tensor.kernel.dispatch.conv2d_backprop_filter"), 2);
}

TEST(TrainingIntegrationTest, TrainingOnLazyDeviceMatchesNaive) {
  // The same training program must produce identical-converging behaviour
  // on the naive and lazy devices (§3.3's illusion, end to end).
  const auto dataset = SyntheticImageDataset::Mnist(32, 777);

  Rng rng1(5);
  LeNet naive_model(rng1);
  SGD<LeNet> naive_sgd(0.05f);
  const float naive_loss = TrainEpoch(naive_model, naive_sgd, dataset, 16);

  LazyBackend backend;
  const Device lazy = backend.device();
  Rng rng2(5);
  LeNet lazy_model(rng2);
  MoveModelTo(lazy_model, lazy);
  SGD<LeNet> lazy_sgd(0.05f);
  const float lazy_loss = TrainEpoch(lazy_model, lazy_sgd, dataset, 16);

  EXPECT_NEAR(naive_loss, lazy_loss, 1e-3f);
  EXPECT_GT(backend.cache_hits(), 0);  // steps after the first hit cache
}

TEST(TrainingIntegrationTest, StatefulOptimizersWorkOnLazyDevice) {
  // Regression: optimizer state tensors default-construct on the naive
  // device; for scalar-shaped placeholder parameters (e.g. an unused
  // projection conv) a shape-only check passed while devices differed,
  // producing a cross-device op. Momentum SGD + Adam must run cleanly on
  // a lazy-device model containing such placeholders.
  LazyBackend backend;
  const auto dataset = SyntheticImageDataset::Mnist(16, 44);
  {
    Rng rng(7);
    LeNet model(rng);
    MoveModelTo(model, backend.device());
    SGD<LeNet> sgd(0.05f, /*momentum=*/0.9f);
    for (int step = 0; step < 2; ++step) {
      const auto batch = dataset.Batch(step, 8, backend.device());
      EXPECT_NO_THROW(TrainStep(model, sgd, [&batch](const LeNet& m) {
        return SoftmaxCrossEntropy(m(batch.images), batch.one_hot);
      }));
    }
  }
  {
    Rng rng(8);
    LeNet model(rng);
    MoveModelTo(model, backend.device());
    Adam<LeNet> adam(0.01f);
    const auto batch = dataset.Batch(0, 8, backend.device());
    EXPECT_NO_THROW(TrainStep(model, adam, [&batch](const LeNet& m) {
      return SoftmaxCrossEntropy(m(batch.images), batch.one_hot);
    }));
  }
}

TEST(TrainingIntegrationTest, AutoBarrierBoundsTraceSize) {
  // Without the automatic barrier the whole training loop unrolls into
  // one ever-growing trace (§3.4); with it, each step compiles the same
  // bounded program.
  const auto dataset = SyntheticImageDataset::Mnist(32, 12);

  LazyBackend with_barrier;
  {
    Rng rng(6);
    LeNet model(rng);
    MoveModelTo(model, with_barrier.device());
    SGD<LeNet> sgd(0.05f);
    TrainOptions options;
    options.auto_barrier = true;
    for (int step = 0; step < 3; ++step) {
      const auto batch = dataset.Batch(step, 8, with_barrier.device());
      TrainStep(model, sgd,
                [&batch](const LeNet& m) {
                  return SoftmaxCrossEntropy(m(batch.images), batch.one_hot);
                },
                options);
    }
  }
  // Step 2 and 3 reuse the compiled program: misses stay at 1-2 (first
  // step may compile a second program for evaluation paths).
  EXPECT_LE(with_barrier.cache_misses(), 2);
  EXPECT_GT(with_barrier.cache_hits(), 0);
}

TEST(TrainingIntegrationTest, SplinePersonalizationFineTunes) {
  // The Table 4 scenario end-to-end: fit the global model, then fine-tune
  // on personal data and verify the personal fit improves.
  Rng rng(13);
  SplineModel model(12, rng);
  const SplineData global = MakeGlobalSplineData(128, 1);
  const Tensor global_basis = BuildSplineBasis(global.xs, 12);
  BacktrackingLineSearch<SplineModel> search;
  for (int i = 0; i < 40; ++i) {
    search.Step(model, [&](const SplineModel& m) {
      return SplineLoss(m, global_basis, global.targets);
    });
  }

  const SplineData personal = MakePersonalSplineData(64, 555);
  const Tensor personal_basis = BuildSplineBasis(personal.xs, 12);
  const float before =
      SplineLoss(model, personal_basis, personal.targets).ScalarValue();
  for (int i = 0; i < 40; ++i) {
    search.Step(model, [&](const SplineModel& m) {
      return SplineLoss(m, personal_basis, personal.targets);
    });
  }
  const float after =
      SplineLoss(model, personal_basis, personal.targets).ScalarValue();
  EXPECT_LT(after, before * 0.5f);
}

}  // namespace
}  // namespace s4tf::nn
