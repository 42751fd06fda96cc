#include "nn/replica_group.h"

#include <cmath>
#include <gtest/gtest.h>

#include "nn/models/lenet.h"
#include "nn/training.h"

namespace s4tf::nn {
namespace {

TEST(DataParallelTest, EquivalentToLargeBatchStep) {
  // The Table 1 claim's mathematical core: K synchronous replicas on
  // shards of size n == one step at batch K*n (identical weights after).
  const auto dataset = SyntheticImageDataset::Mnist(32, 21);
  const LabeledBatch big = dataset.Batch(0, 16, NaiveDevice());

  Rng rng1(3);
  LeNet single(rng1);
  SGD<LeNet> sgd_single(0.1f);
  const float single_loss = TrainStep(single, sgd_single, [&](const LeNet& m) {
    return SoftmaxCrossEntropy(m(big.images), big.one_hot);
  });

  Rng rng2(3);
  LeNet parallel(rng2);
  SGD<LeNet> sgd_parallel(0.1f);
  ReplicaGroup group(4);
  const float parallel_loss =
      group.TrainStep(parallel, sgd_parallel, ShardBatch(big, 4));

  EXPECT_NEAR(single_loss, parallel_loss, 1e-5f);
  // Weights agree parameter by parameter.
  std::vector<std::vector<float>> expected;
  single.VisitParameters(
      [&](const Tensor& p) { expected.push_back(p.ToVector()); });
  std::size_t index = 0;
  parallel.VisitParameters([&](const Tensor& p) {
    const auto got = p.ToVector();
    const auto& want = expected[index++];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 2e-5f * std::max(1.0f, std::fabs(want[i])));
    }
  });
}

TEST(DataParallelTest, ShardCountDoesNotChangeTrainingTrajectory) {
  const auto dataset = SyntheticImageDataset::Mnist(64, 22);
  auto train = [&](int shards) {
    Rng rng(9);
    LeNet model(rng);
    SGD<LeNet> sgd(0.05f);
    ReplicaGroup group(shards);
    float loss = 0.0f;
    for (int step = 0; step < 3; ++step) {
      const LabeledBatch big = dataset.Batch(step, 16, NaiveDevice());
      loss = group.TrainStep(model, sgd, ShardBatch(big, shards));
    }
    return loss;
  };
  const float with_2 = train(2);
  const float with_8 = train(8);
  EXPECT_NEAR(with_2, with_8, 1e-4f);
}

TEST(DataParallelTest, SingleShardDegeneratesToTrainStep) {
  const auto dataset = SyntheticImageDataset::Mnist(16, 23);
  const LabeledBatch batch = dataset.Batch(0, 8, NaiveDevice());
  Rng rng1(4);
  LeNet a(rng1);
  SGD<LeNet> sgd_a(0.1f);
  const float la = TrainStep(a, sgd_a, [&](const LeNet& m) {
    return SoftmaxCrossEntropy(m(batch.images), batch.one_hot);
  });
  Rng rng2(4);
  LeNet b(rng2);
  SGD<LeNet> sgd_b(0.1f);
  ReplicaGroup group(1);
  const float lb = group.TrainStep(b, sgd_b, {batch});
  EXPECT_FLOAT_EQ(la, lb);
}

TEST(DataParallelTest, SequentialReferenceGroupTrains) {
  // Migrated off the [[deprecated]] DataParallelTrainStep wrapper (the
  // one remaining — deliberately suppressed — wrapper test lives in
  // tests/dist/replica_group_test.cpp): the sequential-reference
  // ReplicaGroup is the wrapper's implementation, so this pins the same
  // behaviour through the supported API.
  const auto dataset = SyntheticImageDataset::Mnist(16, 23);
  const LabeledBatch batch = dataset.Batch(0, 8, NaiveDevice());
  Rng rng(4);
  LeNet model(rng);
  SGD<LeNet> sgd(0.1f);
  ReplicaGroupOptions options;
  options.sequential = true;
  ReplicaGroup group(2, options);
  const float loss = group.TrainStep(model, sgd, ShardBatch(batch, 2));
  EXPECT_TRUE(std::isfinite(loss));
}

}  // namespace
}  // namespace s4tf::nn
