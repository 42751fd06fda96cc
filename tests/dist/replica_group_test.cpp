#include "nn/replica_group.h"

#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "nn/models/lenet.h"
#include "nn/optimizers.h"
#include "nn/training.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/threadpool.h"

namespace s4tf::nn {
namespace {

std::vector<std::vector<float>> Parameters(const LeNet& model) {
  std::vector<std::vector<float>> params;
  model.VisitParameters(
      [&](const Tensor& p) { params.push_back(p.ToVector()); });
  return params;
}

struct StepResult {
  float loss = 0.0f;
  std::vector<std::vector<float>> params;
};

// One ReplicaGroup::TrainStep from a fixed initialization, on a fresh
// group configured by `options`.
StepResult RunStep(int replicas, ReplicaGroupOptions options,
                   int steps = 1) {
  const auto dataset = SyntheticImageDataset::Mnist(32, 17);
  Rng rng(5);
  LeNet model(rng);
  SGD<LeNet> sgd(0.1f);
  ReplicaGroup group(replicas, std::move(options));
  StepResult result;
  for (int s = 0; s < steps; ++s) {
    const LabeledBatch batch = dataset.Batch(s, 16, NaiveDevice());
    result.loss = group.TrainStep(model, sgd, ShardBatch(batch, replicas));
  }
  result.params = Parameters(model);
  return result;
}

class ReplicaGroupTest : public ::testing::Test {
 protected:
  ~ReplicaGroupTest() override { SetIntraOpThreads(0); }
};

TEST_F(ReplicaGroupTest, ThreadedMatchesSequentialReferenceBitwise) {
  // The acceptance criterion: for every replica count x intra-op thread
  // count, the threaded step (gradients streamed into the collective
  // during the backward pass) produces bit-identical weights and loss to
  // the sequential reference.
  for (const int replicas : {1, 2, 4, 8}) {
    ReplicaGroupOptions reference;
    reference.sequential = true;
    SetIntraOpThreads(1);
    const StepResult expected = RunStep(replicas, reference);
    for (const int threads : {1, 2, 4}) {
      SetIntraOpThreads(threads);
      const StepResult got = RunStep(replicas, {});
      ASSERT_EQ(got.loss, expected.loss)
          << "replicas " << replicas << " threads " << threads;
      ASSERT_EQ(got.params, expected.params)
          << "replicas " << replicas << " threads " << threads;
    }
  }
}

TEST_F(ReplicaGroupTest, ReplicaCountDoesNotChangeTrainingTrajectory) {
  // Multi-step: every replica count walks the same weight trajectory to
  // within float tolerance (exact equality across replica counts is not
  // expected: the tree reduction's shape depends on the rank count).
  SetIntraOpThreads(2);
  const StepResult one = RunStep(1, {}, /*steps=*/3);
  for (const int replicas : {2, 4}) {
    const StepResult many = RunStep(replicas, {}, /*steps=*/3);
    EXPECT_NEAR(many.loss, one.loss, 1e-4f);
    ASSERT_EQ(many.params.size(), one.params.size());
    for (std::size_t p = 0; p < one.params.size(); ++p) {
      for (std::size_t i = 0; i < one.params[p].size(); ++i) {
        ASSERT_NEAR(many.params[p][i], one.params[p][i], 1e-4f)
            << "replicas " << replicas;
      }
    }
  }
}

TEST_F(ReplicaGroupTest, FaultInjectedTrainingIsBitIdenticalAndCounted) {
  const int replicas = 4;
  ReplicaGroupOptions faulty;
  faulty.faults.seed = 23;
  faulty.faults.drop_probability = 0.25;
  faulty.faults.straggler_probability = 0.1;
  faulty.faults.straggler_delay = std::chrono::milliseconds(1);
  faulty.collective.recv_timeout = std::chrono::milliseconds(2000);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const StepResult with_faults = RunStep(replicas, faulty, /*steps=*/2);
  const auto delta = obs::MetricsRegistry::Global()
                         .Snapshot()
                         .CounterDeltaSince(before);
  const StepResult clean = RunStep(replicas, {}, /*steps=*/2);

  // Dropped chunks and stragglers never change the numbers...
  EXPECT_EQ(with_faults.loss, clean.loss);
  EXPECT_EQ(with_faults.params, clean.params);
  // ...but the recovery is visible: drops surfaced as timeouts+retries.
  EXPECT_GT(delta.at("dist.fault.dropped_chunks"), 0);
  EXPECT_GT(delta.at("dist.retry.count"), 0);
  EXPECT_GT(delta.at("dist.fault.straggler_delays"), 0);
  EXPECT_EQ(delta.at("nn.replica.steps"), 2);
}

TEST_F(ReplicaGroupTest, OverlapMatchesSequentialReferenceAcrossBucketSizes) {
  // Overlapping the bucketed all-reduce with the backward pass changes
  // only the schedule, never the numbers: for every bucket granularity
  // the threaded step equals the sequential reference, bit for bit.
  const int replicas = 4;
  SetIntraOpThreads(2);
  ReplicaGroupOptions reference;
  reference.sequential = true;
  const StepResult expected = RunStep(replicas, reference);
  for (const std::int64_t bucket_bytes : {256, 65536, 1 << 24}) {
    ReplicaGroupOptions options;
    options.collective.bucket_bytes = bucket_bytes;
    const StepResult got = RunStep(replicas, options);
    ASSERT_EQ(got.loss, expected.loss) << "bucket_bytes " << bucket_bytes;
    ASSERT_EQ(got.params, expected.params) << "bucket_bytes " << bucket_bytes;
  }
}

TEST_F(ReplicaGroupTest, OverlapStreamsEveryBucketEarly) {
  // In the overlapped step every parameter's gradient-ready hook fires,
  // so every bucket is submitted during the backward pass — Wait() never
  // has to flush a leftover. These are logical-event counters, so the
  // values are exact, not timing-dependent.
  const int replicas = 2;
  SetIntraOpThreads(1);
  ReplicaGroupOptions options;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const StepResult got = RunStep(replicas, options);
  const auto delta = obs::MetricsRegistry::Global()
                         .Snapshot()
                         .CounterDeltaSince(before);
  EXPECT_TRUE(std::isfinite(got.loss));
  EXPECT_EQ(delta.at("dist.overlap.async_calls"), replicas);
  EXPECT_EQ(delta.at("dist.overlap.wait.calls"), replicas);
  EXPECT_EQ(delta.at("dist.overlap.buckets.early"),
            delta.at("dist.allreduce.buckets") -
                // The scalar loss all-reduce is synchronous: one bucket
                // per rank that never goes through the async path.
                replicas);
  EXPECT_EQ(delta.count("dist.overlap.buckets.flushed_at_wait"), 0u);
}

TEST_F(ReplicaGroupTest, OverlapUnderFaultInjectionStaysBitIdentical) {
  // Drops and stragglers while buckets are in flight on the comm threads
  // recover to the same weights as the clean run.
  const int replicas = 2;
  SetIntraOpThreads(2);
  ReplicaGroupOptions faulty;
  faulty.faults.seed = 31;
  faulty.faults.drop_probability = 0.25;
  faulty.faults.straggler_probability = 0.1;
  faulty.faults.straggler_delay = std::chrono::milliseconds(1);
  faulty.collective.recv_timeout = std::chrono::milliseconds(2000);

  const StepResult clean = RunStep(replicas, {}, /*steps=*/2);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const StepResult got = RunStep(replicas, faulty, /*steps=*/2);
  const auto delta = obs::MetricsRegistry::Global()
                         .Snapshot()
                         .CounterDeltaSince(before);
  EXPECT_EQ(got.loss, clean.loss);
  EXPECT_EQ(got.params, clean.params);
  EXPECT_GT(delta.at("dist.fault.dropped_chunks"), 0);
  EXPECT_GT(delta.at("dist.overlap.buckets.early"), 0);
}

TEST_F(ReplicaGroupTest, ReplicaDeathFailsLoudlyInBothOverlapModes) {
  // A replica seeded to die at each collective of the step — the
  // streamed gradient all-reduce (seq 0), the loss all-reduce (seq 1),
  // the barrier (seq 2) — surfaces a clean InternalError out of
  // TrainStep (the dying rank's ReplicaDeadError or a survivor's
  // exhausted retry budget, whichever ParallelFor rethrows).
  const int replicas = 2;
  SetIntraOpThreads(2);
  for (const std::uint32_t seq : {0u, 1u, 2u}) {
    ReplicaGroupOptions options;
    options.faults.death_rank = 1;
    options.faults.death_seq = seq;
    options.collective.recv_timeout = std::chrono::milliseconds(20);
    options.collective.max_retries = 2;
    EXPECT_THROW(RunStep(replicas, options), InternalError) << "seq " << seq;
  }
}

TEST_F(ReplicaGroupTest, CollectivesPerStepMatchesIssuedCollectives) {
  // internal::CollectivesPerStep converts a session's kill step into a
  // death seq, so it must equal what one step really issues per rank:
  // the dist.* call and barrier counters across {replicated, sharded} x
  // {guard off, on}.
  const int replicas = 2;
  SetIntraOpThreads(1);
  for (const bool sharded : {false, true}) {
    for (const bool guard : {false, true}) {
      ReplicaGroupOptions options;
      options.sharded = sharded;
      options.guard.enabled = guard;
      const obs::MetricsSnapshot before =
          obs::MetricsRegistry::Global().Snapshot();
      RunStep(replicas, options);
      const auto delta = obs::MetricsRegistry::Global()
                             .Snapshot()
                             .CounterDeltaSince(before);
      std::int64_t issued = 0;
      for (const char* name :
           {"dist.allreduce.calls", "dist.reduce_scatter.calls",
            "dist.all_gather.calls", "dist.barrier.count"}) {
        if (delta.count(name) != 0) issued += delta.at(name);
      }
      EXPECT_EQ(issued, replicas * internal::CollectivesPerStep(options))
          << "sharded " << sharded << " guard " << guard;
      EXPECT_EQ(internal::CollectivesPerStep(options),
                sharded ? (guard ? 6 : 4) : (guard ? 4 : 3))
          << "sharded " << sharded << " guard " << guard;
    }
  }
}

TEST_F(ReplicaGroupTest, WithDeviceScopingComposesWithReplicaWorkers) {
  // Each replica worker sees its own device as Device::Current() — the
  // per-replica selection is scoped, not a process-wide global.
  const int replicas = 3;
  ReplicaGroup group(replicas);
  std::vector<Device> seen(static_cast<std::size_t>(replicas));
  group.RunOnReplicas([&](int rank) {
    seen[static_cast<std::size_t>(rank)] = Device::Current();
  });
  for (int r = 0; r < replicas; ++r) {
    EXPECT_EQ(seen[static_cast<std::size_t>(r)], group.device(r));
    EXPECT_EQ(group.device(r).ordinal(), r);
  }
  // Distinct replicas have distinct (un-mixable) devices.
  EXPECT_NE(group.device(0), group.device(1));
  // The caller's own scope is untouched afterwards.
  EXPECT_EQ(Device::Current(), NaiveDevice());
}

TEST_F(ReplicaGroupTest, AttachedAcceleratorsChargeCollectiveTime) {
  ReplicaGroupOptions options;
  options.accelerator = AcceleratorSpec::TpuV3Core();
  const int replicas = 2;
  const auto dataset = SyntheticImageDataset::Mnist(16, 9);
  Rng rng(1);
  LeNet model(rng);
  SGD<LeNet> sgd(0.1f);
  ReplicaGroup group(replicas, options);
  const LabeledBatch batch = dataset.Batch(0, 8, NaiveDevice());
  group.TrainStep(model, sgd, ShardBatch(batch, replicas));
  for (int r = 0; r < replicas; ++r) {
    ASSERT_NE(group.accelerator(r), nullptr);
    EXPECT_GT(group.accelerator(r)->elapsed_seconds(), 0.0);
  }
  EXPECT_GT(group.last_step_wall_seconds(), 0.0);
  EXPECT_GT(group.last_step_replica_seconds(0), 0.0);
}

}  // namespace
}  // namespace s4tf::nn
