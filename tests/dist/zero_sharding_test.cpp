// ZeRO-style sharded optimizer state acceptance tests: the sharded
// TrainStep (reduce-scatter grads -> per-rank shard update -> all-gather
// params) is bit-identical to the replicated path across world sizes and
// thread counts; per-rank optimizer state shrinks
// ~1/world; the shard plan survives non-dividing worlds and empty
// shards; faults and replica death behave exactly as in replicated mode.
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
  std::vector<std::vector<float>> adam_m;  // first-moment state, per slot
  std::int64_t adam_step = 0;
};

// `steps` Adam TrainSteps from a fixed initialization on a fresh group.
// Adam (two state tensors per slot plus a step scalar) is the
// interesting optimizer for sharding: state must partition AND gather
// back for checkpoints.
StepResult RunAdamSteps(int replicas, ReplicaGroupOptions options,
                        int steps = 2) {
  const auto dataset = SyntheticImageDataset::Mnist(32, 17);
  Rng rng(5);
  LeNet model(rng);
  Adam<LeNet> adam(0.01f);
  ReplicaGroup group(replicas, std::move(options));
  StepResult result;
  for (int s = 0; s < steps; ++s) {
    const LabeledBatch batch = dataset.Batch(s, 16, NaiveDevice());
    result.loss = group.TrainStep(model, adam, ShardBatch(batch, replicas));
  }
  result.params = Parameters(model);
  OptimizerStateRefs refs = OptimizerStateRefs::Of(adam);
  for (const auto& [name, slots] : refs.tensor_slots) {
    if (std::string(name) != "m") continue;
    for (const Tensor& t : *slots) {
      result.adam_m.push_back(t.NumElements() > 0 ? t.ToVector()
                                                  : std::vector<float>{});
    }
  }
  for (const auto& [name, value] : refs.scalars) {
    if (std::string(name) == "step") result.adam_step = *value;
  }
  return result;
}

// Per-rank optimizer-state bytes after `steps` sharded Adam steps.
std::vector<std::int64_t> ShardedStateBytes(int replicas, int steps = 2) {
  const auto dataset = SyntheticImageDataset::Mnist(32, 17);
  Rng rng(5);
  LeNet model(rng);
  Adam<LeNet> adam(0.01f);
  ReplicaGroupOptions options;
  options.sharded = true;
  ReplicaGroup group(replicas, options);
  for (int s = 0; s < steps; ++s) {
    const LabeledBatch batch = dataset.Batch(s, 16, NaiveDevice());
    group.TrainStep(model, adam, ShardBatch(batch, replicas));
  }
  std::vector<std::int64_t> bytes;
  for (int r = 0; r < replicas; ++r) {
    bytes.push_back(group.zero_opt_state_bytes(r));
  }
  return bytes;
}

class ZeroShardingTest : public ::testing::Test {
 protected:
  ~ZeroShardingTest() override { SetIntraOpThreads(0); }
};

TEST_F(ZeroShardingTest, ShardPlanCoversSlotsForEveryWorld) {
  Rng rng(1);
  LeNet model(rng);
  std::int64_t total = 0;
  std::int64_t slots = 0;
  model.VisitParameters([&](Tensor& p) {
    total += p.NumElements();
    ++slots;
  });
  // Includes worlds that don't divide the element count and worlds
  // larger than the slot count (trailing shards empty).
  for (const int world : {1, 2, 3, 4, 7, 8, 64}) {
    const auto plan =
        internal::MakeZeroShardPlan(internal::MakeParamLayout(model), world);
    ASSERT_EQ(plan.cuts.size(), static_cast<std::size_t>(world) + 1);
    ASSERT_EQ(plan.elem_offsets.size(), static_cast<std::size_t>(world) + 1);
    EXPECT_EQ(plan.cuts.front(), 0);
    EXPECT_EQ(plan.cuts.back(), slots);
    EXPECT_EQ(plan.elem_offsets.front(), 0);
    EXPECT_EQ(plan.elem_offsets.back(), total);
    std::int64_t elems = 0;
    for (int r = 0; r < world; ++r) {
      ASSERT_LE(plan.cuts[static_cast<std::size_t>(r)],
                plan.cuts[static_cast<std::size_t>(r) + 1])
          << "world " << world;
      ASSERT_LE(plan.elem_offsets[static_cast<std::size_t>(r)],
                plan.elem_offsets[static_cast<std::size_t>(r) + 1]);
      elems += plan.shard_elems(r);
    }
    EXPECT_EQ(elems, total) << "world " << world;
    if (world > static_cast<int>(slots)) {
      // More ranks than slots: shards are whole slots, so by pigeonhole
      // at least world - slots of them are empty — and that is fine; the
      // empty ranks still participate in every collective.
      int empty = 0;
      for (int r = 0; r < world; ++r) {
        if (plan.shard_elems(r) == 0) ++empty;
      }
      EXPECT_GE(empty, world - static_cast<int>(slots))
          << "world " << world;
    }
  }
}

TEST_F(ZeroShardingTest, ShardedMatchesReplicatedBitwiseAcrossGrid) {
  // The tentpole acceptance grid: world x intra-op threads, sharded ==
  // replicated == sequential reference, bit for bit — params, loss, AND
  // gathered optimizer state (so checkpoints agree too).
  for (const int replicas : {1, 2, 4, 8}) {
    ReplicaGroupOptions reference;
    reference.sequential = true;
    SetIntraOpThreads(1);
    const StepResult expected = RunAdamSteps(replicas, reference);
    for (const int threads : {1, 2, 4}) {
      SetIntraOpThreads(threads);
      ReplicaGroupOptions sharded;
      sharded.sharded = true;
      const StepResult got = RunAdamSteps(replicas, sharded);
      ASSERT_EQ(got.loss, expected.loss)
          << "replicas " << replicas << " threads " << threads;
      ASSERT_EQ(got.params, expected.params)
          << "replicas " << replicas << " threads " << threads;
      ASSERT_EQ(got.adam_m, expected.adam_m)
          << "replicas " << replicas << " threads " << threads;
      ASSERT_EQ(got.adam_step, expected.adam_step);
    }
  }
}

TEST_F(ZeroShardingTest, ShardedStepsAreCounted) {
  SetIntraOpThreads(1);
  ReplicaGroupOptions options;
  options.sharded = true;
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  RunAdamSteps(2, options, /*steps=*/2);
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(delta.at("nn.zero.sharded_steps"), 2);
  EXPECT_EQ(delta.at("nn.replica.steps"), 2);
  EXPECT_EQ(delta.at("dist.reduce_scatter.calls"), 2 * 2);
  EXPECT_EQ(delta.at("dist.all_gather.calls"), 2 * 2);
}

TEST_F(ZeroShardingTest, PerRankOptimizerStateShrinksWithWorld) {
  // The ZeRO memory claim: each rank's Adam state is ~1/world of the
  // replicated footprint. Slot-aligned cuts mean a rank can exceed the
  // even share by at most one slot, so we assert against
  // replicated/world + the largest slot's bytes.
  SetIntraOpThreads(1);
  Rng rng(5);
  LeNet model(rng);
  Adam<LeNet> adam(0.01f);
  // Materialize full replicated state (one real update).
  const auto dataset = SyntheticImageDataset::Mnist(32, 17);
  ReplicaGroup seed_group(1);
  seed_group.TrainStep(model, adam,
                       ShardBatch(dataset.Batch(0, 16, NaiveDevice()), 1));
  const std::int64_t replicated = OptimizerStateBytes(adam);
  ASSERT_GT(replicated, 0);
  std::int64_t largest_slot_bytes = 0;
  model.VisitParameters([&](Tensor& p) {
    // Adam holds two float tensors (m, v) per parameter slot.
    largest_slot_bytes =
        std::max(largest_slot_bytes, 2 * 4 * p.NumElements());
  });

  for (const int world : {2, 4, 8}) {
    const std::vector<std::int64_t> bytes = ShardedStateBytes(world);
    std::int64_t sum = 0;
    for (int r = 0; r < world; ++r) {
      ASSERT_GT(bytes[static_cast<std::size_t>(r)], 0) << "rank " << r;
      // Scalars (the step counter) replicate; tensors shard.
      ASSERT_LE(bytes[static_cast<std::size_t>(r)],
                replicated / world + largest_slot_bytes + 64)
          << "world " << world << " rank " << r;
      sum += bytes[static_cast<std::size_t>(r)];
    }
    // Tensor state partitions exactly; only per-rank scalars replicate.
    EXPECT_LE(sum, replicated + 64 * world) << "world " << world;
    EXPECT_GE(sum, replicated) << "world " << world;
  }
}

TEST_F(ZeroShardingTest, WorldLargerThanSlotCountStillBitIdentical) {
  // More ranks than optimizer slots: some shards are empty, yet the
  // sharded step still matches the sequential reference exactly. LeNet
  // has 8 parameter slots; world 12 guarantees empty shards.
  SetIntraOpThreads(1);
  const int replicas = 12;
  ReplicaGroupOptions reference;
  reference.sequential = true;
  const auto dataset = SyntheticImageDataset::Mnist(48, 17);

  auto run = [&](ReplicaGroupOptions options) {
    Rng rng(5);
    LeNet model(rng);
    Adam<LeNet> adam(0.01f);
    ReplicaGroup group(replicas, std::move(options));
    const LabeledBatch batch = dataset.Batch(0, 24, NaiveDevice());
    StepResult result;
    result.loss = group.TrainStep(model, adam, ShardBatch(batch, replicas));
    result.params = Parameters(model);
    return result;
  };

  const StepResult expected = run(reference);
  ReplicaGroupOptions sharded;
  sharded.sharded = true;
  const StepResult got = run(sharded);
  EXPECT_EQ(got.loss, expected.loss);
  EXPECT_EQ(got.params, expected.params);
}

TEST_F(ZeroShardingTest, FaultInjectionUnderShardingStaysBitIdentical) {
  // Drops and stragglers during the reduce-scatter and all-gather
  // recover to the clean sharded (== replicated) weights.
  const int replicas = 4;
  SetIntraOpThreads(2);
  ReplicaGroupOptions clean_opts;
  clean_opts.sharded = true;
  const StepResult clean = RunAdamSteps(replicas, clean_opts);

  ReplicaGroupOptions faulty;
  faulty.sharded = true;
  faulty.faults.seed = 23;
  faulty.faults.drop_probability = 0.25;
  faulty.faults.straggler_probability = 0.1;
  faulty.faults.straggler_delay = std::chrono::milliseconds(1);
  faulty.collective.recv_timeout = std::chrono::milliseconds(2000);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  const StepResult got = RunAdamSteps(replicas, faulty);
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(got.loss, clean.loss);
  EXPECT_EQ(got.params, clean.params);
  EXPECT_EQ(got.adam_m, clean.adam_m);
  EXPECT_GT(delta.at("dist.fault.dropped_chunks"), 0);
  EXPECT_GT(delta.at("dist.retry.count"), 0);
}

TEST_F(ZeroShardingTest, ReplicaDeathUnderShardingFailsLoudly) {
  // A rank seeded to die at each of the sharded step's collective slots
  // (reduce-scatter = 0, loss all-reduce = 1, all-gather = 2) surfaces a
  // clean InternalError from TrainStep — never a hang.
  const int replicas = 2;
  SetIntraOpThreads(2);
  for (const std::uint32_t seq : {0u, 1u, 2u}) {
    ReplicaGroupOptions options;
    options.sharded = true;
    options.faults.death_rank = 1;
    options.faults.death_seq = seq;
    options.collective.recv_timeout = std::chrono::milliseconds(20);
    options.collective.max_retries = 2;
    EXPECT_THROW(RunAdamSteps(replicas, options, /*steps=*/1), InternalError)
        << "seq " << seq;
  }
}

TEST_F(ZeroShardingTest, SgdMomentumShardsBitIdenticallyToo) {
  // SGD-with-momentum exercises the single-state-tensor path.
  SetIntraOpThreads(2);
  const auto dataset = SyntheticImageDataset::Mnist(32, 17);
  auto run = [&](int replicas, ReplicaGroupOptions options) {
    Rng rng(5);
    LeNet model(rng);
    SGD<LeNet> sgd(0.1f, /*momentum=*/0.9f);
    ReplicaGroup group(replicas, std::move(options));
    float loss = 0.0f;
    for (int s = 0; s < 3; ++s) {
      const LabeledBatch batch = dataset.Batch(s, 16, NaiveDevice());
      loss = group.TrainStep(model, sgd, ShardBatch(batch, replicas));
    }
    return std::make_pair(loss, Parameters(model));
  };
  for (const int replicas : {2, 4}) {
    ReplicaGroupOptions reference;
    reference.sequential = true;
    const auto expected = run(replicas, reference);
    ReplicaGroupOptions sharded;
    sharded.sharded = true;
    const auto got = run(replicas, sharded);
    EXPECT_EQ(got.first, expected.first) << "replicas " << replicas;
    EXPECT_EQ(got.second, expected.second) << "replicas " << replicas;
  }
}

}  // namespace
}  // namespace s4tf::nn
