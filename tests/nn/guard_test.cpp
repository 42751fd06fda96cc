// Guard-layer unit tests: digest encoding, scan order-independence,
// verdict logic (finite sentinels, majority vote, world-1 self-check),
// clip/spike math — plus the ReplicaGroup-level detection grid: every
// corruption kind x replicated/sharded is detected and attributed to the
// injected rank via GradientCorruptionError.
#include "nn/guard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dist/fault_injector.h"
#include "nn/models/lenet.h"
#include "nn/optimizers.h"
#include "nn/replica_group.h"
#include "nn/training.h"
#include "obs/metrics.h"
#include "support/threadpool.h"

namespace s4tf::nn {
namespace {

using internal::GuardTripReason;
using internal::GuardVerdict;
using internal::kGuardSlots;

TEST(GuardDigestTest, EncodeDecodeRoundTripIsExact) {
  // Each uint16 half is exactly representable in a float, so the round
  // trip must be lossless for every 32-bit pattern we care about.
  for (const std::uint32_t digest :
       {0u, 1u, 0xffffu, 0x10000u, 0xdeadbeefu, 0xffffffffu, 0x8000ffffu}) {
    float hi_lo[2];
    internal::EncodeGuardDigest(digest, hi_lo);
    EXPECT_EQ(internal::DecodeGuardDigest(hi_lo), digest) << digest;
  }
}

TEST(GuardDigestTest, ShardOffsetsCoverOneGuardVectorPerRank) {
  const auto offsets = internal::GuardShardOffsets(4);
  ASSERT_EQ(offsets.size(), 5u);
  for (int r = 0; r <= 4; ++r) {
    EXPECT_EQ(offsets[static_cast<std::size_t>(r)], r * kGuardSlots);
  }
}

TEST(GuardScanTest, BucketOrderDoesNotChangeTheDigest) {
  // The streamed step scans buckets in backward-completion order; the
  // fold must match an ascending scan of the identical buffer.
  std::vector<float> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.5f * static_cast<float>(i) - 3.0f;
  }
  const std::int64_t bucket_elems = 96;  // last bucket is ragged
  internal::LocalGuardScan ascending(1000, bucket_elems, true);
  for (std::int64_t b = 0; b < ascending.num_buckets(); ++b) {
    ascending.ScanBucket(data.data(), b);
  }
  internal::LocalGuardScan descending(1000, bucket_elems, true);
  for (std::int64_t b = descending.num_buckets() - 1; b >= 0; --b) {
    descending.ScanBucket(data.data(), b);
  }
  EXPECT_EQ(ascending.Digest(), descending.Digest());
  // And the whole-buffer fold (the agreement-buffer digest) matches the
  // incremental scan of a bitwise-equal buffer.
  EXPECT_EQ(internal::GuardDigestBuckets(data.data(), 1000, bucket_elems),
            ascending.Digest());
  // A single flipped element changes it.
  data[777] = std::nextafter(data[777], 1e30f);
  EXPECT_NE(internal::GuardDigestBuckets(data.data(), 1000, bucket_elems),
            ascending.Digest());
}

TEST(GuardScanTest, FiniteVerdictCatchesNaNInfAndScalars) {
  std::vector<float> data(64, 1.0f);
  {
    internal::LocalGuardScan scan(64, 16, /*check_finite=*/true);
    for (std::int64_t b = 0; b < scan.num_buckets(); ++b) {
      scan.ScanBucket(data.data(), b);
    }
    EXPECT_TRUE(scan.finite());
    scan.NoteScalar(std::numeric_limits<float>::quiet_NaN());
    EXPECT_FALSE(scan.finite());
  }
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    data[37] = bad;
    internal::LocalGuardScan scan(64, 16, /*check_finite=*/true);
    for (std::int64_t b = 0; b < scan.num_buckets(); ++b) {
      scan.ScanBucket(data.data(), b);
    }
    EXPECT_FALSE(scan.finite());
    data[37] = 1.0f;
  }
  // check_finite=false never clears the verdict (digest-only mode).
  data[37] = std::numeric_limits<float>::quiet_NaN();
  internal::LocalGuardScan digest_only(64, 16, /*check_finite=*/false);
  for (std::int64_t b = 0; b < digest_only.num_buckets(); ++b) {
    digest_only.ScanBucket(data.data(), b);
  }
  EXPECT_TRUE(digest_only.finite());
}

// Builds a gathered guard buffer for `world` ranks where every rank
// reports finite with pre/post digests `pre`/`post`.
std::vector<float> GatheredGuards(int world, std::uint32_t pre,
                                  std::uint32_t post) {
  std::vector<float> gathered(static_cast<std::size_t>(world) * kGuardSlots);
  for (int r = 0; r < world; ++r) {
    internal::FillGuardSlots(
        gathered.data() + static_cast<std::size_t>(r) * kGuardSlots,
        /*finite=*/true, pre, post);
  }
  return gathered;
}

TEST(GuardVerdictTest, CleanBufferDoesNotTrip) {
  const GuardVerdict v =
      internal::JudgeGuard(GatheredGuards(4, 0xaaaa5555u, 0x1234abcdu), 4,
                           /*vote=*/true);
  EXPECT_FALSE(v.tripped());
  EXPECT_EQ(v.rank, -1);
}

TEST(GuardVerdictTest, ClearedFiniteFlagAttributesLowestRank) {
  std::vector<float> gathered = GatheredGuards(4, 1u, 2u);
  gathered[static_cast<std::size_t>(3) * kGuardSlots] = 0.0f;
  gathered[static_cast<std::size_t>(1) * kGuardSlots] = 0.0f;
  const GuardVerdict v = internal::JudgeGuard(gathered, 4, /*vote=*/true);
  EXPECT_EQ(v.reason, GuardTripReason::kNonFinite);
  EXPECT_EQ(v.rank, 1);
}

TEST(GuardVerdictTest, MajorityVoteAttributesTheDissentingRank) {
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  std::vector<float> gathered = GatheredGuards(4, 1u, 0xfeedu);
  internal::EncodeGuardDigest(
      0xbad0u, gathered.data() + static_cast<std::size_t>(2) * kGuardSlots + 3);
  const GuardVerdict v = internal::JudgeGuard(gathered, 4, /*vote=*/true);
  EXPECT_EQ(v.reason, GuardTripReason::kChecksumVote);
  EXPECT_EQ(v.rank, 2);
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(delta.at("nn.guard.corrupt_votes"), 1);
}

TEST(GuardVerdictTest, NoStrictMajorityDetectsButDoesNotAttribute) {
  // World 2, one dissent: 1-vs-1 has no strict majority. The step is
  // still untrustworthy, so the verdict trips with rank -1.
  std::vector<float> gathered = GatheredGuards(2, 1u, 0xfeedu);
  internal::EncodeGuardDigest(0xbad0u, gathered.data() + kGuardSlots + 3);
  const GuardVerdict v = internal::JudgeGuard(gathered, 2, /*vote=*/true);
  EXPECT_EQ(v.reason, GuardTripReason::kChecksumVote);
  EXPECT_EQ(v.rank, -1);
}

TEST(GuardVerdictTest, WorldOneSelfChecksPreAgainstPost) {
  // No quorum of one: an honest world-1 step has pre == post (every
  // world-1 collective is a bitwise identity), so a mismatch is a trip.
  EXPECT_FALSE(internal::JudgeGuard(GatheredGuards(1, 7u, 7u), 1,
                                    /*vote=*/true)
                   .tripped());
  const GuardVerdict v =
      internal::JudgeGuard(GatheredGuards(1, 7u, 8u), 1, /*vote=*/true);
  EXPECT_EQ(v.reason, GuardTripReason::kChecksumVote);
  EXPECT_EQ(v.rank, 0);
}

TEST(GuardVerdictTest, VoteDisabledSkipsDigestComparison) {
  std::vector<float> gathered = GatheredGuards(2, 1u, 0xfeedu);
  internal::EncodeGuardDigest(0xbad0u, gathered.data() + kGuardSlots + 3);
  EXPECT_FALSE(internal::JudgeGuard(gathered, 2, /*vote=*/false).tripped());
}

TEST(GuardVerdictTest, ThrowOnGuardTripCarriesReasonAndRank) {
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  try {
    internal::ThrowOnGuardTrip(
        GuardVerdict{GuardTripReason::kNonFinite, /*rank=*/3});
    FAIL() << "expected GradientCorruptionError";
  } catch (const GradientCorruptionError& e) {
    EXPECT_EQ(e.reason(), GuardTripReason::kNonFinite);
    EXPECT_EQ(e.rank(), 3);
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("rank 3"), std::string::npos);
  }
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(delta.at("nn.guard.trips"), 1);
  internal::ThrowOnGuardTrip(GuardVerdict{});  // kNone: no throw
}

TEST(GuardClipTest, ScaleIsIdentityBelowTheClipAndExactAboveIt) {
  EXPECT_EQ(internal::GuardClipScale(5.0, /*clip=*/0.0f), 1.0f);
  EXPECT_EQ(internal::GuardClipScale(0.5, /*clip=*/1.0f), 1.0f);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  const float scale = internal::GuardClipScale(4.0, /*clip=*/1.0f);
  EXPECT_EQ(scale, 0.25f);
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(delta.at("nn.guard.clip_events"), 1);
}

TEST(GuardClipTest, SqNormAccumulatesSequentiallyInDouble) {
  const std::vector<float> data{1.0f, 2.0f, 3.0f, 4.0f};
  double acc = internal::GuardSqNormAccumulate(data.data(), 0, 2, 0.0);
  acc = internal::GuardSqNormAccumulate(data.data(), 2, 4, acc);
  EXPECT_EQ(acc, internal::GuardSqNormAccumulate(data.data(), 0, 4, 0.0));
  EXPECT_EQ(acc, 30.0);
}

TEST(GuardSpikeTest, WarmupThenTripWithoutPoisoningTheEma) {
  GuardOptions options;
  options.spike_factor = 2.0f;
  options.spike_warmup_steps = 2;
  options.ema_alpha = 0.5;
  internal::GuardEmaState state;
  // Warmup: even a huge jump cannot trip yet.
  EXPECT_FALSE(internal::GuardSpikeCheck(state, options, 1.0, 1.0));
  EXPECT_FALSE(internal::GuardSpikeCheck(state, options, 100.0, 100.0));
  EXPECT_EQ(state.observed, 2);
  // Warm + within threshold: EMAs keep updating.
  EXPECT_FALSE(internal::GuardSpikeCheck(state, options, 50.0, 50.0));
  const double loss_ema = state.loss_ema;
  const double norm_ema = state.norm_ema;
  // A spike on either statistic trips and leaves the EMAs untouched.
  EXPECT_TRUE(
      internal::GuardSpikeCheck(state, options, loss_ema * 3.0, 1.0));
  EXPECT_TRUE(
      internal::GuardSpikeCheck(state, options, 1.0, norm_ema * 3.0));
  EXPECT_EQ(state.loss_ema, loss_ema);
  EXPECT_EQ(state.norm_ema, norm_ema);
  // spike_factor == 0 disables the detector entirely.
  GuardOptions off;
  internal::GuardEmaState fresh;
  EXPECT_FALSE(internal::GuardSpikeCheck(fresh, off, 1e30, 1e30));
  EXPECT_EQ(fresh.observed, 0);
}

// ---------------------------------------------------------------------
// ReplicaGroup-level detection grid.
// ---------------------------------------------------------------------

struct GuardTrip {
  bool tripped = false;
  GuardTripReason reason = GuardTripReason::kNone;
  int rank = -1;
};

// One TrainStep on a fresh world with the given faults/guard config,
// capturing the guard verdict (if any).
GuardTrip RunGuardedStep(int replicas, ReplicaGroupOptions options,
                         int steps = 1) {
  const auto dataset = SyntheticImageDataset::Mnist(32, 17);
  Rng rng(5);
  LeNet model(rng);
  SGD<LeNet> sgd(0.1f);
  ReplicaGroup group(replicas, std::move(options));
  GuardTrip trip;
  for (int s = 0; s < steps; ++s) {
    const LabeledBatch batch = dataset.Batch(s, 16, NaiveDevice());
    try {
      group.TrainStep(model, sgd, ShardBatch(batch, replicas));
    } catch (const GradientCorruptionError& e) {
      trip.tripped = true;
      trip.reason = e.reason();
      trip.rank = e.rank();
      return trip;
    }
  }
  return trip;
}

class GuardReplicaGroupTest : public ::testing::Test {
 protected:
  ~GuardReplicaGroupTest() override { SetIntraOpThreads(0); }
};

TEST_F(GuardReplicaGroupTest, EveryCorruptionKindIsDetectedAndAttributed) {
  // The detection acceptance grid: kind x replicated/sharded,
  // world 4 so the checksum vote has a strict majority. NaN/Inf strike
  // the local gradients and are caught by the finite sentinels; the bit
  // flip strikes the post-collective agreement buffer and is caught by
  // the digest vote. Attribution lands on the injected rank every time.
  SetIntraOpThreads(2);
  struct Kind {
    dist::CorruptKind kind;
    GuardTripReason reason;
  };
  const Kind kinds[] = {
      {dist::CorruptKind::kNaN, GuardTripReason::kNonFinite},
      {dist::CorruptKind::kInf, GuardTripReason::kNonFinite},
      {dist::CorruptKind::kBitflip, GuardTripReason::kChecksumVote},
  };
  for (const Kind& kind : kinds) {
    for (const bool sharded : {false, true}) {
      const obs::MetricsSnapshot before =
          obs::MetricsRegistry::Global().Snapshot();
      ReplicaGroupOptions options;
      options.sharded = sharded;
      options.guard.enabled = true;
      options.faults.corrupt_rank = 1;
      options.faults.corrupt_seq = 0;
      options.faults.corrupt_kind = kind.kind;
      const GuardTrip trip = RunGuardedStep(4, options);
      const std::string tag =
          "kind " + std::to_string(static_cast<int>(kind.kind)) +
          " sharded " + std::to_string(sharded);
      ASSERT_TRUE(trip.tripped) << tag;
      EXPECT_EQ(trip.reason, kind.reason) << tag;
      EXPECT_EQ(trip.rank, 1) << tag;
      const auto delta = obs::MetricsRegistry::Global()
                             .Snapshot()
                             .CounterDeltaSince(before);
      EXPECT_EQ(delta.at("nn.guard.trips"), 1) << tag;
      EXPECT_EQ(delta.at("dist.fault.corruptions"), 1) << tag;
      EXPECT_EQ(delta.count("nn.guard.corrupt_votes")
                    ? delta.at("nn.guard.corrupt_votes")
                    : 0,
                kind.kind == dist::CorruptKind::kBitflip ? 1 : 0)
          << tag;
    }
  }
}

TEST_F(GuardReplicaGroupTest, WorldOneSelfCheckCatchesABitflip) {
  // No quorum of one: the pre-vs-post self-check still catches a flip in
  // the agreement buffer, replicated and sharded alike.
  SetIntraOpThreads(1);
  for (const bool sharded : {false, true}) {
    ReplicaGroupOptions options;
    options.sharded = sharded;
    options.guard.enabled = true;
    options.faults.corrupt_rank = 0;
    options.faults.corrupt_seq = 0;
    options.faults.corrupt_kind = dist::CorruptKind::kBitflip;
    const GuardTrip trip = RunGuardedStep(1, options);
    ASSERT_TRUE(trip.tripped) << "sharded " << sharded;
    EXPECT_EQ(trip.reason, GuardTripReason::kChecksumVote);
    EXPECT_EQ(trip.rank, 0);
  }
}

TEST_F(GuardReplicaGroupTest, CleanGuardedStepMatchesGuardOffBitwise) {
  // Guard on, nothing injected: the extra collective must not perturb
  // the training math in any mode.
  SetIntraOpThreads(2);
  for (const bool sharded : {false, true}) {
    ReplicaGroupOptions off;
    off.sharded = sharded;
    const auto dataset = SyntheticImageDataset::Mnist(32, 17);
    const auto run = [&](bool guard_on) {
      Rng rng(5);
      LeNet model(rng);
      SGD<LeNet> sgd(0.1f);
      ReplicaGroupOptions options;
      options.sharded = sharded;
      options.guard.enabled = guard_on;
      ReplicaGroup group(4, std::move(options));
      for (int s = 0; s < 3; ++s) {
        const LabeledBatch batch = dataset.Batch(s, 16, NaiveDevice());
        group.TrainStep(model, sgd, ShardBatch(batch, 4));
      }
      std::vector<std::vector<float>> params;
      model.VisitParameters(
          [&](const Tensor& p) { params.push_back(p.ToVector()); });
      return params;
    };
    ASSERT_EQ(run(true), run(false)) << "sharded " << sharded;
  }
}

TEST_F(GuardReplicaGroupTest, ClippedStepIsBitwiseEqualAcrossAllModes) {
  // Global-norm clipping runs caller-side after the reduction, so the
  // sequential reference, the threaded replicated path, and the sharded
  // path (which accumulates the norm over per-rank owned regions in rank
  // order) must all produce bit-identical weights.
  const auto dataset = SyntheticImageDataset::Mnist(32, 17);
  const auto run = [&](ReplicaGroupOptions options) {
    Rng rng(5);
    LeNet model(rng);
    SGD<LeNet> sgd(0.1f);
    ReplicaGroup group(4, std::move(options));
    for (int s = 0; s < 2; ++s) {
      const LabeledBatch batch = dataset.Batch(s, 16, NaiveDevice());
      group.TrainStep(model, sgd, ShardBatch(batch, 4));
    }
    std::vector<std::vector<float>> params;
    model.VisitParameters(
        [&](const Tensor& p) { params.push_back(p.ToVector()); });
    return params;
  };
  GuardOptions guard;
  guard.enabled = true;
  guard.clip_global_norm = 0.05f;  // small enough to clip every step

  SetIntraOpThreads(1);
  ReplicaGroupOptions reference;
  reference.sequential = true;
  reference.guard = guard;
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  const auto expected = run(reference);
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(delta.at("nn.guard.clip_events"), 2);

  SetIntraOpThreads(2);
  for (const bool sharded : {false, true}) {
    ReplicaGroupOptions threaded;
    threaded.sharded = sharded;
    threaded.guard = guard;
    ASSERT_EQ(run(threaded), expected) << "sharded " << sharded;
  }
}

TEST_F(GuardReplicaGroupTest, SpikeDetectorTripsAfterWarmup) {
  // Identical batches: the gradient norm tracks its own EMA, so a
  // spike_factor below 1 trips on the first warm step — deterministic
  // without having to engineer a genuine loss explosion.
  SetIntraOpThreads(2);
  ReplicaGroupOptions options;
  options.guard.enabled = true;
  options.guard.spike_factor = 0.5f;
  options.guard.spike_warmup_steps = 1;
  const GuardTrip trip = RunGuardedStep(2, options, /*steps=*/2);
  ASSERT_TRUE(trip.tripped);
  EXPECT_EQ(trip.reason, GuardTripReason::kSpike);
  EXPECT_EQ(trip.rank, -1);  // a global statistic, never attributed
}

}  // namespace
}  // namespace s4tf::nn
