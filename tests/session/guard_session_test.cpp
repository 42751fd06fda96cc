// Guard rollback-and-skip acceptance tests: a seeded numeric corruption
// (NaN / Inf / bit flip, replicated or ZeRO-sharded)
// is detected by the training guard, rolled back to the newest durable
// checkpoint, and the poisoned batch skipped — finishing with weights
// bitwise-equal to a clean run that never saw that batch. Plus the
// recovery-interaction matrix (numeric rollback x replica death x
// corrupt-newest-checkpoint in one run) and the injectable-sleep
// regression test.
#include "nn/session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "nn/models/lenet.h"
#include "nn/optimizers.h"
#include "nn/training.h"
#include "obs/metrics.h"
#include "support/threadpool.h"

namespace s4tf::nn {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const fs::path dir = fs::path("/tmp") / ("s4tf_guard_session_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::vector<float>> Parameters(const LeNet& model) {
  std::vector<std::vector<float>> params;
  model.VisitParameters(
      [&](const Tensor& p) { params.push_back(p.ToVector()); });
  return params;
}

constexpr int kGlobalBatch = 24;

SessionOptions BaseOptions(int replicas, const std::string& dir) {
  SessionOptions options;
  options.replicas = replicas;
  options.checkpoint_dir = dir;
  options.checkpoint_every_steps = 2;
  options.recovery_backoff = std::chrono::milliseconds(1);
  // Recovery grids should not burn wall-clock time sleeping.
  options.sleep_fn = [](std::chrono::milliseconds) {};
  return options;
}

struct RunResult {
  SessionReport report;
  std::vector<std::vector<float>> params;
  Status status = Status::Ok();
};

// Runs a session from the fixed initialization. `skip_batch` >= 0 builds
// the clean-detour reference: the batch schedule a recovered run is
// specified to reproduce (every index below the poisoned step unchanged,
// everything at or above it shifted up by one — the poisoned batch
// simply never exists).
RunResult RunSession(SessionOptions options, std::int64_t total_steps,
                     std::int64_t skip_batch = -1) {
  const auto dataset = SyntheticImageDataset::Mnist(48, 17);
  Rng init_rng(5);
  LeNet model(init_rng);
  SGD<LeNet> sgd(0.1f, /*momentum=*/0.9f);
  Rng data_rng(11);
  TrainingSession<LeNet, SGD<LeNet>> session(model, sgd, std::move(options),
                                             &data_rng);
  auto report = session.Run(total_steps, [&](std::int64_t step) {
    const std::int64_t batch_index =
        (skip_batch >= 0 && step >= skip_batch) ? step + 1 : step;
    return dataset.Batch(static_cast<int>(batch_index), kGlobalBatch,
                         NaiveDevice());
  });
  RunResult result;
  if (report.ok()) {
    result.report = *report;
  } else {
    result.status = report.status();
  }
  result.params = Parameters(model);
  return result;
}

void UseFastFailureDetection(SessionOptions& options) {
  options.replica.collective.recv_timeout = std::chrono::milliseconds(150);
  options.replica.collective.max_retries = 2;
}

class GuardSessionTest : public ::testing::Test {
 protected:
  ~GuardSessionTest() override { SetIntraOpThreads(0); }
};

TEST_F(GuardSessionTest, RollbackAndSkipMatchesCleanDetourForEveryKindAndMode) {
  // The acceptance grid: corruption kind x replicated/sharded.
  // Rank 1's buffers are struck at step 3; the session must detect, roll
  // back to the step-2 checkpoint, skip batch 3, and finish bitwise-equal
  // to the clean detour (5 training steps over batches {0,1,2,4,5}).
  SetIntraOpThreads(2);
  const std::int64_t kTotal = 6;
  const RunResult detour = RunSession(
      BaseOptions(2, TempDir("detour")), kTotal - 1, /*skip_batch=*/3);
  ASSERT_TRUE(detour.status.ok()) << detour.status.ToString();

  for (const dist::CorruptKind kind :
       {dist::CorruptKind::kNaN, dist::CorruptKind::kInf,
        dist::CorruptKind::kBitflip}) {
    for (const bool sharded : {false, true}) {
      const std::string tag =
          "kind " + std::to_string(static_cast<int>(kind)) + "_sharded" +
          std::to_string(sharded);
      const obs::MetricsSnapshot before =
          obs::MetricsRegistry::Global().Snapshot();
      SessionOptions options = BaseOptions(2, TempDir(tag));
      options.replica.sharded = sharded;
      options.replica.guard.enabled = true;
      options.corrupt_rank = 1;
      options.corrupt_at_step = 3;
      options.corrupt_kind = kind;
      const RunResult poisoned = RunSession(options, kTotal);
      ASSERT_TRUE(poisoned.status.ok())
          << tag << ": " << poisoned.status.ToString();
      EXPECT_EQ(poisoned.report.steps_completed, kTotal) << tag;
      EXPECT_EQ(poisoned.report.rollbacks, 1) << tag;
      EXPECT_EQ(poisoned.report.steps_skipped, 1) << tag;
      EXPECT_EQ(poisoned.report.recoveries, 1) << tag;
      EXPECT_EQ(poisoned.report.world_size, 2) << tag;  // nobody died
      ASSERT_EQ(poisoned.params, detour.params) << tag;

      // Exact counter equalities: one trip, one rollback, one skipped
      // step, one injected strike.
      const auto delta = obs::MetricsRegistry::Global()
                             .Snapshot()
                             .CounterDeltaSince(before);
      EXPECT_EQ(delta.at("nn.guard.trips"), 1) << tag;
      EXPECT_EQ(delta.at("nn.guard.rollbacks"), 1) << tag;
      EXPECT_EQ(delta.at("nn.guard.skipped_steps"), 1) << tag;
      EXPECT_EQ(delta.at("dist.fault.corruptions"), 1) << tag;
      EXPECT_EQ(delta.at("nn.session.recoveries"), 1) << tag;
      EXPECT_EQ(delta.count("nn.session.world_shrinks")
                    ? delta.at("nn.session.world_shrinks")
                    : 0,
                0)
          << tag;
    }
  }
}

TEST_F(GuardSessionTest, WorldOneBitflipRollsBackViaSelfCheck) {
  // A world of 1 has no quorum: the pre-vs-post self-check must still
  // catch the flip and drive the same rollback-and-skip, replicated and
  // sharded alike.
  SetIntraOpThreads(1);
  const std::int64_t kTotal = 5;
  const RunResult detour = RunSession(
      BaseOptions(1, TempDir("w1_detour")), kTotal - 1, /*skip_batch=*/3);
  ASSERT_TRUE(detour.status.ok()) << detour.status.ToString();
  for (const bool sharded : {false, true}) {
    SessionOptions options =
        BaseOptions(1, TempDir("w1_s" + std::to_string(sharded)));
    options.replica.sharded = sharded;
    options.replica.guard.enabled = true;
    options.corrupt_rank = 0;
    options.corrupt_at_step = 3;
    options.corrupt_kind = dist::CorruptKind::kBitflip;
    const RunResult poisoned = RunSession(options, kTotal);
    ASSERT_TRUE(poisoned.status.ok()) << poisoned.status.ToString();
    EXPECT_EQ(poisoned.report.rollbacks, 1);
    EXPECT_EQ(poisoned.report.steps_skipped, 1);
    ASSERT_EQ(poisoned.params, detour.params) << "sharded " << sharded;
  }
}

TEST_F(GuardSessionTest, GuardOnCleanRunIsBitwiseEqualToGuardOff) {
  // The zero-overhead-when-clean contract at the session level: enabling
  // the guard on a healthy run changes nothing but the scan counters.
  SetIntraOpThreads(2);
  const std::int64_t kTotal = 4;
  const RunResult off = RunSession(BaseOptions(2, TempDir("off")), kTotal);
  ASSERT_TRUE(off.status.ok()) << off.status.ToString();

  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  SessionOptions guarded = BaseOptions(2, TempDir("on"));
  guarded.replica.guard.enabled = true;
  const RunResult on = RunSession(guarded, kTotal);
  ASSERT_TRUE(on.status.ok()) << on.status.ToString();
  ASSERT_EQ(on.params, off.params);
  ASSERT_EQ(on.report.last_loss, off.report.last_loss);
  EXPECT_EQ(on.report.rollbacks, 0);
  EXPECT_EQ(on.report.steps_skipped, 0);

  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(delta.count("nn.guard.trips") ? delta.at("nn.guard.trips") : 0,
            0);
  EXPECT_GT(delta.at("nn.guard.scans"), 0);
}

TEST_F(GuardSessionTest, CorruptionWithoutGuardPoisonsTheRunSilently) {
  // The failure mode the guard exists for: with the guard off, a NaN
  // strike sails through the all-reduce and the session "succeeds" —
  // no recovery, and the weights are permanently poisoned (the loss
  // itself may stay finite when pooling/ReLU drops the NaN activation,
  // which is exactly why a loss-only check is not enough).
  SetIntraOpThreads(2);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  SessionOptions options = BaseOptions(2, TempDir("unguarded"));
  options.corrupt_rank = 1;
  options.corrupt_at_step = 2;
  options.corrupt_kind = dist::CorruptKind::kNaN;
  const RunResult result = RunSession(options, /*total_steps=*/4);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.rollbacks, 0);
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(delta.at("dist.fault.corruptions"), 1);
  bool poisoned = false;
  for (const auto& param : result.params) {
    for (const float v : param) {
      if (!std::isfinite(v)) poisoned = true;
    }
  }
  EXPECT_TRUE(poisoned);
}

TEST_F(GuardSessionTest,
       RollbackComposesWithReplicaDeathAndCorruptCheckpoint) {
  // The recovery-interaction matrix, all in ONE run per cell: a NaN
  // strike at step 3 (rollback-and-skip), then the newest checkpoint is
  // garbled before step 5 (forcing the fallback path), then rank
  // world-1 dies at step 5 (elastic shrink). With every durable file
  // invalid the session falls back to its Run-entry baseline and
  // replays from step 0 at the shrunk world, still skipping batch 3 —
  // so the reference is simply the clean detour at world-1 replicas.
  const std::int64_t kTotal = 8;
  for (const int world : {2, 4}) {
    for (const bool sharded : {false, true}) {
      SetIntraOpThreads(2);
      const std::string tag = "matrix_w" + std::to_string(world) +
                              "_s" + std::to_string(sharded);
      const RunResult detour =
          RunSession(BaseOptions(world - 1, TempDir(tag + "_ref")),
                     kTotal - 1, /*skip_batch=*/3);
      ASSERT_TRUE(detour.status.ok()) << detour.status.ToString();

      const obs::MetricsSnapshot before =
          obs::MetricsRegistry::Global().Snapshot();
      const std::string dir = TempDir(tag);
      SessionOptions options = BaseOptions(world, dir);
      UseFastFailureDetection(options);
      options.replica.sharded = sharded;
      options.replica.guard.enabled = true;
      options.corrupt_rank = world - 1;
      options.corrupt_at_step = 3;
      options.corrupt_kind = dist::CorruptKind::kNaN;
      options.kill_rank = world - 1;
      options.kill_at_step = 5;

      // Garble every checkpoint written so far when step 5's batch is
      // first requested: the death recovery then finds no valid
      // durable state (counting crc_failures) and falls back to the
      // Run-entry baseline.
      const auto dataset = SyntheticImageDataset::Mnist(48, 17);
      Rng init_rng(5);
      LeNet model(init_rng);
      SGD<LeNet> sgd(0.1f, /*momentum=*/0.9f);
      Rng data_rng(11);
      TrainingSession<LeNet, SGD<LeNet>> session(
          model, sgd, std::move(options), &data_rng);
      bool garbled = false;
      auto report = session.Run(kTotal, [&](std::int64_t step) {
        if (step == 5 && !garbled) {
          garbled = true;
          for (const auto& entry : fs::directory_iterator(dir)) {
            std::string bytes;
            {
              std::ifstream in(entry.path(), std::ios::binary);
              bytes.assign(std::istreambuf_iterator<char>(in), {});
            }
            bytes[bytes.size() / 2] ^= 0x40;
            std::ofstream out(entry.path(),
                              std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
          }
        }
        return dataset.Batch(static_cast<int>(step), kGlobalBatch,
                             NaiveDevice());
      });
      ASSERT_TRUE(report.ok()) << tag << ": " << report.status().ToString();
      EXPECT_TRUE(garbled) << tag;
      EXPECT_EQ(report->steps_completed, kTotal) << tag;
      EXPECT_EQ(report->rollbacks, 1) << tag;
      EXPECT_EQ(report->steps_skipped, 1) << tag;
      EXPECT_EQ(report->recoveries, 2) << tag;  // rollback + death
      EXPECT_EQ(report->world_size, world - 1) << tag;
      ASSERT_EQ(Parameters(model), detour.params) << tag;

      const auto delta = obs::MetricsRegistry::Global()
                             .Snapshot()
                             .CounterDeltaSince(before);
      EXPECT_EQ(delta.at("nn.guard.rollbacks"), 1) << tag;
      EXPECT_EQ(delta.at("nn.session.world_shrinks"), 1) << tag;
      EXPECT_GT(delta.at("nn.session.crc_failures"), 0) << tag;
      // The re-walked prefix re-marks batch 3 skipped on every pass
      // over it, so skipped_steps counts passes, not distinct steps;
      // the distinct count is pinned by report.steps_skipped above.
      EXPECT_GE(delta.at("nn.guard.skipped_steps"), 1) << tag;
    }
  }
}

TEST_F(GuardSessionTest, InjectedSleepReceivesTheExactBackoffLadder) {
  // The sleep hook changes how time passes, never the ladder: the
  // recorder must observe base * multiplier^attempt per recovery, and
  // nn.session.backoff_ms must equal the sum of the scheduled delays.
  SetIntraOpThreads(2);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  std::vector<std::int64_t> recorded;
  SessionOptions options = BaseOptions(2, TempDir("sleep_hook"));
  UseFastFailureDetection(options);
  options.recovery_backoff = std::chrono::milliseconds(7);
  options.backoff_multiplier = 2.0;
  options.sleep_fn = [&recorded](std::chrono::milliseconds delay) {
    recorded.push_back(delay.count());
  };
  options.replica.guard.enabled = true;
  options.corrupt_rank = 1;
  options.corrupt_at_step = 2;  // first recovery: rollback-and-skip
  options.corrupt_kind = dist::CorruptKind::kInf;
  options.kill_rank = 1;
  options.kill_at_step = 4;  // second recovery: elastic shrink
  const RunResult result = RunSession(options, /*total_steps=*/6);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.recoveries, 2);
  ASSERT_EQ(recorded, (std::vector<std::int64_t>{7, 14}));
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(delta.at("nn.session.backoff_ms"), 21);
}

TEST_F(GuardSessionTest, BackoffLadderIsIdenticalWithAndWithoutTheHook) {
  // Regression pin for the refactor that introduced the hook: the
  // scheduled-delay semantics (and thus the backoff_ms counter) must be
  // identical whether the session really sleeps or a test absorbs it.
  SetIntraOpThreads(2);
  const auto run = [](bool hook, std::int64_t& backoff_ms) {
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();
    SessionOptions options =
        BaseOptions(2, TempDir(hook ? "ladder_hook" : "ladder_real"));
    UseFastFailureDetection(options);
    options.recovery_backoff = std::chrono::milliseconds(3);
    if (hook) {
      options.sleep_fn = [](std::chrono::milliseconds) {};
    } else {
      options.sleep_fn = nullptr;  // really sleep (3ms: cheap enough)
    }
    options.replica.guard.enabled = true;
    options.corrupt_rank = 0;
    options.corrupt_at_step = 2;
    options.corrupt_kind = dist::CorruptKind::kNaN;
    const RunResult result = RunSession(options, /*total_steps=*/4);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    const auto delta = obs::MetricsRegistry::Global()
                           .Snapshot()
                           .CounterDeltaSince(before);
    backoff_ms = delta.at("nn.session.backoff_ms");
  };
  std::int64_t with_hook = -1;
  std::int64_t without_hook = -2;
  run(true, with_hook);
  run(false, without_hook);
  EXPECT_EQ(with_hook, 3);
  EXPECT_EQ(with_hook, without_hook);
}

TEST_F(GuardSessionTest, ExhaustedBudgetOnRepeatedCorruptionFailsLoudly) {
  // Guard recoveries draw from the same budget as elastic recovery:
  // max_recoveries = 0 turns the first trip into a loud failure that
  // names the corruption.
  SetIntraOpThreads(2);
  SessionOptions options = BaseOptions(2, TempDir("guard_budget"));
  options.replica.guard.enabled = true;
  options.corrupt_rank = 0;
  options.corrupt_at_step = 1;
  options.corrupt_kind = dist::CorruptKind::kNaN;
  options.max_recoveries = 0;
  const RunResult result = RunSession(options, /*total_steps=*/4);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_NE(result.status.message().find("recovery budget"),
            std::string::npos)
      << result.status.ToString();
  EXPECT_NE(result.status.message().find("gradient corruption"),
            std::string::npos)
      << result.status.ToString();
}

}  // namespace
}  // namespace s4tf::nn
