#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "dist/communicator.h"
#include "dist/fault_injector.h"
#include "obs/metrics.h"
#include "support/error.h"

namespace s4tf::dist {
namespace {

void RunRanks(int world, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&fn, r] { fn(r); });
  }
  for (std::thread& t : threads) t.join();
}

std::vector<float> RankInput(int rank, std::size_t len) {
  std::vector<float> data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = 0.25f * static_cast<float>(rank + 1) +
              0.001f * static_cast<float>(i % 97);
  }
  return data;
}

std::vector<std::vector<float>> AllRankInputs(int world, std::size_t len) {
  std::vector<std::vector<float>> parts;
  for (int r = 0; r < world; ++r) parts.push_back(RankInput(r, len));
  return parts;
}

TEST(FaultInjectorTest, DecisionsAreSeededAndDeterministic) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_probability = 0.5;
  plan.straggler_probability = 0.5;
  plan.straggler_delay = std::chrono::microseconds(100);
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  plan.seed = 43;
  const FaultInjector other(plan);
  int drops = 0;
  int differs = 0;
  for (std::uint32_t i = 0; i < 256; ++i) {
    const MessageKey key{MessagePhase::kScatter, i, 0, 1, 2};
    EXPECT_EQ(a.DropsFor(key), b.DropsFor(key));
    EXPECT_EQ(a.DelayFor(key), b.DelayFor(key));
    drops += a.DropsFor(key);
    if (a.DropsFor(key) != other.DropsFor(key)) ++differs;
  }
  // p = 0.5 over 256 draws: both outcomes occur, and a different seed
  // yields a different fault set.
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 256);
  EXPECT_GT(differs, 0);
}

TEST(FaultInjectionTest, EveryMessageDroppedOnceStillReducesExactly) {
  const int world = 4;
  const std::size_t len = 64;
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_probability = 1.0;  // every delivery lost exactly once
  plan.drops_per_event = 1;
  CollectiveOptions options;
  options.bucket_bytes = 128;  // several buckets
  options.recv_timeout = std::chrono::milliseconds(2000);

  const std::vector<float> expected =
      OrderedTreeReduce(AllRankInputs(world, len));
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  RingCommunicator comm(world, options, plan);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
             buffers[static_cast<std::size_t>(rank)]);
  });
  const auto delta = obs::MetricsRegistry::Global()
                         .Snapshot()
                         .CounterDeltaSince(before);

  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(buffers[static_cast<std::size_t>(r)][i], expected[i]);
    }
  }
  // With p=1 and one drop per event, every sent message times out and is
  // retried exactly once — the counters are exact, not approximate.
  const std::int64_t sent = delta.at("dist.send.messages");
  EXPECT_GT(sent, 0);
  EXPECT_EQ(delta.at("dist.fault.dropped_chunks"), sent);
  EXPECT_EQ(delta.at("dist.recv.timeouts"), sent);
  EXPECT_EQ(delta.at("dist.retry.count"), sent);
}

TEST(FaultInjectionTest, FaultyRunIsBitIdenticalToFaultFreeRun) {
  const int world = 3;
  const std::size_t len = 150;
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_probability = 0.3;
  plan.straggler_probability = 0.2;
  plan.straggler_delay = std::chrono::milliseconds(2);
  CollectiveOptions options;
  options.recv_timeout = std::chrono::milliseconds(2000);

  auto run = [&](FaultPlan run_plan) {
    RingCommunicator comm(world, options, run_plan);
    std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
    RunRanks(world, [&](int rank) {
      comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kMean),
               buffers[static_cast<std::size_t>(rank)]);
    });
    return buffers;
  };
  const auto faulty = run(plan);
  const auto faulty_again = run(plan);
  const auto clean = run(FaultPlan{});
  EXPECT_EQ(faulty, faulty_again);  // same seed -> same run, bit for bit
  EXPECT_EQ(faulty, clean);         // faults never change the numbers
}

TEST(FaultInjectionTest, StragglerDelaysAreRecordedAndRecovered) {
  const int world = 2;
  const std::size_t len = 32;
  FaultPlan plan;
  plan.seed = 3;
  plan.straggler_probability = 1.0;  // every message arrives late
  plan.straggler_delay = std::chrono::milliseconds(1);
  CollectiveOptions options;
  options.recv_timeout = std::chrono::milliseconds(2000);

  const std::vector<float> expected =
      OrderedTreeReduce(AllRankInputs(world, len));
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  RingCommunicator comm(world, options, plan);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
             buffers[static_cast<std::size_t>(rank)]);
    comm.Barrier(rank);
  });
  const auto delta = obs::MetricsRegistry::Global()
                         .Snapshot()
                         .CounterDeltaSince(before);

  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(buffers[static_cast<std::size_t>(r)][i], expected[i]);
    }
  }
  // Every sent message was delayed; all were recovered (the delay is far
  // below recv_timeout, so there is no retry-count guarantee to assert).
  EXPECT_EQ(delta.at("dist.fault.straggler_delays"),
            delta.at("dist.send.messages"));
}

TEST(FaultInjectionTest, ExhaustedRetryBudgetFailsLoudlyOnEveryRank) {
  const int world = 2;
  FaultPlan plan;
  plan.seed = 5;
  plan.drop_probability = 1.0;
  plan.drops_per_event = 1000;  // far beyond any retry budget
  CollectiveOptions options;
  options.recv_timeout = std::chrono::milliseconds(5);
  options.max_retries = 2;

  RingCommunicator comm(world, options, plan);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, 16);
  std::atomic<int> failures{0};
  // Every rank's receive exhausts its budget and throws; no rank hangs —
  // the bounded timeout guarantees termination.
  RunRanks(world, [&](int rank) {
    try {
      comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
               buffers[static_cast<std::size_t>(rank)]);
    } catch (const InternalError&) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), world);
}

// ---------------------------------------------------------------------
// Seeded corruption injection (the guard layer's fault source).
// ---------------------------------------------------------------------

TEST(ApplyCorruptionTest, StrikesAreSeededDeterministicAndGated) {
  FaultPlan plan;
  plan.seed = 9;
  plan.corrupt_rank = 1;
  plan.corrupt_seq = 3;
  plan.corrupt_kind = CorruptKind::kNaN;

  std::vector<float> data(128, 2.0f);
  // Wrong rank, wrong step, wrong phase: no strike, buffer untouched.
  EXPECT_FALSE(ApplyCorruption(plan, CorruptPhase::kLocal, /*rank=*/0,
                               /*step=*/3, data.data(), 128, 0, 128));
  EXPECT_FALSE(ApplyCorruption(plan, CorruptPhase::kLocal, /*rank=*/1,
                               /*step=*/2, data.data(), 128, 0, 128));
  EXPECT_FALSE(ApplyCorruption(plan, CorruptPhase::kAgreement, /*rank=*/1,
                               /*step=*/3, data.data(), 128, 0, 128));
  EXPECT_EQ(data, std::vector<float>(128, 2.0f));

  // The armed (rank, step, phase): exactly one seeded element goes NaN,
  // and the struck index is identical across repeat runs.
  EXPECT_TRUE(ApplyCorruption(plan, CorruptPhase::kLocal, 1, 3, data.data(),
                              128, 0, 128));
  std::int64_t struck = -1;
  for (std::int64_t i = 0; i < 128; ++i) {
    if (std::isnan(data[static_cast<std::size_t>(i)])) {
      EXPECT_EQ(struck, -1) << "more than one element struck";
      struck = i;
    }
  }
  ASSERT_GE(struck, 0);
  std::vector<float> again(128, 2.0f);
  EXPECT_TRUE(ApplyCorruption(plan, CorruptPhase::kLocal, 1, 3, again.data(),
                              128, 0, 128));
  EXPECT_TRUE(std::isnan(again[static_cast<std::size_t>(struck)]));
}

TEST(ApplyCorruptionTest, SlicedApplicationStrikesExactlyOnce) {
  // The overlapped path offers each bucket separately; only the slice
  // containing the seeded index may fire, and the result is bitwise
  // equal to a single whole-buffer application.
  FaultPlan plan;
  plan.seed = 4;
  plan.corrupt_rank = 0;
  plan.corrupt_seq = 0;
  plan.corrupt_kind = CorruptKind::kInf;

  std::vector<float> whole(100, 1.5f);
  ASSERT_TRUE(ApplyCorruption(plan, CorruptPhase::kLocal, 0, 0, whole.data(),
                              100, 0, 100));
  std::vector<float> sliced(100, 1.5f);
  int fired = 0;
  for (std::int64_t begin = 0; begin < 100; begin += 17) {
    if (ApplyCorruption(plan, CorruptPhase::kLocal, 0, 0, sliced.data(), 100,
                        begin, std::min<std::int64_t>(begin + 17, 100))) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 1);
  for (std::size_t i = 0; i < 100; ++i) {
    if (std::isinf(whole[i])) {
      EXPECT_TRUE(std::isinf(sliced[i])) << i;
    } else {
      EXPECT_EQ(sliced[i], whole[i]) << i;
    }
  }
}

TEST(ApplyCorruptionTest, BitflipFlipsExactlyOneBitOfOneElement) {
  FaultPlan plan;
  plan.seed = 11;
  plan.corrupt_rank = 2;
  plan.corrupt_seq = 5;
  plan.corrupt_kind = CorruptKind::kBitflip;

  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  std::vector<float> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.125f * static_cast<float>(i);
  }
  const std::vector<float> original = data;
  // kBitflip strikes the agreement phase, never the local one.
  EXPECT_FALSE(ApplyCorruption(plan, CorruptPhase::kLocal, 2, 5, data.data(),
                               64, 0, 64));
  EXPECT_EQ(data, original);
  ASSERT_TRUE(ApplyCorruption(plan, CorruptPhase::kAgreement, 2, 5,
                              data.data(), 64, 0, 64));
  int changed = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::uint32_t a;
    std::uint32_t b;
    std::memcpy(&a, &data[i], sizeof(a));
    std::memcpy(&b, &original[i], sizeof(b));
    if (a != b) {
      ++changed;
      const std::uint32_t diff = a ^ b;
      EXPECT_EQ(diff & (diff - 1), 0u) << "more than one bit flipped";
    }
  }
  EXPECT_EQ(changed, 1);
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(delta.at("dist.fault.corruptions"), 1);
}

}  // namespace
}  // namespace s4tf::dist
