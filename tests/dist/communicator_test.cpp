#include "dist/communicator.h"

#include <atomic>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <thread>
#include <vector>

#include "device/cost_model.h"
#include "device/sim_accelerator.h"
#include "obs/metrics.h"
#include "support/error.h"

namespace s4tf::dist {
namespace {

// Runs fn(rank) on one dedicated thread per rank and joins them all —
// the collective calling convention without pulling in ReplicaGroup.
void RunRanks(int world, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&fn, r] { fn(r); });
  }
  for (std::thread& t : threads) t.join();
}

// Deterministic per-rank input: rank-dependent, element-dependent, with
// enough digits that reassociation would change the low bits.
std::vector<float> RankInput(int rank, std::size_t len) {
  std::vector<float> data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = 0.001f * static_cast<float>(rank + 1) *
                  static_cast<float>((i * 2654435761u) % 1000) +
              1.0f / static_cast<float>(rank + 2);
  }
  return data;
}

std::vector<std::vector<float>> AllRankInputs(int world, std::size_t len) {
  std::vector<std::vector<float>> parts;
  for (int r = 0; r < world; ++r) parts.push_back(RankInput(r, len));
  return parts;
}

TEST(OrderedTreeReduceTest, MatchesManualTree) {
  std::vector<std::vector<float>> parts = {{1.0f}, {2.0f}, {3.0f}, {4.0f},
                                           {5.0f}};
  // ((1+2)+(3+4)) + 5, combined exactly in that order.
  const float expected = ((1.0f + 2.0f) + (3.0f + 4.0f)) + 5.0f;
  const std::vector<float> reduced = OrderedTreeReduce(std::move(parts));
  ASSERT_EQ(reduced.size(), 1u);
  EXPECT_EQ(reduced[0], expected);
}

TEST(OrderedTreeReduceTest, MeanScalesBySize) {
  std::vector<std::vector<float>> parts = {{2.0f, 4.0f}, {6.0f, 8.0f}};
  const std::vector<float> mean = OrderedTreeReduceMean(std::move(parts));
  EXPECT_EQ(mean[0], (2.0f + 6.0f) * 0.5f);
  EXPECT_EQ(mean[1], (4.0f + 8.0f) * 0.5f);
}

TEST(RingCommunicatorTest, SumMatchesTreeReferenceBitwise) {
  for (int world : {1, 2, 3, 4, 8}) {
    const std::size_t len = 173;  // not divisible by any tested world
    const std::vector<float> expected =
        OrderedTreeReduce(AllRankInputs(world, len));
    RingCommunicator comm(world);
    std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
    RunRanks(world, [&](int rank) {
      comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
               buffers[static_cast<std::size_t>(rank)]);
    });
    for (int r = 0; r < world; ++r) {
      ASSERT_EQ(buffers[static_cast<std::size_t>(r)].size(), len);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(buffers[static_cast<std::size_t>(r)][i], expected[i])
            << "world " << world << " rank " << r << " elem " << i;
      }
    }
  }
}

TEST(RingCommunicatorTest, MeanMatchesTreeReferenceBitwise) {
  const int world = 4;
  const std::size_t len = 257;
  const std::vector<float> expected =
      OrderedTreeReduceMean(AllRankInputs(world, len));
  RingCommunicator comm(world);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kMean),
             buffers[static_cast<std::size_t>(rank)]);
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(buffers[static_cast<std::size_t>(r)][i], expected[i]);
    }
  }
}

TEST(RingCommunicatorTest, ResultInvariantToBucketSize) {
  // Bucket/chunk partition must not reassociate anything: every bucket
  // size yields the same bytes.
  const int world = 3;
  const std::size_t len = 301;
  const std::vector<float> expected =
      OrderedTreeReduce(AllRankInputs(world, len));
  for (std::int64_t bucket_bytes : {16, 256, 1 << 20}) {
    CollectiveOptions options;
    options.bucket_bytes = bucket_bytes;
    RingCommunicator comm(world, options);
    std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
    RunRanks(world, [&](int rank) {
      comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
               buffers[static_cast<std::size_t>(rank)]);
    });
    for (int r = 0; r < world; ++r) {
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(buffers[static_cast<std::size_t>(r)][i], expected[i])
            << "bucket_bytes " << bucket_bytes;
      }
    }
  }
}

TEST(RingCommunicatorTest, WorldOfOneIsIdentityForSum) {
  RingCommunicator comm(1);
  std::vector<float> data = RankInput(0, 57);
  const std::vector<float> original = data;
  comm.Run(0, CollectiveSpec::AllReduce(ReduceOp::kSum), data);
  EXPECT_EQ(data, original);
  // Mean over 1 scales by 1.0f.
  comm.Run(0, CollectiveSpec::AllReduce(ReduceOp::kMean), data);
  EXPECT_EQ(data, original);
  comm.Barrier(0);  // trivially passes
}

TEST(RingCommunicatorTest, BarrierSynchronizesAllRanks) {
  const int world = 4;
  RingCommunicator comm(world);
  std::atomic<int> arrived{0};
  std::atomic<bool> violated{false};
  RunRanks(world, [&](int rank) {
    for (int iter = 0; iter < 5; ++iter) {
      arrived.fetch_add(1);
      comm.Barrier(rank);
      // After the barrier, every rank of this iteration must have
      // arrived.
      if (arrived.load() < (iter + 1) * world) violated.store(true);
      comm.Barrier(rank);  // second barrier so no rank laps the check
    }
  });
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(arrived.load(), 5 * world);
}

TEST(RingCommunicatorTest, EmptyBufferIsANoOp) {
  const int world = 2;
  RingCommunicator comm(world);
  std::vector<std::vector<float>> buffers(2);
  RunRanks(world, [&](int rank) {
    comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
             buffers[static_cast<std::size_t>(rank)]);
    comm.Barrier(rank);
  });
  EXPECT_TRUE(buffers[0].empty());
  EXPECT_TRUE(buffers[1].empty());
}

TEST(RingCommunicatorTest, ChargesAttachedAcceleratorsPerChunk) {
  const int world = 4;
  const std::size_t len = 256;  // 1024 bytes
  CollectiveOptions options;
  options.bucket_bytes = 512;  // 2 buckets of 128 elems
  RingCommunicator comm(world, options);
  std::vector<std::unique_ptr<SimAccelerator>> accels;
  for (int r = 0; r < world; ++r) {
    accels.push_back(std::make_unique<SimAccelerator>(AcceleratorSpec::TpuV3Core()));
    comm.AttachAccelerator(r, accels.back().get());
  }
  std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
             buffers[static_cast<std::size_t>(rank)]);
  });
  // Each bucket of 128 elems splits into 4 chunks of 32 elems = 128
  // bytes; every rank charges each non-empty chunk of each bucket. The
  // SimClock truncates each charge to whole nanoseconds, so the expected
  // value applies the same per-charge truncation.
  const double per_chunk =
      AllReduceSeconds(AcceleratorSpec::TpuV3Core(), 128, world);
  const double expected =
      2 * 4 * static_cast<double>(static_cast<std::int64_t>(per_chunk * 1e9)) *
      1e-9;
  for (int r = 0; r < world; ++r) {
    EXPECT_DOUBLE_EQ(accels[static_cast<std::size_t>(r)]->elapsed_seconds(),
                     expected)
        << "rank " << r;
  }
}

TEST(RingCommunicatorTest, CountersAreDeterministic) {
  const int world = 3;
  const std::size_t len = 100;
  CollectiveOptions options;
  options.bucket_bytes = 160;  // 40 elems/bucket -> 3 buckets (40/40/20)
  auto run_once = [&] {
    RingCommunicator comm(world, options);
    std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
    const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
    RunRanks(world, [&](int rank) {
      comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
               buffers[static_cast<std::size_t>(rank)]);
      comm.Barrier(rank);
    });
    const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
    return after.CounterDeltaSince(before);
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.at("dist.allreduce.calls"), world);
  EXPECT_EQ(first.at("dist.allreduce.bytes"),
            static_cast<std::int64_t>(world * len * sizeof(float)));
  EXPECT_EQ(first.at("dist.allreduce.buckets"), world * 3);
  EXPECT_EQ(first.at("dist.barrier.count"), world);
  EXPECT_GT(first.at("dist.send.messages"), 0);
  // Fault-free run: no retries, timeouts, drops, or stragglers.
  EXPECT_EQ(first.count("dist.retry.count"), 0u);
  EXPECT_EQ(first.count("dist.recv.timeouts"), 0u);
  EXPECT_EQ(first.count("dist.fault.dropped_chunks"), 0u);
  EXPECT_EQ(first, second);
}

TEST(AsyncAllReduceTest, MatchesTreeReferenceBitwiseAnySubmissionOrder) {
  // The overlapped collective must be byte-for-byte the synchronous one:
  // same geometry, same canonical tree, regardless of the order the
  // caller hands buckets over (here: reverse).
  for (int world : {1, 2, 4}) {
    const std::size_t len = 173;
    CollectiveOptions options;
    options.bucket_bytes = 64;  // 16 elems/bucket -> 11 buckets
    const std::vector<float> expected =
        OrderedTreeReduce(AllRankInputs(world, len));
    RingCommunicator comm(world, options);
    std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
    RunRanks(world, [&](int rank) {
      auto handle = comm.RunAsync(rank,
                                  CollectiveSpec::AllReduce(ReduceOp::kSum),
                                  buffers[static_cast<std::size_t>(rank)]);
      ASSERT_EQ(handle->num_buckets(),
                NumAllReduceBuckets(static_cast<std::int64_t>(len),
                                    options.bucket_bytes));
      for (std::int64_t b = handle->num_buckets() - 1; b >= 0; --b) {
        handle->SubmitBucket(b);
      }
      handle->Wait();
    });
    for (int r = 0; r < world; ++r) {
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(buffers[static_cast<std::size_t>(r)][i], expected[i])
            << "world " << world << " rank " << r << " elem " << i;
      }
    }
  }
}

TEST(AsyncAllReduceTest, WaitAloneFlushesEveryBucket) {
  // A caller that never submits anything still gets the full reduce:
  // Wait() flushes the unsubmitted tail (and says so in the counters).
  const int world = 3;
  const std::size_t len = 100;
  CollectiveOptions options;
  options.bucket_bytes = 160;  // 40 elems/bucket -> 3 buckets
  const std::vector<float> expected =
      OrderedTreeReduce(AllRankInputs(world, len));
  RingCommunicator comm(world, options);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  RunRanks(world, [&](int rank) {
    auto handle = comm.RunAsync(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
                                buffers[static_cast<std::size_t>(rank)]);
    handle->Wait();
  });
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(buffers[static_cast<std::size_t>(r)][i], expected[i]);
    }
  }
  EXPECT_EQ(delta.at("dist.overlap.async_calls"), world);
  EXPECT_EQ(delta.at("dist.overlap.wait.calls"), world);
  EXPECT_EQ(delta.at("dist.overlap.buckets.flushed_at_wait"), world * 3);
  EXPECT_EQ(delta.count("dist.overlap.buckets.early"), 0u);
}

TEST(AsyncAllReduceTest, ConsumesOneSeqAndInteroperatesWithSync) {
  // An async all-reduce occupies exactly one slot in the per-rank
  // collective sequence, so a following synchronous Run on the same
  // communicator still lines up across ranks.
  const int world = 2;
  const std::size_t len = 50;
  const std::vector<float> expected =
      OrderedTreeReduce(AllRankInputs(world, len));
  RingCommunicator comm(world);
  std::vector<std::vector<float>> first = AllRankInputs(world, len);
  std::vector<std::vector<float>> second = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    const std::size_t i = static_cast<std::size_t>(rank);
    auto handle = comm.RunAsync(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
                                first[i]);
    handle->Wait();
    comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum), second[i]);
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(first[static_cast<std::size_t>(r)], expected);
    EXPECT_EQ(second[static_cast<std::size_t>(r)], expected);
  }
}

TEST(AsyncAllReduceTest, RecoversFromInjectedDropsBitwise) {
  // Dropped deliveries under the async path retry exactly like the sync
  // path and never change the numbers.
  const int world = 2;
  const std::size_t len = 64;
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_probability = 1.0;
  plan.drops_per_event = 1;
  CollectiveOptions options;
  options.bucket_bytes = 128;
  options.recv_timeout = std::chrono::milliseconds(2000);
  const std::vector<float> expected =
      OrderedTreeReduce(AllRankInputs(world, len));
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  RingCommunicator comm(world, options, plan);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    auto handle = comm.RunAsync(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
                                buffers[static_cast<std::size_t>(rank)]);
    for (std::int64_t b = 0; b < handle->num_buckets(); ++b) {
      handle->SubmitBucket(b);
    }
    handle->Wait();
  });
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(buffers[static_cast<std::size_t>(r)], expected);
  }
  EXPECT_GT(delta.at("dist.fault.dropped_chunks"), 0);
  EXPECT_EQ(delta.at("dist.retry.count"),
            delta.at("dist.fault.dropped_chunks"));
}

TEST(AsyncAllReduceTest, AbandonedHandleFailsPeersLoudlyWithoutHanging) {
  // Destroying the handle without Wait() (the exception-unwind path)
  // never submits the remaining buckets — exactly like a rank that threw
  // out of the synchronous AllReduce — so the peer exhausts its bounded
  // retry budget and throws instead of hanging.
  const int world = 2;
  CollectiveOptions options;
  options.recv_timeout = std::chrono::milliseconds(5);
  options.max_retries = 2;
  RingCommunicator comm(world, options);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, 16);
  std::atomic<int> peer_failures{0};
  RunRanks(world, [&](int rank) {
    const std::size_t i = static_cast<std::size_t>(rank);
    if (rank == 0) {
      auto handle = comm.RunAsync(rank,
                                  CollectiveSpec::AllReduce(ReduceOp::kSum),
                                  buffers[i]);
      // Dropped on the floor: simulates the backward pass throwing
      // before any bucket was ready.
    } else {
      try {
        comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum), buffers[i]);
      } catch (const InternalError&) {
        peer_failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(peer_failures.load(), 1);
}

TEST(AsyncAllReduceTest, DyingRankThrowsAtEntryAndPendingWaitFailsLoudly) {
  // Seeded replica death under the async path: the dying rank throws
  // ReplicaDeadError from RunAsync itself (before a handle ever
  // exists, so nothing is ever sent), and the surviving rank's Wait()
  // surfaces the retry-budget failure the sync path would have thrown.
  const int world = 2;
  FaultPlan plan;
  plan.death_rank = 1;
  plan.death_seq = 0;
  CollectiveOptions options;
  options.recv_timeout = std::chrono::milliseconds(5);
  options.max_retries = 2;
  RingCommunicator comm(world, options, plan);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, 32);
  std::atomic<int> dead{0};
  std::atomic<int> survivor_failures{0};
  RunRanks(world, [&](int rank) {
    const std::size_t i = static_cast<std::size_t>(rank);
    if (rank == 1) {
      try {
        auto handle = comm.RunAsync(rank,
                                    CollectiveSpec::AllReduce(ReduceOp::kSum),
                                    buffers[i]);
        handle->Wait();
      } catch (const ReplicaDeadError&) {
        dead.fetch_add(1);
      }
    } else {
      auto handle = comm.RunAsync(rank,
                                  CollectiveSpec::AllReduce(ReduceOp::kSum),
                                  buffers[i]);
      for (std::int64_t b = 0; b < handle->num_buckets(); ++b) {
        handle->SubmitBucket(b);
      }
      try {
        handle->Wait();
      } catch (const InternalError&) {
        survivor_failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(dead.load(), 1);
  EXPECT_EQ(survivor_failures.load(), 1);
}

TEST(MessageKeyTest, PackedIsInjectiveAcrossFields) {
  const MessageKey a{MessagePhase::kScatter, 1, 2, 3, 4};
  EXPECT_NE(a.Packed(), (MessageKey{MessagePhase::kGather, 1, 2, 3, 4}).Packed());
  EXPECT_NE(a.Packed(), (MessageKey{MessagePhase::kScatter, 2, 2, 3, 4}).Packed());
  EXPECT_NE(a.Packed(), (MessageKey{MessagePhase::kScatter, 1, 3, 3, 4}).Packed());
  EXPECT_NE(a.Packed(), (MessageKey{MessagePhase::kScatter, 1, 2, 4, 4}).Packed());
  EXPECT_NE(a.Packed(), (MessageKey{MessagePhase::kScatter, 1, 2, 3, 5}).Packed());
  EXPECT_THROW((MessageKey{MessagePhase::kScatter, 1u << 25, 0, 0, 0}).Packed(),
               InternalError);
}

}  // namespace
}  // namespace s4tf::dist
