// ReduceScatter/AllGather acceptance tests: the standalone sharded
// collectives match the canonical tree reference bitwise, compose back
// into the all-reduce exactly, serve the async handle API, survive shard
// geometries that don't divide (empty shards, zero-length buffers), and
// reject malformed shard offsets loudly.
#include "dist/communicator.h"

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

void RunRanks(int world, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&fn, r] { fn(r); });
  }
  for (std::thread& t : threads) t.join();
}

// Deterministic per-rank input with enough digits that reassociation
// would change the low bits (same generator as communicator_test.cpp).
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

TEST(ShardOffsetsTest, CeilDividedContiguousCover) {
  EXPECT_EQ(ShardOffsets(10, 4), (std::vector<std::int64_t>{0, 3, 6, 9, 10}));
  EXPECT_EQ(ShardOffsets(8, 4), (std::vector<std::int64_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(ShardOffsets(5, 1), (std::vector<std::int64_t>{0, 5}));
  // world > len: trailing shards are empty, never negative.
  EXPECT_EQ(ShardOffsets(3, 6),
            (std::vector<std::int64_t>{0, 1, 2, 3, 3, 3, 3}));
  // Zero-length buffer: every shard is empty.
  EXPECT_EQ(ShardOffsets(0, 3), (std::vector<std::int64_t>{0, 0, 0, 0}));
}

TEST(ReduceScatterTest, OwnShardMatchesTreeReferenceBitwise) {
  for (int world : {1, 2, 3, 4, 8}) {
    const std::size_t len = 173;  // not divisible by any tested world
    const std::vector<float> expected =
        OrderedTreeReduce(AllRankInputs(world, len));
    const std::vector<std::int64_t> offsets =
        ShardOffsets(static_cast<std::int64_t>(len), world);
    RingCommunicator comm(world);
    std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
    RunRanks(world, [&](int rank) {
      comm.Run(rank, CollectiveSpec::ReduceScatter(ReduceOp::kSum),
               buffers[static_cast<std::size_t>(rank)]);
    });
    for (int r = 0; r < world; ++r) {
      for (std::int64_t i = offsets[static_cast<std::size_t>(r)];
           i < offsets[static_cast<std::size_t>(r) + 1]; ++i) {
        ASSERT_EQ(buffers[static_cast<std::size_t>(r)]
                         [static_cast<std::size_t>(i)],
                  expected[static_cast<std::size_t>(i)])
            << "world " << world << " rank " << r << " elem " << i;
      }
    }
  }
}

TEST(ReduceScatterTest, MeanMatchesTreeReferenceBitwise) {
  const int world = 4;
  const std::size_t len = 257;
  const std::vector<float> expected =
      OrderedTreeReduceMean(AllRankInputs(world, len));
  const std::vector<std::int64_t> offsets =
      ShardOffsets(static_cast<std::int64_t>(len), world);
  RingCommunicator comm(world);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    comm.Run(rank, CollectiveSpec::ReduceScatter(ReduceOp::kMean),
             buffers[static_cast<std::size_t>(rank)]);
  });
  for (int r = 0; r < world; ++r) {
    for (std::int64_t i = offsets[static_cast<std::size_t>(r)];
         i < offsets[static_cast<std::size_t>(r) + 1]; ++i) {
      ASSERT_EQ(buffers[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(i)],
                expected[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(AllGatherTest, BroadcastsEveryOwnersShard) {
  for (int world : {1, 2, 3, 4, 8}) {
    const std::size_t len = 131;
    const std::vector<std::int64_t> offsets =
        ShardOffsets(static_cast<std::int64_t>(len), world);
    // The assembled buffer every rank must end with: shard r comes from
    // rank r's distinctive input.
    std::vector<float> assembled(len, 0.0f);
    for (int r = 0; r < world; ++r) {
      const std::vector<float> input = RankInput(r, len);
      for (std::int64_t i = offsets[static_cast<std::size_t>(r)];
           i < offsets[static_cast<std::size_t>(r) + 1]; ++i) {
        assembled[static_cast<std::size_t>(i)] =
            input[static_cast<std::size_t>(i)];
      }
    }
    RingCommunicator comm(world);
    std::vector<std::vector<float>> buffers(
        static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r) {
      // Only the rank's own shard region is valid on entry; the rest is
      // a sentinel the gather must overwrite (or leave, for world 1).
      buffers[static_cast<std::size_t>(r)].assign(len, -1000.0f);
      const std::vector<float> input = RankInput(r, len);
      for (std::int64_t i = offsets[static_cast<std::size_t>(r)];
           i < offsets[static_cast<std::size_t>(r) + 1]; ++i) {
        buffers[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] =
            input[static_cast<std::size_t>(i)];
      }
    }
    RunRanks(world, [&](int rank) {
      comm.Run(rank, CollectiveSpec::AllGather(),
               buffers[static_cast<std::size_t>(rank)]);
    });
    for (int r = 0; r < world; ++r) {
      if (world == 1) continue;  // nothing to transport
      ASSERT_EQ(buffers[static_cast<std::size_t>(r)], assembled)
          << "world " << world << " rank " << r;
    }
  }
}

TEST(CollectiveTest, ReduceScatterThenAllGatherEqualsAllReduceBitwise) {
  // The tentpole identity: RS followed by AG over the same shard
  // geometry IS the all-reduce, bit for bit, for every world size,
  // bucket granularity, and reduction.
  for (int world : {1, 2, 3, 4, 8}) {
    const std::size_t len = 211;
    for (const std::int64_t bucket_bytes : {64, 256, 1 << 20}) {
      for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMean}) {
        CollectiveOptions options;
        options.bucket_bytes = bucket_bytes;

        RingCommunicator ar_comm(world, options);
        std::vector<std::vector<float>> ar = AllRankInputs(world, len);
        RunRanks(world, [&](int rank) {
          ar_comm.Run(rank, CollectiveSpec::AllReduce(op),
                      ar[static_cast<std::size_t>(rank)]);
        });

        RingCommunicator comm(world, options);
        std::vector<std::vector<float>> composed =
            AllRankInputs(world, len);
        RunRanks(world, [&](int rank) {
          std::vector<float>& buf = composed[static_cast<std::size_t>(rank)];
          comm.Run(rank, CollectiveSpec::ReduceScatter(op), buf);
          comm.Run(rank, CollectiveSpec::AllGather(), buf);
        });
        for (int r = 0; r < world; ++r) {
          ASSERT_EQ(composed[static_cast<std::size_t>(r)],
                    ar[static_cast<std::size_t>(r)])
              << "world " << world << " bucket_bytes " << bucket_bytes
              << " op " << static_cast<int>(op) << " rank " << r;
        }
      }
    }
  }
}

TEST(CollectiveTest, CustomShardOffsetsRespected) {
  // A deliberately skewed partition — including an empty middle shard —
  // behaves exactly like the default one: each owner ends with its
  // reduced shard, and RS∘AG still composes to the all-reduce.
  const int world = 4;
  const std::size_t len = 100;
  const std::vector<std::int64_t> offsets = {0, 70, 70, 90, 100};
  const std::vector<float> expected =
      OrderedTreeReduce(AllRankInputs(world, len));
  RingCommunicator comm(world);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    std::vector<float>& buf = buffers[static_cast<std::size_t>(rank)];
    comm.Run(rank, CollectiveSpec::ReduceScatter(ReduceOp::kSum, offsets), buf);
    comm.Run(rank, CollectiveSpec::AllGather(offsets), buf);
  });
  for (int r = 0; r < world; ++r) {
    ASSERT_EQ(buffers[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

TEST(CollectiveTest, MalformedShardOffsetsFailLoudly) {
  const std::size_t len = 16;
  RingCommunicator comm(1);
  std::vector<float> data = RankInput(0, len);
  // Wrong arity (world+1 entries required).
  EXPECT_THROW(comm.Run(0, CollectiveSpec::ReduceScatter(ReduceOp::kSum, {0}),
                        data),
               InternalError);
  // back() must equal the buffer length.
  EXPECT_THROW(comm.Run(0,
                        CollectiveSpec::ReduceScatter(ReduceOp::kSum, {0, 15}),
                        data),
               InternalError);
  // front() must be 0.
  EXPECT_THROW(comm.Run(0, CollectiveSpec::AllGather({1, 16}), data),
               InternalError);
  // Offsets must be nondecreasing.
  RingCommunicator comm2(2);
  std::vector<float> data2 = RankInput(0, len);
  EXPECT_THROW(
      comm2.Run(0, CollectiveSpec::ReduceScatter(ReduceOp::kSum, {0, 12, 8}),
                data2),
               InternalError);
}

TEST(CollectiveTest, ZeroLengthBufferIsANoOpForEveryKind) {
  const int world = 2;
  RingCommunicator comm(world);
  std::vector<std::vector<float>> buffers(2);
  RunRanks(world, [&](int rank) {
    std::vector<float>& buf = buffers[static_cast<std::size_t>(rank)];
    comm.Run(rank, CollectiveSpec::ReduceScatter(ReduceOp::kSum), buf);
    comm.Run(rank, CollectiveSpec::AllGather(), buf);
    comm.Barrier(rank);
  });
  EXPECT_TRUE(buffers[0].empty());
  EXPECT_TRUE(buffers[1].empty());
}

TEST(CollectiveTest, WorldLargerThanBufferLeavesTrailingShardsEmpty) {
  // world 8 over 3 elements: shards 3..7 are empty; owners of real
  // shards still reduce them exactly.
  const int world = 8;
  const std::size_t len = 3;
  const std::vector<float> expected =
      OrderedTreeReduce(AllRankInputs(world, len));
  RingCommunicator comm(world);
  std::vector<std::vector<float>> buffers = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    std::vector<float>& buf = buffers[static_cast<std::size_t>(rank)];
    comm.Run(rank, CollectiveSpec::ReduceScatter(ReduceOp::kSum), buf);
    comm.Run(rank, CollectiveSpec::AllGather(), buf);
  });
  for (int r = 0; r < world; ++r) {
    ASSERT_EQ(buffers[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

TEST(CollectiveTest, AsyncShardedCollectivesMatchSyncBitwise) {
  // ReduceScatterAsync/AllGatherAsync with bucket-at-a-time submission
  // produce exactly the synchronous results.
  const int world = 4;
  const std::size_t len = 300;
  CollectiveOptions options;
  options.bucket_bytes = 256;  // several buckets

  RingCommunicator sync_comm(world, options);
  std::vector<std::vector<float>> sync_bufs = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    std::vector<float>& buf = sync_bufs[static_cast<std::size_t>(rank)];
    sync_comm.Run(rank, CollectiveSpec::ReduceScatter(ReduceOp::kMean), buf);
    sync_comm.Run(rank, CollectiveSpec::AllGather(), buf);
  });

  RingCommunicator comm(world, options);
  std::vector<std::vector<float>> bufs = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    std::vector<float>& buf = bufs[static_cast<std::size_t>(rank)];
    auto rs = comm.RunAsync(
        rank, CollectiveSpec::ReduceScatter(ReduceOp::kMean), buf);
    for (std::int64_t b = 0; b < rs->num_buckets(); ++b) {
      rs->SubmitBucket(b);
    }
    rs->Wait();
    auto ag = comm.RunAsync(rank, CollectiveSpec::AllGather(), buf);
    ag->Wait();  // Wait() submits whatever was never handed over
  });
  for (int r = 0; r < world; ++r) {
    ASSERT_EQ(bufs[static_cast<std::size_t>(r)],
              sync_bufs[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST(CollectiveTest, ShardedCollectivesCountSeparately) {
  // RS/AG record their own dist.* counters and never touch the
  // all-reduce's call counter (the bench gates key off these).
  const int world = 2;
  const std::size_t len = 64;
  RingCommunicator comm(world);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  std::vector<std::vector<float>> bufs = AllRankInputs(world, len);
  RunRanks(world, [&](int rank) {
    std::vector<float>& buf = bufs[static_cast<std::size_t>(rank)];
    comm.Run(rank, CollectiveSpec::ReduceScatter(ReduceOp::kSum), buf);
    comm.Run(rank, CollectiveSpec::AllGather(), buf);
  });
  const auto delta =
      obs::MetricsRegistry::Global().Snapshot().CounterDeltaSince(before);
  EXPECT_EQ(delta.at("dist.reduce_scatter.calls"), world);
  EXPECT_EQ(delta.at("dist.all_gather.calls"), world);
  EXPECT_EQ(delta.at("dist.reduce_scatter.bytes"),
            static_cast<std::int64_t>(world * len * sizeof(float)));
  EXPECT_EQ(delta.at("dist.all_gather.bytes"),
            static_cast<std::int64_t>(world * len * sizeof(float)));
  EXPECT_GT(delta.at("dist.reduce_scatter.chunks"), 0);
  EXPECT_GT(delta.at("dist.all_gather.chunks"), 0);
  EXPECT_EQ(delta.count("dist.allreduce.calls"), 0u);
}

TEST(CollectiveTest, ShardedCollectivesChargeAttachedAccelerators) {
  // Each phase charges its own (half-ring) cost model entry; the two
  // phases together charge exactly the monolithic all-reduce, because
  // AllReduceSeconds == ReduceScatterSeconds + AllGatherSeconds and the
  // shard partition transports the same chunks.
  const int world = 4;
  const std::size_t len = 256;
  CollectiveOptions options;
  options.bucket_bytes = 1 << 20;  // one bucket
  const AcceleratorSpec spec = AcceleratorSpec::TpuV3Core();

  auto charged = [&](const std::function<void(RingCommunicator&, int,
                                              std::vector<float>&)>& body) {
    RingCommunicator comm(world, options);
    std::vector<std::unique_ptr<SimAccelerator>> accels;
    for (int r = 0; r < world; ++r) {
      accels.push_back(std::make_unique<SimAccelerator>(spec));
      comm.AttachAccelerator(r, accels.back().get());
    }
    std::vector<std::vector<float>> bufs = AllRankInputs(world, len);
    RunRanks(world, [&](int rank) {
      body(comm, rank, bufs[static_cast<std::size_t>(rank)]);
    });
    return accels[0]->elapsed_seconds();
  };

  const double ar = charged([](RingCommunicator& c, int rank,
                               std::vector<float>& buf) {
    c.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum), buf);
  });
  const double rs = charged([](RingCommunicator& c, int rank,
                               std::vector<float>& buf) {
    c.Run(rank, CollectiveSpec::ReduceScatter(ReduceOp::kSum), buf);
  });
  const double ag = charged([](RingCommunicator& c, int rank,
                               std::vector<float>& buf) {
    std::vector<float> own = buf;
    c.Run(rank, CollectiveSpec::AllGather(), own);
  });
  EXPECT_GT(rs, 0.0);
  EXPECT_GT(ag, 0.0);
  EXPECT_LT(rs, ar);
  EXPECT_LT(ag, ar);
}

TEST(CollectiveTest, HierarchicalTopologyChangesOnlyTheChargedClock) {
  // A hierarchical CollectiveOptions::topology reshapes the simulated
  // all-reduce cost (cheaper at scale) but never the reduced bytes.
  const int world = 8;
  const std::size_t len = 1024;

  auto run = [&](CommTopology topology) {
    CollectiveOptions options;
    options.topology = topology;
    RingCommunicator comm(world, options);
    std::vector<std::unique_ptr<SimAccelerator>> accels;
    for (int r = 0; r < world; ++r) {
      accels.push_back(std::make_unique<SimAccelerator>(
          AcceleratorSpec::TpuV3Core()));
      comm.AttachAccelerator(r, accels.back().get());
    }
    std::vector<std::vector<float>> bufs = AllRankInputs(world, len);
    RunRanks(world, [&](int rank) {
      comm.Run(rank, CollectiveSpec::AllReduce(ReduceOp::kSum),
               bufs[static_cast<std::size_t>(rank)]);
    });
    return std::make_pair(bufs, accels[0]->elapsed_seconds());
  };

  const auto [flat_bufs, flat_seconds] = run(CommTopology{});
  const auto [hier_bufs, hier_seconds] = run(CommTopology{/*rph=*/4});
  EXPECT_EQ(flat_bufs, hier_bufs);
  EXPECT_GT(hier_seconds, 0.0);
  EXPECT_NE(hier_seconds, flat_seconds);
}

}  // namespace
}  // namespace s4tf::dist
