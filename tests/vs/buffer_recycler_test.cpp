// BufferRecycler: size-exact reuse, the per-size cap, the churn guard,
// cross-thread use, AddressSanitizer poisoning of cached buffers, and the
// end-to-end promise that a repeating eager LeNet-5 step stops missing.
#include "vs/buffer_recycler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "eager/eager_backend.h"
#include "nn/datasets.h"
#include "nn/losses.h"
#include "nn/models/lenet.h"
#include "nn/optimizers.h"
#include "nn/training.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace s4tf::vs {
namespace {

constexpr std::size_t kPage = BufferRecycler::kMinBytes;

TEST(BufferRecyclerTest, FreedBufferComesBackForTheSameSize) {
  BufferRecycler recycler;
  void* first = recycler.Take(2 * kPage);
  recycler.Give(first, 2 * kPage);
  void* other = recycler.Take(3 * kPage);  // another size misses
  void* again = recycler.Take(2 * kPage);
  EXPECT_EQ(again, first);
  EXPECT_NE(other, first);

  // Below one page the recycler steps aside: nothing is counted or kept.
  void* small = recycler.Take(kPage - 4);
  recycler.Give(small, kPage - 4);

  const BufferRecycler::Stats stats = recycler.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.live_bytes, static_cast<std::int64_t>(5 * kPage));
  EXPECT_EQ(stats.cached_bytes, 0);
  recycler.Give(again, 2 * kPage);
  recycler.Give(other, 3 * kPage);
}

// A size caches at most as many buffers as it ever had live at once: a
// repeating step is all hits after its first run, and a step that needs
// one more buffer of a size misses exactly once and raises that size's
// cap by one.
TEST(BufferRecyclerTest, EachSizeCachesUpToItsOwnHighWaterMark) {
  BufferRecycler recycler;
  const auto step = [&](int a_count) {
    std::vector<void*> a, b;
    for (int i = 0; i < a_count; ++i) a.push_back(recycler.Take(kPage));
    for (int i = 0; i < 2; ++i) b.push_back(recycler.Take(4 * kPage));
    for (void* p : a) recycler.Give(p, kPage);
    for (void* p : b) recycler.Give(p, 4 * kPage);
  };
  const auto bytes = [](int a_count) {
    return static_cast<std::int64_t>((a_count + 2 * 4) * kPage);
  };

  step(3);
  EXPECT_EQ(recycler.stats().misses, 5);
  EXPECT_EQ(recycler.stats().cached_bytes, bytes(3));
  step(3);
  step(3);
  EXPECT_EQ(recycler.stats().misses, 5);
  EXPECT_EQ(recycler.stats().hits, 10);
  EXPECT_EQ(recycler.stats().cached_bytes, bytes(3));

  step(4);
  EXPECT_EQ(recycler.stats().misses, 6);
  EXPECT_EQ(recycler.stats().cached_bytes, bytes(4));
  step(2);  // a smaller step leaves the cache as it was
  EXPECT_EQ(recycler.stats().cached_bytes, bytes(4));
  EXPECT_EQ(recycler.stats().evictions, 0);
  EXPECT_EQ(recycler.stats().live_bytes, 0);
}

// Live + cached bytes stay within twice the high-water mark of live bytes:
// under shape churn each new size adds to the cache until a freed buffer
// would cross that line, and that buffer is freed instead.
TEST(BufferRecyclerTest, ChurnGuardFreesAboveTwiceThePeakLiveBytes) {
  BufferRecycler recycler;
  const auto once = [&](std::size_t bytes) {
    recycler.Give(recycler.Take(bytes), bytes);
  };
  once(4 * kPage);  // peak 4 pages, cached 4 of at most 8
  once(5 * kPage);  // peak 5, cached 9 of at most 10
  EXPECT_EQ(recycler.stats().evictions, 0);
  EXPECT_EQ(recycler.stats().cached_bytes,
            static_cast<std::int64_t>(9 * kPage));
  once(6 * kPage);  // peak 6: caching it would make 15 > 12
  BufferRecycler::Stats stats = recycler.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.cached_bytes, static_cast<std::int64_t>(9 * kPage));
  EXPECT_EQ(stats.peak_live_bytes, static_cast<std::int64_t>(6 * kPage));

  // The sizes cached before the churn still hit.
  once(4 * kPage);
  once(5 * kPage);
  stats = recycler.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.evictions, 1);
}

// Buffers taken on one thread and given back on another, as the eager
// worker, the intra-op pool, replica and serving threads do. Run under
// TSAN by the `parallel` label.
TEST(BufferRecyclerTest, GivesAndTakesAcrossThreads) {
  BufferRecycler recycler;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  const std::size_t kSizes[] = {kPage, 2 * kPage, 3 * kPage};
  std::mutex mutex;
  std::deque<std::pair<void*, std::size_t>> handoff;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t bytes = kSizes[(t + round) % 3];
        auto* buffer = static_cast<unsigned char*>(recycler.Take(bytes));
        std::memset(buffer, t, bytes);
        EXPECT_EQ(buffer[bytes - 1], t);
        std::pair<void*, std::size_t> other{nullptr, 0};
        {
          std::lock_guard<std::mutex> lock(mutex);
          handoff.emplace_back(buffer, bytes);
          if (handoff.size() > 2) {
            other = handoff.front();
            handoff.pop_front();
          }
        }
        if (other.first != nullptr) recycler.Give(other.first, other.second);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& [buffer, bytes] : handoff) recycler.Give(buffer, bytes);

  const BufferRecycler::Stats stats = recycler.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds);
  EXPECT_EQ(stats.live_bytes, 0);
  EXPECT_LE(stats.cached_bytes, 2 * stats.peak_live_bytes);
  EXPECT_GT(stats.hits, 0);
}

TEST(BufferRecyclerTest, CachedBufferIsPoisonedUnderAddressSanitizer) {
#if defined(__SANITIZE_ADDRESS__)
  BufferRecycler recycler;
  auto* buffer = static_cast<char*>(recycler.Take(2 * kPage));
  buffer[0] = 1;
  EXPECT_FALSE(__asan_address_is_poisoned(buffer));
  recycler.Give(buffer, 2 * kPage);
  EXPECT_TRUE(__asan_address_is_poisoned(buffer));
  EXPECT_TRUE(__asan_address_is_poisoned(buffer + 2 * kPage - 1));
  auto* again = static_cast<char*>(recycler.Take(2 * kPage));
  ASSERT_EQ(again, buffer);
  EXPECT_FALSE(__asan_address_is_poisoned(again));
  EXPECT_FALSE(__asan_address_is_poisoned(again + 2 * kPage - 1));
  recycler.Give(again, 2 * kPage);
#else
  GTEST_SKIP() << "cached buffers are poisoned only in an AddressSanitizer "
                  "build";
#endif
}

// Once a step has run, the next identical step finds every buffer it needs
// of at least a page in the process-wide cache.
TEST(BufferRecyclerTest, WarmEagerLeNetStepNeverMisses) {
  EagerBackend eager;
  const Device device = eager.device();
  Rng rng(21);
  nn::LeNet model(rng);
  nn::MoveModelTo(model, device);
  nn::SGD<nn::LeNet> optimizer(0.01f, 0.9f);
  const nn::LabeledBatch batch =
      nn::SyntheticImageDataset::Mnist(32, 3).Batch(0, 32, device);
  const auto step = [&] {
    nn::TrainStep(model, optimizer, [&batch](const nn::LeNet& m) {
      return nn::SoftmaxCrossEntropy(m(batch.images), batch.one_hot);
    });
    eager.Sync(device);
  };

  step();
  step();
  const BufferRecycler::Stats before = BufferRecycler::Global().stats();
  step();
  const BufferRecycler::Stats after = BufferRecycler::Global().stats();
  EXPECT_EQ(after.misses - before.misses, 0);
  EXPECT_GT(after.hits - before.hits, 0);
}

}  // namespace
}  // namespace s4tf::vs
