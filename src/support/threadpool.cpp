#include "support/threadpool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace s4tf {

namespace {

// Regions are one-per-call and therefore thread-count invariant; shard
// counts depend on how the iteration space splits, so they carry the
// ".shards" suffix that excludes them from the determinism contract
// (see obs/metrics.h).
obs::Counter& RegionCounter() {
  static obs::Counter* counter =
      obs::GetCounter("support.parallel_for.regions");
  return *counter;
}

obs::Counter& ShardCounter() {
  static obs::Counter* counter =
      obs::GetCounter("support.parallel_for.shards");
  return *counter;
}

// How long an idle worker watches the region epoch before it parks. It
// covers the gaps between consecutive regions of an eager LeNet step, so a
// step's regions find their helpers awake; DESIGN.md decision 6 has the
// measurement.
constexpr std::chrono::microseconds kWorkerSpin{50};

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#endif
}

// Pause-spins (about a microsecond on a 2 GHz x86 host) a waiting thread
// makes before it starts yielding its time slice instead. The scheduler
// may put the pool's threads on fewer CPUs than there are threads, and
// then a thread that keeps spinning holds the CPU the thread it waits for
// needs.
constexpr int kPauseSpins = 64;

// Spins with pauses, then yields; `spins` counts the calls so far.
void SpinWait(int spins) {
  if (spins < kPauseSpins) {
    CpuRelax();
  } else {
    std::this_thread::yield();
  }
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void RunInline(std::int64_t n,
               FunctionRef<void(std::int64_t, std::int64_t)> body) {
  ShardCounter().Increment();
  obs::TraceSpan span("parallel_for.shard", "threadpool", "items", n);
  body(0, n);
}

}  // namespace

DispatchQueue::DispatchQueue() : worker_([this] { WorkerLoop(); }) {}

DispatchQueue::~DispatchQueue() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  // WorkerLoop keeps popping until the queue is empty, so joining here
  // drains every task submitted before destruction began.
  worker_.join();
}

void DispatchQueue::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    S4TF_CHECK(!shutdown_) << "Submit after shutdown";
    tasks_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_.notify_one();
}

void DispatchQueue::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  S4TF_CHECK(!shutdown_) << "Drain after shutdown";
  drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t DispatchQueue::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

void DispatchQueue::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown with everything drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
    }
    drained_cv_.notify_all();
  }
}

// One open parallel region. It lives on the stack of the thread that
// opened it. Helpers find it only through the pool's open list and join it
// under the list's lock; the opener unlinks it once every block is claimed
// and then waits until every helper that joined has left, so no helper
// touches it after the opener returns.
struct ThreadPool::Region {
  Region(FunctionRef<void(std::int64_t, std::int64_t)> body, std::int64_t n,
         std::int64_t grain, std::int64_t num_blocks, int max_helpers)
      : body(body),
        n(n),
        grain(grain),
        num_blocks(num_blocks),
        max_helpers(max_helpers) {}

  // A helper may still join: a block is unclaimed and there is room. Call
  // with the pool's open_lock_ held (it reads `joined`).
  bool Joinable() const {
    return joined < max_helpers &&
           next_block.load(std::memory_order_relaxed) < num_blocks;
  }

  std::int64_t Claim() {
    return next_block.fetch_add(1, std::memory_order_relaxed);
  }

  // Runs `block` (from Claim), then claims and runs blocks until none
  // remain, then counts them once.
  void Work(std::int64_t block) {
    std::int64_t ran = 0;
    for (; block < num_blocks; block = Claim()) {
      ++ran;
      const std::int64_t begin = block * grain;
      const std::int64_t end = std::min(n, begin + grain);
      try {
        obs::TraceSpan span("parallel_for.shard", "threadpool", "items",
                            end - begin);
        body(begin, end);
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_relaxed)) {
          error = std::current_exception();
        }
        // Abandon the blocks not yet handed out.
        next_block.store(num_blocks, std::memory_order_relaxed);
      }
    }
    if (ran > 0) ShardCounter().Add(ran);
  }

  const FunctionRef<void(std::int64_t, std::int64_t)> body;
  const std::int64_t n;
  const std::int64_t grain;
  const std::int64_t num_blocks;
  const int max_helpers;
  int joined = 0;           // guarded by the pool's open_lock_
  Region* prev = nullptr;   // guarded by the pool's open_lock_
  Region* next = nullptr;   // guarded by the pool's open_lock_
  std::atomic<std::int64_t> next_block{0};
  std::atomic<int> inside{0};  // helpers that joined and have not left
  std::atomic<bool> failed{false};
  // The first body exception. Written by the thread that set `failed`,
  // read by the opener after every helper has left.
  std::exception_ptr error;
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads), spin_(num_threads <= HardwareThreads()) {
  S4TF_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(open_lock_);
    shutdown_ = true;
    epoch_.fetch_add(1, std::memory_order_seq_cst);
  }
  { std::lock_guard<std::mutex> lock(park_mutex_); }
  park_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    // Join the oldest open region that still has a block and room. Every
    // region that opens after this scan bumps the epoch past `seen`.
    std::uint64_t seen = 0;
    Region* region = nullptr;
    bool more = false;
    {
      std::lock_guard<std::mutex> lock(open_lock_);
      if (shutdown_) return;
      seen = epoch_.load(std::memory_order_relaxed);
      region = open_head_;
      while (region != nullptr && !region->Joinable()) region = region->next;
      if (region != nullptr) {
        for (Region* r = region->next; r != nullptr && !more; r = r->next) {
          more = r->Joinable();
        }
        ++region->joined;
        region->inside.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (region != nullptr) {
      region->Work(region->Claim());
      // The region may be gone once this store lands.
      region->inside.fetch_sub(1, std::memory_order_release);
      if (more) continue;
    }

    // Wait for the next region: watch the epoch for a while, then park.
    if (spin_) {
      const auto deadline = std::chrono::steady_clock::now() + kWorkerSpin;
      for (int spins = 0; epoch_.load(std::memory_order_relaxed) == seen &&
                          (spins < kPauseSpins ||
                           std::chrono::steady_clock::now() < deadline);
           ++spins) {
        SpinWait(spins);
      }
    }
    if (epoch_.load(std::memory_order_relaxed) != seen) continue;
    // Either the opener of the next region sees parked_ > 0 and notifies,
    // or this thread sees its epoch bump and does not sleep (both sides
    // are sequentially consistent).
    std::unique_lock<std::mutex> lock(park_mutex_);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    park_cv_.wait(lock, [&] {
      return epoch_.load(std::memory_order_seq_cst) != seen;
    });
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::ParallelFor(std::int64_t n,
                             FunctionRef<void(std::int64_t)> body) {
  ParallelForRange(n, 1, [body](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) body(i);
  });
}

void ThreadPool::ParallelForRange(
    std::int64_t n, std::int64_t grain,
    FunctionRef<void(std::int64_t, std::int64_t)> body) {
  if (n <= 0) return;
  RegionCounter().Increment();
  grain = std::max<std::int64_t>(grain, 1);
  const std::int64_t num_blocks = n / grain + (n % grain != 0);
  if (num_blocks == 1 || workers_.empty()) {
    RunInline(n, body);
    return;
  }

  Region region(body, n, grain, num_blocks,
                static_cast<int>(std::min<std::int64_t>(
                    static_cast<std::int64_t>(workers_.size()),
                    num_blocks - 1)));
  // The caller takes the first block before any helper can, so it always
  // does part of the work, even when it loses its CPU right after it opens
  // the region.
  const std::int64_t first = region.Claim();
  {
    std::lock_guard<std::mutex> lock(open_lock_);
    region.prev = open_tail_;
    (open_tail_ != nullptr ? open_tail_->next : open_head_) = &region;
    open_tail_ = &region;
    epoch_.fetch_add(1, std::memory_order_seq_cst);
  }
  if (const int parked = parked_.load(std::memory_order_seq_cst); parked > 0) {
    // A worker between its last epoch check and its wait holds
    // park_mutex_, so taking it here orders this notify after that wait.
    { std::lock_guard<std::mutex> lock(park_mutex_); }
    for (int i = std::min(parked, region.max_helpers); i > 0; --i) {
      park_cv_.notify_one();
    }
  }

  // The caller claims blocks too, so completion never depends on a free
  // worker and nested regions cannot deadlock.
  region.Work(first);
  {
    std::lock_guard<std::mutex> lock(open_lock_);
    (region.prev != nullptr ? region.prev->next : open_head_) = region.next;
    (region.next != nullptr ? region.next->prev : open_tail_) = region.prev;
  }
  // Every block is claimed; the helpers that joined may still be running
  // theirs, on this stack frame's region.
  for (int spins = 0; region.inside.load(std::memory_order_acquire) != 0;
       ++spins) {
    SpinWait(spins);
  }
  if (region.failed.load(std::memory_order_relaxed)) {
    std::rethrow_exception(region.error);
  }
}

// --- Process-wide intra-op pool. -------------------------------------------

namespace {

// S4TF_NUM_THREADS, parsed once per process; 0 when unset or malformed.
int EnvThreads() {
  static const int threads = [] {
    const char* env = std::getenv("S4TF_NUM_THREADS");
    if (env == nullptr || env[0] == '\0') return 0;
    int parsed = 0;
    if (internal::ParseThreadCount(env, &parsed)) return parsed;
    // S4TF_NUM_THREADS is a tuned knob (the autotuner sweeps it): a
    // silently misparsed value would corrupt a whole sweep, so complain
    // loudly, once.
    std::fprintf(stderr,
                 "s4tf: ignoring malformed S4TF_NUM_THREADS=\"%s\" "
                 "(want an integer in [1, 4096]); using hardware "
                 "default of %d threads\n",
                 env, HardwareThreads());
    return 0;
  }();
  return threads;
}

// The global pool. A region reads the resolved size without a lock and,
// when it is above 1, copies the pool pointer under `lock`, held for that
// copy. (libstdc++ 12's std::atomic<std::shared_ptr> takes a lock as well,
// and unlocks a load with relaxed order, which ThreadSanitizer reports as a
// race with the next store.) The region's copy keeps its pool alive, so a
// pool that SetIntraOpThreads replaces stops its workers only after its
// last region returns.
struct IntraOpPool {
  std::mutex lock;
  int requested = 0;  // guarded by lock; 0 = the env/hardware default
  std::atomic<int> threads{0};  // the resolved size, written under lock
  std::shared_ptr<ThreadPool> pool;  // guarded by lock; null until needed
};

IntraOpPool& Global() {
  static IntraOpPool global;
  return global;
}

int ResolveLocked(IntraOpPool& global) {
  int threads = global.requested;
  if (threads == 0) threads = EnvThreads();
  if (threads == 0) threads = HardwareThreads();
  global.threads.store(threads, std::memory_order_release);
  return threads;
}

int ResolvedThreads() {
  IntraOpPool& global = Global();
  const int threads = global.threads.load(std::memory_order_acquire);
  if (threads > 0) return threads;
  std::lock_guard<std::mutex> lock(global.lock);
  return ResolveLocked(global);
}

// The pool to run a region on, created by the first region that needs it;
// null when the size has dropped to 1 meanwhile.
std::shared_ptr<ThreadPool> AcquirePool() {
  IntraOpPool& global = Global();
  std::lock_guard<std::mutex> lock(global.lock);
  const int threads = global.threads.load(std::memory_order_relaxed);
  if (!global.pool && threads > 1) {
    global.pool = std::make_shared<ThreadPool>(threads);
  }
  return global.pool;
}

}  // namespace

int IntraOpThreads() { return ResolvedThreads(); }

void SetIntraOpThreads(int num_threads) {
  S4TF_CHECK_GE(num_threads, 0);
  IntraOpPool& global = Global();
  std::shared_ptr<ThreadPool> replaced;
  {
    std::lock_guard<std::mutex> lock(global.lock);
    global.requested = num_threads;
    const int threads = ResolveLocked(global);
    if (global.pool && global.pool->num_threads() != threads) {
      replaced = std::move(global.pool);
    }
  }
  // `replaced` drops its reference here, outside the lock; regions still
  // running on it hold theirs, and the last one to return stops it.
}

namespace internal {

bool ParseThreadCount(const char* text, int* count) {
  if (text == nullptr || text[0] == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  // Full-string validation: strtol stopping short of the terminator means
  // trailing garbage ("4x"), and end == text means no digits at all
  // ("x4", " "). std::atoi would have returned 0 for all of these and
  // silently fallen through to the hardware default.
  if (end == text || *end != '\0') return false;
  if (errno == ERANGE || parsed < 1 || parsed > 4096) return false;
  *count = static_cast<int>(parsed);
  return true;
}

}  // namespace internal

void ParallelForRange(std::int64_t n, std::int64_t grain,
                      FunctionRef<void(std::int64_t, std::int64_t)> body) {
  if (n <= 0) return;
  if (ResolvedThreads() > 1) {
    if (const std::shared_ptr<ThreadPool> pool = AcquirePool()) {
      pool->ParallelForRange(n, grain, body);
      return;
    }
  }
  RegionCounter().Increment();
  RunInline(n, body);
}

}  // namespace s4tf
