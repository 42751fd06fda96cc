// A small fixed-size thread pool plus a single-consumer dispatch queue.
//
// The eager runtime (§3.2) needs exactly the structure TensorFlow Eager
// uses: the host thread enqueues kernels and returns immediately; a
// dedicated executor thread drains the queue in FIFO order; observing a
// tensor's contents blocks until its producing kernel has retired. The
// DispatchQueue below provides that; ThreadPool serves data-parallel CPU
// kernels through the process-wide intra-op pool (IntraOpPool /
// ParallelForRange), which the reference kernels in tensor/kernels.cpp
// shard their output slices across.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace s4tf {

// FIFO queue drained by one worker thread. Tasks run in submission order.
class DispatchQueue {
 public:
  DispatchQueue();
  // Runs every task submitted so far to completion, then stops the worker.
  ~DispatchQueue();

  DispatchQueue(const DispatchQueue&) = delete;
  DispatchQueue& operator=(const DispatchQueue&) = delete;

  // Enqueues `task`; returns immediately.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has completed. CHECK-fails if
  // the queue is already shutting down: a Drain racing destruction is a
  // caller lifetime bug, and failing loudly beats hanging on a
  // condition variable that will never be notified again.
  void Drain();

  // Number of tasks submitted but not yet finished.
  std::size_t pending() const;

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  std::deque<std::function<void()>> tasks_;
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::thread worker_;
};

// Non-owning reference to a callable: an object pointer and a call thunk,
// so passing a lambda neither copies nor allocates. The callable must
// outlive every call through the reference; a lambda passed straight to a
// function taking a FunctionRef lives until that function returns.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT: implicit, like std::function
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

// Fixed-size pool for parallel-for style work.
//
// A pool of n threads starts n - 1 workers; the thread that opens a
// parallel region is the n-th participant. Both entry points block until
// the whole iteration space is done and are safe to call from any thread,
// including a pool worker and several threads at once (the calling thread
// claims blocks itself, so progress never depends on a free worker). If
// the body throws, the remaining blocks are abandoned, the pool stays
// usable, and the first exception is rethrown on the calling thread.
//
// A region keeps its state on the caller's stack and is linked into the
// pool's list of open regions until every block is claimed; idle workers
// spin briefly on a region epoch before they park, so back-to-back small
// regions find their helpers awake (DESIGN.md decision 6).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Participants per region, the caller included.
  int num_threads() const { return num_threads_; }

  // Runs body(i) for i in [0, n) across the pool; blocks until done. On a
  // pool that runs no other region, n <= num_threads() bodies all run at
  // once, each on its own thread, so they may block on each other (Server
  // and ReplicaGroup rely on this).
  void ParallelFor(std::int64_t n, FunctionRef<void(std::int64_t)> body);

  // Runs body(begin, end) over disjoint subranges covering [0, n), each at
  // most `grain` indices long (grain < 1 is treated as 1). Shards are
  // contiguous, so a body that writes only to its [begin, end) output
  // slice is deterministic regardless of thread count.
  void ParallelForRange(std::int64_t n, std::int64_t grain,
                        FunctionRef<void(std::int64_t, std::int64_t)> body);

 private:
  struct Region;

  void WorkerLoop();

  const int num_threads_;
  // Idle workers spin before they park only when the pool fits the host.
  const bool spin_;
  // Guards the open list: a region's opener and the workers that look for
  // a region to join take it for a few pointer moves.
  std::mutex open_lock_;
  Region* open_head_ = nullptr;  // guarded by open_lock_; oldest first
  Region* open_tail_ = nullptr;  // guarded by open_lock_
  bool shutdown_ = false;        // guarded by open_lock_
  // Bumped under open_lock_ each time a region opens or the pool shuts
  // down; idle workers watch it.
  std::atomic<std::uint64_t> epoch_{0};
  // A worker that saw no new region for a while sleeps on park_cv_.
  std::atomic<int> parked_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::vector<std::thread> workers_;
};

// --- Process-wide intra-op pool. -------------------------------------------
//
// CPU kernels shard across one lazily-created global pool, mirroring
// TensorFlow's intra-op thread pool. Its size, the calling thread included,
// is in priority order: the last SetIntraOpThreads(n > 0) call, the
// S4TF_NUM_THREADS environment variable (read once per process), then
// std::thread::hardware_concurrency().

// Current intra-op thread count (>= 1). Does not create the pool.
int IntraOpThreads();

// Overrides the intra-op thread count; 0 restores the env/hardware
// default. Takes effect on the next parallel region: in-flight regions
// finish on the pool they started with, and a replaced pool stops its
// workers once the last of them returns.
void SetIntraOpThreads(int num_threads);

// ParallelForRange on the global pool. Runs inline, taking no lock, when
// the pool size is 1 (no worker threads are ever created in that case).
void ParallelForRange(std::int64_t n, std::int64_t grain,
                      FunctionRef<void(std::int64_t, std::int64_t)> body);

namespace internal {

// Strict parser for thread-count strings (the S4TF_NUM_THREADS value).
// Returns true and sets *count only for a fully valid positive integer in
// [1, 4096] (leading whitespace tolerated, as with strtol). Malformed
// input ("x4", "4x", ""), non-positive, or out-of-range values return
// false — the resolver then warns and falls back to the hardware default
// instead of silently misreading a tuned knob. Exposed for tests.
bool ParseThreadCount(const char* text, int* count);

}  // namespace internal

}  // namespace s4tf
