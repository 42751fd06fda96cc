// BufferRecycler: a process-wide cache of freed array buffers, handed back
// out by exact byte size.
//
// §4's value semantics reuse a uniquely referenced buffer in place; this is
// the same reuse one level down, for buffers whose value has died. Every
// kernel result is a new CowArray buffer, and glibc returns large freed
// blocks to the OS (mmap above its threshold, heap trimming below it), so
// the next kernel faults the same pages in again. A training step repeats
// its buffer sizes, so a freed buffer is kept for the next request of the
// same size.
//
// Policy (DESIGN.md decision 4):
//   - Buffers of less than kMinBytes (one page) go straight to operator
//     new/delete: malloc keeps small blocks in its own free lists.
//   - A freed buffer of byte size X is cached only while live X-buffers +
//     cached X-buffers stay below the high-water mark of live X-buffers. A
//     size's cache therefore never holds more buffers than that size ever
//     had live at once, and a step that repeats never misses once warm.
//   - Shape churn guard: live + cached bytes stay at most twice the
//     high-water mark of live bytes. A freed buffer above that is freed.
//   - Under AddressSanitizer a cached buffer is poisoned until it is handed
//     out again, so a read through a released tensor still reports.
//
// One mutex guards the recycler: buffers are freed from the eager worker,
// the intra-op pool, replica threads and serving threads. The hit, miss and
// eviction counts are for tests only. They are not obs counters: they
// depend on thread timing, and bench artifacts copy every obs counter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

namespace s4tf::vs {

class BufferRecycler {
 public:
  static constexpr std::size_t kMinBytes = 4096;

  // The process-wide recycler behind every CowArray. Leaked, so buffers
  // can still be freed during static teardown.
  static BufferRecycler& Global();

  BufferRecycler() = default;
  // Frees the cached buffers. Buffers still live must not be given back.
  ~BufferRecycler();
  BufferRecycler(const BufferRecycler&) = delete;
  BufferRecycler& operator=(const BufferRecycler&) = delete;

  // A buffer of exactly `bytes` bytes (uninitialized), cached if one is.
  void* Take(std::size_t bytes);
  // Returns a buffer from Take(bytes) to the cache, or frees it.
  void Give(void* buffer, std::size_t bytes) noexcept;

  // Buffers of at least kMinBytes only.
  struct Stats {
    std::int64_t hits = 0;       // Take served from the cache
    std::int64_t misses = 0;     // Take that allocated
    std::int64_t evictions = 0;  // Give that freed
    std::int64_t live_bytes = 0;
    std::int64_t cached_bytes = 0;
    std::int64_t peak_live_bytes = 0;
  };
  Stats stats() const;

 private:
  struct SizeClass {
    std::int64_t live = 0;
    std::int64_t peak_live = 0;
    std::vector<void*> cached;  // capacity >= peak_live: Give never grows it
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, SizeClass> sizes_;
  Stats stats_;
};

// std::allocator replacement that draws from BufferRecycler::Global(). A
// count-only element construction default-initializes, so a vector built
// with a size alone skips the zero-fill of trivial element types (the
// buffer for a kernel that writes every element); every other construction
// is the usual one.
template <typename T>
struct RecyclingAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(BufferRecycler::Global().Take(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    BufferRecycler::Global().Give(p, n * sizeof(T));
  }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }

  bool operator==(const RecyclingAllocator&) const = default;
};

}  // namespace s4tf::vs
