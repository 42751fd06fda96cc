#include "vs/buffer_recycler.h"

#include <algorithm>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace s4tf::vs {
namespace {

// A cached buffer is poisoned under AddressSanitizer: the kernels write
// through raw pointers, so a read through a tensor released by mistake
// reports as use-after-poison instead of returning a later value's data.
void Poison(void* buffer, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(buffer, bytes);
#else
  (void)buffer;
  (void)bytes;
#endif
}

void Unpoison(void* buffer, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(buffer, bytes);
#else
  (void)buffer;
  (void)bytes;
#endif
}

}  // namespace

BufferRecycler& BufferRecycler::Global() {
  static BufferRecycler* recycler = new BufferRecycler();  // leaked
  return *recycler;
}

BufferRecycler::~BufferRecycler() {
  for (auto& [bytes, size] : sizes_) {
    for (void* buffer : size.cached) {
      Unpoison(buffer, bytes);
      ::operator delete(buffer);
    }
  }
}

void* BufferRecycler::Take(std::size_t bytes) {
  if (bytes < kMinBytes) return ::operator new(bytes);
  const auto n = static_cast<std::int64_t>(bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  SizeClass& size = sizes_[bytes];
  void* buffer = nullptr;
  if (size.cached.empty()) {
    // Misses stop once a step has run, so allocating under the lock costs
    // only warm-up. The reserve keeps Give from allocating: this size's
    // live count is about to reach live + 1.
    size.cached.reserve(static_cast<std::size_t>(size.live + 1));
    buffer = ::operator new(bytes);
    ++stats_.misses;
  } else {
    buffer = size.cached.back();
    size.cached.pop_back();
    Unpoison(buffer, bytes);
    stats_.cached_bytes -= n;
    ++stats_.hits;
  }
  ++size.live;
  size.peak_live = std::max(size.peak_live, size.live);
  stats_.live_bytes += n;
  stats_.peak_live_bytes = std::max(stats_.peak_live_bytes, stats_.live_bytes);
  return buffer;
}

void BufferRecycler::Give(void* buffer, std::size_t bytes) noexcept {
  if (bytes < kMinBytes) {
    ::operator delete(buffer);
    return;
  }
  const auto n = static_cast<std::int64_t>(bytes);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SizeClass& size = sizes_.find(bytes)->second;  // Take(bytes) made it
    --size.live;
    stats_.live_bytes -= n;
    const auto cached = static_cast<std::int64_t>(size.cached.size());
    if (size.live + cached < size.peak_live &&
        stats_.live_bytes + stats_.cached_bytes + n <=
            2 * stats_.peak_live_bytes) {
      size.cached.push_back(buffer);  // within the capacity Take reserved
      stats_.cached_bytes += n;
      Poison(buffer, bytes);
      return;
    }
    ++stats_.evictions;
  }
  ::operator delete(buffer);
}

BufferRecycler::Stats BufferRecycler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace s4tf::vs
