// CowArray<T>: a contiguous array with *mutable value semantics*.
//
// This is the C++ analogue of Swift's `Array`, the foundation of the
// paper's §4. Two CowArray variables never observe each other's mutations
// (value semantics); copying is O(1) because the underlying buffer is
// shared; the buffer is deep-copied lazily, only when a *shared* value is
// mutated ("copied lazily, upon mutation, and only when shared"). When the
// buffer is uniquely owned, mutation is in place — this is what makes the
// `inout` optimizer update of §4.2 and the O(1) subscript pullback of §4.3
// efficient.
//
// Reference counting uses std::shared_ptr's control block, mirroring
// Swift's built-in refcounting. Instrumentation (vs::CowStats,
// MemoryMeter) records buffer allocations / deep copies so tests can
// assert the copy behaviour rather than trust it. The element storage
// comes from vs::BufferRecycler, which hands a freed buffer back to the
// next request of the same size; the counters still count every buffer a
// CowArray creates, recycled or not.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "support/error.h"
#include "support/memory_meter.h"
#include "vs/buffer_recycler.h"
#include "vs/cow_stats.h"

namespace s4tf::vs {

template <typename T>
class CowArray {
 public:
  CowArray() : buffer_(EmptyBuffer()) {}

  explicit CowArray(std::size_t count, const T& value = T{})
      : buffer_(std::make_shared<Buffer>(count, value)) {
    NoteAllocation(count);
  }

  CowArray(std::initializer_list<T> init)
      : buffer_(std::make_shared<Buffer>(init)) {
    NoteAllocation(init.size());
  }

  // Copies: the storage is recycled, a std::vector's is not.
  explicit CowArray(const std::vector<T>& values)
      : buffer_(std::make_shared<Buffer>(values.begin(), values.end())) {
    NoteAllocation(values.size());
  }

  // `count` elements left default-initialized (indeterminate for trivial
  // T), for a producer that writes every element before anyone reads one.
  static CowArray ForOverwrite(std::size_t count) {
    return CowArray(std::make_shared<Buffer>(count));
  }

  // Copying shares the buffer: O(1), no element copies.
  CowArray(const CowArray&) = default;
  CowArray& operator=(const CowArray&) = default;
  CowArray(CowArray&&) noexcept = default;
  CowArray& operator=(CowArray&&) noexcept = default;

  std::size_t size() const { return buffer_->data.size(); }
  bool empty() const { return buffer_->data.empty(); }

  // Read access never copies.
  const T& operator[](std::size_t i) const {
    S4TF_CHECK_LT(i, size());
    return buffer_->data[i];
  }
  const T* data() const { return buffer_->data.data(); }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  // Mutable access triggers copy-on-write if the buffer is shared. This is
  // the "unique borrow" point: after EnsureUnique(), this variable holds
  // the only reference, so mutation cannot be observed elsewhere.
  T& at_mut(std::size_t i) {
    S4TF_CHECK_LT(i, size());
    EnsureUnique();
    return buffer_->data[i];
  }
  T* mutable_data() {
    EnsureUnique();
    return buffer_->data.data();
  }

  void push_back(T value) {
    EnsureUnique();
    buffer_->data.push_back(std::move(value));
  }

  void resize(std::size_t count, const T& value = T{}) {
    EnsureUnique();
    buffer_->data.resize(count, value);
  }

  // True when this variable is the sole owner of the buffer (Swift's
  // `isKnownUniquelyReferenced`). Mutation in this state is in place.
  bool IsUniquelyReferenced() const { return buffer_.use_count() == 1; }

  // True when two values share storage (used by tests; not observable
  // through the value-semantics API).
  bool SharesStorageWith(const CowArray& other) const {
    return buffer_ == other.buffer_;
  }

  std::vector<T> ToVector() const {
    return std::vector<T>(buffer_->data.begin(), buffer_->data.end());
  }

  friend bool operator==(const CowArray& a, const CowArray& b) {
    return a.buffer_ == b.buffer_ || a.buffer_->data == b.buffer_->data;
  }

 private:
  struct Buffer {
    std::vector<T, RecyclingAllocator<T>> data;
    template <typename... Args>
    explicit Buffer(Args&&... args) : data(std::forward<Args>(args)...) {}
    ~Buffer() {
      MemoryMeter::Global().Free(
          static_cast<std::int64_t>(data.capacity() * sizeof(T)));
    }
  };

  explicit CowArray(std::shared_ptr<Buffer> buffer)
      : buffer_(std::move(buffer)) {
    NoteAllocation(buffer_->data.size());
  }

  static void NoteAllocation(std::size_t count) {
    CowStats::Global().buffer_allocations.fetch_add(1,
                                                    std::memory_order_relaxed);
    MemoryMeter::Global().Allocate(
        static_cast<std::int64_t>(count * sizeof(T)));
  }

  static std::shared_ptr<Buffer> EmptyBuffer() {
    // All default-constructed arrays share one immutable empty buffer;
    // EnsureUnique() replaces it on first mutation.
    static const std::shared_ptr<Buffer> empty = std::make_shared<Buffer>();
    return empty;
  }

  void EnsureUnique() {
    if (buffer_.use_count() != 1) {
      CowStats::Global().deep_copies.fetch_add(1, std::memory_order_relaxed);
      auto fresh = std::make_shared<Buffer>(buffer_->data);
      NoteAllocation(fresh->data.size());
      buffer_ = std::move(fresh);
    } else {
      CowStats::Global().unique_mutations.fetch_add(1,
                                                    std::memory_order_relaxed);
    }
  }

  std::shared_ptr<Buffer> buffer_;
};

}  // namespace s4tf::vs
