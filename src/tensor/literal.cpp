#include "tensor/literal.h"

#include <atomic>
#include <cstring>

namespace s4tf {
namespace {

// A quiet NaN with a payload no arithmetic produces: x86 and the kernels'
// own NaNs carry a zero payload.
constexpr std::uint32_t kOverwritePoisonBits = 0x7fc0dead;

std::atomic<bool> overwrite_poison{false};

}  // namespace

Literal Literal::ForOverwrite(const Shape& shape) {
  const auto count = static_cast<std::size_t>(shape.NumElements());
  if (overwrite_poison.load(std::memory_order_relaxed)) {
    float poison;
    std::memcpy(&poison, &kOverwritePoisonBits, sizeof(poison));
    return Literal(shape, vs::CowArray<float>(count, poison));
  }
  return Literal(shape, vs::CowArray<float>::ForOverwrite(count));
}

void Literal::SetOverwritePoisonForTesting(bool on) {
  overwrite_poison.store(on, std::memory_order_relaxed);
}

bool Literal::IsOverwritePoison(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return (bits & 0x7fffffffu) == kOverwritePoisonBits;
}

}  // namespace s4tf
