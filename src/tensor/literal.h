// Literal: a concrete, materialized tensor value (shape + row-major
// buffer). This is the currency of every backend: the naïve evaluator
// computes Literal -> Literal, the eager executor passes Literals between
// asynchronously-executing kernels, and the XLA-like executable consumes
// and produces Literals.
//
// The buffer is a vs::CowArray, so Literals are mutable value types with
// O(1) copies — the §4 story reaches all the way down to the runtime.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/shape.h"
#include "vs/cow_array.h"

namespace s4tf {

struct Literal {
  Shape shape;
  vs::CowArray<float> data;

  Literal() : shape(Shape({})), data(1, 0.0f) {}
  Literal(Shape s, vs::CowArray<float> d) : shape(std::move(s)), data(std::move(d)) {
    S4TF_CHECK_EQ(static_cast<std::int64_t>(data.size()), shape.NumElements());
  }

  static Literal Zeros(const Shape& shape) {
    return Literal(shape, vs::CowArray<float>(
                              static_cast<std::size_t>(shape.NumElements()),
                              0.0f));
  }
  // For a producer that writes every element before any is read: the
  // buffer is not zero-filled, and may be a recycled one holding an
  // earlier value's bytes.
  static Literal ForOverwrite(const Shape& shape);
  static Literal Full(const Shape& shape, float value) {
    return Literal(shape, vs::CowArray<float>(
                              static_cast<std::size_t>(shape.NumElements()),
                              value));
  }
  static Literal FromVector(const Shape& shape,
                            const std::vector<float>& values) {
    S4TF_CHECK_EQ(static_cast<std::int64_t>(values.size()),
                  shape.NumElements());
    return Literal(shape, vs::CowArray<float>(values));
  }
  static Literal Scalar(float value) {
    return Literal(Shape({}), vs::CowArray<float>(1, value));
  }

  // Test seam: while on, ForOverwrite fills every buffer with a NaN whose
  // payload IsOverwritePoison recognizes (through a sign change too), so
  // an element a kernel fails to write shows up in its result.
  static void SetOverwritePoisonForTesting(bool on);
  static bool IsOverwritePoison(float value);

  std::int64_t size() const { return shape.NumElements(); }
  const float* begin() const { return data.data(); }
  const float* end() const { return data.data() + size(); }
};

}  // namespace s4tf
