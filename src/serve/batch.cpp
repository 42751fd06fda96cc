#include "serve/batch.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"

namespace s4tf::serve {

int PaddedBatchSize(int batch, int max_batch) {
  S4TF_CHECK_GE(batch, 1);
  S4TF_CHECK_LE(batch, max_batch);
  int padded = 1;
  while (padded < batch) padded <<= 1;
  return padded;
}

Shape BatchShape(const Shape& sample_shape, int batch) {
  S4TF_CHECK_GE(batch, 1);
  std::vector<std::int64_t> dims;
  dims.reserve(static_cast<std::size_t>(sample_shape.rank()) + 1);
  dims.push_back(batch);
  for (std::int64_t d : sample_shape.dims()) dims.push_back(d);
  return Shape(std::move(dims));
}

Literal AssembleBatch(const std::vector<const Literal*>& samples,
                      const Shape& sample_shape, int padded_batch) {
  S4TF_CHECK_GE(padded_batch, static_cast<int>(samples.size()));
  const auto row = static_cast<std::size_t>(sample_shape.NumElements());
  Literal batch =
      Literal::ForOverwrite(BatchShape(sample_shape, padded_batch));
  float* data = batch.data.mutable_data();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Literal& sample = *samples[i];
    S4TF_CHECK(sample.shape == sample_shape)
        << "request sample shape " << sample.shape.ToString()
        << " != servable sample shape " << sample_shape.ToString();
    std::memcpy(data + row * i, sample.data.data(), row * sizeof(float));
  }
  // Padding rows are zeros.
  std::fill(data + row * samples.size(),
            data + row * static_cast<std::size_t>(padded_batch), 0.0f);
  return batch;
}

Literal SliceSample(const Literal& batch, int index) {
  S4TF_CHECK_GE(batch.shape.rank(), 1);
  const std::int64_t rows = batch.shape.dim(0);
  S4TF_CHECK_GE(index, 0);
  S4TF_CHECK_LT(static_cast<std::int64_t>(index), rows);
  std::vector<std::int64_t> dims(batch.shape.dims().begin() + 1,
                                 batch.shape.dims().end());
  const Shape row_shape{std::vector<std::int64_t>(dims)};
  const auto row = static_cast<std::size_t>(row_shape.NumElements());
  Literal sample = Literal::ForOverwrite(row_shape);
  std::memcpy(sample.data.mutable_data(),
              batch.data.data() + row * static_cast<std::size_t>(index),
              row * sizeof(float));
  return sample;
}

}  // namespace s4tf::serve
