#include "nn/datasets.h"

#include <cmath>

#include "nn/losses.h"

namespace s4tf::nn {

SyntheticImageDataset::SyntheticImageDataset(Shape image_shape,
                                             int num_classes,
                                             int num_examples,
                                             std::uint64_t seed, float noise)
    : image_shape_(std::move(image_shape)),
      num_classes_(num_classes),
      num_examples_(num_examples),
      noise_(noise),
      seed_(seed) {
  S4TF_CHECK_EQ(image_shape_.rank(), 3);
  Rng rng(seed);
  const std::size_t pixels =
      static_cast<std::size_t>(image_shape_.NumElements());
  prototypes_.reserve(static_cast<std::size_t>(num_classes));
  const std::int64_t h = image_shape_.dim(0);
  const std::int64_t w = image_shape_.dim(1);
  const std::int64_t c = image_shape_.dim(2);
  for (int k = 0; k < num_classes; ++k) {
    // Smooth class prototype: a few random low-frequency waves, so classes
    // are separable but not trivially one-pixel-distinguishable.
    std::vector<float> proto(pixels, 0.0f);
    for (int wave = 0; wave < 3; ++wave) {
      const float fx = 1.0f + 3.0f * rng.NextFloat();
      const float fy = 1.0f + 3.0f * rng.NextFloat();
      const float phase = 6.283f * rng.NextFloat();
      const float amp = 0.4f + 0.4f * rng.NextFloat();
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t x = 0; x < w; ++x) {
          const float value =
              amp * std::sin(fx * static_cast<float>(x) /
                                 static_cast<float>(w) * 6.283f +
                             fy * static_cast<float>(y) /
                                 static_cast<float>(h) * 6.283f +
                             phase);
          for (std::int64_t ch = 0; ch < c; ++ch) {
            proto[static_cast<std::size_t>((y * w + x) * c + ch)] += value;
          }
        }
      }
    }
    prototypes_.push_back(std::move(proto));
  }
}

SyntheticImageDataset SyntheticImageDataset::Mnist(int num_examples,
                                                   std::uint64_t seed) {
  return SyntheticImageDataset(Shape({28, 28, 1}), 10, num_examples, seed);
}

SyntheticImageDataset SyntheticImageDataset::Cifar10(int num_examples,
                                                     std::uint64_t seed) {
  return SyntheticImageDataset(Shape({32, 32, 3}), 10, num_examples, seed);
}

SyntheticImageDataset SyntheticImageDataset::ImageNetScaled(
    int num_examples, std::uint64_t seed, std::int64_t resolution,
    int num_classes) {
  return SyntheticImageDataset(Shape({resolution, resolution, 3}),
                               num_classes, num_examples, seed);
}

LabeledBatch SyntheticImageDataset::Batch(int batch_index, int batch_size,
                                          const Device& device) const {
  const std::size_t pixels =
      static_cast<std::size_t>(image_shape_.NumElements());
  std::vector<std::int64_t> dims = {batch_size};
  for (std::int64_t d : image_shape_.dims()) dims.push_back(d);
  Literal images = Literal::ForOverwrite(Shape(std::move(dims)));
  float* image_data = images.data.mutable_data();
  std::vector<int> labels(static_cast<std::size_t>(batch_size));
  for (int i = 0; i < batch_size; ++i) {
    const int example =
        (batch_index * batch_size + i) % num_examples_;
    // Per-example deterministic stream.
    Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL *
                     static_cast<std::uint64_t>(example + 1)));
    const int label = static_cast<int>(rng.NextBelow(
        static_cast<std::uint64_t>(num_classes_)));
    labels[static_cast<std::size_t>(i)] = label;
    const auto& proto = prototypes_[static_cast<std::size_t>(label)];
    float* out = image_data + static_cast<std::size_t>(i) * pixels;
    for (std::size_t p = 0; p < pixels; ++p) {
      out[p] = proto[p] +
               noise_ * static_cast<float>(rng.NextGaussian());
    }
  }
  LabeledBatch batch;
  batch.images = Tensor::FromLiteral(std::move(images), device);
  batch.one_hot = OneHot(labels, num_classes_, device);
  batch.labels = std::move(labels);
  return batch;
}

namespace {
float GlobalCurve(float x) {
  return 0.5f * std::sin(6.283f * x) + 0.3f * std::cos(5.0f * x);
}
}  // namespace

SplineData MakeGlobalSplineData(int num_samples, std::uint64_t seed,
                                float noise) {
  Rng rng(seed);
  SplineData data;
  data.xs.reserve(static_cast<std::size_t>(num_samples));
  std::vector<float> ys(static_cast<std::size_t>(num_samples));
  for (int i = 0; i < num_samples; ++i) {
    const float x =
        static_cast<float>(i) / static_cast<float>(num_samples - 1);
    data.xs.push_back(x);
    ys[static_cast<std::size_t>(i)] =
        GlobalCurve(x) + noise * static_cast<float>(rng.NextGaussian());
  }
  data.targets = Tensor::FromVector(Shape({num_samples, 1}), std::move(ys));
  return data;
}

SplineData MakePersonalSplineData(int num_samples, std::uint64_t user_seed,
                                  float noise) {
  Rng rng(user_seed);
  // User-specific warp of the global curve.
  const float scale = 0.7f + 0.6f * rng.NextFloat();
  const float offset = -0.2f + 0.4f * rng.NextFloat();
  const float tilt = -0.3f + 0.6f * rng.NextFloat();
  SplineData data;
  data.xs.reserve(static_cast<std::size_t>(num_samples));
  std::vector<float> ys(static_cast<std::size_t>(num_samples));
  for (int i = 0; i < num_samples; ++i) {
    const float x =
        static_cast<float>(i) / static_cast<float>(num_samples - 1);
    data.xs.push_back(x);
    ys[static_cast<std::size_t>(i)] =
        scale * GlobalCurve(x) + offset + tilt * x +
        noise * static_cast<float>(rng.NextGaussian());
  }
  data.targets = Tensor::FromVector(Shape({num_samples, 1}), std::move(ys));
  return data;
}

}  // namespace s4tf::nn
