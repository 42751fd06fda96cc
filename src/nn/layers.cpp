#include "nn/layers.h"

namespace s4tf::nn {

Context& Context::Local() {
  thread_local Context context;
  return context;
}

Tensor ApplyActivation(Activation activation, const Tensor& x) {
  switch (activation) {
    case Activation::kIdentity:
      return x;
    case Activation::kRelu:
      return Relu(x);
    case Activation::kTanh:
      return Tanh(x);
    case Activation::kSigmoid:
      return Sigmoid(x);
  }
  S4TF_UNREACHABLE() << "bad activation";
}

Dense::Dense(int input_size, int output_size, Activation activation, Rng& rng)
    : weight(Tensor::GlorotUniform(Shape({input_size, output_size}), rng)),
      bias(Tensor::Zeros(Shape({output_size}))),
      activation(activation) {}

Tensor Dense::operator()(const Tensor& input) const {
  return ApplyActivation(activation, MatMul(input, weight) + bias);
}

Conv2D::Conv2D(std::int64_t height, std::int64_t width,
               std::int64_t in_channels, std::int64_t out_channels, Rng& rng,
               Padding padding, Activation activation, std::int64_t stride)
    : filter(Tensor::GlorotUniform(
          Shape({height, width, in_channels, out_channels}), rng)),
      bias(Tensor::Zeros(Shape({out_channels}))),
      activation(activation),
      stride(stride),
      padding(padding) {}

Tensor Conv2D::operator()(const Tensor& input) const {
  const Tensor conv = s4tf::Conv2D(
      input, filter, {.stride_h = stride, .stride_w = stride,
                      .padding = padding});
  return ApplyActivation(activation, conv + bias);
}

Tensor AvgPool2D::operator()(const Tensor& input) const {
  return s4tf::AvgPool2D(input, {.window_h = pool_size,
                                 .window_w = pool_size,
                                 .stride_h = stride,
                                 .stride_w = stride});
}

Tensor MaxPool2D::operator()(const Tensor& input) const {
  return s4tf::MaxPool2D(input, {.window_h = pool_size,
                                 .window_w = pool_size,
                                 .stride_h = stride,
                                 .stride_w = stride});
}

Tensor Dropout::operator()(const Tensor& input) const {
  if (!Context::Local().training || rate <= 0.0f) return input;
  // Deterministic mask derived from the context seed; regenerating per
  // call keeps the layer a pure value (no hidden state).
  Rng rng(Context::Local().dropout_seed++);
  Literal mask = Literal::ForOverwrite(input.shape());
  float* m = mask.data.mutable_data();
  const float keep = 1.0f - rate;
  for (std::int64_t i = 0; i < mask.size(); ++i) {
    m[i] = rng.NextFloat() < keep ? 1.0f / keep : 0.0f;
  }
  const Tensor mask_tensor =
      Tensor::FromLiteral(std::move(mask), input.device());
  return input * mask_tensor;
}

BatchNorm::BatchNorm(std::int64_t channels)
    : scale(Tensor::Ones(Shape({channels}))),
      offset(Tensor::Zeros(Shape({channels}))) {}

Tensor BatchNorm::operator()(const Tensor& input) const {
  // Normalize over all but the channel (last) axis.
  std::vector<std::int64_t> axes;
  for (int i = 0; i + 1 < input.rank(); ++i) axes.push_back(i);
  const Tensor mean = ReduceMean(input, axes, /*keep_dims=*/true);
  const Tensor centered = input - mean;
  const Tensor variance =
      ReduceMean(Square(centered), axes, /*keep_dims=*/true);
  const Tensor normalized = centered * Rsqrt(variance + epsilon);
  return normalized * scale + offset;
}

}  // namespace s4tf::nn
