#include "nn/losses.h"

namespace s4tf::nn {

Tensor SoftmaxCrossEntropy(const Tensor& logits, const Tensor& one_hot) {
  S4TF_CHECK_EQ(logits.shape(), one_hot.shape());
  const Tensor log_probs = LogSoftmax(logits);
  const Tensor per_example = -ReduceSum(log_probs * one_hot, {1});
  return ReduceMean(per_example);
}

Tensor MeanSquaredError(const Tensor& predictions, const Tensor& targets) {
  return ReduceMean(Square(predictions - targets));
}

float Accuracy(const Tensor& logits, const std::vector<int>& labels) {
  const Tensor predictions = ArgMax(logits, 1);
  const std::vector<float> predicted = predictions.ToVector();
  S4TF_CHECK_EQ(predicted.size(), labels.size());
  int correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (static_cast<int>(predicted[i]) == labels[i]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(labels.size());
}

Tensor OneHot(const std::vector<int>& labels, int classes,
              const Device& device) {
  const std::int64_t n = static_cast<std::int64_t>(labels.size());
  Literal one_hot = Literal::Zeros(Shape({n, classes}));
  float* data = one_hot.data.mutable_data();
  for (std::int64_t i = 0; i < n; ++i) {
    const int label = labels[static_cast<std::size_t>(i)];
    S4TF_CHECK_GE(label, 0);
    S4TF_CHECK_LT(label, classes);
    data[i * classes + label] = 1.0f;
  }
  return Tensor::FromLiteral(std::move(one_hot), device);
}

}  // namespace s4tf::nn
