#include "serve/servable.h"

#include <utility>

#include "lazy/lazy_tensor.h"

namespace s4tf::serve {

XlaServable::XlaServable(std::string name, ModelFn fn, Shape sample_shape,
                         XlaServableOptions options)
    : name_(std::move(name)),
      fn_(std::move(fn)),
      sample_shape_(std::move(sample_shape)),
      options_(std::move(options)),
      cache_(options_.compile) {
  S4TF_CHECK_GE(options_.max_batch, 1);
}

int XlaServable::PaddedBatch(int batch) const {
  return PaddedBatchSize(batch, options_.max_batch);
}

void XlaServable::Warmup() {
  for (int padded = 1; padded <= options_.max_batch; padded <<= 1) {
    EntryFor(padded);
  }
}

XlaServable::Entry& XlaServable::EntryFor(int padded) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(padded);
  if (it != entries_.end()) return *it->second;

  // Trace the model function once at this padded batch shape on a private
  // lazy device; leaves (the input placeholder and every weight the
  // function materialized) become program parameters, so the compiled
  // executable re-binds fresh request data with no re-trace.
  LazyBackend backend;
  const Device device = backend.device();
  const Tensor input =
      Tensor::Zeros(BatchShape(sample_shape_, padded), device);
  auto* input_impl = dynamic_cast<LazyImpl*>(input.impl().get());
  S4TF_CHECK(input_impl != nullptr);
  const Tensor output = fn_(input);
  auto* output_impl = dynamic_cast<LazyImpl*>(output.impl().get());
  S4TF_CHECK(output_impl != nullptr)
      << "serving model fn for " << name_ << " left the lazy device";

  auto entry = std::make_unique<Entry>();
  std::vector<std::shared_ptr<LazyNode>> leaves;
  entry->module = LowerTrace({output_impl->node()}, &leaves);
  entry->parameters.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    entry->parameters.push_back(leaves[i]->LeafValue());
    if (leaves[i] == input_impl->node()) {
      entry->input_parameter = static_cast<int>(i);
    }
  }
  S4TF_CHECK_GE(entry->input_parameter, 0)
      << "serving model fn for " << name_ << " must consume the batch input";

  // Compile now — this is the cold-start cost the steady state amortizes.
  const std::shared_ptr<xla::Executable> executable =
      cache_.GetOrCompile(entry->module);
  SimAccelerator accelerator(options_.accelerator);
  executable->ChargeTo(accelerator);
  entry->cost_seconds =
      options_.dispatch_overhead_seconds + accelerator.elapsed_seconds();

  Entry& ref = *entry;
  entries_.emplace(padded, std::move(entry));
  return ref;
}

Literal XlaServable::RunBatch(const Literal& batch) {
  S4TF_CHECK_GE(batch.shape.rank(), 1);
  const int padded = static_cast<int>(batch.shape.dim(0));
  Entry& entry = EntryFor(padded);
  // Steady-state path: a fingerprint lookup that MUST hit (0 new
  // compiles); going through the cache per batch keeps xla.cache.hits an
  // honest per-invocation reuse counter.
  const std::shared_ptr<xla::Executable> executable =
      cache_.GetOrCompile(entry.module);
  std::vector<Literal> parameters = entry.parameters;  // O(1) CoW copies
  parameters[static_cast<std::size_t>(entry.input_parameter)] = batch;
  std::vector<Literal> outputs = executable->Run(parameters);
  S4TF_CHECK_GE(outputs.size(), 1u);
  return std::move(outputs[0]);
}

double XlaServable::CostSeconds(int padded_batch) {
  return EntryFor(padded_batch).cost_seconds;
}

TensorFnServable::TensorFnServable(std::string name, ModelFn fn,
                                   Shape sample_shape, Device device,
                                   double cost_fixed_seconds,
                                   double cost_per_sample_seconds)
    : name_(std::move(name)),
      fn_(std::move(fn)),
      sample_shape_(std::move(sample_shape)),
      device_(std::move(device)),
      cost_fixed_seconds_(cost_fixed_seconds),
      cost_per_sample_seconds_(cost_per_sample_seconds) {}

Literal TensorFnServable::RunBatch(const Literal& batch) {
  std::lock_guard<std::mutex> lock(run_mutex_);
  const Tensor input = Tensor::FromLiteral(batch, device_);
  return fn_(input).ToLiteral();
}

double TensorFnServable::CostSeconds(int padded_batch) {
  return cost_fixed_seconds_ +
         cost_per_sample_seconds_ * static_cast<double>(padded_batch);
}

SplineServable::SplineServable(
    std::string name, std::unique_ptr<frameworks::SplineRuntime> runtime,
    int num_knots, SplineSignal signal, double cost_per_sample_seconds)
    : name_(std::move(name)),
      runtime_(std::move(runtime)),
      num_knots_(num_knots),
      signal_(signal),
      sample_shape_({num_knots}),
      cost_per_sample_seconds_(cost_per_sample_seconds) {
  S4TF_CHECK(runtime_ != nullptr);
  S4TF_CHECK_GE(num_knots_, 1);
}

Literal SplineServable::RunBatch(const Literal& batch) {
  std::lock_guard<std::mutex> lock(run_mutex_);
  S4TF_CHECK_EQ(batch.shape.rank(), 2);
  S4TF_CHECK_EQ(batch.shape.dim(1), static_cast<std::int64_t>(num_knots_));
  const int rows = static_cast<int>(batch.shape.dim(0));
  const std::size_t k = static_cast<std::size_t>(num_knots_);
  const std::int64_t out_cols = signal_ == SplineSignal::kLoss ? 1 : num_knots_;
  Literal out_literal = Literal::ForOverwrite(Shape({rows, out_cols}));
  float* out = out_literal.data.mutable_data();
  std::vector<float> control(k);
  for (int row = 0; row < rows; ++row) {
    const float* src = batch.data.data() + static_cast<std::size_t>(row) * k;
    control.assign(src, src + k);
    if (signal_ == SplineSignal::kLoss) {
      out[row] = runtime_->Loss(control);
    } else {
      const std::vector<float> grad = runtime_->Gradient(control);
      S4TF_CHECK_EQ(grad.size(), k);
      std::copy(grad.begin(), grad.end(),
                out + static_cast<std::size_t>(row) * k);
    }
  }
  return out_literal;
}

double SplineServable::CostSeconds(int padded_batch) {
  // The interpreter has no batched kernels: cost is strictly linear.
  return cost_per_sample_seconds_ * static_cast<double>(padded_batch);
}

}  // namespace s4tf::serve
