#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "support/logging.h"

namespace s4tf::serve {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const Status& ServeFuture::Wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
  return status_;
}

bool ServeFuture::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

const Literal& ServeFuture::output() const {
  std::lock_guard<std::mutex> lock(mutex_);
  S4TF_CHECK(done_ && status_.ok())
      << "ServeFuture::output() before a successful Wait()";
  return output_;
}

void ServeFuture::Fulfill(Status status, Literal output) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    S4TF_CHECK(!done_) << "ServeFuture fulfilled twice";
    done_ = true;
    status_ = std::move(status);
    output_ = std::move(output);
  }
  cv_.notify_all();
}

Server::Server(Servable& servable, BatchingOptions options)
    : servable_(servable),
      options_(options),
      pool_(std::max(1, options.num_workers)) {
  S4TF_CHECK_GE(options_.max_batch, 1);
  S4TF_CHECK_GE(options_.max_queue, 1);
  const int workers = std::max(1, options_.num_workers);
  // The coordinator hosts the blocking ParallelFor; each of its `workers`
  // bodies is one long-running batch worker loop. The pool's size counts
  // the coordinator, which runs one body itself beside the pool's
  // workers - 1 threads, so every body has its own thread (a 1-worker
  // server batches on the coordinator thread and starts no pool thread).
  coordinator_ = std::thread([this, workers] {
    pool_.ParallelFor(workers, [this](std::int64_t) { WorkerLoop(); });
  });
}

Server::~Server() { Shutdown(); }

std::shared_ptr<ServeFuture> Server::Submit(Literal sample) {
  static obs::Counter* requests = obs::GetCounter("serve.requests");
  static obs::Counter* accepted = obs::GetCounter("serve.accepted");
  static obs::Counter* shed = obs::GetCounter("serve.shed");
  static obs::Gauge* depth = obs::GetGauge("serve.queue_depth");

  requests->Increment();
  auto future = std::make_shared<ServeFuture>();
  Status reject = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.submitted++;
    if (!accepting_) {
      reject = Status::FailedPrecondition("server is shut down");
      stats_.shed++;
    } else if (static_cast<int>(queue_.size()) >= options_.max_queue) {
      // Admission control: the queue is the only buffer; a full queue
      // sheds instantly rather than building unbounded latency.
      reject = Status::Unavailable("serving queue full: load shed");
      stats_.shed++;
    } else {
      queue_.push_back(Pending{std::move(sample), future,
                               std::chrono::steady_clock::now()});
      stats_.accepted++;
      depth->SetMax(static_cast<std::int64_t>(queue_.size()));
    }
  }
  if (reject.ok()) {
    accepted->Increment();
    cv_.notify_one();
  } else {
    shed->Increment();
    // Fulfill outside the lock: Wait()ers wake without contending on the
    // server mutex.
    future->Fulfill(std::move(reject), Literal());
  }
  return future;
}

void Server::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to drain

      // Coalesce: hold the batch open until it is full, the oldest
      // request's timeout expires, or shutdown flushes everything.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::nanoseconds(options_.batch_timeout_ns);
      while (static_cast<int>(queue_.size()) < options_.max_batch &&
             !shutdown_) {
        if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
      }
      // wait_until dropped the lock: another worker may have drained the
      // queue in the meantime. Go back to waiting instead of dispatching
      // an empty batch.
      if (queue_.empty()) continue;

      const int take = std::min(static_cast<int>(queue_.size()),
                                options_.max_batch);
      batch.reserve(static_cast<std::size_t>(take));
      for (int i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      stats_.batches++;
    }
    // Another worker may be needed for what remains.
    cv_.notify_one();
    ProcessBatch(std::move(batch));
  }
}

void Server::ProcessBatch(std::vector<Pending> batch) {
  static obs::Counter* batches = obs::GetCounter("serve.batches");
  static obs::Counter* batch_samples = obs::GetCounter("serve.batch.samples");
  static obs::Counter* batch_padding = obs::GetCounter("serve.batch.padding");
  static obs::Counter* responses = obs::GetCounter("serve.responses");
  static obs::Counter* errors = obs::GetCounter("serve.errors");
  static obs::Histogram* latency = obs::GetHistogram("serve.latency");
  static obs::Histogram* exec = obs::GetHistogram("serve.batch.exec");

  const int real = static_cast<int>(batch.size());
  S4TF_CHECK_GE(real, 1);
  const int padded = servable_.PaddedBatch(real);
  batches->Increment();
  batch_samples->Add(real);
  batch_padding->Add(padded - real);

  std::vector<const Literal*> samples;
  samples.reserve(batch.size());
  for (const Pending& pending : batch) samples.push_back(&pending.sample);

  const auto exec_start = std::chrono::steady_clock::now();
  Literal outputs;
  bool ok = true;
  std::string error;
  try {
    const Literal assembled =
        AssembleBatch(samples, servable_.sample_shape(), padded);
    outputs = servable_.RunBatch(assembled);
    S4TF_CHECK_GE(outputs.shape.rank(), 1);
    S4TF_CHECK_GE(outputs.shape.dim(0), static_cast<std::int64_t>(real));
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  }
  exec->Record(SecondsSince(exec_start));

  // All-or-nothing fulfilment: every member of a failed batch gets the
  // same clean Status; no request is ever left hanging on a torn batch.
  for (int i = 0; i < real; ++i) {
    Pending& pending = batch[static_cast<std::size_t>(i)];
    if (ok) {
      pending.future->Fulfill(Status::Ok(), SliceSample(outputs, i));
      responses->Increment();
    } else {
      pending.future->Fulfill(
          Status::Internal("batch execution failed: " + error), Literal());
      errors->Increment();
    }
    latency->Record(SecondsSince(pending.enqueued_at));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.responses += ok ? real : 0;
    stats_.failed += ok ? 0 : real;
  }
}

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ && !accepting_) {
      // Already shut down (or in progress); joining twice is the only
      // hazard and coordinator_.joinable() guards it below.
    }
    accepting_ = false;
    shutdown_ = true;
  }
  cv_.notify_all();
  if (coordinator_.joinable()) coordinator_.join();
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace s4tf::serve
