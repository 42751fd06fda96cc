#include "dist/communicator.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace s4tf::dist {
namespace {

obs::Counter* AllReduceCalls() {
  static obs::Counter* c = obs::GetCounter("dist.allreduce.calls");
  return c;
}
obs::Counter* AllReduceBytes() {
  static obs::Counter* c = obs::GetCounter("dist.allreduce.bytes");
  return c;
}
obs::Counter* AllReduceBuckets() {
  static obs::Counter* c = obs::GetCounter("dist.allreduce.buckets");
  return c;
}
obs::Counter* AllReduceChunks() {
  static obs::Counter* c = obs::GetCounter("dist.allreduce.chunks");
  return c;
}
obs::Counter* BarrierCount() {
  static obs::Counter* c = obs::GetCounter("dist.barrier.count");
  return c;
}
obs::Counter* SendMessages() {
  static obs::Counter* c = obs::GetCounter("dist.send.messages");
  return c;
}
obs::Counter* RetryCount() {
  static obs::Counter* c = obs::GetCounter("dist.retry.count");
  return c;
}
obs::Counter* RecvTimeouts() {
  static obs::Counter* c = obs::GetCounter("dist.recv.timeouts");
  return c;
}
obs::Counter* DroppedChunks() {
  static obs::Counter* c = obs::GetCounter("dist.fault.dropped_chunks");
  return c;
}
obs::Counter* StragglerDelays() {
  static obs::Counter* c = obs::GetCounter("dist.fault.straggler_delays");
  return c;
}
obs::Counter* ReplicaDeaths() {
  static obs::Counter* c = obs::GetCounter("dist.fault.replica_deaths");
  return c;
}
obs::Counter* OverlapAsyncCalls() {
  static obs::Counter* c = obs::GetCounter("dist.overlap.async_calls");
  return c;
}
obs::Counter* OverlapBucketsEarly() {
  static obs::Counter* c = obs::GetCounter("dist.overlap.buckets.early");
  return c;
}
obs::Counter* OverlapBucketsFlushed() {
  static obs::Counter* c =
      obs::GetCounter("dist.overlap.buckets.flushed_at_wait");
  return c;
}
obs::Counter* OverlapWaitCalls() {
  static obs::Counter* c = obs::GetCounter("dist.overlap.wait.calls");
  return c;
}
obs::Counter* ReduceScatterCalls() {
  static obs::Counter* c = obs::GetCounter("dist.reduce_scatter.calls");
  return c;
}
obs::Counter* ReduceScatterBytes() {
  static obs::Counter* c = obs::GetCounter("dist.reduce_scatter.bytes");
  return c;
}
obs::Counter* ReduceScatterChunks() {
  static obs::Counter* c = obs::GetCounter("dist.reduce_scatter.chunks");
  return c;
}
obs::Counter* AllGatherCalls() {
  static obs::Counter* c = obs::GetCounter("dist.all_gather.calls");
  return c;
}
obs::Counter* AllGatherBytes() {
  static obs::Counter* c = obs::GetCounter("dist.all_gather.bytes");
  return c;
}
obs::Counter* AllGatherChunks() {
  static obs::Counter* c = obs::GetCounter("dist.all_gather.chunks");
  return c;
}

// A shard partition must be world+1 ascending offsets spanning exactly
// [0, len] — the shape ShardOffsets produces.
void ValidateShardOffsets(const std::vector<std::int64_t>& offsets,
                          std::int64_t len, int world) {
  S4TF_CHECK_EQ(offsets.size(), static_cast<std::size_t>(world) + 1)
      << "shard_offsets must have world+1 entries";
  S4TF_CHECK_EQ(offsets.front(), 0) << "shard_offsets must start at 0";
  S4TF_CHECK_EQ(offsets.back(), len)
      << "shard_offsets must end at the buffer length";
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    S4TF_CHECK_LE(offsets[i - 1], offsets[i])
        << "shard_offsets must be ascending";
  }
}

// Trace span name of one collective entry.
const char* CollectiveSpanName(CollectiveKind kind, bool async) {
  if (kind == CollectiveKind::kAllReduce) {
    return async ? "dist.allreduce.async" : "dist.allreduce";
  }
  if (kind == CollectiveKind::kReduceScatter) {
    return async ? "dist.reduce_scatter.async" : "dist.reduce_scatter";
  }
  return async ? "dist.all_gather.async" : "dist.all_gather";
}

}  // namespace

std::vector<std::int64_t> ShardOffsets(std::int64_t len, int world) {
  S4TF_CHECK_GE(world, 1);
  S4TF_CHECK_GE(len, 0);
  const std::int64_t per = world > 0 ? (len + world - 1) / world : len;
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(world) + 1);
  for (int r = 0; r <= world; ++r) {
    offsets[static_cast<std::size_t>(r)] = std::min<std::int64_t>(len, r * per);
  }
  return offsets;
}

std::vector<float> OrderedTreeReduce(std::vector<std::vector<float>> parts) {
  S4TF_CHECK(!parts.empty()) << "OrderedTreeReduce needs at least one part";
  for (std::size_t i = 1; i < parts.size(); ++i) {
    S4TF_CHECK_EQ(parts[i].size(), parts[0].size())
        << "OrderedTreeReduce parts must have equal length";
  }
  // Pairwise rounds: (0,1), (2,3), ...; an odd tail carries unchanged to
  // the next round. The combine order per element is a fixed function of
  // parts.size(), never of scheduling.
  while (parts.size() > 1) {
    std::vector<std::vector<float>> next;
    next.reserve((parts.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < parts.size(); i += 2) {
      std::vector<float>& a = parts[i];
      const std::vector<float>& b = parts[i + 1];
      for (std::size_t j = 0; j < a.size(); ++j) a[j] += b[j];
      next.push_back(std::move(a));
    }
    if (parts.size() % 2 == 1) next.push_back(std::move(parts.back()));
    parts = std::move(next);
  }
  return std::move(parts.front());
}

std::vector<float> OrderedTreeReduceMean(
    std::vector<std::vector<float>> parts) {
  const float scale = 1.0f / static_cast<float>(parts.size());
  std::vector<float> out = OrderedTreeReduce(std::move(parts));
  for (float& v : out) v *= scale;
  return out;
}

// One entered collective: everything a bucket of it needs to run.
struct RingCommunicator::Call {
  int rank = 0;
  std::uint32_t seq = 0;
  std::vector<float>* data = nullptr;
  CollectiveKind kind = CollectiveKind::kAllReduce;
  ReduceOp op = ReduceOp::kSum;
  // Resolved shard partition (kReduceScatter/kAllGather only).
  std::vector<std::int64_t> shard_offsets;
  std::int64_t num_buckets = 0;
};

// Shared state of one in-flight asynchronous collective. The caller's
// thread and the rank's comm thread synchronize exclusively through
// `mutex`/`cv`; `completed == enqueued` with no further enqueues pending
// means no comm-thread access to `call.data` can happen afterwards.
struct RingCommunicator::AsyncOp {
  Call call;

  std::mutex mutex;
  std::condition_variable cv;
  std::int64_t enqueued = 0;   // buckets handed to the comm thread
  std::int64_t completed = 0;  // buckets finished (run, failed, or skipped)
  bool abandoned = false;      // handle destroyed without Wait: stop early
  std::exception_ptr error;    // first bucket failure
};

RingCommunicator::RingCommunicator(int world_size, CollectiveOptions options,
                                   FaultPlan faults)
    : world_(world_size),
      options_(options),
      injector_(std::move(faults)),
      states_(static_cast<std::size_t>(std::max(world_size, 1))) {
  S4TF_CHECK_GE(world_, 1) << "world size must be positive";
  S4TF_CHECK_LT(world_, 1 << 10) << "world size exceeds message-key range";
  S4TF_CHECK_GT(options_.bucket_bytes, 0) << "bucket_bytes must be positive";
  S4TF_CHECK_GE(options_.max_retries, 0);
  mailboxes_.reserve(static_cast<std::size_t>(world_));
  for (int i = 0; i < world_; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  comm_queues_.resize(static_cast<std::size_t>(world_));
}

// All handles must be waited/destroyed before the communicator dies, so
// the queues are normally empty here; any stragglers are bounded by the
// per-receive retry budget, and each queue runs them before its worker
// joins. comm_queues_ is the last member, so it goes first.
RingCommunicator::~RingCommunicator() = default;

void RingCommunicator::AttachAccelerator(int rank,
                                         SimAccelerator* accelerator) {
  S4TF_CHECK_GE(rank, 0);
  S4TF_CHECK_LT(rank, world_);
  states_[static_cast<std::size_t>(rank)].accelerator = accelerator;
}

void RingCommunicator::Send(int dst, const MessageKey& key,
                            std::vector<float> payload) {
  SendMessages()->Increment();
  Message msg;
  msg.payload = std::move(payload);
  msg.drops_remaining = injector_.DropsFor(key);
  msg.available_at = std::chrono::steady_clock::now();
  const std::chrono::microseconds delay = injector_.DelayFor(key);
  if (delay.count() > 0) {
    msg.available_at += delay;
    StragglerDelays()->Increment();
  }
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    const bool inserted =
        box.slots.emplace(key.Packed(), std::move(msg)).second;
    S4TF_CHECK(inserted) << "duplicate collective message key (collective "
                            "calls out of order across ranks?)";
  }
  box.cv.notify_all();
}

std::vector<float> RingCommunicator::Recv(int rank, const MessageKey& key,
                                          std::size_t expected_len) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  const std::uint64_t slot = key.Packed();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      // Zero-duration marker so traces show every retry individually.
      obs::TraceSpan retry_span("dist.retry", "dist", "attempt", attempt);
      RetryCount()->Increment();
    }
    const auto deadline =
        std::chrono::steady_clock::now() + options_.recv_timeout;
    std::unique_lock<std::mutex> lock(box.mutex);
    bool timed_out = false;
    while (!timed_out) {
      const auto now = std::chrono::steady_clock::now();
      auto it = box.slots.find(slot);
      if (it == box.slots.end()) {
        if (now >= deadline) {
          timed_out = true;
        } else {
          box.cv.wait_until(lock, deadline);
        }
        continue;
      }
      Message& msg = it->second;
      if (msg.drops_remaining > 0) {
        // This delivery is injected as lost. The receiver's observable
        // behaviour — one timeout, one retry — is charged immediately
        // instead of sleeping out the full recv_timeout, keeping the
        // retry accounting identical while tests stay fast.
        --msg.drops_remaining;
        DroppedChunks()->Increment();
        timed_out = true;
        continue;
      }
      if (msg.available_at > now) {
        // Straggler: deposited but not yet readable.
        if (now >= deadline) {
          timed_out = true;
        } else {
          box.cv.wait_until(lock, std::min(msg.available_at, deadline));
        }
        continue;
      }
      std::vector<float> payload = std::move(msg.payload);
      box.slots.erase(it);
      lock.unlock();
      S4TF_CHECK_EQ(payload.size(), expected_len)
          << "collective payload length mismatch";
      return payload;
    }
    RecvTimeouts()->Increment();
  }
  S4TF_CHECK(false) << "collective receive failed after "
                    << options_.max_retries
                    << " retries (rank " << rank << ", phase "
                    << static_cast<int>(key.phase) << ", seq " << key.seq
                    << ", bucket " << key.bucket << ", src " << key.src
                    << ", chunk " << key.chunk << ")";
  return {};  // unreachable; S4TF_CHECK throws
}

RingCommunicator::Call RingCommunicator::Enter(int rank,
                                               const CollectiveSpec& spec,
                                               std::vector<float>& data) {
  S4TF_CHECK_GE(rank, 0);
  S4TF_CHECK_LT(rank, world_);
  const std::int64_t len = static_cast<std::int64_t>(data.size());
  const std::int64_t bytes = len * static_cast<std::int64_t>(sizeof(float));
  switch (spec.kind) {
    case CollectiveKind::kAllReduce:
      AllReduceCalls()->Increment();
      AllReduceBytes()->Add(bytes);
      break;
    case CollectiveKind::kReduceScatter:
      ReduceScatterCalls()->Increment();
      ReduceScatterBytes()->Add(bytes);
      break;
    case CollectiveKind::kAllGather:
      AllGatherCalls()->Increment();
      AllGatherBytes()->Add(bytes);
      break;
  }

  Call call;
  call.rank = rank;
  call.seq = states_[static_cast<std::size_t>(rank)].next_seq++;
  if (injector_.DiesAt(rank, call.seq)) {
    // Permanent death: this rank never sends its chunks (an async entry
    // creates no handle), so every peer's receive of them times out and
    // fails loudly within its bounded budget — no hang, by construction.
    ReplicaDeaths()->Increment();
    throw ReplicaDeadError(rank, call.seq);
  }
  call.data = &data;
  call.kind = spec.kind;
  call.op = spec.reduce;
  call.num_buckets = NumAllReduceBuckets(len, options_.bucket_bytes);
  S4TF_CHECK_LT(call.num_buckets, 1 << 16)
      << "too many buckets for message key";
  if (spec.kind == CollectiveKind::kAllReduce) {
    AllReduceBuckets()->Add(call.num_buckets);
  } else {
    call.shard_offsets = spec.shard_offsets.empty()
                             ? ShardOffsets(len, world_)
                             : spec.shard_offsets;
    ValidateShardOffsets(call.shard_offsets, len, world_);
  }
  return call;
}

CollectiveResult RingCommunicator::Run(int rank, const CollectiveSpec& spec,
                                       std::vector<float>& data) {
  const std::int64_t bytes =
      static_cast<std::int64_t>(data.size() * sizeof(float));
  obs::TraceSpan span(CollectiveSpanName(spec.kind, /*async=*/false), "dist",
                      "bytes", bytes);
  const Call call = Enter(rank, spec, data);
  for (std::int64_t b = 0; b < call.num_buckets; ++b) RunCallBucket(call, b);
  CollectiveResult result;
  result.bytes = bytes;
  result.buckets = call.num_buckets;
  return result;
}

void RingCommunicator::ScatterReducePhase(CollectiveKind kind, int rank,
                                          std::uint32_t seq, std::int64_t b,
                                          std::vector<float>& data,
                                          ReduceOp op,
                                          const std::int64_t* off) {
  RankState& state = states_[static_cast<std::size_t>(rank)];
  const auto chunk_begin = [&](int c) { return off[c]; };
  const auto chunk_len = [&](int c) { return off[c + 1] - off[c]; };

  // Scatter: every raw chunk goes straight to its owner rank.
  for (int c = 0; c < world_; ++c) {
    const std::int64_t clen = chunk_len(c);
    if (clen == 0) continue;
    const std::int64_t cbytes =
        clen * static_cast<std::int64_t>(sizeof(float));
    if (kind == CollectiveKind::kAllReduce) {
      AllReduceChunks()->Increment();
      if (state.accelerator != nullptr) {
        state.accelerator->ChargeAllReduce(cbytes, world_,
                                           options_.topology);
      }
    } else {
      ReduceScatterChunks()->Increment();
      if (state.accelerator != nullptr) {
        state.accelerator->ChargeReduceScatter(cbytes, world_);
      }
    }
    if (c == rank) continue;  // own chunk stays local
    MessageKey key{MessagePhase::kScatter, seq,
                   static_cast<std::uint32_t>(b),
                   static_cast<std::uint16_t>(rank),
                   static_cast<std::uint16_t>(c)};
    Send(c, key,
         std::vector<float>(data.begin() + chunk_begin(c),
                            data.begin() + chunk_begin(c) + clen));
  }

  // Owner-side reduce of this rank's chunk: parts gathered in rank
  // order 0..world-1 and combined by the canonical tree, so the result
  // is independent of arrival order, chunking, and threading.
  const std::int64_t own_len = chunk_len(rank);
  if (own_len > 0) {
    std::vector<std::vector<float>> parts;
    parts.reserve(static_cast<std::size_t>(world_));
    for (int src = 0; src < world_; ++src) {
      if (src == rank) {
        parts.emplace_back(data.begin() + chunk_begin(rank),
                           data.begin() + chunk_begin(rank) + own_len);
      } else {
        MessageKey key{MessagePhase::kScatter, seq,
                       static_cast<std::uint32_t>(b),
                       static_cast<std::uint16_t>(src),
                       static_cast<std::uint16_t>(rank)};
        parts.push_back(Recv(rank, key, static_cast<std::size_t>(own_len)));
      }
    }
    std::vector<float> reduced = op == ReduceOp::kMean
                                     ? OrderedTreeReduceMean(std::move(parts))
                                     : OrderedTreeReduce(std::move(parts));
    std::copy(reduced.begin(), reduced.end(),
              data.begin() + chunk_begin(rank));
  }
}

void RingCommunicator::GatherPhase(CollectiveKind kind, int rank,
                                   std::uint32_t seq, std::int64_t b,
                                   std::vector<float>& data,
                                   const std::int64_t* off) {
  RankState& state = states_[static_cast<std::size_t>(rank)];
  const int next = (rank + 1) % world_;
  const int prev = (rank - 1 + world_) % world_;
  const auto chunk_begin = [&](int c) { return off[c]; };
  const auto chunk_len = [&](int c) { return off[c + 1] - off[c]; };

  // All-gather ring: at step s, send the chunk received at step s-1
  // (own chunk at s=0) to the next rank.
  for (int s = 0; s < world_ - 1; ++s) {
    const int send_chunk = (rank - s + world_) % world_;
    const std::int64_t slen = chunk_len(send_chunk);
    if (slen > 0) {
      if (kind == CollectiveKind::kAllGather) {
        AllGatherChunks()->Increment();
        if (state.accelerator != nullptr) {
          state.accelerator->ChargeAllGather(
              slen * static_cast<std::int64_t>(sizeof(float)), world_);
        }
      }
      MessageKey key{MessagePhase::kGather, seq,
                     static_cast<std::uint32_t>(b),
                     static_cast<std::uint16_t>(rank),
                     static_cast<std::uint16_t>(send_chunk)};
      Send(next, key,
           std::vector<float>(
               data.begin() + chunk_begin(send_chunk),
               data.begin() + chunk_begin(send_chunk) + slen));
    }
    const int recv_chunk = (rank - 1 - s + world_) % world_;
    const std::int64_t rlen = chunk_len(recv_chunk);
    if (rlen > 0) {
      MessageKey key{MessagePhase::kGather, seq,
                     static_cast<std::uint32_t>(b),
                     static_cast<std::uint16_t>(prev),
                     static_cast<std::uint16_t>(recv_chunk)};
      std::vector<float> payload =
          Recv(rank, key, static_cast<std::size_t>(rlen));
      std::copy(payload.begin(), payload.end(),
                data.begin() + chunk_begin(recv_chunk));
    }
  }
}

void RingCommunicator::RunCallBucket(const Call& call, std::int64_t b) {
  const std::int64_t len = static_cast<std::int64_t>(call.data->size());
  const std::int64_t bucket_elems = std::max<std::int64_t>(
      1, options_.bucket_bytes / static_cast<std::int64_t>(sizeof(float)));
  const std::int64_t b_begin = b * bucket_elems;
  const std::int64_t b_end = std::min(len, b_begin + bucket_elems);
  // All-reduce: one chunk per rank, `per`-sized except a short (possibly
  // empty) tail. Reduce-scatter/all-gather: chunk c = shard c clipped to
  // this bucket's element range. Every rank derives the identical
  // partition, so empty chunks are skipped consistently on both sides of
  // every send.
  const std::int64_t per = (b_end - b_begin + world_ - 1) / world_;
  std::vector<std::int64_t> off(static_cast<std::size_t>(world_) + 1);
  for (std::size_t c = 0; c < off.size(); ++c) {
    const std::int64_t edge = call.kind == CollectiveKind::kAllReduce
                                  ? b_begin + static_cast<std::int64_t>(c) * per
                                  : call.shard_offsets[c];
    off[c] = std::min(b_end, std::max(b_begin, edge));
  }
  if (call.kind != CollectiveKind::kAllGather) {
    ScatterReducePhase(call.kind, call.rank, call.seq, b, *call.data, call.op,
                       off.data());
  }
  if (call.kind != CollectiveKind::kReduceScatter) {
    GatherPhase(call.kind, call.rank, call.seq, b, *call.data, off.data());
  }
}

void RingCommunicator::EnqueueBucket(const std::shared_ptr<AsyncOp>& op,
                                     std::int64_t bucket) {
  // Only the rank's own caller thread enqueues, so creating its queue on
  // first use needs no lock.
  std::unique_ptr<DispatchQueue>& queue =
      comm_queues_[static_cast<std::size_t>(op->call.rank)];
  if (queue == nullptr) queue = std::make_unique<DispatchQueue>();
  {
    std::lock_guard<std::mutex> lock(op->mutex);
    ++op->enqueued;
  }
  queue->Submit([this, op, bucket] {
    bool skip;
    {
      std::lock_guard<std::mutex> lock(op->mutex);
      // Once a bucket fails (or the handle is abandoned), later buckets of
      // the same op are skipped: the op is already lost, and skipping
      // avoids paying a full retry budget per remaining bucket. The queue
      // is FIFO with one consumer, so which buckets get skipped is
      // deterministic given the failure point.
      skip = op->abandoned || op->error != nullptr;
    }
    if (!skip) {
      try {
        obs::TraceSpan span("dist.allreduce.bucket", "dist", "bucket",
                            bucket);
        RunCallBucket(op->call, bucket);
      } catch (...) {
        std::lock_guard<std::mutex> lock(op->mutex);
        if (op->error == nullptr) op->error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(op->mutex);
      ++op->completed;
    }
    op->cv.notify_all();
  });
}

class RingCommunicator::RingAsyncCollective final : public AsyncCollective {
 public:
  RingAsyncCollective(RingCommunicator* comm, std::shared_ptr<AsyncOp> op)
      : comm_(comm),
        op_(std::move(op)),
        submitted_(static_cast<std::size_t>(op_->call.num_buckets), 0) {}

  ~RingAsyncCollective() override {
    // Abandon: unsubmitted buckets are never sent (the synchronous
    // analogue of a rank that threw mid-collective), queued ones are
    // skipped, and we block until nothing is in flight so the comm thread
    // cannot touch the caller's buffer after the handle is gone.
    std::unique_lock<std::mutex> lock(op_->mutex);
    op_->abandoned = true;
    op_->cv.wait(lock, [&] { return op_->completed == op_->enqueued; });
  }

  std::int64_t num_buckets() const override {
    return op_->call.num_buckets;
  }

  void SubmitBucket(std::int64_t b) override {
    S4TF_CHECK_GE(b, 0);
    S4TF_CHECK_LT(b, op_->call.num_buckets);
    char& flag = submitted_[static_cast<std::size_t>(b)];
    S4TF_CHECK(!flag) << "bucket " << b << " submitted twice";
    flag = 1;
    OverlapBucketsEarly()->Increment();
    comm_->EnqueueBucket(op_, b);
  }

  void Wait() override {
    obs::TraceSpan span("dist.allreduce.wait", "dist");
    OverlapWaitCalls()->Increment();
    for (std::int64_t b = 0; b < op_->call.num_buckets; ++b) {
      char& flag = submitted_[static_cast<std::size_t>(b)];
      if (!flag) {
        flag = 1;
        OverlapBucketsFlushed()->Increment();
        comm_->EnqueueBucket(op_, b);
      }
    }
    std::unique_lock<std::mutex> lock(op_->mutex);
    op_->cv.wait(lock, [&] { return op_->completed == op_->enqueued; });
    if (op_->error != nullptr) std::rethrow_exception(op_->error);
  }

 private:
  RingCommunicator* comm_;
  std::shared_ptr<AsyncOp> op_;
  std::vector<char> submitted_;  // caller-thread only
};

std::unique_ptr<AsyncCollective> RingCommunicator::RunAsync(
    int rank, const CollectiveSpec& spec, std::vector<float>& data) {
  obs::TraceSpan span(CollectiveSpanName(spec.kind, /*async=*/true), "dist",
                      "bytes",
                      static_cast<std::int64_t>(data.size() * sizeof(float)));
  OverlapAsyncCalls()->Increment();
  auto op = std::make_shared<AsyncOp>();
  op->call = Enter(rank, spec, data);
  return std::make_unique<RingAsyncCollective>(this, std::move(op));
}

void RingCommunicator::Barrier(int rank) {
  S4TF_CHECK_GE(rank, 0);
  S4TF_CHECK_LT(rank, world_);
  obs::TraceSpan span("dist.barrier", "dist");
  BarrierCount()->Increment();
  RankState& state = states_[static_cast<std::size_t>(rank)];
  const std::uint32_t seq = state.next_seq++;
  if (injector_.DiesAt(rank, seq)) {
    ReplicaDeaths()->Increment();
    throw ReplicaDeadError(rank, seq);
  }
  if (world_ == 1) return;

  const int next = (rank + 1) % world_;
  const int prev = (rank - 1 + world_) % world_;
  const auto key_for = [seq](MessagePhase phase, int src) {
    return MessageKey{phase, seq, 0, static_cast<std::uint16_t>(src), 0};
  };
  // Pass 1 (kBarrierIn): a token travels 0 -> 1 -> ... -> world-1 -> 0;
  // rank 0 receiving it proves every rank has entered. Pass 2
  // (kBarrierOut): the release token travels the same ring; no rank
  // exits before rank 0 has observed full arrival.
  if (rank == 0) {
    Send(next, key_for(MessagePhase::kBarrierIn, 0), {});
    Recv(0, key_for(MessagePhase::kBarrierIn, world_ - 1), 0);
    Send(next, key_for(MessagePhase::kBarrierOut, 0), {});
    Recv(0, key_for(MessagePhase::kBarrierOut, world_ - 1), 0);
  } else {
    Recv(rank, key_for(MessagePhase::kBarrierIn, prev), 0);
    Send(next, key_for(MessagePhase::kBarrierIn, rank), {});
    Recv(rank, key_for(MessagePhase::kBarrierOut, prev), 0);
    Send(next, key_for(MessagePhase::kBarrierOut, rank), {});
  }
}

}  // namespace s4tf::dist
