// The replica collective layer (paper §5.1.1, Table 1).
//
// Synchronous data-parallel training is where the paper's platform earns
// its scaling claims: K replicas compute gradients on their own shards and
// all-reduce them every step. This header is the redesigned collective
// API behind ReplicaGroup::TrainStep (nn/replica_group.h):
//
//   * CollectiveSpec / CollectiveResult — the single options/result
//     vocabulary shared by every collective, sync and async: which
//     collective (all-reduce, reduce-scatter, all-gather), which
//     reduction, and which per-rank shard geometry.
//   * Communicator — the abstract collective surface. Every rank calls
//     Run/RunAsync with the same specs in the same order from its own
//     worker thread.
//   * RingCommunicator — the in-process implementation: gradient buffers
//     are split into configurable-size buckets, each bucket into one chunk
//     per rank; raw chunks are scattered to their owner rank, reduced
//     there in a *canonical* rank-ordered tree (OrderedTreeReduce), and
//     the reduced chunks travel a classic all-gather ring. A per-replica
//     SimAccelerator can be attached to charge the ring's simulated cost
//     per chunk (cost_model.h's AllReduceSeconds, topology-aware via
//     CollectiveOptions::topology).
//
// ReduceScatter and AllGather are the all-reduce's own two phases made
// public (ZeRO-style sharded optimizers consume them): ReduceScatter
// leaves each rank holding the fully-reduced values of *its own shard*
// (the rest of the buffer is unspecified), and AllGather broadcasts each
// rank's shard until every rank holds the full buffer. Composing them
// over the same shard geometry is the all-reduce — and because every
// element reduces through the canonical rank-ordered tree regardless of
// how the buffer is partitioned, the composition is bit-identical to the
// monolithic all-reduce and to the sequential reference.
//
// Determinism contract: the tree reduction order per element depends only
// on the world size — not on thread scheduling, message arrival order, or
// the bucket/chunk partition (elements reduce across ranks independently,
// so chunk boundaries cannot reassociate anything). Hence the threaded,
// bucketed, fault-injected ring is bit-identical to OrderedTreeReduce[Mean]
// applied to the whole per-rank buffers on one thread — the sequential
// reference ReplicaGroup uses.
//
// Fault model: every message consults the seeded FaultInjector; lost
// deliveries and straggler delays surface as receive timeouts, recovered
// by bounded retry (obs counters and trace spans record every retry,
// timeout, and barrier). Because every receive is bounded by
// (1 + max_retries) * recv_timeout, a replica that dies mid-collective
// cannot hang the group: its peers exhaust their budgets and fail loudly.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "device/sim_accelerator.h"
#include "dist/fault_injector.h"
#include "support/error.h"
#include "support/threadpool.h"

namespace s4tf::dist {

// Thrown by the *dying* rank itself when FaultPlan::death_rank kills it
// at a collective entry. Peers observe the death indirectly — their
// receives time out and exhaust the retry budget (a plain InternalError).
// Subclasses InternalError so every existing fail-loudly path still
// catches it; nn::TrainingSession treats both as a replica failure and
// runs elastic recovery.
class ReplicaDeadError : public InternalError {
 public:
  ReplicaDeadError(int rank, std::uint32_t seq)
      : InternalError("replica " + std::to_string(rank) +
                      " died entering collective seq " +
                      std::to_string(seq)),
        rank_(rank) {}

  int rank() const { return rank_; }

 private:
  int rank_;
};

enum class ReduceOp {
  kSum = 0,
  kMean,  // sum scaled by 1/world_size inside the collective
};

struct CollectiveOptions {
  // Gradient bucketing granularity: each bucket is reduced and charged
  // independently (one ring per bucket, one chunk per rank per bucket).
  std::int64_t bucket_bytes = 1 << 16;
  // Per receive attempt; a lost delivery costs one timeout.
  std::chrono::milliseconds recv_timeout{250};
  // Receive attempts beyond the first before the collective fails loudly.
  int max_retries = 8;
  // Communication topology attached accelerators are charged under. The
  // default (flat) charges the classic single-level ring, identical to
  // the pre-topology cost model.
  CommTopology topology;
};

// Which collective a CollectiveSpec requests.
enum class CollectiveKind : std::uint8_t {
  kAllReduce = 0,      // every rank ends with the full reduced buffer
  kReduceScatter = 1,  // every rank ends with its own reduced shard
  kAllGather = 2,      // every rank contributes its shard, ends with all
};

// Default contiguous shard partition of a length-`len` buffer across
// `world` ranks: world+1 ascending element offsets, shard r spanning
// [offsets[r], offsets[r+1]). Ceil-divided, so trailing shards may be
// empty when world > len.
std::vector<std::int64_t> ShardOffsets(std::int64_t len, int world);

// The one options vocabulary every collective entry point shares. A spec
// names the collective kind, the reduction (ignored by all-gather), and —
// for the sharded collectives — the per-rank shard geometry.
struct CollectiveSpec {
  CollectiveKind kind = CollectiveKind::kAllReduce;
  ReduceOp reduce = ReduceOp::kSum;
  // Shard geometry for kReduceScatter/kAllGather: world+1 ascending
  // element offsets with front() == 0 and back() == buffer length (the
  // shape ShardOffsets produces). Empty = the ShardOffsets default.
  // Ignored by kAllReduce, whose bucket-internal chunking is an
  // implementation detail of the communicator.
  std::vector<std::int64_t> shard_offsets;

  static CollectiveSpec AllReduce(ReduceOp op) {
    CollectiveSpec spec;
    spec.kind = CollectiveKind::kAllReduce;
    spec.reduce = op;
    return spec;
  }
  static CollectiveSpec ReduceScatter(ReduceOp op,
                                      std::vector<std::int64_t> offsets = {}) {
    CollectiveSpec spec;
    spec.kind = CollectiveKind::kReduceScatter;
    spec.reduce = op;
    spec.shard_offsets = std::move(offsets);
    return spec;
  }
  static CollectiveSpec AllGather(std::vector<std::int64_t> offsets = {}) {
    CollectiveSpec spec;
    spec.kind = CollectiveKind::kAllGather;
    spec.shard_offsets = std::move(offsets);
    return spec;
  }
};

// What one collective moved, in the communicator's own accounting — the
// same numbers the dist.* counters record.
struct CollectiveResult {
  std::int64_t bytes = 0;    // caller buffer bytes entering the collective
  std::int64_t buckets = 0;  // buckets the buffer split into
};

// Rank-ordered pairwise tree reduction: parts[0..n) combine as
// ((p0+p1)+(p2+p3))+... regardless of how the caller obtained them. This
// is the one reduction the whole dist layer performs — the ring transports
// chunks but never reassociates — so results are bit-identical between
// the threaded collective and a sequential reference. All parts must have
// equal length.
std::vector<float> OrderedTreeReduce(std::vector<std::vector<float>> parts);
// OrderedTreeReduce followed by scaling with 1.0f / parts.size() — the
// all-reduce-mean every data-parallel step uses, applied inside the
// collective so optimizers always see correctly-scaled tangents.
std::vector<float> OrderedTreeReduceMean(
    std::vector<std::vector<float>> parts);

// Number of buckets the bucketed collective splits a length-`len` float
// buffer into. Exposed so callers (ReplicaGroup's bucket-readiness plan)
// can derive the identical geometry the communicator will use.
inline std::int64_t NumAllReduceBuckets(std::int64_t len,
                                        std::int64_t bucket_bytes) {
  const std::int64_t bucket_elems =
      bucket_bytes / static_cast<std::int64_t>(sizeof(float)) > 0
          ? bucket_bytes / static_cast<std::int64_t>(sizeof(float))
          : 1;
  return len == 0 ? 0 : (len + bucket_elems - 1) / bucket_elems;
}

// Handle to one in-flight asynchronous bucketed collective (one collective
// seq). The owning rank's thread submits buckets as their data becomes
// final — in any order, each at most once — while the communicator runs
// already-submitted buckets in the background; Wait() submits whatever
// remains, blocks until every bucket has completed, and rethrows the first
// failure (retry-budget exhaustion, ReplicaDeadError) exactly as the
// synchronous Run would have thrown it. Destroying the handle without
// Wait() (exception unwind) *abandons* the op: unsubmitted buckets are
// never sent — matching the synchronous path, where a throwing rank sends
// nothing further and peers fail loudly within their bounded retry
// budgets — and the destructor drains in-flight buckets so no communicator
// thread touches the gradient buffer afterwards.
class AsyncCollective {
 public:
  virtual ~AsyncCollective() = default;

  virtual std::int64_t num_buckets() const = 0;
  // Hands bucket `b` (in the geometry of NumAllReduceBuckets) to the
  // communicator. Caller thread only; at most once per bucket.
  virtual void SubmitBucket(std::int64_t b) = 0;
  // Submits all remaining buckets, blocks until the whole collective is
  // done, rethrows the first bucket failure. The buffer holds the result
  // afterwards. Call at most once.
  virtual void Wait() = 0;
};

// The collective surface. All methods are collective calls: every rank in
// [0, world_size) must invoke them with the same spec, in the same order,
// each with its own rank. Implementations are safe for one concurrent
// caller per rank.
class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int world_size() const = 0;
  virtual const char* name() const = 0;

  // Runs one synchronous collective in place over `data`:
  //   kAllReduce     — every rank passes same-length buffers and returns
  //                    with the identical fully-reduced contents.
  //   kReduceScatter — on return the caller's *own shard* region holds
  //                    the reduced values; the rest of the buffer is
  //                    unspecified.
  //   kAllGather     — on entry the caller's own shard region is valid;
  //                    on return the whole buffer is.
  virtual CollectiveResult Run(int rank, const CollectiveSpec& spec,
                               std::vector<float>& data) = 0;

  // Starts an asynchronous collective over `data` (which must stay alive
  // and untouched-by-the-caller per bucket until the handle completes
  // it). Counts as exactly one collective call in the per-rank sequence —
  // a peer may serve it with the synchronous Run.
  virtual std::unique_ptr<AsyncCollective> RunAsync(
      int rank, const CollectiveSpec& spec, std::vector<float>& data) = 0;

  // Blocks until every rank has arrived.
  virtual void Barrier(int rank) = 0;
};

// In-process communicator over per-rank mailboxes (see file header for
// the algorithm and its contracts).
class RingCommunicator final : public Communicator {
 public:
  explicit RingCommunicator(int world_size, CollectiveOptions options = {},
                            FaultPlan faults = {});
  ~RingCommunicator() override;

  int world_size() const override { return world_; }
  const char* name() const override { return "ring"; }

  CollectiveResult Run(int rank, const CollectiveSpec& spec,
                       std::vector<float>& data) override;
  // True async implementation: buckets run on the rank's own
  // DispatchQueue worker, so submitted buckets run while the caller keeps
  // computing. Counters, accelerator charges, and results are identical
  // to the synchronous Run.
  std::unique_ptr<AsyncCollective> RunAsync(int rank,
                                            const CollectiveSpec& spec,
                                            std::vector<float>& data) override;
  void Barrier(int rank) override;

  // Attaches a simulated accelerator for `rank`; every non-empty chunk the
  // rank participates in charges ChargeAllReduce(chunk_bytes, world) there.
  // Pass nullptr to detach. Not thread-safe against in-flight collectives.
  void AttachAccelerator(int rank, SimAccelerator* accelerator);

  const CollectiveOptions& options() const { return options_; }

 private:
  struct Message {
    std::vector<float> payload;
    // Straggler injection: readable only once this instant has passed.
    std::chrono::steady_clock::time_point available_at;
    // Drop injection: deliveries still to be lost before one gets through.
    int drops_remaining = 0;
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Message> slots;
  };

  // Per-rank state touched only by that rank's worker thread.
  struct RankState {
    std::uint32_t next_seq = 0;
    SimAccelerator* accelerator = nullptr;
  };

  // One entered collective: the resolved parameters each of its buckets
  // runs with. Shared state of one asynchronous collective. Both defined
  // in the .cpp.
  struct Call;
  struct AsyncOp;
  class RingAsyncCollective;

  // Asynchronous deposit into dst's mailbox (never blocks).
  void Send(int dst, const MessageKey& key, std::vector<float> payload);
  // Blocking receive with timeout + bounded retry; CHECK-fails (throws
  // InternalError) once the retry budget is exhausted.
  std::vector<float> Recv(int rank, const MessageKey& key,
                          std::size_t expected_len);

  // The all-reduce's two phases over an explicit chunk partition
  // (`chunk_offsets`: world+1 ascending element offsets into `data`).
  // `kind` only selects which counters/charges each phase records — the
  // message keys and transported bytes are a pure function of the
  // partition, which is how the standalone ReduceScatter/AllGather and
  // the composed all-reduce stay one algorithm.
  void ScatterReducePhase(CollectiveKind kind, int rank, std::uint32_t seq,
                          std::int64_t bucket, std::vector<float>& data,
                          ReduceOp op, const std::int64_t* chunk_offsets);
  void GatherPhase(CollectiveKind kind, int rank, std::uint32_t seq,
                   std::int64_t bucket, std::vector<float>& data,
                   const std::int64_t* chunk_offsets);
  // The collective entry Run and RunAsync share: kind counters, the
  // rank's next seq, the death check, the bucket count, and shard-offset
  // validation. Throws ReplicaDeadError when the rank dies here.
  Call Enter(int rank, const CollectiveSpec& spec, std::vector<float>& data);
  // Runs bucket `bucket` of an entered collective — inline for Run, on
  // the rank's comm thread for RunAsync. An all-reduce bucket splits into
  // one chunk per rank and runs both phases; a reduce-scatter/all-gather
  // bucket runs its one phase over the global shard partition clipped to
  // the bucket's element range.
  void RunCallBucket(const Call& call, std::int64_t bucket);
  // Hands bucket `bucket` of `op` to its rank's comm queue, creating the
  // queue on the rank's first RunAsync.
  void EnqueueBucket(const std::shared_ptr<AsyncOp>& op, std::int64_t bucket);

  int world_;
  CollectiveOptions options_;
  FaultInjector injector_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<RankState> states_;
  // One single-consumer FIFO per rank that runs its async bucket jobs.
  std::vector<std::unique_ptr<DispatchQueue>> comm_queues_;
};

}  // namespace s4tf::dist
