// Replica-group data-parallel training over the dist collective layer.
//
// The redesigned API for the paper's §5.1.1 evaluation: a ReplicaGroup
// owns K per-replica devices (Device::ForReplica), a worker pool, a
// RingCommunicator, and optional per-replica simulated accelerators.
// TrainStep runs each replica's forward/backward concurrently under its
// own DeviceScope and streams the flattened gradients into the bucketed
// ring as the reverse sweep finalizes them, so early buckets reduce
// while later gradients are still being computed (mean inside the
// collective — optimizers always see correctly-scaled tangents). One
// update step then applies the reduced gradients to the caller's model:
// replicated (all-reduce, then Optimizer::Update) or ZeRO-sharded
// (reduce-scatter, per-rank UpdateSlots, parameter all-gather).
//
// Determinism: per-replica compute is bit-deterministic for any intra-op
// thread count, and the communicator reduces every element by a
// canonical rank-ordered tree (dist/communicator.h). A ReplicaGroup with
// options.sequential = true runs the identical per-replica compute on
// the calling thread and reduces with the same OrderedTreeReduceMean —
// TrainStep's results are bit-identical between the two modes for every
// replica/thread-count/bucket-size combination (tested in tests/dist/).
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <typeinfo>
#include <utility>
#include <vector>

#include "ad/operators.h"
#include "device/sim_accelerator.h"
#include "dist/communicator.h"
#include "nn/datasets.h"
#include "nn/guard.h"
#include "nn/losses.h"
#include "nn/training.h"
#include "obs/trace.h"
#include "support/threadpool.h"
#include "tensor/ops.h"

namespace s4tf::nn {

struct ReplicaGroupOptions {
  // Backend kind for every replica device (Device::ForReplica).
  DeviceKind device_kind = DeviceKind::kNaive;
  dist::CollectiveOptions collective;
  dist::FaultPlan faults;
  // When set, each replica gets a SimAccelerator of this spec and the
  // communicator charges every chunk's ring cost to it.
  std::optional<AcceleratorSpec> accelerator;
  // Reference mode: run replicas one after another on the calling thread
  // and reduce with OrderedTreeReduceMean directly (no streaming, no
  // communicator, no faults). Bit-identical to the threaded path by
  // construction.
  bool sequential = false;
  // ZeRO-style sharded optimizer state (threaded mode only; the
  // sequential reference ignores it — it *is* the replicated baseline).
  // Each rank owns a contiguous range of optimizer slots: gradients are
  // reduce-scattered so only the owned shard is reduced in full, the
  // rank's optimizer copy updates only its shard's parameters and state
  // (per-rank state bytes shrink ~1/world), and updated parameters are
  // all-gathered. Bit-identical to the replicated path — the collectives
  // reduce every element through the same canonical tree, and the
  // per-slot update math is the exact Update body (UpdateSlots).
  // Checkpoints stay byte-compatible: owned state slots are gathered
  // back into the caller's optimizer every step (gather-on-step), so
  // CaptureTrainingState sees the full replicated state.
  bool sharded = false;
  // Numerical fault tolerance (nn/guard.h). Off by default: a guard-off
  // step issues exactly the pre-guard collective sequence and
  // byte-identical results. When enabled, every step appends one guard
  // AllGather (replicated) or two (sharded) to the collective sequence —
  // internal::CollectivesPerStep accounts for them. The threaded step
  // runs the full sentinel/digest-vote protocol; the sequential
  // reference (no communicator, no faults) applies only the caller-side
  // clip/spike math, which is bitwise-identical across modes.
  GuardOptions guard;
};

// Splits one batch of size K*n (dim 0) into K contiguous shards of size
// n, one per replica. The batch size must divide evenly.
std::vector<LabeledBatch> ShardBatch(const LabeledBatch& batch, int shards);

namespace internal {

// Collectives one TrainStep issues per rank: the gradient collective
// and the loss all-reduce, the sharded step's parameter all-gather, the
// guard exchanges when enabled, and the closing barrier. Every rank
// consumes exactly this many sequence numbers per step, which is what
// makes TrainingSession's step -> death_seq translation exact.
int CollectivesPerStep(const ReplicaGroupOptions& options);

// Flattens a model's tangent into one contiguous buffer in the model's
// fixed VisitWithTangent order. Parameters whose gradient is the
// zero-tangent placeholder (element-count mismatch) contribute explicit
// zeros, so every rank's buffer has identical geometry.
template <ad::DifferentiableStruct M>
std::vector<float> FlattenTangent(M& model,
                                  typename M::TangentVector& tangent) {
  std::vector<float> flat;
  model.VisitWithTangent(tangent, [&](Tensor& param, Tensor& grad) {
    if (grad.NumElements() == param.NumElements()) {
      const std::vector<float> values = grad.ToVector();
      flat.insert(flat.end(), values.begin(), values.end());
    } else {
      flat.insert(flat.end(), static_cast<std::size_t>(param.NumElements()),
                  0.0f);
    }
  });
  return flat;
}

// Inverse of FlattenTangent for slots [begin_slot, end_slot) (all slots
// by default): only those slots materialize full-shape gradient tensors
// on `device`; the rest keep the zero-tangent placeholder, which
// UpdateSlots never reads.
template <ad::DifferentiableStruct M>
void UnflattenTangentSlots(
    M& model, typename M::TangentVector& tangent,
    const std::vector<float>& flat, const Device& device,
    std::int64_t begin_slot = 0,
    std::int64_t end_slot = std::numeric_limits<std::int64_t>::max()) {
  std::size_t offset = 0;
  std::int64_t slot = 0;
  model.VisitWithTangent(tangent, [&](Tensor& param, Tensor& grad) {
    const std::size_t n = static_cast<std::size_t>(param.NumElements());
    const std::int64_t s = slot++;
    S4TF_CHECK_LE(offset + n, flat.size())
        << "reduced gradient buffer shorter than the model";
    if (s >= begin_slot && s < end_slot) {
      std::vector<float> values(
          flat.begin() + static_cast<std::ptrdiff_t>(offset),
          flat.begin() + static_cast<std::ptrdiff_t>(offset + n));
      grad = Tensor::FromVector(param.shape(), std::move(values), device);
    }
    offset += n;
  });
  S4TF_CHECK_EQ(offset, flat.size())
      << "reduced gradient buffer longer than the model";
}

// Flattens the model's parameters into one contiguous buffer in
// VisitParameters order — the parameter-space analogue of FlattenTangent.
template <ad::DifferentiableStruct M>
std::vector<float> FlattenParams(const M& model) {
  std::vector<float> flat;
  M copy = model;  // O(1) COW snapshot; ToVector never mutates
  copy.VisitParameters([&](Tensor& p) {
    const std::vector<float> values = p.ToVector();
    flat.insert(flat.end(), values.begin(), values.end());
  });
  return flat;
}

// Inverse of FlattenParams: rebinds every parameter from the buffer.
template <ad::DifferentiableStruct M>
void WriteParams(M& model, const std::vector<float>& flat,
                 const Device& device) {
  std::size_t offset = 0;
  model.VisitParameters([&](Tensor& param) {
    const std::size_t n = static_cast<std::size_t>(param.NumElements());
    S4TF_CHECK_LE(offset + n, flat.size())
        << "parameter buffer shorter than the model";
    std::vector<float> values(
        flat.begin() + static_cast<std::ptrdiff_t>(offset),
        flat.begin() + static_cast<std::ptrdiff_t>(offset + n));
    param = Tensor::FromVector(param.shape(), std::move(values), device);
    offset += n;
  });
  S4TF_CHECK_EQ(offset, flat.size())
      << "parameter buffer longer than the model";
}

// Where each parameter (optimizer slot) lives in the flattened gradient
// and parameter buffers: VisitParameters order, the same traversal
// FlattenTangent, FlattenParams and the optimizers' UpdateSlots walk.
// Both the bucket plan and the ZeRO shard plan derive from it.
struct ParamLayout {
  std::vector<std::int64_t> offsets;  // per-slot element offset
  std::vector<std::int64_t> sizes;    // per-slot element count
  std::int64_t total = 0;
};

template <ad::DifferentiableStruct M>
ParamLayout MakeParamLayout(const M& model) {
  ParamLayout layout;
  M copy = model;  // O(1): parameters are COW tensor handles
  copy.VisitParameters([&](Tensor& p) {
    layout.offsets.push_back(layout.total);
    layout.sizes.push_back(p.NumElements());
    layout.total += p.NumElements();
  });
  return layout;
}

// Deterministic bucket-readiness plan for the streamed gradient
// collective: how many parameters overlap each communicator bucket. A
// bucket is handed to the communicator the moment its countdown reaches
// zero during the streaming reverse sweep; since the sweep's
// finalization order is a pure function of the recorded tape,
// submission order is too.
struct GradientBucketPlan {
  std::int64_t bucket_elems = 1;
  std::int64_t num_buckets = 0;
  std::vector<std::int64_t> params_in_bucket;  // countdown template
};

GradientBucketPlan MakeBucketPlan(const ParamLayout& layout,
                                  std::int64_t bucket_bytes);

// ZeRO shard partition over the optimizer slots. Shards are contiguous
// *slot* ranges, so a rank's elements form one contiguous span of the
// flattened gradient buffer and its optimizer state slots are whole
// tensors — no tensor is ever split across ranks. Cuts land on the slot
// boundary nearest each rank's even element share, which handles worlds
// that don't divide the element count, ranks with empty shards
// (world > #slots), and zero-length tensors without special cases.
struct ZeroShardPlan {
  std::vector<std::int64_t> cuts;          // world+1 slot-index cuts
  std::vector<std::int64_t> elem_offsets;  // world+1 element offsets

  std::int64_t shard_begin_slot(int rank) const {
    return cuts[static_cast<std::size_t>(rank)];
  }
  std::int64_t shard_end_slot(int rank) const {
    return cuts[static_cast<std::size_t>(rank) + 1];
  }
  std::int64_t shard_elems(int rank) const {
    return elem_offsets[static_cast<std::size_t>(rank) + 1] -
           elem_offsets[static_cast<std::size_t>(rank)];
  }
};

ZeroShardPlan MakeZeroShardPlan(const ParamLayout& layout, int world);

// What every rank of one TrainStep shares: the switches (all off for the
// sequential reference), the geometry, and the gradient collective
// (all-reduce, or reduce-scatter over the shard plan).
struct StepPlan {
  std::int64_t step = 0;  // group-local: the corruption schedule key
  bool sharded = false;
  bool guard = false;
  bool inject = false;  // a FaultPlan corruption is armed
  ParamLayout layout;
  GradientBucketPlan buckets;
  ZeroShardPlan shards;  // sharded only
  dist::CollectiveSpec grad_spec;
};

// One rank's streamed gradient collective. The constructor starts the
// gradient collective over a zeroed `flat` buffer *before* the backward
// pass (one collective seq); OnGradient, the reverse sweep's
// finalization hook, copies each parameter's gradient into place and
// submits every bucket whose last parameter just landed, so the rank's
// comm thread reduces early buckets while later gradients are still
// being computed. Corruption injection and the guard's local scan run
// per bucket at submission time — after that the communicator reduces
// the bucket in place, destroying the local values. Finish drains the
// collective (rethrowing any failure), all-reduces the loss, and — guard
// on — exchanges the rank's guard slots.
class GradientStream {
 public:
  GradientStream(dist::Communicator& comm, const ReplicaGroupOptions& options,
                 const StepPlan& plan, int rank, std::vector<float>& flat);

  void OnGradient(std::size_t param, const Tensor* grad);
  void Finish(const Tensor& loss, std::vector<float>& loss_buf,
              std::vector<float>& guard_buf);

 private:
  dist::Communicator& comm_;
  const ReplicaGroupOptions& options_;
  const StepPlan& plan_;
  int rank_;
  std::vector<float>& flat_;
  std::optional<LocalGuardScan> scan_;
  std::unique_ptr<dist::AsyncCollective> handle_;
  std::vector<std::int64_t> remaining_;
};

}  // namespace internal

class ReplicaGroup {
 public:
  explicit ReplicaGroup(int replicas, ReplicaGroupOptions options = {});

  int replicas() const { return replicas_; }
  const Device& device(int rank) const {
    return devices_[static_cast<std::size_t>(rank)];
  }
  dist::Communicator& communicator() { return comm_; }
  SimAccelerator* accelerator(int rank) {
    if (accelerators_.empty()) return nullptr;
    return accelerators_[static_cast<std::size_t>(rank)].get();
  }
  const ReplicaGroupOptions& options() const { return options_; }

  // Wall-clock of the last TrainStep from its first parallel region
  // through the update, and per-replica worker durations inside the
  // gradient region (compute + collectives).
  double last_step_wall_seconds() const { return last_step_wall_seconds_; }
  double last_step_replica_seconds(int rank) const {
    return replica_seconds_[static_cast<std::size_t>(rank)];
  }

  // Runs fn(rank) once per replica, each under that replica's
  // DeviceScope — WithDevice composes per worker instead of relying on
  // one implicit global device. Threaded unless options_.sequential.
  template <typename Fn>
  void RunOnReplicas(Fn&& fn) {
    if (pool_) {
      pool_->ParallelFor(replicas_, [&](std::int64_t rank) {
        DeviceScope scope(devices_[static_cast<std::size_t>(rank)]);
        fn(static_cast<int>(rank));
      });
    } else {
      for (int rank = 0; rank < replicas_; ++rank) {
        DeviceScope scope(devices_[static_cast<std::size_t>(rank)]);
        fn(rank);
      }
    }
  }

  // One synchronous data-parallel step: per-replica gradients of
  // loss_fn(model, shard) with shared weights, reduced to their mean
  // through the communicator, one update to `model`. Returns the mean
  // per-shard loss (itself all-reduced, so every replica agreed on it).
  //
  // Per-rank collective sequence: the gradient collective (streamed
  // during the backward pass), the loss all-reduce, the guard exchange,
  // then — replicated — the barrier, or — sharded — the parameter
  // all-gather, the second guard exchange, and the barrier.
  template <ad::DifferentiableStruct M, typename Optimizer, typename LossFn>
  float TrainStep(M& model, Optimizer& optimizer,
                  const std::vector<LabeledBatch>& shards, LossFn&& loss_fn) {
    S4TF_CHECK_EQ(static_cast<int>(shards.size()), replicas_)
        << "need exactly one shard per replica";
    const internal::StepPlan plan = BeginStep(internal::MakeParamLayout(model));
    obs::TraceSpan step_span(
        plan.sharded ? "nn.replica_step.sharded" : "nn.replica_step", "dist",
        "replicas", replicas_);

    // Stage per-replica model copies and shards on the calling thread:
    // workers then touch only their own replica's backend state.
    std::vector<M> locals;
    locals.reserve(static_cast<std::size_t>(replicas_));
    std::vector<LabeledBatch> local_shards;
    local_shards.reserve(static_cast<std::size_t>(replicas_));
    for (int r = 0; r < replicas_; ++r) {
      const Device& dev = devices_[static_cast<std::size_t>(r)];
      M local = model;
      MoveModelTo(local, dev);
      locals.push_back(std::move(local));
      const LabeledBatch& shard = shards[static_cast<std::size_t>(r)];
      local_shards.push_back(LabeledBatch{shard.images.To(dev),
                                          shard.one_hot.To(dev),
                                          shard.labels});
    }

    const std::size_t n = static_cast<std::size_t>(replicas_);
    std::vector<std::vector<float>> flats(n), losses(n), guard_bufs(n);
    const auto step_start = std::chrono::steady_clock::now();
    RunOnReplicas([&](int rank) {
      obs::TraceSpan worker_span("nn.replica_worker", "dist", "rank", rank);
      const auto worker_start = std::chrono::steady_clock::now();
      const std::size_t i = static_cast<std::size_t>(rank);
      const auto loss_of = [&](const M& m) {
        return loss_fn(m, local_shards[i]);
      };
      if (options_.sequential) {
        auto [loss, grads] = ad::ValueWithGradient(locals[i], loss_of);
        flats[i] = internal::FlattenTangent(locals[i], grads);
        losses[i] = {loss.ScalarValue()};
      } else {
        internal::GradientStream stream(comm_, options_, plan, rank,
                                        flats[i]);
        Tensor loss;
        {
          obs::TraceSpan backward_span("nn.replica_backward", "dist", "rank",
                                       rank);
          loss = ad::ValueWithGradientStreamed(
              locals[i], loss_of, [&](std::size_t p, const Tensor* grad) {
                stream.OnGradient(p, grad);
              });
        }
        stream.Finish(loss, losses[i], guard_bufs[i]);
        // The sharded step's barrier closes GatherParams instead.
        if (!plan.sharded) comm_.Barrier(rank);
      }
      replica_seconds_[i] = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                worker_start)
                                .count();
    });

    float mean_loss = 0.0f;
    if (options_.sequential) {
      // The reference reduction: the identical canonical tree the
      // communicator applies per chunk, over whole buffers.
      flats = {dist::OrderedTreeReduceMean(std::move(flats))};
      mean_loss = dist::OrderedTreeReduceMean(std::move(losses))[0];
    } else {
      // Judge the exchanged guard vectors before any model/optimizer
      // state is touched: a trip aborts the step with zero side effects.
      // The sharded step's agreement buffer is the gathered parameters,
      // so its vote waits for GatherParams; only finite flags count here.
      if (plan.guard) {
        internal::ThrowOnGuardTrip(internal::JudgeGuard(
            guard_bufs[0], replicas_,
            !plan.sharded && options_.guard.vote_checksums));
      }
      // Every rank agreed on the reduced loss; take rank 0's.
      mean_loss = losses[0][0];
    }
    GuardClipAndSpike(plan, flats, mean_loss);

    if (plan.sharded) {
      ZeroUpdate(model, optimizer, plan, flats);
    } else {
      // Every rank holds the identical reduced buffer; take rank 0's.
      typename M::TangentVector mean_tangent{};
      internal::UnflattenTangentSlots(model, mean_tangent, flats[0],
                                      ModelDevice(model));
      optimizer.Update(model, mean_tangent);
    }
    last_step_wall_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      step_start)
            .count();
    return mean_loss;
  }

  // Classification convenience overload (the paper's Table 1 workload).
  template <ad::DifferentiableStruct M, typename Optimizer>
  float TrainStep(M& model, Optimizer& optimizer,
                  const std::vector<LabeledBatch>& shards) {
    return TrainStep(model, optimizer, shards,
                     [](const M& m, const LabeledBatch& shard) {
                       return SoftmaxCrossEntropy(m(shard.images),
                                                  shard.one_hot);
                     });
  }

  // Optimizer-state bytes rank `rank` held after the last sharded step —
  // the ZeRO memory claim (≈ replicated bytes / world + scalars). 0
  // before the first sharded step.
  std::int64_t zero_opt_state_bytes(int rank) const {
    if (static_cast<std::size_t>(rank) >= zero_state_bytes_.size()) return 0;
    return zero_state_bytes_[static_cast<std::size_t>(rank)];
  }

 private:
  // Counts the step, advances the group-local step index, and builds
  // the plan every rank shares.
  internal::StepPlan BeginStep(internal::ParamLayout layout);

  // Caller-side anomaly stage, shared by every mode: global-norm
  // clipping and the loss/grad-norm spike detector over the reduced
  // gradients — flats[0] whole (replicated and sequential), or each
  // rank's owned region of flats[r] in rank order (sharded). Both
  // layouts concatenate to the canonical flattened buffer, so the double
  // accumulation visits elements in the identical order and the
  // verdict/scale agree bitwise across modes. Runs after the reduction,
  // before any update.
  void GuardClipAndSpike(const internal::StepPlan& plan,
                         std::vector<std::vector<float>>& flats, float loss);

  // The ZeRO update: each rank's shard optimizer updates its own slice of
  // the caller's model, in rank order on the calling thread — the same
  // device and the same per-slot math as the replicated single Update, so
  // parameters and optimizer state evolve bitwise-identically. Then
  // gather-on-step: the caller's optimizer regains every rank's owned
  // state slots (O(1) COW handle copies), so checkpoints taken from it
  // are byte-identical to replicated-mode checkpoints. Finally the
  // updated parameters travel the all-gather and are rebound from rank
  // 0's gathered buffer.
  template <ad::DifferentiableStruct M, typename Optimizer>
  void ZeroUpdate(M& model, Optimizer& optimizer,
                  const internal::StepPlan& plan,
                  const std::vector<std::vector<float>>& flats) {
    const internal::ZeroShardPlan& shards = plan.shards;
    EnsureZeroOptimizers(optimizer, shards);
    zero_state_bytes_.assign(static_cast<std::size_t>(replicas_), 0);
    for (int r = 0; r < replicas_; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      Optimizer& opt = *std::static_pointer_cast<Optimizer>(zero_opts_[i]);
      typename M::TangentVector tangent{};
      internal::UnflattenTangentSlots(model, tangent, flats[i],
                                      ModelDevice(model),
                                      shards.shard_begin_slot(r),
                                      shards.shard_end_slot(r));
      opt.UpdateSlots(model, tangent, shards.shard_begin_slot(r),
                      shards.shard_end_slot(r));
      CopyOptimizerStateSlots(opt, optimizer, shards.shard_begin_slot(r),
                              shards.shard_end_slot(r));
      zero_state_bytes_[i] = OptimizerStateBytes(opt);
      NoteZeroStateBytes(zero_state_bytes_[i]);
    }
    internal::WriteParams(model,
                          GatherParams(plan, internal::FlattenParams(model)),
                          ModelDevice(model));
  }

  // The sharded step's second parallel region: every rank contributes
  // only its own shard of `updated` (the rest of its buffer starts
  // zeroed, so the gather transports every byte for real), all-gathers,
  // and — guard on — exchanges the gathered buffer's digest for the
  // checksum vote, then meets the step barrier. Returns rank 0's
  // gathered buffer once the vote passes.
  std::vector<float> GatherParams(const internal::StepPlan& plan,
                                  const std::vector<float>& updated);

  // Records one rank's sharded optimizer-state footprint in the
  // nn.zero.opt_state_bytes gauge.
  static void NoteZeroStateBytes(std::int64_t bytes);

  // Lazily builds the per-rank shard optimizers by copying the caller's
  // optimizer (O(1): state tensors are COW handles) and trimming each
  // copy to its owned slots. Rebuilt whenever the optimizer type changes;
  // a session that restores a checkpoint rebuilds the whole group, which
  // re-seeds these from the restored state.
  template <typename Optimizer>
  void EnsureZeroOptimizers(Optimizer& optimizer,
                            const internal::ZeroShardPlan& plan) {
    if (zero_opt_type_ == nullptr || *zero_opt_type_ != typeid(Optimizer)) {
      zero_opts_.clear();
      zero_opt_type_ = &typeid(Optimizer);
    }
    if (!zero_opts_.empty()) return;
    zero_opts_.reserve(static_cast<std::size_t>(replicas_));
    for (int r = 0; r < replicas_; ++r) {
      auto copy = std::make_shared<Optimizer>(optimizer);
      TrimOptimizerStateToSlots(*copy, plan.shard_begin_slot(r),
                                plan.shard_end_slot(r));
      zero_opts_.push_back(std::move(copy));
    }
  }

  ReplicaGroupOptions options_;
  int replicas_;
  dist::RingCommunicator comm_;
  std::vector<Device> devices_;
  std::vector<std::unique_ptr<SimAccelerator>> accelerators_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<double> replica_seconds_;
  double last_step_wall_seconds_ = 0.0;
  // ZeRO sharding state: one trimmed optimizer copy per rank (type-erased
  // so the group stays optimizer-agnostic) plus the last step's per-rank
  // state footprint.
  std::vector<std::shared_ptr<void>> zero_opts_;
  const std::type_info* zero_opt_type_ = nullptr;
  std::vector<std::int64_t> zero_state_bytes_;
  // Guard state: the group-local step counter (the corruption schedule
  // key) and the spike detector's EMAs. Both restart when a session
  // rebuilds the group after recovery — a fresh segment re-learns its
  // baseline instead of trusting statistics from before the fault.
  std::int64_t group_step_ = 0;
  internal::GuardEmaState guard_ema_;
};

}  // namespace s4tf::nn
