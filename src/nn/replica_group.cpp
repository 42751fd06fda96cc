#include "nn/replica_group.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace s4tf::nn {
namespace {

obs::Counter& ReplicaStepCounter() {
  static obs::Counter* counter = obs::GetCounter("nn.replica.steps");
  return *counter;
}

obs::Counter& ZeroStepCounter() {
  static obs::Counter* counter = obs::GetCounter("nn.zero.sharded_steps");
  return *counter;
}

// Exchanges one rank's kGuardSlots guard vector through an AllGather;
// every rank then holds the full world's verdicts and the caller judges
// rank 0's copy.
void ExchangeGuardSlots(dist::Communicator& comm, int rank, int world,
                        std::vector<float>& guard_buf, bool finite,
                        std::uint32_t pre_digest, std::uint32_t post_digest) {
  guard_buf.assign(static_cast<std::size_t>(world) * internal::kGuardSlots,
                   0.0f);
  internal::FillGuardSlots(
      guard_buf.data() + static_cast<std::size_t>(rank) * internal::kGuardSlots,
      finite, pre_digest, post_digest);
  comm.Run(rank,
           dist::CollectiveSpec::AllGather(internal::GuardShardOffsets(world)),
           guard_buf);
}

}  // namespace

std::vector<LabeledBatch> ShardBatch(const LabeledBatch& batch, int shards) {
  S4TF_CHECK_GE(shards, 1);
  const Shape& full = batch.images.shape();
  const std::int64_t total = full.dim(0);
  S4TF_CHECK_EQ(total % shards, 0)
      << "batch size " << total << " not divisible into " << shards
      << " shards";
  const std::int64_t per = total / shards;
  std::vector<LabeledBatch> result;
  result.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    LabeledBatch shard;
    std::vector<std::int64_t> starts(static_cast<std::size_t>(full.rank()),
                                     0);
    starts[0] = s * per;
    std::vector<std::int64_t> sizes = full.dims();
    sizes[0] = per;
    shard.images = Slice(batch.images, std::move(starts), std::move(sizes));
    shard.one_hot = Slice(batch.one_hot, {s * per, 0},
                          {per, batch.one_hot.shape().dim(1)});
    shard.labels.assign(
        batch.labels.begin() + static_cast<std::ptrdiff_t>(s * per),
        batch.labels.begin() + static_cast<std::ptrdiff_t>((s + 1) * per));
    result.push_back(std::move(shard));
  }
  return result;
}

namespace internal {

int CollectivesPerStep(const ReplicaGroupOptions& options) {
  // Gradient collective + loss all-reduce (+ the sharded step's
  // parameter all-gather), the guard's digest-exchange all-gathers when
  // enabled — one replicated; two sharded: finite sentinels after the
  // loss all-reduce, checksum vote after the parameter all-gather — and
  // the barrier that ends every step (ReplicaGroup::TrainStep).
  const bool sharded = options.sharded && !options.sequential;
  int collectives = sharded ? 3 : 2;
  if (options.guard.enabled && !options.sequential) {
    collectives += sharded ? 2 : 1;
  }
  return collectives + 1;
}

GradientBucketPlan MakeBucketPlan(const ParamLayout& layout,
                                  std::int64_t bucket_bytes) {
  GradientBucketPlan plan;
  plan.bucket_elems = std::max<std::int64_t>(
      1, bucket_bytes / static_cast<std::int64_t>(sizeof(float)));
  plan.num_buckets = dist::NumAllReduceBuckets(layout.total, bucket_bytes);
  plan.params_in_bucket.assign(static_cast<std::size_t>(plan.num_buckets),
                               0);
  for (std::size_t p = 0; p < layout.sizes.size(); ++p) {
    if (layout.sizes[p] == 0) continue;
    const std::int64_t first = layout.offsets[p] / plan.bucket_elems;
    const std::int64_t last =
        (layout.offsets[p] + layout.sizes[p] - 1) / plan.bucket_elems;
    for (std::int64_t b = first; b <= last; ++b) {
      ++plan.params_in_bucket[static_cast<std::size_t>(b)];
    }
  }
  return plan;
}

ZeroShardPlan MakeZeroShardPlan(const ParamLayout& layout, int world) {
  S4TF_CHECK_GE(world, 1);
  ZeroShardPlan plan;
  const std::int64_t slots =
      static_cast<std::int64_t>(layout.offsets.size());
  plan.cuts.resize(static_cast<std::size_t>(world) + 1);
  plan.elem_offsets.resize(static_cast<std::size_t>(world) + 1);
  for (int r = 0; r <= world; ++r) {
    if (r == world) {
      plan.cuts[static_cast<std::size_t>(r)] = slots;
    } else {
      // First slot at or past this rank's even element share. Targets
      // are nondecreasing in r, so cuts are too.
      const std::int64_t target = layout.total * r / world;
      plan.cuts[static_cast<std::size_t>(r)] =
          std::lower_bound(layout.offsets.begin(), layout.offsets.end(),
                           target) -
          layout.offsets.begin();
    }
    const std::int64_t cut = plan.cuts[static_cast<std::size_t>(r)];
    plan.elem_offsets[static_cast<std::size_t>(r)] =
        cut < slots ? layout.offsets[static_cast<std::size_t>(cut)]
                    : layout.total;
  }
  return plan;
}

GradientStream::GradientStream(dist::Communicator& comm,
                               const ReplicaGroupOptions& options,
                               const StepPlan& plan, int rank,
                               std::vector<float>& flat)
    : comm_(comm),
      options_(options),
      plan_(plan),
      rank_(rank),
      flat_(flat),
      remaining_(plan.buckets.params_in_bucket) {
  flat_.assign(static_cast<std::size_t>(plan_.layout.total), 0.0f);
  if (plan_.guard) {
    scan_.emplace(plan_.layout.total, plan_.buckets.bucket_elems,
                  options_.guard.check_finite);
  }
  handle_ = comm_.RunAsync(rank_, plan_.grad_spec, flat_);
  S4TF_CHECK_EQ(handle_->num_buckets(), plan_.buckets.num_buckets)
      << "bucket plan disagrees with the communicator's geometry";
}

void GradientStream::OnGradient(std::size_t param, const Tensor* grad) {
  const std::int64_t off = plan_.layout.offsets[param];
  const std::int64_t n = plan_.layout.sizes[param];
  if (grad != nullptr && grad->NumElements() == n) {
    const std::vector<float> values = grad->ToVector();
    std::copy(values.begin(), values.end(),
              flat_.begin() + static_cast<std::ptrdiff_t>(off));
  }  // else: keep the explicit zeros (FlattenTangent's zero-tangent
     // convention)
  if (n == 0) return;
  const std::int64_t bucket_elems = plan_.buckets.bucket_elems;
  const std::int64_t total = plan_.layout.total;
  for (std::int64_t b = off / bucket_elems; b <= (off + n - 1) / bucket_elems;
       ++b) {
    if (--remaining_[static_cast<std::size_t>(b)] != 0) continue;
    if (plan_.inject) {
      dist::ApplyCorruption(options_.faults, dist::CorruptPhase::kLocal,
                            rank_, plan_.step, flat_.data(), total,
                            b * bucket_elems,
                            std::min((b + 1) * bucket_elems, total));
    }
    if (scan_) scan_->ScanBucket(flat_.data(), b);
    handle_->SubmitBucket(b);
  }
}

void GradientStream::Finish(const Tensor& loss, std::vector<float>& loss_buf,
                            std::vector<float>& guard_buf) {
  // Wait() drains the tail and rethrows any collective failure.
  handle_->Wait();
  const float local_loss = loss.ScalarValue();
  // Replicated: the reduced gradients are the agreement buffer every
  // rank must hold bitwise-identically. Sharded: the gathered parameters
  // are (ReplicaGroup::GatherParams).
  std::uint32_t post_digest = 0;
  if (!plan_.sharded) {
    if (plan_.inject) {
      dist::ApplyCorruption(options_.faults, dist::CorruptPhase::kAgreement,
                            rank_, plan_.step, flat_.data(),
                            plan_.layout.total, 0, plan_.layout.total);
    }
    if (plan_.guard) {
      post_digest = GuardDigestBuckets(flat_.data(), plan_.layout.total,
                                       plan_.buckets.bucket_elems);
    }
  }
  loss_buf = {local_loss};
  comm_.Run(rank_, dist::CollectiveSpec::AllReduce(dist::ReduceOp::kMean),
            loss_buf);
  if (plan_.guard) {
    // Local gradients legitimately differ across ranks, so the local
    // digest is never voted on: it is carried for diagnostics and the
    // world-1 self-check, which compares it against the post digest.
    scan_->NoteScalar(local_loss);
    ExchangeGuardSlots(comm_, rank_, comm_.world_size(), guard_buf,
                       scan_->finite(), scan_->Digest(), post_digest);
  }
}

}  // namespace internal

ReplicaGroup::ReplicaGroup(int replicas, ReplicaGroupOptions options)
    : options_(std::move(options)),
      replicas_(replicas),
      comm_(replicas, options_.collective,
            options_.sequential ? dist::FaultPlan{} : options_.faults) {
  S4TF_CHECK_GE(replicas_, 1);
  devices_.reserve(static_cast<std::size_t>(replicas_));
  for (int r = 0; r < replicas_; ++r) {
    devices_.push_back(Device::ForReplica(options_.device_kind, r));
  }
  if (options_.accelerator.has_value()) {
    accelerators_.reserve(static_cast<std::size_t>(replicas_));
    for (int r = 0; r < replicas_; ++r) {
      accelerators_.push_back(
          std::make_unique<SimAccelerator>(*options_.accelerator));
      comm_.AttachAccelerator(r, accelerators_.back().get());
    }
  }
  if (!options_.sequential && replicas_ > 1) {
    // One thread per replica: replicas_ - 1 pool workers plus the calling
    // thread, which runs one replica itself. Every concurrently-blocking
    // collective call holds its own thread.
    pool_ = std::make_unique<ThreadPool>(replicas_);
  }
  replica_seconds_.assign(static_cast<std::size_t>(replicas_), 0.0);
}

internal::StepPlan ReplicaGroup::BeginStep(internal::ParamLayout layout) {
  internal::StepPlan plan;
  plan.sharded = options_.sharded && !options_.sequential;
  ReplicaStepCounter().Increment();
  if (plan.sharded) ZeroStepCounter().Increment();
  plan.step = group_step_++;
  plan.guard = options_.guard.enabled && !options_.sequential;
  plan.inject = !options_.sequential &&
                options_.faults.corrupt_kind != dist::CorruptKind::kNone;
  plan.buckets =
      internal::MakeBucketPlan(layout, options_.collective.bucket_bytes);
  if (plan.sharded) {
    plan.shards = internal::MakeZeroShardPlan(layout, replicas_);
    plan.grad_spec = dist::CollectiveSpec::ReduceScatter(
        dist::ReduceOp::kMean, plan.shards.elem_offsets);
  } else {
    plan.grad_spec = dist::CollectiveSpec::AllReduce(dist::ReduceOp::kMean);
  }
  plan.layout = std::move(layout);
  return plan;
}

void ReplicaGroup::GuardClipAndSpike(const internal::StepPlan& plan,
                                     std::vector<std::vector<float>>& flats,
                                     float loss) {
  if (!options_.guard.enabled) return;
  if (options_.guard.clip_global_norm <= 0.0f &&
      options_.guard.spike_factor <= 0.0f) {
    return;
  }
  // One contiguous slice [begin, end) of the canonical flattened buffer.
  struct Region {
    float* data;
    std::int64_t begin;
    std::int64_t end;
  };
  std::vector<Region> regions;
  if (plan.sharded) {
    for (int r = 0; r < replicas_; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      regions.push_back(Region{flats[i].data(), plan.shards.elem_offsets[i],
                               plan.shards.elem_offsets[i + 1]});
    }
  } else {
    regions.push_back(
        Region{flats[0].data(), 0, static_cast<std::int64_t>(flats[0].size())});
  }
  double acc = 0.0;
  for (const Region& region : regions) {
    acc = internal::GuardSqNormAccumulate(region.data, region.begin,
                                          region.end, acc);
  }
  const double norm = std::sqrt(acc);
  if (internal::GuardSpikeCheck(guard_ema_, options_.guard,
                                static_cast<double>(loss), norm)) {
    internal::ThrowOnGuardTrip(internal::GuardVerdict{
        internal::GuardTripReason::kSpike, /*rank=*/-1});
  }
  const float scale =
      internal::GuardClipScale(norm, options_.guard.clip_global_norm);
  if (scale != 1.0f) {
    for (const Region& region : regions) {
      for (std::int64_t e = region.begin; e < region.end; ++e) {
        region.data[static_cast<std::size_t>(e)] *= scale;
      }
    }
  }
}

std::vector<float> ReplicaGroup::GatherParams(
    const internal::StepPlan& plan, const std::vector<float>& updated) {
  const std::int64_t total = plan.layout.total;
  const std::int64_t bucket_elems = plan.buckets.bucket_elems;
  const std::size_t n = static_cast<std::size_t>(replicas_);
  std::vector<std::vector<float>> bufs(n), guard_bufs(n);
  for (std::size_t r = 0; r < n; ++r) {
    bufs[r].assign(static_cast<std::size_t>(total), 0.0f);
    const std::int64_t begin = plan.shards.elem_offsets[r];
    const std::int64_t end = plan.shards.elem_offsets[r + 1];
    std::copy(updated.begin() + static_cast<std::ptrdiff_t>(begin),
              updated.begin() + static_cast<std::ptrdiff_t>(end),
              bufs[r].begin() + static_cast<std::ptrdiff_t>(begin));
  }
  const dist::CollectiveSpec ag_spec =
      dist::CollectiveSpec::AllGather(plan.shards.elem_offsets);
  RunOnReplicas([&](int rank) {
    std::vector<float>& buf = bufs[static_cast<std::size_t>(rank)];
    // The gathered parameter buffer is the sharded step's agreement
    // buffer — every rank must hold it bitwise identically, so its digest
    // is what the majority vote judges. The pre digest (the rank's
    // contributed buffer) feeds the world-1 self-check, where
    // contribution and gather coincide.
    std::uint32_t pre_digest = 0;
    if (plan.guard) {
      pre_digest = internal::GuardDigestBuckets(buf.data(), total,
                                                bucket_elems);
    }
    comm_.Run(rank, ag_spec, buf);
    if (plan.inject) {
      dist::ApplyCorruption(options_.faults, dist::CorruptPhase::kAgreement,
                            rank, plan.step, buf.data(), total, 0, total);
    }
    if (plan.guard) {
      ExchangeGuardSlots(
          comm_, rank, replicas_, guard_bufs[static_cast<std::size_t>(rank)],
          /*finite=*/true, pre_digest,
          internal::GuardDigestBuckets(buf.data(), total, bucket_elems));
    }
    comm_.Barrier(rank);
  });
  // The checksum vote fires before the gathered parameters are written
  // back; a tripped step may have advanced optimizer state (UpdateSlots),
  // but rollback-and-skip is the recovery contract, not mid-step
  // atomicity.
  if (plan.guard) {
    internal::ThrowOnGuardTrip(internal::JudgeGuard(
        guard_bufs[0], replicas_, options_.guard.vote_checksums));
  }
  return std::move(bufs[0]);
}

void ReplicaGroup::NoteZeroStateBytes(std::int64_t bytes) {
  static obs::Gauge* gauge = obs::GetGauge("nn.zero.opt_state_bytes");
  gauge->SetMax(bytes);
}

}  // namespace s4tf::nn
