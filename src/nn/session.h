// Resilient training sessions: crash-consistent checkpointing + elastic
// recovery from replica death.
//
// The paper's single-program pitch spans preemptible datacenter workers
// and interruptible mobile fine-tuning; classic TF (Abadi et al.,
// OSDI'16) makes checkpoint-based recovery a *system* responsibility, not
// user code. TrainingSession is that layer for the ReplicaGroup runtime:
//
//   * It periodically captures a full TrainingState (parameters,
//     optimizer moments, RNG words, step/epoch) and writes it through the
//     crash-consistent v2 checkpoint path (write-temp + fsync + atomic
//     rename, CRC-guarded; nn/checkpoint.h) into a rotated directory.
//   * When a collective fails — a replica death injected by the
//     dist::FaultInjector, or any retry-budget exhaustion — the session
//     catches the failure on the caller thread (worker threads have
//     already joined; every receive is bounded, so the failure arrives in
//     bounded time, never a hang), waits an exponential backoff, shrinks
//     the world by the dead replica, rebuilds the ReplicaGroup (fresh
//     RingCommunicator + per-replica devices) at the new world size,
//     restores the last durable checkpoint, and resumes. The recovery
//     budget is bounded: exhaustion fails loudly with the original error.
//   * When the training guard (nn/guard.h, ReplicaGroupOptions::guard)
//     detects numeric corruption — a non-finite loss/gradient or a
//     checksum-vote mismatch — the session runs rollback-and-skip
//     instead: restore the newest durable checkpoint, mark the poisoned
//     step's batch skipped, rebuild the group at the SAME world size,
//     and resume, bitwise-equal to a clean run that never saw that
//     batch. The recovery budget is shared with elastic recovery.
//   * Everything is observable: nn.session.* counters (steps, resumes,
//     recoveries, world_shrinks, checkpoints_written/_discarded,
//     crc_failures, backoff_ms, aborts) plus trace spans per run,
//     checkpoint, and recovery.
//
// Determinism contract: a session killed at a seeded step (simulated
// process crash via abort_at_step, or a replica death) and then resumed
// from the latest durable checkpoint walks the *identical* weight
// trajectory as a run that never stopped, because (1) the checkpoint
// captures every byte of training state, (2) batches are a pure function
// of the step index (or of the captured RNG), and (3) per-step compute is
// bit-deterministic for any thread count and world size (PR 1 + PR 3
// contracts). tests/session asserts bit-identical final weights across
// naive/eager/lazy backends, world sizes 1-4, and 1/2/4 intra-op threads.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/checkpoint.h"
#include "nn/guard.h"
#include "nn/replica_group.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace s4tf::nn {

struct SessionOptions {
  // Configuration every (re)built ReplicaGroup uses. The death fields of
  // replica.faults are managed by the session (see kill_rank below) and
  // must be left at their defaults.
  ReplicaGroupOptions replica;
  // Initial world size; recovery shrinks it, never below min_replicas.
  int replicas = 1;
  int min_replicas = 1;

  // Durable checkpoints: directory (created on first save; empty =
  // in-memory baseline only), cadence in steps (0 = only the final
  // checkpoint), and how many newest files rotation keeps.
  std::string checkpoint_dir;
  std::int64_t checkpoint_every_steps = 0;
  int keep_checkpoints = 2;

  // Elastic recovery: attempts before failing loudly, and the backoff
  // ladder between an observed failure and the rebuilt group
  // (base * multiplier^attempt).
  int max_recoveries = 3;
  std::chrono::milliseconds recovery_backoff{5};
  double backoff_multiplier = 2.0;

  // Epoch accounting for the checkpoint envelope (0 = untracked).
  std::int64_t steps_per_epoch = 0;

  // Seeded permanent replica death: rank `kill_rank` dies entering the
  // first collective of step `kill_at_step`. Translated to a
  // FaultPlan::death_seq for the current group segment, so the death is
  // deterministic for any thread interleaving. -1 = nobody dies.
  int kill_rank = -1;
  std::int64_t kill_at_step = -1;

  // Simulated process crash: Run returns (aborted=true) *before*
  // executing this step, without a final checkpoint — exactly what a
  // kill -9 between checkpoints leaves behind. -1 = disabled.
  std::int64_t abort_at_step = -1;

  // Seeded numeric corruption: rank corrupt_rank's buffers are struck at
  // global step corrupt_at_step (kind per dist::CorruptKind). Translated
  // to the group-local FaultPlan::corrupt_seq for the current segment,
  // like kill_rank/kill_at_step; the replica.faults.corrupt_* fields must
  // be left at their defaults. Pair with replica.guard.enabled to get
  // detection + rollback-and-skip; without the guard the corruption
  // poisons the run silently (the failure mode the guard exists for).
  int corrupt_rank = -1;
  std::int64_t corrupt_at_step = -1;
  dist::CorruptKind corrupt_kind = dist::CorruptKind::kNone;

  // Injectable backoff sleep. Default (nullptr) = real
  // std::this_thread::sleep_for; tests inject a no-op or a recorder so
  // recovery grids stop burning wall-clock time. The
  // nn.session.backoff_ms counter accumulates the *scheduled* delay in
  // either case — the hook changes how time passes, never the ladder.
  std::function<void(std::chrono::milliseconds)> sleep_fn;
};

// What a Run produced, beyond the model/optimizer side effects.
struct SessionReport {
  std::int64_t steps_completed = 0;  // global step counter after the run
  float last_loss = 0.0f;
  int world_size = 0;                // world size at exit (after shrinks)
  int recoveries = 0;
  int rollbacks = 0;                 // guard-trip rollback-and-skip count
  std::int64_t steps_skipped = 0;    // distinct steps skipped as poisoned
  bool resumed = false;              // restored a durable checkpoint at entry
  bool aborted = false;              // stopped by abort_at_step
};

namespace internal {

// nn.session.* counters. All count logical events, so they obey the
// repo-wide counter determinism contract (identical for any intra-op
// thread count); backoff_ms accumulates the *scheduled* backoff, which is
// a deterministic function of the attempt index, not measured wall time.
struct SessionMetrics {
  obs::Counter* steps;
  obs::Counter* resumes;
  obs::Counter* recoveries;
  obs::Counter* world_shrinks;
  obs::Counter* checkpoints_written;
  obs::Counter* checkpoints_discarded;
  obs::Counter* crc_failures;
  obs::Counter* backoff_ms;
  obs::Counter* aborts;

  static SessionMetrics& Get();
};

// Deterministic exponential backoff: base * multiplier^attempt, attempt
// counted from 0, saturating instead of overflowing.
std::chrono::milliseconds BackoffDelay(std::chrono::milliseconds base,
                                       double multiplier, int attempt);

}  // namespace internal

// Rotated directory of durable TrainingState checkpoints. Non-template
// so the scan/rotate/validate logic is compiled once (session.cpp).
class CheckpointStore {
 public:
  // `keep` newest checkpoints survive rotation (>= 1).
  CheckpointStore(std::string dir, int keep);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  // Atomic durable save of `state` as ckpt-<step>, then rotation.
  Status Save(const TrainingState& state);

  // Newest checkpoint that parses and passes CRC validation; corrupt
  // files are skipped (counted in nn.session.crc_failures) and older
  // checkpoints tried, so one torn/garbled file never strands a session.
  // NotFound when no valid checkpoint exists.
  StatusOr<TrainingState> LoadLatest() const;

  // Steps with a (complete) checkpoint file, ascending.
  std::vector<std::int64_t> ListSteps() const;

  static std::string PathForStep(const std::string& dir, std::int64_t step);

 private:
  std::string dir_;
  int keep_;
};

// The resilient training loop. Borrows the caller's model and optimizer
// for the lifetime of the session; Run mutates them in place (value
// semantics end to end — a recovery rebinds their state from the
// checkpoint through the same traversals the optimizer update uses).
template <ad::DifferentiableStruct M, typename Optimizer>
class TrainingSession {
 public:
  // The global batch for one step. Must be a pure function of `step` (or
  // of the session RNG passed below, which is checkpointed alongside the
  // weights) for resume determinism to hold.
  using BatchFn = std::function<LabeledBatch(std::int64_t step)>;

  TrainingSession(M& model, Optimizer& optimizer, SessionOptions options,
                  Rng* rng = nullptr)
      : model_(model),
        optimizer_(optimizer),
        options_(std::move(options)),
        rng_(rng),
        store_(options_.checkpoint_dir, options_.keep_checkpoints),
        world_(options_.replicas) {
    S4TF_CHECK_GE(options_.replicas, 1);
    S4TF_CHECK_GE(options_.min_replicas, 1);
    S4TF_CHECK_GE(options_.max_recoveries, 0);
    S4TF_CHECK(options_.replica.faults.death_rank < 0)
        << "set SessionOptions::kill_rank/kill_at_step instead of "
           "replica.faults.death_*: the session owns the death schedule";
    S4TF_CHECK(options_.replica.faults.corrupt_rank < 0)
        << "set SessionOptions::corrupt_rank/corrupt_at_step/corrupt_kind "
           "instead of replica.faults.corrupt_*: the session owns the "
           "corruption schedule";
  }

  int world_size() const { return world_; }
  std::int64_t step() const { return step_; }
  ReplicaGroup* group() { return group_.get(); }

  // Trains until the global step counter reaches `total_steps`,
  // checkpointing and recovering per the options. Resumes from the
  // newest valid durable checkpoint when one exists. Classification
  // loss (softmax cross-entropy), matching ReplicaGroup's convenience
  // overload.
  StatusOr<SessionReport> Run(std::int64_t total_steps,
                              const BatchFn& batch_fn) {
    obs::TraceSpan run_span("nn.session.run", "session", "total_steps",
                            total_steps);
    internal::SessionMetrics& metrics = internal::SessionMetrics::Get();
    SessionReport report;

    // Resume: newest valid durable checkpoint wins over the caller's
    // in-memory state.
    if (store_.enabled()) {
      auto latest = store_.LoadLatest();
      if (latest.ok()) {
        S4TF_RETURN_IF_ERROR(
            RestoreTrainingState(model_, optimizer_, *latest, rng_));
        step_ = latest->step;
        epoch_ = latest->epoch;
        metrics.resumes->Increment();
        report.resumed = true;
      } else if (latest.status().code() != StatusCode::kNotFound) {
        return latest.status();
      }
    }
    if (options_.kill_at_step >= 0 && options_.kill_at_step < step_) {
      kill_fired_ = true;  // resumed past the scheduled death
    }
    if (options_.corrupt_at_step >= 0 && options_.corrupt_at_step < step_) {
      corrupt_fired_ = true;  // resumed past the scheduled corruption
    }
    // The recovery floor when no durable checkpoint exists yet.
    baseline_ = CaptureTrainingState(model_, optimizer_, step_, epoch_, rng_);
    RebuildGroup();

    while (step_ < total_steps) {
      if (step_ == options_.abort_at_step) {
        metrics.aborts->Increment();
        report.aborted = true;
        break;
      }
      if (skipped_steps_.count(step_) > 0) {
        // A guard rollback marked this step's batch poisoned: advance
        // past it without training. The resumed trajectory is then
        // bitwise-equal to a clean run that never saw this batch.
        internal::GuardMetrics::Get().skipped_steps->Increment();
        ++step_;
        if (options_.steps_per_epoch > 0) {
          epoch_ = step_ / options_.steps_per_epoch;
        }
        continue;
      }
      const LabeledBatch batch = batch_fn(step_);
      if (batch.images.shape().dim(0) % world_ != 0) {
        return Status::InvalidArgument(
            "global batch of " + std::to_string(batch.images.shape().dim(0)) +
            " does not divide across a world of " + std::to_string(world_));
      }
      try {
        report.last_loss = group_->TrainStep(model_, optimizer_,
                                             ShardBatch(batch, world_));
      } catch (const GradientCorruptionError& failure) {
        // Numeric corruption is a *data* failure, not a replica failure:
        // roll back and skip the poisoned batch, keep the world intact.
        // Must be caught before the generic InternalError handler below.
        S4TF_RETURN_IF_ERROR(RecoverCorruption(failure.what()));
        continue;  // re-walk from the restored step, skipping step_
      } catch (const InternalError& failure) {
        S4TF_RETURN_IF_ERROR(Recover(failure.what()));
        continue;  // re-run from the restored step
      }
      ++step_;
      metrics.steps->Increment();
      if (options_.steps_per_epoch > 0) {
        epoch_ = step_ / options_.steps_per_epoch;
      }
      if (store_.enabled() && options_.checkpoint_every_steps > 0 &&
          step_ % options_.checkpoint_every_steps == 0) {
        S4TF_RETURN_IF_ERROR(SaveNow());
      }
    }

    if (!report.aborted && store_.enabled() && last_saved_step_ != step_) {
      S4TF_RETURN_IF_ERROR(SaveNow());  // final durable checkpoint
    }
    report.steps_completed = step_;
    report.world_size = world_;
    report.recoveries = recoveries_;
    report.rollbacks = rollbacks_;
    report.steps_skipped = static_cast<std::int64_t>(skipped_steps_.size());
    return report;
  }

 private:
  Status SaveNow() {
    const TrainingState state =
        CaptureTrainingState(model_, optimizer_, step_, epoch_, rng_);
    S4TF_RETURN_IF_ERROR(store_.Save(state));
    last_saved_step_ = step_;
    return Status::Ok();
  }

  // Shared recovery preamble: budget check, scheduled backoff (through
  // the injectable sleep hook), recovery accounting.
  Status BeginRecovery(const std::string& why) {
    internal::SessionMetrics& metrics = internal::SessionMetrics::Get();
    if (recoveries_ >= options_.max_recoveries) {
      return Status::Internal(
          "recovery budget (" + std::to_string(options_.max_recoveries) +
          ") exhausted; last failure: " + why);
    }
    const std::chrono::milliseconds delay = internal::BackoffDelay(
        options_.recovery_backoff, options_.backoff_multiplier, recoveries_);
    ++recoveries_;
    metrics.recoveries->Increment();
    metrics.backoff_ms->Add(delay.count());
    if (delay.count() > 0) {
      if (options_.sleep_fn) {
        options_.sleep_fn(delay);
      } else {
        std::this_thread::sleep_for(delay);
      }
    }
    return Status::Ok();
  }

  // Roll back to the last durable state; without a store, the Run-entry
  // baseline. The model may have been mid-step when the failure surfaced
  // — the checkpoint is the contract, so restore unconditionally.
  Status RestoreToLatest() {
    TrainingState state = baseline_;
    if (store_.enabled()) {
      auto latest = store_.LoadLatest();
      if (latest.ok()) {
        state = std::move(latest).value();
      } else if (latest.status().code() != StatusCode::kNotFound) {
        return latest.status();
      }
    }
    S4TF_RETURN_IF_ERROR(
        RestoreTrainingState(model_, optimizer_, state, rng_));
    step_ = state.step;
    epoch_ = state.epoch;
    return Status::Ok();
  }

  // One elastic recovery: backoff, shrink, rebuild, restore, resume.
  Status Recover(const std::string& why) {
    obs::TraceSpan span("nn.session.recover", "session", "attempt",
                        recoveries_ + 1);
    S4TF_RETURN_IF_ERROR(BeginRecovery(why));

    if (world_ - 1 < options_.min_replicas) {
      return Status::FailedPrecondition(
          "replica died but world " + std::to_string(world_) +
          " cannot shrink below min_replicas " +
          std::to_string(options_.min_replicas) + "; failure: " + why);
    }
    --world_;
    internal::SessionMetrics::Get().world_shrinks->Increment();
    kill_fired_ = true;  // at most one scheduled death per session

    S4TF_RETURN_IF_ERROR(RestoreToLatest());
    RebuildGroup();
    return Status::Ok();
  }

  // One guard-trip recovery: backoff, restore the newest durable
  // checkpoint, mark the offending step skipped, rebuild the group at
  // the *same* world size (nobody died — the data was poisoned), resume.
  // Shares the max_recoveries/backoff budget with elastic recovery, so
  // kill/resume, replica death, and numeric rollback compose under one
  // bound.
  Status RecoverCorruption(const std::string& why) {
    obs::TraceSpan span("nn.session.rollback", "session", "attempt",
                        recoveries_ + 1);
    S4TF_RETURN_IF_ERROR(BeginRecovery(why));
    internal::GuardMetrics::Get().rollbacks->Increment();
    ++rollbacks_;
    corrupt_fired_ = true;  // the injected corruption is one-shot
    skipped_steps_.insert(step_);

    S4TF_RETURN_IF_ERROR(RestoreToLatest());
    RebuildGroup();
    return Status::Ok();
  }

  // Builds the ReplicaGroup segment for the current (step_, world_),
  // arming the scheduled death if it lies ahead of this segment.
  void RebuildGroup() {
    ReplicaGroupOptions opts = options_.replica;
    opts.faults.death_rank = -1;
    opts.faults.death_seq = 0;
    if (!kill_fired_ && options_.kill_rank >= 0 &&
        options_.kill_rank < world_ && options_.kill_at_step >= step_) {
      opts.faults.death_rank = options_.kill_rank;
      opts.faults.death_seq = static_cast<std::uint32_t>(
          GroupStepsUntil(options_.kill_at_step) *
          internal::CollectivesPerStep(opts));
    }
    // Arm the scheduled corruption for this segment. corrupt_seq counts
    // group-local TrainStep calls (the group's own step counter), so the
    // translation is a plain offset — no collective arithmetic. Steps the
    // segment will skip (already marked poisoned) never reach TrainStep,
    // so they don't advance the group's counter.
    opts.faults.corrupt_rank = -1;
    opts.faults.corrupt_seq = -1;
    opts.faults.corrupt_kind = dist::CorruptKind::kNone;
    if (!corrupt_fired_ && options_.corrupt_rank >= 0 &&
        options_.corrupt_rank < world_ &&
        options_.corrupt_at_step >= step_ &&
        options_.corrupt_kind != dist::CorruptKind::kNone) {
      opts.faults.corrupt_rank = options_.corrupt_rank;
      opts.faults.corrupt_seq = GroupStepsUntil(options_.corrupt_at_step);
      opts.faults.corrupt_kind = options_.corrupt_kind;
    }
    group_ = std::make_unique<ReplicaGroup>(world_, std::move(opts));
  }

  // How many TrainStep calls this segment will make before reaching
  // `target` (skipped steps never call TrainStep).
  std::int64_t GroupStepsUntil(std::int64_t target) const {
    std::int64_t calls = target - step_;
    for (std::int64_t skipped : skipped_steps_) {
      if (skipped >= step_ && skipped < target) --calls;
    }
    return calls;
  }

  M& model_;
  Optimizer& optimizer_;
  SessionOptions options_;
  Rng* rng_;
  CheckpointStore store_;
  std::unique_ptr<ReplicaGroup> group_;
  int world_;
  std::int64_t step_ = 0;
  std::int64_t epoch_ = 0;
  std::int64_t last_saved_step_ = -1;
  int recoveries_ = 0;
  int rollbacks_ = 0;
  bool kill_fired_ = false;
  bool corrupt_fired_ = false;
  std::set<std::int64_t> skipped_steps_;
  TrainingState baseline_;
};

}  // namespace s4tf::nn
