// Model and training-state checkpointing.
//
// The paper's mobile workflow ships a server-trained model to devices for
// fine-tuning; that requires serializing parameters. The resilient
// training sessions of nn/session.h additionally require checkpoints that
// (a) survive a crash at any instant and (b) capture *everything* needed
// to resume bit-deterministically — optimizer moments, RNG engine state,
// and step/epoch counters, not just weights.
//
// Two artifacts:
//   * Checkpoint — a flat, ordered parameter snapshot (weights only).
//   * TrainingState — the full resume envelope: parameters + named
//     optimizer state (via the optimizer VisitState traversal in
//     nn/optimizers.h) + RNG words + step/epoch counters.
//
// On-disk format v2 (all integers little-endian, written on x86):
//   "S4TFCKPT" (8) | version u32 = 2 | num_sections u32
//   per section: kind u16 | name_len u16 | name | payload_len u64 |
//                payload | section_crc u32
//   footer: file_crc u32 over every preceding byte
// Section kinds: 1 = f32 tensor (rank u32 | dims i64[rank] | f32[n]),
// 2 = u64 array (count u64 | words), 3 = i64 scalar. Model parameters are
// sections "param/<i>"; optimizer state lives under "opt/..."; counters
// under "meta/...". Both CRCs are CRC32 (support/crc32.h): a flipped bit
// anywhere — name, payload, or framing — is rejected with a clean Status,
// as is any trailing garbage after the footer.
//
// Durability: SaveCheckpoint/SaveTrainingState write the encoded bytes to
// `<path>.tmp`, fsync, then atomically rename onto `path` (and fsync the
// parent directory). A crash at any point leaves either the previous
// complete file or the new complete file — never a torn mix.
//
// Loading accepts only v2: any other version (including the unchecksummed
// v1 layout nothing writes any more) fails with InvalidArgument. The
// parser bounds every allocation by the actual file size, so a crafted
// header with huge dims fails cleanly instead of driving a multi-GB
// resize.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ad/operators.h"
#include "support/error.h"
#include "support/rng.h"
#include "tensor/tensor.h"

namespace s4tf::nn {

// Flat, ordered parameter snapshot of a model.
struct Checkpoint {
  struct Entry {
    Shape shape;
    std::vector<float> values;
  };
  std::vector<Entry> entries;

  std::int64_t TotalElements() const;
};

// Named optimizer state captured through the VisitState traversal: tensor
// slots (moments, velocities) keyed "<field>/<index>" plus integer
// scalars (Adam's bias-correction step count).
struct OptimizerState {
  struct TensorSlot {
    std::string name;
    Shape shape;
    std::vector<float> values;
  };
  std::vector<TensorSlot> tensors;
  std::vector<std::pair<std::string, std::int64_t>> scalars;
};

// Everything a TrainingSession needs to resume a run bit-for-bit.
struct TrainingState {
  std::int64_t step = 0;
  std::int64_t epoch = 0;
  // Rng::SaveState words; empty when no RNG was captured.
  std::vector<std::uint64_t> rng_state;
  Checkpoint model;
  OptimizerState optimizer;
};

// Captures every parameter of `model` (traversal order).
template <ad::DifferentiableStruct M>
Checkpoint Snapshot(const M& model) {
  Checkpoint checkpoint;
  model.VisitParameters([&](const Tensor& p) {
    checkpoint.entries.push_back({p.shape(), p.ToVector()});
  });
  return checkpoint;
}

// Restores parameters into `model`. Fails (Status) on count or shape
// mismatch; the model is only modified when everything matches.
template <ad::DifferentiableStruct M>
Status Restore(M& model, const Checkpoint& checkpoint) {
  // Validate first against the model's current structure.
  std::vector<Shape> shapes;
  model.VisitParameters(
      [&](const Tensor& p) { shapes.push_back(p.shape()); });
  if (shapes.size() != checkpoint.entries.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(checkpoint.entries.size()) +
        " parameters, model has " + std::to_string(shapes.size()));
  }
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (shapes[i] != checkpoint.entries[i].shape) {
      return Status::InvalidArgument(
          "parameter " + std::to_string(i) + " shape mismatch: checkpoint " +
          checkpoint.entries[i].shape.ToString() + " vs model " +
          shapes[i].ToString());
    }
  }
  std::size_t index = 0;
  model.VisitParameters([&](Tensor& p) {
    const auto& entry = checkpoint.entries[index++];
    p = Tensor::FromVector(entry.shape, entry.values, p.device());
  });
  return Status::Ok();
}

// --- Optimizer state visitors (the VisitState protocol). An optimizer's
// VisitState(v) calls v.Scalar("name", int64_ref) and
// v.TensorSlots("name", vector<Tensor>&) for every piece of its state.

// Capture side: appends the optimizer's state to an OptimizerState.
class OptimizerStateSaver {
 public:
  explicit OptimizerStateSaver(OptimizerState* out) : out_(out) {}

  void Scalar(const char* name, std::int64_t& value) {
    out_->scalars.emplace_back(name, value);
  }
  void TensorSlots(const char* name, std::vector<Tensor>& slots) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      out_->tensors.push_back({std::string(name) + "/" + std::to_string(i),
                               slots[i].shape(), slots[i].ToVector()});
    }
  }

 private:
  OptimizerState* out_;
};

// Restore side: rebuilds slots/scalars by name on `device`. Saved state
// is matched exactly — an unknown or missing name is an error surfaced
// through status() (the optimizer may be partially written then; callers
// treat a failed restore as fatal for the optimizer object).
class OptimizerStateRestorer {
 public:
  OptimizerStateRestorer(const OptimizerState& state, Device device)
      : state_(state), device_(std::move(device)) {}

  void Scalar(const char* name, std::int64_t& value) {
    for (const auto& [saved_name, saved_value] : state_.scalars) {
      if (saved_name == name) {
        value = saved_value;
        ++consumed_;
        return;
      }
    }
    Fail(std::string("optimizer scalar '") + name + "' missing");
  }

  void TensorSlots(const char* name, std::vector<Tensor>& slots) {
    const std::string prefix = std::string(name) + "/";
    std::vector<const OptimizerState::TensorSlot*> matches;
    for (const auto& slot : state_.tensors) {
      if (slot.name.rfind(prefix, 0) == 0) matches.push_back(&slot);
    }
    slots.clear();
    slots.reserve(matches.size());
    for (std::size_t i = 0; i < matches.size(); ++i) {
      const std::string expected = prefix + std::to_string(i);
      if (matches[i]->name != expected) {
        Fail("optimizer tensor slots for '" + std::string(name) +
             "' are not a dense index sequence");
        return;
      }
      slots.push_back(Tensor::FromVector(matches[i]->shape,
                                         matches[i]->values, device_));
      ++consumed_;
    }
  }

  // Ok only when every saved piece was consumed and nothing was missing.
  Status status() const {
    if (!error_.empty()) return Status::InvalidArgument(error_);
    const std::size_t saved = state_.scalars.size() + state_.tensors.size();
    if (consumed_ != saved) {
      return Status::InvalidArgument(
          "optimizer state mismatch: checkpoint holds " +
          std::to_string(saved) + " pieces, optimizer consumed " +
          std::to_string(consumed_));
    }
    return Status::Ok();
  }

 private:
  void Fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  const OptimizerState& state_;
  Device device_;
  std::size_t consumed_ = 0;
  std::string error_;
};

namespace internal {
// Device of the model's first parameter (without pulling in training.h).
template <ad::DifferentiableStruct M>
Device FirstParameterDevice(const M& model) {
  Device device = NaiveDevice();
  bool first = true;
  model.VisitParameters([&](const Tensor& p) {
    if (first) {
      device = p.device();
      first = false;
    }
  });
  return device;
}
}  // namespace internal

// Captures the full resume envelope for (model, optimizer) at a given
// step/epoch. Pass `rng` to include the data-pipeline RNG state.
template <ad::DifferentiableStruct M, typename Optimizer>
TrainingState CaptureTrainingState(const M& model, Optimizer& optimizer,
                                   std::int64_t step, std::int64_t epoch,
                                   const Rng* rng = nullptr) {
  TrainingState state;
  state.step = step;
  state.epoch = epoch;
  if (rng != nullptr) {
    const auto words = rng->SaveState();
    state.rng_state.assign(words.begin(), words.end());
  }
  state.model = Snapshot(model);
  OptimizerStateSaver saver(&state.optimizer);
  optimizer.VisitState(saver);
  return state;
}

// Inverse of CaptureTrainingState. The model is only modified when its
// structure matches; a failed optimizer restore leaves the optimizer
// unusable (callers discard it).
template <ad::DifferentiableStruct M, typename Optimizer>
Status RestoreTrainingState(M& model, Optimizer& optimizer,
                            const TrainingState& state, Rng* rng = nullptr) {
  if (rng != nullptr && state.rng_state.size() != Rng::kStateWords) {
    return Status::InvalidArgument(
        "checkpoint carries " + std::to_string(state.rng_state.size()) +
        " RNG words, expected " + std::to_string(Rng::kStateWords));
  }
  S4TF_RETURN_IF_ERROR(Restore(model, state.model));
  OptimizerStateRestorer restorer(state.optimizer,
                                  internal::FirstParameterDevice(model));
  optimizer.VisitState(restorer);
  S4TF_RETURN_IF_ERROR(restorer.status());
  if (rng != nullptr) {
    std::array<std::uint64_t, Rng::kStateWords> words{};
    std::copy(state.rng_state.begin(), state.rng_state.end(), words.begin());
    rng->LoadState(words);
  }
  return Status::Ok();
}

// Binary (de)serialization; see the file header for the format and the
// durability contract. Saves write and loads accept v2 (LoadCheckpoint
// also extracts just the parameters from a full TrainingState file).
Status SaveCheckpoint(const Checkpoint& checkpoint, const std::string& path);
StatusOr<Checkpoint> LoadCheckpoint(const std::string& path);

Status SaveTrainingState(const TrainingState& state, const std::string& path);
StatusOr<TrainingState> LoadTrainingState(const std::string& path);

namespace internal {
// The two halves of the atomic save, exposed so crash-simulation tests
// can stop between them: EncodeTrainingState/EncodeCheckpoint produce the
// v2 bytes, WriteFileDurable writes+fsyncs them to a (temp) path, and
// CommitCheckpointFile atomically renames temp onto final and fsyncs the
// parent directory.
std::string EncodeCheckpoint(const Checkpoint& checkpoint);
std::string EncodeTrainingState(const TrainingState& state);
Status WriteFileDurable(const std::string& bytes, const std::string& path);
Status CommitCheckpointFile(const std::string& temp_path,
                            const std::string& final_path);
std::string TempPathFor(const std::string& path);
}  // namespace internal

// Convenience wrappers.
template <ad::DifferentiableStruct M>
Status SaveModel(const M& model, const std::string& path) {
  return SaveCheckpoint(Snapshot(model), path);
}

template <ad::DifferentiableStruct M>
Status LoadModel(M& model, const std::string& path) {
  auto checkpoint = LoadCheckpoint(path);
  if (!checkpoint.ok()) return checkpoint.status();
  return Restore(model, *checkpoint);
}

}  // namespace s4tf::nn
