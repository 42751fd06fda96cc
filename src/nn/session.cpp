#include "nn/session.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <system_error>

namespace s4tf::nn {
namespace internal {

SessionMetrics& SessionMetrics::Get() {
  static SessionMetrics metrics{
      obs::GetCounter("nn.session.steps"),
      obs::GetCounter("nn.session.resumes"),
      obs::GetCounter("nn.session.recoveries"),
      obs::GetCounter("nn.session.world_shrinks"),
      obs::GetCounter("nn.session.checkpoints_written"),
      obs::GetCounter("nn.session.checkpoints_discarded"),
      obs::GetCounter("nn.session.crc_failures"),
      obs::GetCounter("nn.session.backoff_ms"),
      obs::GetCounter("nn.session.aborts"),
  };
  return metrics;
}

std::chrono::milliseconds BackoffDelay(std::chrono::milliseconds base,
                                       double multiplier, int attempt) {
  if (base.count() <= 0) return std::chrono::milliseconds{0};
  double scale = 1.0;
  for (int i = 0; i < attempt; ++i) scale *= std::max(multiplier, 1.0);
  const double ms = static_cast<double>(base.count()) * scale;
  constexpr double kCapMs = 60.0 * 1000.0;  // one minute, plenty for tests
  return std::chrono::milliseconds{
      static_cast<std::int64_t>(std::min(ms, kCapMs))};
}

}  // namespace internal

namespace {

namespace fs = std::filesystem;

constexpr const char* kCheckpointPrefix = "ckpt-";
constexpr const char* kCheckpointSuffix = ".s4tf";

// Parses "<prefix><step><suffix>" filenames; nullopt for anything else
// (including the ".tmp" staging files an interrupted save leaves behind).
std::optional<std::int64_t> StepFromFilename(const std::string& name) {
  const std::string prefix = kCheckpointPrefix;
  const std::string suffix = kCheckpointSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return std::nullopt;
  std::int64_t step = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    if (step > (std::numeric_limits<std::int64_t>::max() - (c - '0')) / 10) {
      return std::nullopt;
    }
    step = step * 10 + (c - '0');
  }
  return step;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir, int keep)
    : dir_(std::move(dir)), keep_(std::max(keep, 1)) {}

std::string CheckpointStore::PathForStep(const std::string& dir,
                                         std::int64_t step) {
  return (fs::path(dir) /
          (kCheckpointPrefix + std::to_string(step) + kCheckpointSuffix))
      .string();
}

std::vector<std::int64_t> CheckpointStore::ListSteps() const {
  std::vector<std::int64_t> steps;
  if (dir_.empty()) return steps;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (auto step = StepFromFilename(entry.path().filename().string())) {
      steps.push_back(*step);
    }
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

Status CheckpointStore::Save(const TrainingState& state) {
  S4TF_CHECK(enabled()) << "CheckpointStore::Save without a directory";
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create checkpoint directory " + dir_ +
                            ": " + ec.message());
  }
  S4TF_RETURN_IF_ERROR(
      SaveTrainingState(state, PathForStep(dir_, state.step)));
  internal::SessionMetrics& metrics = internal::SessionMetrics::Get();
  metrics.checkpoints_written->Increment();

  // Rotation: drop the oldest checkpoints beyond keep_. A failed unlink
  // is not fatal — the extra file is just disk, not a correctness hazard.
  std::vector<std::int64_t> steps = ListSteps();
  while (static_cast<int>(steps.size()) > keep_) {
    fs::remove(PathForStep(dir_, steps.front()), ec);
    if (!ec) metrics.checkpoints_discarded->Increment();
    steps.erase(steps.begin());
  }
  return Status::Ok();
}

StatusOr<TrainingState> CheckpointStore::LoadLatest() const {
  if (dir_.empty()) {
    return Status::NotFound("checkpoint store has no directory");
  }
  std::vector<std::int64_t> steps = ListSteps();
  // Newest first; a corrupt newest file falls back to its predecessor.
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    StatusOr<TrainingState> state =
        LoadTrainingState(PathForStep(dir_, *it));
    if (state.ok()) return state;
    internal::SessionMetrics::Get().crc_failures->Increment();
  }
  return Status::NotFound("no valid checkpoint under " + dir_);
}

}  // namespace s4tf::nn
