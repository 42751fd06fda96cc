// Crash-consistency and adversarial-input tests for the v2 checkpoint
// format: a simulated crash at any point of the save leaves a loadable
// file, truncation at every boundary and bit flips anywhere are rejected
// with a clean Status, and legacy v1 files are rejected the same way.
#include "nn/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "nn/models/lenet.h"
#include "nn/optimizers.h"
#include "support/crc32.h"

namespace s4tf::nn {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const fs::path dir = fs::path("/tmp") / ("s4tf_ckpt_crash_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A small but fully populated TrainingState: momentum SGD after one
// update, RNG mid-stream, non-zero counters.
TrainingState SampleState(std::uint64_t seed = 7) {
  Rng rng(seed);
  LeNet model(rng);
  SGD<LeNet> sgd(0.1f, 0.9f);
  typename LeNet::TangentVector grads{};
  // Materialize velocity slots with a synthetic all-ones gradient.
  model.VisitWithTangent(grads, [&](Tensor& p, Tensor& g) {
    g = Tensor::FromVector(p.shape(),
                           std::vector<float>(
                               static_cast<std::size_t>(p.NumElements()),
                               1.0f),
                           p.device());
  });
  sgd.Update(model, grads);
  Rng data_rng(seed + 1);
  (void)data_rng.NextGaussian();  // populate the gaussian cache word
  return CaptureTrainingState(model, sgd, /*step=*/12, /*epoch=*/2,
                              &data_rng);
}

bool StatesBitEqual(const TrainingState& a, const TrainingState& b) {
  if (a.step != b.step || a.epoch != b.epoch) return false;
  if (a.rng_state != b.rng_state) return false;
  if (a.model.entries.size() != b.model.entries.size()) return false;
  for (std::size_t i = 0; i < a.model.entries.size(); ++i) {
    if (a.model.entries[i].shape != b.model.entries[i].shape) return false;
    if (a.model.entries[i].values != b.model.entries[i].values) return false;
  }
  if (a.optimizer.scalars != b.optimizer.scalars) return false;
  if (a.optimizer.tensors.size() != b.optimizer.tensors.size()) return false;
  for (std::size_t i = 0; i < a.optimizer.tensors.size(); ++i) {
    const auto& x = a.optimizer.tensors[i];
    const auto& y = b.optimizer.tensors[i];
    if (x.name != y.name || x.shape != y.shape || x.values != y.values) {
      return false;
    }
  }
  return true;
}

TEST(CheckpointCrashTest, CrashBetweenTempWriteAndRenameKeepsOldFile) {
  const std::string dir = TempDir("crash_window");
  const std::string path = dir + "/state.s4tf";

  const TrainingState old_state = SampleState(1);
  ASSERT_TRUE(SaveTrainingState(old_state, path).ok());

  // Simulated crash: the new state's bytes are fully written and fsynced
  // to the temp path, but the process dies before the atomic rename.
  const TrainingState new_state = SampleState(2);
  const std::string bytes = internal::EncodeTrainingState(new_state);
  const std::string temp = internal::TempPathFor(path);
  ASSERT_TRUE(internal::WriteFileDurable(bytes, temp).ok());

  auto loaded = LoadTrainingState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(StatesBitEqual(*loaded, old_state))
      << "torn save must leave the previous complete checkpoint";

  // The "restarted process" finishing the commit yields the new state.
  ASSERT_TRUE(internal::CommitCheckpointFile(temp, path).ok());
  auto after = LoadTrainingState(path);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(StatesBitEqual(*after, new_state));
}

TEST(CheckpointCrashTest, CrashBeforeAnyRenameLeavesNoVisibleFile) {
  const std::string dir = TempDir("crash_first_save");
  const std::string path = dir + "/state.s4tf";
  const std::string bytes =
      internal::EncodeTrainingState(SampleState(3));
  ASSERT_TRUE(
      internal::WriteFileDurable(bytes, internal::TempPathFor(path)).ok());
  // No rename happened: the final path does not exist, and loading it is
  // a clean NotFound-style failure, not a partial parse.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(LoadTrainingState(path).ok());
}

TEST(CheckpointCrashTest, TruncationAtEveryBoundaryIsRejectedCleanly) {
  const std::string dir = TempDir("torn");
  const std::string path = dir + "/state.s4tf";
  const TrainingState state = SampleState(4);
  ASSERT_TRUE(SaveTrainingState(state, path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  const std::string torn = dir + "/torn.s4tf";
  for (std::size_t len = 0; len < bytes.size(); len += 64) {
    WriteFileBytes(torn, bytes.substr(0, len));
    const auto truncated = LoadTrainingState(torn);
    EXPECT_FALSE(truncated.ok()) << "prefix of " << len << " bytes parsed";
    const auto as_checkpoint = LoadCheckpoint(torn);
    EXPECT_FALSE(as_checkpoint.ok()) << "prefix of " << len << " bytes";
  }
}

TEST(CheckpointCrashTest, EveryCorruptedRegionFailsTheCrc) {
  const std::string dir = TempDir("bitflip");
  const std::string path = dir + "/state.s4tf";
  ASSERT_TRUE(SaveTrainingState(SampleState(5), path).ok());
  const std::string bytes = ReadFileBytes(path);

  // Flip one bit in a spread of offsets covering the header, the section
  // framing, tensor payloads, and both CRC footers.
  const std::string corrupt = dir + "/corrupt.s4tf";
  std::vector<std::size_t> offsets = {12,
                                      20,
                                      bytes.size() / 4,
                                      bytes.size() / 2,
                                      bytes.size() - 5,
                                      bytes.size() - 1};
  for (const std::size_t offset : offsets) {
    std::string flipped = bytes;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x10);
    WriteFileBytes(corrupt, flipped);
    EXPECT_FALSE(LoadTrainingState(corrupt).ok())
        << "bit flip at offset " << offset << " went undetected";
  }
}

TEST(CheckpointCrashTest, TrailingGarbageAfterFooterIsRejected) {
  const std::string dir = TempDir("trailing");
  const std::string path = dir + "/state.s4tf";
  ASSERT_TRUE(SaveTrainingState(SampleState(6), path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes += "extra";
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(LoadTrainingState(path).ok());
  EXPECT_FALSE(LoadCheckpoint(path).ok());
}

TEST(CheckpointCrashTest, HugeDeclaredShapeIsRejectedWithoutAllocating) {
  // A forged v2 file whose one tensor section declares 2^60 elements over
  // a 16-byte payload. Both CRC layers are valid, so the parser reaches
  // the tensor decode, which must bound the resize by the bytes actually
  // present and fail.
  std::string payload;
  const std::uint32_t rank = 1;
  const std::int64_t dim = std::int64_t{1} << 60;
  payload.append(reinterpret_cast<const char*>(&rank), 4);
  payload.append(reinterpret_cast<const char*>(&dim), 8);
  payload.append(16, '\0');  // far fewer payload bytes than declared

  std::string section;
  const std::uint16_t kind = 1;  // f32 tensor
  const std::string name = "param/0";
  const std::uint16_t name_len = static_cast<std::uint16_t>(name.size());
  const std::uint64_t payload_len = payload.size();
  section.append(reinterpret_cast<const char*>(&kind), 2);
  section.append(reinterpret_cast<const char*>(&name_len), 2);
  section += name;
  section.append(reinterpret_cast<const char*>(&payload_len), 8);
  section += payload;
  const std::uint32_t section_crc = Crc32(section.data(), section.size());
  section.append(reinterpret_cast<const char*>(&section_crc), 4);

  std::string bytes = "S4TFCKPT";
  const std::uint32_t version = 2, sections = 1;
  bytes.append(reinterpret_cast<const char*>(&version), 4);
  bytes.append(reinterpret_cast<const char*>(&sections), 4);
  bytes += section;
  const std::uint32_t file_crc = Crc32(bytes.data(), bytes.size());
  bytes.append(reinterpret_cast<const char*>(&file_crc), 4);

  const std::string dir = TempDir("huge");
  const std::string path = dir + "/huge.s4tf";
  WriteFileBytes(path, bytes);
  const auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("tensor payload size mismatch"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(CheckpointCrashTest, LegacyV1FilesAreRejected) {
  // A hand-written v1 file (the pre-CRC format nothing writes any more):
  // one 2x2 tensor. Loading fails at the version check with a clean
  // Status instead of parsing unchecksummed bytes.
  std::string bytes;
  bytes += "S4TFCKPT";
  const std::uint32_t version = 1, entries = 1, rank = 2;
  bytes.append(reinterpret_cast<const char*>(&version), 4);
  bytes.append(reinterpret_cast<const char*>(&entries), 4);
  bytes.append(reinterpret_cast<const char*>(&rank), 4);
  const std::int64_t dims[2] = {2, 2};
  bytes.append(reinterpret_cast<const char*>(dims), 16);
  const float values[4] = {1.5f, -2.0f, 0.25f, 8.0f};
  bytes.append(reinterpret_cast<const char*>(values), 16);

  const std::string dir = TempDir("v1");
  const std::string path = dir + "/legacy.s4tf";
  WriteFileBytes(path, bytes);
  for (const Status& status :
       {LoadCheckpoint(path).status(), LoadTrainingState(path).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("unsupported checkpoint version"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(CheckpointCrashTest, UnwritablePathFailsWithStatusNotThrow) {
  const TrainingState state = SampleState(8);
  const Status missing_dir =
      SaveTrainingState(state, "/tmp/s4tf_no_such_dir_xyz/state.s4tf");
  EXPECT_FALSE(missing_dir.ok());

  // A path whose parent is a regular file is equally unwritable.
  const std::string dir = TempDir("unwritable");
  WriteFileBytes(dir + "/blocker", "x");
  const Status under_file =
      SaveTrainingState(state, dir + "/blocker/state.s4tf");
  EXPECT_FALSE(under_file.ok());
}

TEST(CheckpointCrashTest, TrainingStateRoundTripsBitExactly) {
  const std::string dir = TempDir("roundtrip");
  const std::string path = dir + "/state.s4tf";
  const TrainingState state = SampleState(9);
  ASSERT_TRUE(SaveTrainingState(state, path).ok());
  const auto loaded = LoadTrainingState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(StatesBitEqual(*loaded, state));

  // Restoring into fresh objects reproduces the exact training state:
  // both continuations then walk identical trajectories.
  Rng fresh_rng(999);
  LeNet fresh(fresh_rng);
  SGD<LeNet> fresh_sgd(0.1f, 0.9f);
  Rng restored_data_rng(1);
  ASSERT_TRUE(
      RestoreTrainingState(fresh, fresh_sgd, *loaded, &restored_data_rng)
          .ok());
  const TrainingState recaptured = CaptureTrainingState(
      fresh, fresh_sgd, loaded->step, loaded->epoch, &restored_data_rng);
  EXPECT_TRUE(StatesBitEqual(recaptured, state));
}

TEST(CheckpointCrashTest, AdamStateRoundTripsThroughVisitState) {
  Rng rng(21);
  LeNet model(rng);
  Adam<LeNet> adam(1e-3f);
  typename LeNet::TangentVector grads{};
  model.VisitWithTangent(grads, [&](Tensor& p, Tensor& g) {
    g = Tensor::FromVector(p.shape(),
                           std::vector<float>(
                               static_cast<std::size_t>(p.NumElements()),
                               0.5f),
                           p.device());
  });
  adam.Update(model, grads);  // populates step, m, v

  const std::string dir = TempDir("adam");
  const std::string path = dir + "/adam.s4tf";
  const TrainingState state = CaptureTrainingState(model, adam, 1, 0);
  ASSERT_TRUE(SaveTrainingState(state, path).ok());
  const auto loaded = LoadTrainingState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Rng rng2(22);
  LeNet restored_model(rng2);
  Adam<LeNet> restored_adam(1e-3f);
  ASSERT_TRUE(
      RestoreTrainingState(restored_model, restored_adam, *loaded).ok());

  // Continue both optimizers one more step: bias correction (the step
  // scalar) and both moments must have survived the round trip.
  adam.Update(model, grads);
  restored_adam.Update(restored_model, grads);
  std::vector<std::vector<float>> a, b;
  model.VisitParameters([&](const Tensor& p) { a.push_back(p.ToVector()); });
  restored_model.VisitParameters(
      [&](const Tensor& p) { b.push_back(p.ToVector()); });
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace s4tf::nn
