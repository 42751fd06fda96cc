#include "nn/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/crc32.h"

namespace s4tf::nn {
namespace {

struct CheckpointMetrics {
  obs::Counter* saves;
  obs::Counter* loads;
  obs::Counter* bytes_written;
  obs::Counter* bytes_read;
  obs::Counter* crc_failures;

  static CheckpointMetrics& Get() {
    static CheckpointMetrics metrics = {
        obs::GetCounter("nn.checkpoint.saves"),
        obs::GetCounter("nn.checkpoint.loads"),
        obs::GetCounter("nn.checkpoint.bytes_written"),
        obs::GetCounter("nn.checkpoint.bytes_read"),
        obs::GetCounter("nn.checkpoint.crc_failures"),
    };
    return metrics;
  }
};

constexpr char kMagic[8] = {'S', '4', 'T', 'F', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kVersion2 = 2;

// Section kinds of the v2 container.
constexpr std::uint16_t kKindTensor = 1;    // rank u32 | dims i64[] | f32[]
constexpr std::uint16_t kKindU64Array = 2;  // count u64 | words u64[]
constexpr std::uint16_t kKindScalarI64 = 3; // value i64

constexpr std::uint32_t kMaxRank = 16;

// --- Encoding helpers (append to an in-memory buffer; the whole file is
// built in memory so CRCs and the atomic write are straightforward).

template <typename T>
void AppendPod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void BeginSection(std::string& out, std::uint16_t kind,
                  const std::string& name, std::uint64_t payload_len) {
  AppendPod(out, kind);
  S4TF_CHECK_LE(name.size(), std::numeric_limits<std::uint16_t>::max());
  AppendPod(out, static_cast<std::uint16_t>(name.size()));
  out.append(name);
  AppendPod(out, payload_len);
}

// Appends one complete section (header + payload + section CRC). The CRC
// covers the section from its first header byte through the payload.
void AppendSection(std::string& out, std::uint16_t kind,
                   const std::string& name, const std::string& payload) {
  const std::size_t start = out.size();
  BeginSection(out, kind, name, payload.size());
  out.append(payload);
  const std::uint32_t crc = Crc32(out.data() + start, out.size() - start);
  AppendPod(out, crc);
}

void AppendTensorSection(std::string& out, const std::string& name,
                         const Shape& shape,
                         const std::vector<float>& values) {
  std::string payload;
  AppendPod(payload, static_cast<std::uint32_t>(shape.rank()));
  for (std::int64_t d : shape.dims()) AppendPod(payload, d);
  payload.append(reinterpret_cast<const char*>(values.data()),
                 values.size() * sizeof(float));
  AppendSection(out, kKindTensor, name, payload);
}

void AppendScalarSection(std::string& out, const std::string& name,
                         std::int64_t value) {
  std::string payload;
  AppendPod(payload, value);
  AppendSection(out, kKindScalarI64, name, payload);
}

void AppendU64ArraySection(std::string& out, const std::string& name,
                           const std::vector<std::uint64_t>& words) {
  std::string payload;
  AppendPod(payload, static_cast<std::uint64_t>(words.size()));
  for (std::uint64_t w : words) AppendPod(payload, w);
  AppendSection(out, kKindU64Array, name, payload);
}

// --- Decoding: a bounds-checked cursor over the whole file in memory.
// Every read is validated against the real file size before any
// allocation, so corrupt or adversarial headers cannot drive huge
// resizes.

class BufferReader {
 public:
  BufferReader(const char* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  const char* cursor() const { return data_ + pos_; }

  template <typename T>
  bool ReadPod(T& value) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadBytes(void* out, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool Skip(std::size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Element count of `dims` iff every partial product stays within
// `max_elements` (which callers derive from the bytes actually present in
// the file); -1 on overflow/excess.
std::int64_t BoundedNumElements(const std::vector<std::int64_t>& dims,
                                std::int64_t max_elements) {
  std::int64_t n = 1;
  for (std::int64_t d : dims) {
    if (d < 0) return -1;
    if (d != 0 && n > max_elements / d) return -1;
    n *= d;
  }
  return n <= max_elements ? n : -1;
}

Status CrcFailure(const std::string& what, const std::string& path) {
  CheckpointMetrics::Get().crc_failures->Increment();
  return Status::InvalidArgument(what + " in " + path);
}

// Parsed v2 section (payload still raw bytes).
struct RawSection {
  std::uint16_t kind = 0;
  std::string name;
  const char* payload = nullptr;
  std::uint64_t payload_len = 0;
};

// Validates framing + both CRC layers and returns the section list.
StatusOr<std::vector<RawSection>> ParseV2Sections(const std::string& bytes,
                                                  const std::string& path) {
  // Footer first: the whole-file CRC covers everything before it.
  constexpr std::size_t kHeader = sizeof(kMagic) + 2 * sizeof(std::uint32_t);
  if (bytes.size() < kHeader + sizeof(std::uint32_t)) {
    return Status::InvalidArgument("truncated checkpoint: " + path);
  }
  std::uint32_t file_crc = 0;
  std::memcpy(&file_crc, bytes.data() + bytes.size() - sizeof(file_crc),
              sizeof(file_crc));
  if (Crc32(bytes.data(), bytes.size() - sizeof(file_crc)) != file_crc) {
    return CrcFailure("checkpoint file CRC mismatch", path);
  }

  BufferReader reader(bytes.data(), bytes.size() - sizeof(std::uint32_t));
  reader.Skip(sizeof(kMagic) + sizeof(std::uint32_t));  // magic + version
  std::uint32_t num_sections = 0;
  reader.ReadPod(num_sections);
  std::vector<RawSection> sections;
  // Every section occupies >= 8 bytes; bound the reserve by reality.
  sections.reserve(std::min<std::size_t>(num_sections,
                                         reader.remaining() / 8 + 1));
  for (std::uint32_t i = 0; i < num_sections; ++i) {
    const std::size_t section_start = reader.pos();
    RawSection section;
    std::uint16_t name_len = 0;
    if (!reader.ReadPod(section.kind) || !reader.ReadPod(name_len)) {
      return Status::InvalidArgument("truncated section header in " + path);
    }
    section.name.resize(name_len);
    if (!reader.ReadBytes(section.name.data(), name_len) ||
        !reader.ReadPod(section.payload_len)) {
      return Status::InvalidArgument("truncated section header in " + path);
    }
    if (section.payload_len > reader.remaining() ||
        reader.remaining() - static_cast<std::size_t>(section.payload_len) <
            sizeof(std::uint32_t)) {
      return Status::InvalidArgument("truncated section payload in " + path);
    }
    section.payload = reader.cursor();
    reader.Skip(static_cast<std::size_t>(section.payload_len));
    const std::uint32_t crc =
        Crc32(bytes.data() + section_start, reader.pos() - section_start);
    std::uint32_t stored_crc = 0;
    reader.ReadPod(stored_crc);
    if (crc != stored_crc) {
      return CrcFailure("section '" + section.name + "' CRC mismatch", path);
    }
    sections.push_back(std::move(section));
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(
        "trailing garbage after last section in " + path);
  }
  return sections;
}

StatusOr<Checkpoint::Entry> DecodeTensorPayload(const RawSection& section,
                                                const std::string& path) {
  BufferReader reader(section.payload,
                      static_cast<std::size_t>(section.payload_len));
  std::uint32_t rank = 0;
  if (!reader.ReadPod(rank) || rank > kMaxRank) {
    return Status::InvalidArgument("corrupt entry rank in " + path);
  }
  std::vector<std::int64_t> dims(rank);
  for (auto& d : dims) {
    if (!reader.ReadPod(d) || d < 0) {
      return Status::InvalidArgument("corrupt entry dims in " + path);
    }
  }
  const std::int64_t n = BoundedNumElements(
      dims, static_cast<std::int64_t>(reader.remaining() / sizeof(float)));
  if (n < 0 ||
      static_cast<std::uint64_t>(n) * sizeof(float) != reader.remaining()) {
    return Status::InvalidArgument("tensor payload size mismatch in " + path);
  }
  Checkpoint::Entry entry;
  entry.shape = Shape(std::move(dims));
  entry.values.resize(static_cast<std::size_t>(n));
  reader.ReadBytes(entry.values.data(),
                   entry.values.size() * sizeof(float));
  return entry;
}

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open: " + path);
  const std::streamsize size = in.tellg();
  if (size < 0) return Status::Internal("cannot stat: " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (size > 0) in.read(bytes.data(), size);
  if (!in) return Status::Internal("short read from " + path);
  return bytes;
}

// Validates the magic and the format version (v2 is the only one).
Status CheckHeader(const std::string& bytes, const std::string& path) {
  if (bytes.size() < sizeof(kMagic) + sizeof(std::uint32_t) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an s4tf checkpoint: " + path);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version != kVersion2) {
    return Status::InvalidArgument("unsupported checkpoint version in " +
                                   path);
  }
  return Status::Ok();
}

constexpr const char* kParamPrefix = "param/";
constexpr const char* kOptPrefix = "opt/";

// Extracts the ordered "param/<i>" tensor entries of a v2 section list.
Status CollectParams(const std::vector<RawSection>& sections,
                     const std::string& path, Checkpoint* out) {
  std::size_t next_index = 0;
  for (const RawSection& section : sections) {
    if (section.name.rfind(kParamPrefix, 0) != 0) continue;
    if (section.kind != kKindTensor ||
        section.name != kParamPrefix + std::to_string(next_index)) {
      return Status::InvalidArgument("malformed parameter sections in " +
                                     path);
    }
    auto entry = DecodeTensorPayload(section, path);
    if (!entry.ok()) return entry.status();
    out->entries.push_back(std::move(entry).value());
    ++next_index;
  }
  return Status::Ok();
}

}  // namespace

std::int64_t Checkpoint::TotalElements() const {
  std::int64_t total = 0;
  for (const Entry& entry : entries) {
    total += static_cast<std::int64_t>(entry.values.size());
  }
  return total;
}

namespace internal {

std::string EncodeCheckpoint(const Checkpoint& checkpoint) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendPod(out, kVersion2);
  AppendPod(out, static_cast<std::uint32_t>(checkpoint.entries.size()));
  for (std::size_t i = 0; i < checkpoint.entries.size(); ++i) {
    AppendTensorSection(out, kParamPrefix + std::to_string(i),
                        checkpoint.entries[i].shape,
                        checkpoint.entries[i].values);
  }
  const std::uint32_t file_crc = Crc32(out.data(), out.size());
  AppendPod(out, file_crc);
  return out;
}

std::string EncodeTrainingState(const TrainingState& state) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  const std::uint32_t num_sections =
      2 + (state.rng_state.empty() ? 0 : 1) +
      static_cast<std::uint32_t>(state.model.entries.size()) +
      static_cast<std::uint32_t>(state.optimizer.tensors.size()) +
      static_cast<std::uint32_t>(state.optimizer.scalars.size());
  AppendPod(out, kVersion2);
  AppendPod(out, num_sections);
  AppendScalarSection(out, "meta/step", state.step);
  AppendScalarSection(out, "meta/epoch", state.epoch);
  if (!state.rng_state.empty()) {
    AppendU64ArraySection(out, "rng/state", state.rng_state);
  }
  for (std::size_t i = 0; i < state.model.entries.size(); ++i) {
    AppendTensorSection(out, kParamPrefix + std::to_string(i),
                        state.model.entries[i].shape,
                        state.model.entries[i].values);
  }
  for (const auto& slot : state.optimizer.tensors) {
    AppendTensorSection(out, kOptPrefix + slot.name, slot.shape,
                        slot.values);
  }
  for (const auto& [name, value] : state.optimizer.scalars) {
    AppendScalarSection(out, kOptPrefix + name, value);
  }
  const std::uint32_t file_crc = Crc32(out.data(), out.size());
  AppendPod(out, file_crc);
  return out;
}

std::string TempPathFor(const std::string& path) { return path + ".tmp"; }

Status WriteFileDurable(const std::string& bytes, const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::NotFound("cannot open for writing: " + path + " (" +
                            std::strerror(errno) + ")");
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Internal("short write to " + path + " (" + err + ")");
    }
    written += static_cast<std::size_t>(n);
  }
  // Flush to stable storage before the caller may rename this file over a
  // good checkpoint; a crash after rename must find complete contents.
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("fsync failed for " + path + " (" + err + ")");
  }
  // close() can surface buffered-write failures (e.g. disk full on NFS);
  // returning Ok after a failed close would report durability we do not
  // have.
  if (::close(fd) != 0) {
    return Status::Internal("close failed for " + path + " (" +
                            std::strerror(errno) + ")");
  }
  return Status::Ok();
}

Status CommitCheckpointFile(const std::string& temp_path,
                            const std::string& final_path) {
  if (std::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    return Status::Internal("rename " + temp_path + " -> " + final_path +
                            " failed (" + std::strerror(errno) + ")");
  }
  // Make the rename itself durable by syncing the parent directory.
  const std::size_t slash = final_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : final_path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // best effort: some filesystems reject dir fsync
    ::close(dir_fd);
  }
  return Status::Ok();
}

}  // namespace internal

namespace {

Status SaveBytesAtomically(const std::string& bytes,
                           const std::string& path) {
  const std::string temp = internal::TempPathFor(path);
  S4TF_RETURN_IF_ERROR(internal::WriteFileDurable(bytes, temp));
  return internal::CommitCheckpointFile(temp, path);
}

}  // namespace

Status SaveCheckpoint(const Checkpoint& checkpoint, const std::string& path) {
  obs::TraceSpan span("nn.checkpoint.save", "checkpoint", "elements",
                      checkpoint.TotalElements());
  const std::string bytes = internal::EncodeCheckpoint(checkpoint);
  S4TF_RETURN_IF_ERROR(SaveBytesAtomically(bytes, path));
  CheckpointMetrics& metrics = CheckpointMetrics::Get();
  metrics.saves->Increment();
  metrics.bytes_written->Add(static_cast<std::int64_t>(bytes.size()));
  return Status::Ok();
}

Status SaveTrainingState(const TrainingState& state,
                         const std::string& path) {
  obs::TraceSpan span("nn.checkpoint.save_state", "checkpoint", "step",
                      state.step);
  const std::string bytes = internal::EncodeTrainingState(state);
  S4TF_RETURN_IF_ERROR(SaveBytesAtomically(bytes, path));
  CheckpointMetrics& metrics = CheckpointMetrics::Get();
  metrics.saves->Increment();
  metrics.bytes_written->Add(static_cast<std::int64_t>(bytes.size()));
  return Status::Ok();
}

StatusOr<Checkpoint> LoadCheckpoint(const std::string& path) {
  obs::TraceSpan span("nn.checkpoint.load", "checkpoint");
  auto bytes = ReadWholeFile(path);
  if (!bytes.ok()) return bytes.status();
  S4TF_RETURN_IF_ERROR(CheckHeader(*bytes, path));
  auto sections = ParseV2Sections(*bytes, path);
  if (!sections.ok()) return sections.status();
  Checkpoint checkpoint;
  S4TF_RETURN_IF_ERROR(CollectParams(*sections, path, &checkpoint));
  CheckpointMetrics& metrics = CheckpointMetrics::Get();
  metrics.loads->Increment();
  metrics.bytes_read->Add(static_cast<std::int64_t>(bytes->size()));
  return checkpoint;
}

StatusOr<TrainingState> LoadTrainingState(const std::string& path) {
  obs::TraceSpan span("nn.checkpoint.load_state", "checkpoint");
  auto bytes = ReadWholeFile(path);
  if (!bytes.ok()) return bytes.status();
  S4TF_RETURN_IF_ERROR(CheckHeader(*bytes, path));
  auto sections = ParseV2Sections(*bytes, path);
  if (!sections.ok()) return sections.status();

  TrainingState state;
  bool saw_step = false;
  bool saw_epoch = false;
  S4TF_RETURN_IF_ERROR(CollectParams(*sections, path, &state.model));
  for (const RawSection& section : *sections) {
    BufferReader reader(section.payload,
                        static_cast<std::size_t>(section.payload_len));
    if (section.name == "meta/step" && section.kind == kKindScalarI64) {
      if (!reader.ReadPod(state.step)) {
        return Status::InvalidArgument("malformed meta/step in " + path);
      }
      saw_step = true;
    } else if (section.name == "meta/epoch" &&
               section.kind == kKindScalarI64) {
      if (!reader.ReadPod(state.epoch)) {
        return Status::InvalidArgument("malformed meta/epoch in " + path);
      }
      saw_epoch = true;
    } else if (section.name == "rng/state" &&
               section.kind == kKindU64Array) {
      std::uint64_t count = 0;
      if (!reader.ReadPod(count) ||
          count > reader.remaining() / sizeof(std::uint64_t) ||
          count * sizeof(std::uint64_t) != reader.remaining()) {
        return Status::InvalidArgument("malformed rng/state in " + path);
      }
      state.rng_state.resize(static_cast<std::size_t>(count));
      reader.ReadBytes(state.rng_state.data(),
                       state.rng_state.size() * sizeof(std::uint64_t));
    } else if (section.name.rfind(kOptPrefix, 0) == 0) {
      const std::string name = section.name.substr(std::strlen(kOptPrefix));
      if (section.kind == kKindTensor) {
        auto entry = DecodeTensorPayload(section, path);
        if (!entry.ok()) return entry.status();
        state.optimizer.tensors.push_back(
            {name, std::move(entry->shape), std::move(entry->values)});
      } else if (section.kind == kKindScalarI64) {
        std::int64_t value = 0;
        if (!reader.ReadPod(value)) {
          return Status::InvalidArgument("malformed optimizer scalar in " +
                                         path);
        }
        state.optimizer.scalars.emplace_back(name, value);
      } else {
        return Status::InvalidArgument("unknown optimizer section kind in " +
                                       path);
      }
    }
    // Unknown non-param sections are skipped: newer writers may add
    // sections old readers safely ignore (CRCs still validated above).
  }
  if (!saw_step || !saw_epoch) {
    return Status::InvalidArgument(
        "not a training-state checkpoint (missing meta sections): " + path);
  }
  CheckpointMetrics& metrics = CheckpointMetrics::Get();
  metrics.loads->Increment();
  metrics.bytes_read->Add(static_cast<std::int64_t>(bytes->size()));
  return state;
}

}  // namespace s4tf::nn
