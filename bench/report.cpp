#include "report.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>

#include "support/error.h"
#include "support/json.h"
#include "support/threadpool.h"

namespace s4tf::bench {

namespace {

// Deterministic double rendering: %.17g round-trips every IEEE double
// exactly, so equal doubles serialize to equal text on every platform and
// bench_compare can diff cost-model seconds bit-for-bit.
std::string FormatExact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// FormatExact would write NaN and infinity as `nan` and `inf`, which are
// not JSON: bench_compare would call the artifact unreadable instead of
// diffing it. So a double setter refuses them, naming where the value
// was headed.
double RequireFinite(double value, const char* owner_kind,
                     const std::string& owner, const char* section,
                     const std::string& key) {
  S4TF_CHECK(std::isfinite(value))
      << owner_kind << " \"" << owner << "\": " << section << " \"" << key
      << "\" = " << value
      << " is not finite, and a bench artifact holds only JSON numbers";
  return value;
}

// Wall-clock stats are noise-bounded, not exact: 3 decimals of a
// millisecond is plenty and keeps artifacts readable.
std::string FormatWall(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

std::string Quoted(const std::string& s) {
  return "\"" + json::JsonEscape(s) + "\"";
}

template <typename Map, typename Fn>
void AppendSection(std::string& out, const char* key, const Map& map,
                   Fn&& encode_value, bool& first_section) {
  if (map.empty()) return;
  if (!first_section) out += ",\n";
  first_section = false;
  out += "      ";
  out += Quoted(key);
  out += ": {";
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ", ";
    first = false;
    out += Quoted(name);
    out += ": ";
    out += encode_value(value);
  }
  out += "}";
}

}  // namespace

std::string FormatCount(long long value) {
  char buf[64];
  if (value < 10'000) {
    std::snprintf(buf, sizeof(buf), "%lld", value);
  } else if (value < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(value) / 1e3);
  } else if (value < 10'000'000'000LL) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(value) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fG", static_cast<double>(value) / 1e9);
  }
  return buf;
}

// --- MetricsDelta. ----------------------------------------------------------

MetricsDelta::MetricsDelta()
    : before_(obs::MetricsRegistry::Global().Snapshot()) {}

void MetricsDelta::Capture() {
  after_ = obs::MetricsRegistry::Global().Snapshot();
}

void MetricsDelta::Reset() {
  before_ = obs::MetricsRegistry::Global().Snapshot();
  after_.reset();
}

obs::MetricsSnapshot MetricsDelta::After() const {
  return after_.has_value() ? *after_
                            : obs::MetricsRegistry::Global().Snapshot();
}

std::int64_t MetricsDelta::Counter(const std::string& name) const {
  if (after_.has_value()) {
    return after_->counter(name) - before_.counter(name);
  }
  return obs::MetricsRegistry::Global().Snapshot().counter(name) -
         before_.counter(name);
}

std::map<std::string, std::int64_t> MetricsDelta::AllDeltas() const {
  std::map<std::string, std::int64_t> deltas =
      After().CounterDeltaSince(before_);
  for (auto it = deltas.begin(); it != deltas.end();) {
    const std::string& name = it->first;
    constexpr const char kShards[] = ".shards";
    const bool thread_dependent =
        name.size() >= sizeof(kShards) - 1 &&
        name.compare(name.size() - (sizeof(kShards) - 1),
                     sizeof(kShards) - 1, kShards) == 0;
    it = thread_dependent ? deltas.erase(it) : std::next(it);
  }
  return deltas;
}

std::string MetricsDelta::Summary() const {
  // One snapshot for all four columns: the reads are mutually consistent
  // and the registry is walked once, not four times.
  const obs::MetricsSnapshot after = After();
  auto delta = [&](const char* name) {
    return after.counter(name) - before_.counter(name);
  };
  std::string out =
      "counters: ops=" + FormatCount(delta("tensor.kernel.dispatches")) +
      "  bytes=" + FormatCount(delta("tensor.kernel.bytes")) +
      "  cache=" + FormatCount(delta("xla.cache.hits")) + " hit / " +
      FormatCount(delta("xla.cache.misses")) + " miss";
  return out;
}

// --- BenchRow / BenchReport. ------------------------------------------------

void BenchRow::SetCounters(const MetricsDelta& delta) {
  for (const auto& [name, value] : delta.AllDeltas()) {
    counters_[name] = value;
  }
}

void BenchRow::SetValue(const std::string& name, double value) {
  values_[name] = RequireFinite(value, "bench row", label_, "values", name);
}

void BenchRow::SetWall(const std::string& name, const WallStats& stats) {
  for (const double ms : {stats.mean_ms, stats.min_ms, stats.max_ms}) {
    RequireFinite(ms, "bench row", label_, "wall_ms", name);
  }
  wall_[name] = stats;
}

void BenchRow::SetNoisy(const std::string& name, double value) {
  noisy_[name] = RequireFinite(value, "bench row", label_, "noisy", name);
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::SetConfig(const std::string& key, std::int64_t value) {
  config_[key] = FormatInt(value);
}

void BenchReport::SetConfig(const std::string& key, const std::string& value) {
  config_[key] = Quoted(value);
}

void BenchReport::SetConfig(const std::string& key, bool value) {
  config_[key] = value ? "true" : "false";
}

void BenchReport::SetConfig(const std::string& key, double value) {
  config_[key] =
      FormatExact(RequireFinite(value, "bench", name_, "config", key));
}

BenchRow& BenchReport::AddRow(std::string label) {
  rows_.emplace_back(BenchRow(std::move(label)));
  return rows_.back();
}

std::string BenchReport::GitDescribe() {
#ifdef S4TF_GIT_DESCRIBE
  return S4TF_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::string BenchReport::Serialize(bool deterministic_only) const {
  std::string out = "{\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"bench\": " + Quoted(name_);
  if (!deterministic_only) {
    out += ",\n  \"env\": {\"git\": " + Quoted(GitDescribe()) +
           ", \"threads\": " + FormatInt(IntraOpThreads()) + "}";
  }
  out += ",\n  \"config\": {";
  bool first = true;
  for (const auto& [key, encoded] : config_) {
    if (!first) out += ", ";
    first = false;
    out += Quoted(key) + ": " + encoded;
  }
  out += "},\n  \"rows\": [";
  bool first_row = true;
  for (const BenchRow& row : rows_) {
    out += first_row ? "\n" : ",\n";
    first_row = false;
    out += "    {\n      \"label\": " + Quoted(row.label_);
    bool first_section = false;  // label already emitted
    AppendSection(
        out, "counters", row.counters_,
        [](std::int64_t v) { return FormatInt(v); }, first_section);
    AppendSection(
        out, "values", row.values_,
        [](double v) { return FormatExact(v); }, first_section);
    AppendSection(
        out, "text", row.text_,
        [](const std::string& v) { return Quoted(v); }, first_section);
    if (!deterministic_only) {
      AppendSection(
          out, "wall_ms", row.wall_,
          [](const WallStats& w) {
            return "{\"mean\": " + FormatWall(w.mean_ms) +
                   ", \"min\": " + FormatWall(w.min_ms) +
                   ", \"max\": " + FormatWall(w.max_ms) +
                   ", \"reps\": " + FormatInt(w.reps) + "}";
          },
          first_section);
      AppendSection(
          out, "noisy", row.noisy_,
          [](double v) { return FormatExact(v); }, first_section);
    }
    out += "\n    }";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string BenchReport::ToJson() const { return Serialize(false); }

std::string BenchReport::DeterministicJson() const { return Serialize(true); }

bool BenchReport::WriteTo(const std::string& path) const {
  const std::string payload = ToJson();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "s4tf bench: cannot open %s for writing: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  bool ok = std::fputs(payload.c_str(), out) >= 0;
  ok = (std::fclose(out) == 0) && ok;
  if (!ok) {
    std::fprintf(stderr,
                 "s4tf bench: failed writing %s (disk full?); removing the "
                 "partial artifact\n",
                 path.c_str());
    struct stat st;
    if (stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      std::remove(path.c_str());
    }
    return false;
  }
  return true;
}

bool BenchReport::Write() const {
  const char* dir = std::getenv("S4TF_BENCH_OUT_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0') ? dir : ".";
  if (path.back() != '/') path += '/';
  path += "BENCH_" + name_ + ".json";
  const bool ok = WriteTo(path);
  if (ok) std::fprintf(stderr, "bench artifact: %s\n", path.c_str());
  return ok;
}

}  // namespace s4tf::bench
