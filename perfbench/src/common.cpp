#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/error.h"

namespace perfbench {

double Median(std::vector<double> values) {
  S4TF_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

namespace {

// Nearest rank (1-based) of the p-th percentile of n samples, in integer
// arithmetic so p99 of 1000 samples is exactly rank 990.
std::int64_t NearestRank(std::int64_t n, int p_bp) {
  const std::int64_t rank = (static_cast<std::int64_t>(p_bp) * n + 9999) / 10000;
  return std::clamp<std::int64_t>(rank, 1, n);
}

constexpr int kTailLadderBp[] = {5000, 9000, 9900, 9990, 9999};

}  // namespace

double PercentileBp(std::vector<double> values, int p_bp) {
  S4TF_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::int64_t n = static_cast<std::int64_t>(values.size());
  return values[static_cast<std::size_t>(NearestRank(n, p_bp) - 1)];
}

std::int64_t SamplesBeyond(std::int64_t n, int p_bp) {
  if (n <= 0) return 0;
  return n - NearestRank(n, p_bp);
}

int TailPercentileBp(std::int64_t n) {
  int best = kTailLadderBp[0];
  for (int p : kTailLadderBp) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

std::string PercentileLabel(int p_bp) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "p%g", p_bp / 100.0);
  return buffer;
}

std::vector<std::vector<double>> SplitWindows(const std::vector<double>& values,
                                              int windows) {
  S4TF_CHECK(!values.empty());
  const std::size_t n = values.size();
  const std::size_t w =
      std::clamp<std::size_t>(static_cast<std::size_t>(std::max(1, windows)), 1, n);
  std::vector<std::vector<double>> result;
  for (std::size_t k = 0; k < w; ++k) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(k * n / w);
    const auto end =
        values.begin() + static_cast<std::ptrdiff_t>((k + 1) * n / w);
    result.emplace_back(begin, end);
  }
  return result;
}

double BestQuartile(std::vector<double> per_window, bool higher_is_better) {
  if (higher_is_better) {
    for (double& v : per_window) v = -v;
    return -PercentileBp(std::move(per_window), 2500);
  }
  return PercentileBp(std::move(per_window), 2500);
}

double WindowRate(const std::vector<double>& durations,
                  double units_per_item) {
  double seconds = 0.0;
  for (double d : durations) seconds += d;
  return static_cast<double>(durations.size()) * units_per_item / seconds;
}

std::uint64_t Fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

std::array<std::uint64_t, 2> CpuStealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return {0, 0};
  // user nice system idle iowait irq softirq steal
  std::uint64_t fields[8] = {};
  for (std::uint64_t& f : fields) {
    if (!(stat >> f)) return {0, 0};
  }
  std::uint64_t total = 0;
  for (std::uint64_t f : fields) total += f;
  return {total, fields[7]};
}

double StealShare(const std::array<std::uint64_t, 2>& before,
                  const std::array<std::uint64_t, 2>& after) {
  if (after[0] <= before[0]) return 0.0;
  return static_cast<double>(after[1] - before[1]) /
         static_cast<double>(after[0] - before[0]);
}

// --- SpanRecorder. ------------------------------------------------------

SpanRecorder::SpanRecorder(Clock::time_point origin, std::string thread_name)
    : origin_(origin), thread_name_(std::move(thread_name)) {
  spans_.reserve(1 << 14);
}

int SpanRecorder::Intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.emplace_back(name);
  return static_cast<int>(names_.size() - 1);
}

std::int64_t SpanRecorder::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int SpanRecorder::Begin(const char* name, std::int64_t id) {
  Span span;
  span.name = Intern(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  span.start_ns = Ns(Clock::now());
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int span) {
  S4TF_CHECK(!open_.empty() && open_.back() == span)
      << "spans must close in LIFO order";
  open_.pop_back();
  spans_[static_cast<std::size_t>(span)].end_ns = Ns(Clock::now());
}

void SpanRecorder::Add(const char* name, std::int64_t id,
                       Clock::time_point start, Clock::time_point end) {
  Span span;
  span.name = Intern(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  span.start_ns = Ns(start);
  span.end_ns = Ns(end);
  spans_.push_back(span);
}

SpanRecorder::NameTotals SpanRecorder::Totals(const std::string& name) const {
  NameTotals totals;
  int target = -1;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) target = static_cast<int>(i);
  }
  if (target < 0) return totals;
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != target) continue;
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++totals.count;
    totals.total_s += static_cast<double>(dur) * 1e-9;
    totals.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  return totals;
}

bool WriteSpans(const std::string& path,
                const std::vector<std::unique_ptr<SpanRecorder>>& recorders,
                const std::string& summary_json) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return false;
  }
  out << "{\"summary\": " << summary_json << ",\n\"threads\": [";
  for (std::size_t r = 0; r < recorders.size(); ++r) {
    const SpanRecorder& rec = *recorders[r];
    out << (r == 0 ? "\n" : ",\n") << "{\"thread\": \"" << rec.thread_name()
        << "\", \"names\": [";
    for (std::size_t i = 0; i < rec.names().size(); ++i) {
      out << (i == 0 ? "" : ", ") << '"' << rec.names()[i] << '"';
    }
    out << "],\n \"spans\": [";
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
      const Span& s = rec.spans()[i];
      // [name, parent, id, start_ns, end_ns]
      out << (i == 0 ? "" : ",") << (i % 8 == 0 ? "\n  " : "") << '['
          << s.name << ',' << s.parent << ',' << s.id << ',' << s.start_ns
          << ',' << s.end_ns << ']';
    }
    out << "]}";
  }
  out << "\n]}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "perfbench: write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

// --- CounterWindow. -----------------------------------------------------

CounterWindow::CounterWindow()
    : before_(s4tf::obs::MetricsRegistry::Global().Snapshot()) {}

void CounterWindow::Close() {
  after_ = s4tf::obs::MetricsRegistry::Global().Snapshot();
}

std::int64_t CounterWindow::Delta(const std::string& name) const {
  return after_.counter(name) - before_.counter(name);
}

HistogramReading ReadHistogram(const std::string& name) {
  const s4tf::obs::Histogram* h = s4tf::obs::GetHistogram(name);
  return {h->count(), h->total_micros()};
}

// --- Report. ------------------------------------------------------------

namespace {

std::string FormatNumber(double value) {
  S4TF_CHECK(std::isfinite(value)) << "non-finite metric value";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string JoinScaled(const std::vector<double>& values, double scale) {
  std::string text;
  char buffer[32];
  for (double v : values) {
    std::snprintf(buffer, sizeof(buffer), "%s%.4g", text.empty() ? "" : " ",
                  v * scale);
    text += buffer;
  }
  return text;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit, true});
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit, false});
}

void Report::NoteText(const std::string& line) { text_.push_back(line); }

void Report::PrintText() const {
  for (const Entry& e : entries_) {
    std::printf("  %-34s %14.6g %-10s%s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.json ? "" : "  (text only)");
  }
  for (const std::string& line : text_) std::printf("  %s\n", line.c_str());
}

std::string Report::Json(bool correct, std::int64_t attempted,
                         std::int64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.json) continue;
    out << (first ? "" : ", ") << '"' << e.name << "\": {\"value\": "
        << FormatNumber(e.value) << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string Report::SummaryJson() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const Entry& e : entries_) {
    out << (first ? "" : ", ") << '"' << e.name << "\": {\"value\": "
        << FormatNumber(e.value) << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench
