// Shared plumbing for the wall-clock benchmark: run configuration, the
// statistics every metric is reported with, the span recorder used by
// traced runs, counter windows over the obs registry, and the metric
// report that becomes the final JSON line.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

// --- Statistics (checked on fixed inputs by selfcheck.cpp). -------------

// statistics.median: the mean of the two middle values for even sizes.
double Median(std::vector<double> values);

// Nearest-rank percentile of `values` (unsorted); p in basis points
// (9900 = p99).
double PercentileBp(std::vector<double> values, int p_bp);

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::int64_t SamplesBeyond(std::int64_t n, int p_bp);

// The tail percentile a timing is reported at: the highest of p50, p90,
// p99, p99.9, p99.99 that leaves at least ten samples beyond it (p50 when
// even that does not hold). In basis points.
int TailPercentileBp(std::int64_t n);

std::string PercentileLabel(int p_bp);  // 9900 -> "p99", 9990 -> "p99.9"

// --- Windowed statistics. -----------------------------------------------
//
// On a shared host other tenants take CPU time in bursts of seconds, and a
// multi-threaded step waits for its slowest thread. So a time metric
// is computed per consecutive window of the timed loop and reported at the
// better quartile across windows; a burst that covers fewer than three
// quarters of the windows does not move it.

// `values` (in time order) cut into `windows` consecutive runs of nearly
// equal count (fewer when there are fewer values).
std::vector<std::vector<double>> SplitWindows(const std::vector<double>& values,
                                              int windows);

// Nearest-rank 25th percentile of `per_window` when lower is better, 75th
// when higher is better.
double BestQuartile(std::vector<double> per_window, bool higher_is_better);

// Items per second of a window of per-item durations (seconds).
double WindowRate(const std::vector<double>& durations,
                  double units_per_item);

// --- Seeded input digests (seed plumbing self-check). -------------------

// FNV-1a over raw bytes, chainable.
std::uint64_t Fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 1469598103934665603ull);

// --- Host validity probes. ----------------------------------------------

// Peak resident set of this process (getrusage), in MB.
double PeakRssMb();

// Cumulative CPU jiffies from /proc/stat: {total, steal}. Zeros when the
// file is unreadable.
std::array<std::uint64_t, 2> CpuStealJiffies();
double StealShare(const std::array<std::uint64_t, 2>& before,
                  const std::array<std::uint64_t, 2>& after);

// --- Span recorder. -----------------------------------------------------
//
// One recorder per thread; spans stay in memory and are written out when
// the run ends. A span's parent is the span open on the same recorder when
// it began; spans of one step or request share `id` across threads.
struct Span {
  int name = 0;
  int parent = -1;
  std::int64_t id = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder(Clock::time_point origin, std::string thread_name);

  int Begin(const char* name, std::int64_t id);
  void End(int span);
  // Records an already-finished span (cross-thread intervals).
  void Add(const char* name, std::int64_t id, Clock::time_point start,
           Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  const std::string& thread_name() const { return thread_name_; }

  // Span count, total duration and total self time (duration minus the
  // part covered by direct children) of every span named `name`, seconds.
  struct NameTotals {
    std::int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  NameTotals Totals(const std::string& name) const;

 private:
  int Intern(const char* name);
  std::int64_t Ns(Clock::time_point t) const;

  Clock::time_point origin_;
  std::string thread_name_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Scoped span on an optional recorder (null = untraced, no cost).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::int64_t id)
      : recorder_(recorder),
        span_(recorder != nullptr ? recorder->Begin(name, id) : -1) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Close() {
    if (recorder_ != nullptr && span_ >= 0) recorder_->End(span_);
    span_ = -1;
  }

 private:
  SpanRecorder* recorder_;
  int span_;
};

// Writes every recorder's spans plus the run summary as JSON to `path`.
// Returns false on I/O failure (reported, never fatal: spans are a
// by-product of the run).
bool WriteSpans(const std::string& path,
                const std::vector<std::unique_ptr<SpanRecorder>>& recorders,
                const std::string& summary_json);

// --- Counter windows over the obs registry. -----------------------------

class CounterWindow {
 public:
  CounterWindow();
  void Close();
  std::int64_t Delta(const std::string& name) const;

 private:
  s4tf::obs::MetricsSnapshot before_;
  s4tf::obs::MetricsSnapshot after_;
};

// Count and total microseconds of a registry histogram.
struct HistogramReading {
  std::int64_t count = 0;
  std::int64_t total_us = 0;
};
HistogramReading ReadHistogram(const std::string& name);

// --- Metric report. -----------------------------------------------------

class Report {
 public:
  // A metric of the final JSON line (also printed in the text block).
  void Add(const std::string& name, double value, const std::string& unit);
  // A text-only figure: metrics that do not apply to every workload,
  // validity figures, calibration.
  void Note(const std::string& name, double value, const std::string& unit);
  void NoteText(const std::string& line);

  void PrintText() const;
  std::string Json(bool correct, std::int64_t attempted,
                   std::int64_t failed) const;
  // Every metric and note as one JSON object (the run summary file).
  std::string SummaryJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool json;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> text_;
};

// "v0 v1 ..." with each value multiplied by `scale`, four significant digits.
std::string JoinScaled(const std::vector<double>& values, double scale);

// --- Workloads. ---------------------------------------------------------

struct RunOutcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Conditions that fail the run even when every output matched:
  // steady-state compile-cache misses, collective retries in a clean run.
  std::vector<std::string> gate_failures;
  Report report;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
};

RunOutcome RunLenetEager(const RunConfig& config);
RunOutcome RunResnetLazy(const RunConfig& config);
RunOutcome RunDpLenetRing4(const RunConfig& config);
RunOutcome RunServeMlp(const RunConfig& config);

// Digest of every generated input a workload receives for `seed` (initial
// weights, batches, request samples, arrival schedule).
std::uint64_t TrainingInputDigest(const std::string& workload,
                                  std::uint64_t seed);
std::uint64_t ServeInputDigest(std::uint64_t seed, double seconds);

// Self-checks of the benchmark's own logic; returns failure descriptions.
std::vector<std::string> RunSelfChecks(const RunConfig& config);

}  // namespace perfbench
