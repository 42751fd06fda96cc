// The bench-reporting library: every table/figure harness keeps its text
// table but also records its results into a BenchReport that is written as
// a machine-readable artifact `BENCH_<name>.json` (schema below). The
// committed artifacts at the repo root are the perf trajectory the
// re-anchor loop and CI's bench_compare job diff against.
//
// Schema (schema_version 1):
//
//   {
//     "schema_version": 1,
//     "bench": "<name>",
//     "env":    { "git": "<git describe>", "threads": N },   // provenance
//     "config": { <workload axes: bucket_bytes, batch, ...> },
//     "rows": [
//       { "label": "<row label>",
//         "counters": { "<metric>": <int64 delta>, ... },    // deterministic
//         "values":   { "<metric>": <double>, ... },         // deterministic
//         "text":     { "<key>": "<value>", ... },           // deterministic
//         "wall_ms":  { "<metric>": {"mean":,"min":,"max":,"reps":} },
//         "noisy":    { "<metric>": <double>, ... } }        // machine-dep.
//     ]
//   }
//
// Determinism contract: "config", "counters", "values", and "text" must be
// bit-identical across machines, reruns, and S4TF_NUM_THREADS settings —
// they hold counter deltas and cost-model arithmetic only, never wall
// clock. bench_compare fails CI on any exact diff in those sections and
// only *warns* on "wall_ms"/"noisy" drift beyond the stated noise bound.
// "env" is provenance and never compared.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace s4tf::bench {

// --- Text-table printing (kept for the human-readable output). -------------

// Fixed-width table printer so every harness emits rows shaped like the
// paper's tables. Rows with more cells than configured widths print the
// overflow cells unpadded instead of reading widths_ out of bounds.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::vector<int> widths)
      : headers_(std::move(headers)), widths_(std::move(widths)) {
    assert(headers_.size() == widths_.size());
  }

  void PrintHeader() const {
    PrintRule();
    PrintCells(headers_);
    PrintRule();
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    PrintCells(cells);
  }

  void PrintRule() const {
    for (int w : widths_) {
      std::printf("+");
      for (int i = 0; i < w + 2; ++i) std::printf("-");
    }
    std::printf("+\n");
  }

 private:
  void PrintCells(const std::vector<std::string>& cells) const {
    // Clamp the padded loop to the widths we actually have; any overflow
    // cells still print (unpadded) rather than indexing out of bounds.
    const std::size_t padded = std::min(cells.size(), widths_.size());
    for (std::size_t i = 0; i < padded; ++i) {
      std::printf("| %-*s ", widths_[i], cells[i].c_str());
    }
    for (std::size_t i = padded; i < cells.size(); ++i) {
      std::printf("| %s ", cells[i].c_str());
    }
    std::printf("|\n");
  }

  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

// --- Formatting helpers. ----------------------------------------------------

inline std::string FormatF(double value, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

inline std::string FormatInt(long long value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld", value);
  return buf;
}

// "1.2M"-style rendering so counter columns stay narrow. Exact below 10K.
std::string FormatCount(long long value);

// --- Wall-clock measurement. ------------------------------------------------

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Milliseconds() const { return Seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Wall-clock statistics over >= 1 repetitions of a measured region. Wall
// values are machine- and load-dependent: they go into the artifact's
// "wall_ms" section, which bench_compare only warns about.
struct WallStats {
  double mean_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  int reps = 0;

  void AddSample(double ms) {
    if (reps == 0) {
      mean_ms = min_ms = max_ms = ms;
    } else {
      mean_ms = (mean_ms * reps + ms) / (reps + 1);
      min_ms = std::min(min_ms, ms);
      max_ms = std::max(max_ms, ms);
    }
    ++reps;
  }
};

// Runs `fn` `reps` times and collects per-repetition wall-clock stats.
template <typename Fn>
WallStats MeasureWall(int reps, Fn&& fn) {
  WallStats stats;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    fn();
    stats.AddSample(timer.Milliseconds());
  }
  return stats;
}

// --- Counter windows. -------------------------------------------------------

// Counter columns for the table harnesses: take a snapshot before the
// measured region and read the deltas after. Unlike wall-clock columns,
// these are deterministic — identical on any machine and thread count —
// so regressions show up as an exact diff, not a noisy percentage (see
// EXPERIMENTS.md, "Counter columns").
//
// Reading a counter takes ONE registry snapshot (mutex + O(n) map build).
// Call Capture() right after the measured region to freeze the "after"
// snapshot: every subsequent Counter()/Summary()/AllDeltas() read then
// reuses that single capture instead of re-walking the registry — which
// both avoids skewing dispatch-heavy windows and makes multi-counter
// read-outs mutually consistent.
class MetricsDelta {
 public:
  MetricsDelta();

  // Freezes the measurement window: reads taken after Capture() reflect
  // the registry exactly as it was at the Capture() call.
  void Capture();

  // Cumulative delta of `name` since construction/Reset. Uses the frozen
  // Capture() snapshot when one exists; otherwise takes one fresh
  // snapshot for this read.
  std::int64_t Counter(const std::string& name) const;

  std::int64_t KernelDispatches() const {
    return Counter("tensor.kernel.dispatches");
  }
  std::int64_t KernelBytes() const { return Counter("tensor.kernel.bytes"); }
  std::int64_t CacheHits() const { return Counter("xla.cache.hits"); }
  std::int64_t CacheMisses() const { return Counter("xla.cache.misses"); }

  // Every non-zero counter delta in the window, keyed by name. Skips
  // ".shards"-suffixed counters, which are legitimately thread-count
  // dependent and therefore outside the determinism contract.
  std::map<std::string, std::int64_t> AllDeltas() const;

  // Restarts the window (e.g. after a warm-up phase) and drops any
  // frozen Capture() snapshot.
  void Reset();

  // The standard counter columns every table harness prints alongside its
  // wall-clock numbers, e.g.
  //   counters: ops=1.2K  bytes=38.1M  cache=3 hit / 1 miss
  // Computed from one snapshot (the Capture() one if frozen).
  std::string Summary() const;

 private:
  // The frozen snapshot, or a fresh one when Capture() was not called.
  obs::MetricsSnapshot After() const;

  obs::MetricsSnapshot before_;
  std::optional<obs::MetricsSnapshot> after_;
};

// --- The JSON artifact. -----------------------------------------------------

// One row of a bench artifact (typically one text-table row).
class BenchRow {
 public:
  explicit BenchRow(std::string label) : label_(std::move(label)) {}

  // Deterministic sections (exact-diffed by bench_compare).
  void SetCounter(const std::string& name, std::int64_t delta) {
    counters_[name] = delta;
  }
  // Copies every non-zero (non-".shards") counter delta from `delta`.
  void SetCounters(const MetricsDelta& delta);
  // JSON has no NaN or infinity, so every double setter (here and
  // BenchReport::SetConfig) throws InternalError on a non-finite value,
  // naming the row and the key.
  void SetValue(const std::string& name, double value);
  void SetText(const std::string& key, const std::string& value) {
    text_[key] = value;
  }

  // Non-deterministic sections (warn-only in bench_compare).
  void SetWall(const std::string& name, const WallStats& stats);
  void SetNoisy(const std::string& name, double value);

  const std::string& label() const { return label_; }

 private:
  friend class BenchReport;
  std::string label_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> text_;
  std::map<std::string, WallStats> wall_;
  std::map<std::string, double> noisy_;
};

class BenchReport {
 public:
  // `name` identifies the harness ("table1_tpu_scaling"); the artifact is
  // written as BENCH_<name>.json.
  explicit BenchReport(std::string name);

  // Workload axes (deterministic; part of the compared schema).
  void SetConfig(const std::string& key, std::int64_t value);
  void SetConfig(const std::string& key, const std::string& value);
  void SetConfig(const std::string& key, bool value);
  void SetConfig(const std::string& key, double value);

  BenchRow& AddRow(std::string label);

  const std::string& name() const { return name_; }

  // Full artifact JSON (env + noisy sections included).
  std::string ToJson() const;

  // Only the deterministic sections (no env / wall_ms / noisy): the
  // string that must be bit-identical across machines, reruns, and
  // thread counts. Unit-tested in tests/bench.
  std::string DeterministicJson() const;

  // Writes the artifact to `path` with full I/O error checking: on any
  // failed write the partial file is removed, an error is printed to
  // stderr, and false is returned.
  bool WriteTo(const std::string& path) const;

  // Writes BENCH_<name>.json into $S4TF_BENCH_OUT_DIR (default: the
  // current directory). Returns false (after printing to stderr) on
  // failure so harness main()s can propagate a non-zero exit.
  bool Write() const;

  // `git describe` of the source tree (burned in at configure time;
  // "unknown" outside a git checkout).
  static std::string GitDescribe();

 private:
  std::string Serialize(bool deterministic_only) const;

  std::string name_;
  // Config values pre-encoded as JSON literals, ordered by key.
  std::map<std::string, std::string> config_;
  std::vector<BenchRow> rows_;
};

}  // namespace s4tf::bench
