// Artifact comparison for CI regression gating: exact diff of the
// deterministic sections of two BENCH_*.json artifacts (config, counters,
// values, text), drift *warnings* for the noise-bounded sections (wall_ms
// means, noisy scalars). Used by the bench_compare tool and unit-tested
// against injected regressions in tests/bench.
#pragma once

#include <string>
#include <vector>

#include "support/json.h"

namespace s4tf::bench {

struct CompareOptions {
  // Relative drift of wall-clock means (and noisy scalars) tolerated
  // before a warning: |fresh - base| / max(base, epsilon). CI boxes are
  // noisy; 0.5 means "flag >50% swings", which survives runner churn
  // while still catching order-of-magnitude cliffs.
  double wall_tolerance = 0.5;
  // Wall means below this are all noise — never warned about.
  double wall_floor_ms = 0.5;
  // When true, wall drift beyond tolerance is an error, not a warning.
  bool fail_on_wall = false;
};

struct CompareResult {
  // Exact-diff failures in deterministic sections (fails the gate).
  std::vector<std::string> regressions;
  // Noise-bound exceedances in wall_ms/noisy sections (warn by default).
  std::vector<std::string> warnings;

  bool ok(const CompareOptions& options) const {
    return regressions.empty() &&
           (!options.fail_on_wall || warnings.empty());
  }
};

// Compares a committed baseline artifact against a freshly generated one.
// Both must be parsed BENCH_*.json documents. Every deterministic
// key/value present in either artifact must match exactly. Rows are
// matched by label: a label on one side only is one regression, rows on
// both sides are diffed section by section, a changed order of those rows
// is one regression, and so is a label that repeats within an artifact.
// A field of the wrong JSON type (say a numeric "label") is one regression
// naming the artifact and the field's path, and stops the diff.
CompareResult CompareReports(const json::JsonValue& baseline,
                             const json::JsonValue& fresh,
                             const CompareOptions& options = {});

// Loads `path` and parses it as JSON. Returns false (and fills `error`)
// on I/O or parse failure.
bool LoadArtifact(const std::string& path, json::JsonValue* out,
                  std::string* error);

}  // namespace s4tf::bench
