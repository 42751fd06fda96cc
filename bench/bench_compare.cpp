// bench_compare: CI regression gate over BENCH_*.json artifacts.
//
//   bench_compare <baseline_dir> <fresh_dir> [--wall-tol=0.5] [--strict-wall]
//
// Loads every BENCH_*.json in <baseline_dir> (the committed perf
// trajectory), pairs it with the same-named artifact in <fresh_dir> (the
// just-measured run), and:
//   * FAILS (exit 1) on any exact diff in the deterministic sections —
//     config axes, counter deltas, cost-model seconds, text verdicts —
//     on a missing/unparseable fresh artifact, or on a field of the wrong
//     JSON type (named by its path, never a crash);
//   * WARNS on wall-clock means (and "noisy" scalars) drifting beyond the
//     noise bound (exit 0 unless --strict-wall).
// Fresh artifacts with no committed baseline are listed as NEW (exit 0):
// commit them to start their trajectory.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <string>
#include <vector>

#include "compare.h"

namespace {

std::vector<std::string> ListArtifacts(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 + 6 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      names.push_back(name);
    }
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  using s4tf::bench::CompareOptions;
  using s4tf::bench::CompareReports;
  using s4tf::bench::CompareResult;
  using s4tf::bench::LoadArtifact;

  std::string baseline_dir, fresh_dir;
  CompareOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--wall-tol=", 0) == 0) {
      options.wall_tolerance = std::atof(arg.c_str() + 11);
    } else if (arg == "--strict-wall") {
      options.fail_on_wall = true;
    } else if (baseline_dir.empty()) {
      baseline_dir = arg;
    } else if (fresh_dir.empty()) {
      fresh_dir = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (baseline_dir.empty() || fresh_dir.empty()) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline_dir> <fresh_dir> "
                 "[--wall-tol=FRAC] [--strict-wall]\n");
    return 2;
  }

  const std::vector<std::string> baselines = ListArtifacts(baseline_dir);
  if (baselines.empty()) {
    std::fprintf(stderr, "bench_compare: no BENCH_*.json in %s\n",
                 baseline_dir.c_str());
    return 1;
  }

  int failures = 0;
  int warnings = 0;
  for (const std::string& name : baselines) {
    s4tf::json::JsonValue base, fresh;
    std::string error;
    if (!LoadArtifact(baseline_dir + "/" + name, &base, &error)) {
      std::printf("FAIL  %s: baseline unreadable (%s)\n", name.c_str(),
                  error.c_str());
      ++failures;
      continue;
    }
    if (!LoadArtifact(fresh_dir + "/" + name, &fresh, &error)) {
      std::printf("FAIL  %s: fresh artifact missing or unparseable (%s)\n",
                  name.c_str(), error.c_str());
      ++failures;
      continue;
    }
    const CompareResult result = CompareReports(base, fresh, options);
    for (const std::string& message : result.regressions) {
      std::printf("FAIL  %s\n", message.c_str());
    }
    for (const std::string& message : result.warnings) {
      std::printf("WARN  %s\n", message.c_str());
    }
    if (!result.regressions.empty()) {
      ++failures;
    } else if (!result.warnings.empty()) {
      ++warnings;
      std::printf("warn  %s: deterministic sections identical; wall-clock "
                  "drifted (see above)\n",
                  name.c_str());
    } else {
      std::printf("ok    %s\n", name.c_str());
    }
  }
  for (const std::string& name : ListArtifacts(fresh_dir)) {
    if (std::find(baselines.begin(), baselines.end(), name) ==
        baselines.end()) {
      std::printf("NEW   %s: no committed baseline; commit it to start its "
                  "trajectory\n",
                  name.c_str());
    }
  }

  std::printf("bench_compare: %zu artifacts, %d failing, %d warning\n",
              baselines.size(), failures, warnings);
  if (failures > 0) return 1;
  if (options.fail_on_wall && warnings > 0) return 1;
  return 0;
}
