// Wall-clock benchmark entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Workloads: lenet_eager, resnet_lazy, serve_mlp, dp_lenet_ring4 (see
// train_workloads.cpp and serve_workload.cpp). With --trace 0 the run
// measures the end-to-end metrics; with --trace 1 it records spans in the
// benchmark's own code around each call into a layer, runs the layer
// probes, prints the per-layer metrics, and writes the spans to
// <out>/<workload>-seed<n>.trace.json.
//
// Prints a human-readable block, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits non-zero on a
// failed self-check, any output mismatch, any steady-state compile-cache
// miss, or any collective retry.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<lenet_eager|resnet_lazy|serve_mlp|dp_lenet_ring4> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               message);
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (value != "lenet_eager" && value != "resnet_lazy" &&
          value != "serve_mlp" && value != "dp_lenet_ring4") {
        Usage(("unknown workload " + value).c_str());
      }
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0.0) ||
          config.seconds > 600.0) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return config;
}

RunOutcome Dispatch(const RunConfig& config) {
  if (config.workload == "lenet_eager") return RunLenetEager(config);
  if (config.workload == "resnet_lazy") return RunResnetLazy(config);
  if (config.workload == "serve_mlp") return RunServeMlp(config);
  if (config.workload == "dp_lenet_ring4") return RunDpLenetRing4(config);
  Usage(("unknown workload " + config.workload).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = ParseArgs(argc, argv);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);

  const std::vector<std::string> self_check_failures = RunSelfChecks(config);
  for (const std::string& f : self_check_failures) {
    std::fprintf(stderr, "perfbench: self-check failed: %s\n", f.c_str());
  }
  if (!self_check_failures.empty()) return 3;

  // Spans the whole run: no workload injects faults, so a collective retry
  // anywhere is a failure.
  CounterWindow whole_run;
  RunOutcome outcome;
  try {
    outcome = Dispatch(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }
  whole_run.Close();
  if (whole_run.Delta("dist.retry.count") != 0) {
    outcome.gate_failures.push_back(
        std::to_string(whole_run.Delta("dist.retry.count")) +
        " dist.retry.count in a run without injected faults");
  }

  std::printf("%s metrics (%s run):\n", config.workload.c_str(),
              config.trace ? "traced; per-layer" : "untraced; end-to-end");
  outcome.report.PrintText();
  if (config.trace) {
    std::error_code error;
    std::filesystem::create_directories(config.out_dir, error);
    const std::string path = config.out_dir + "/" + config.workload + "-seed" +
                             std::to_string(config.seed) + ".trace.json";
    if (WriteSpans(path, outcome.recorders, outcome.report.SummaryJson())) {
      std::printf("  spans written to %s\n", path.c_str());
    }
  }
  for (const std::string& g : outcome.gate_failures) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", g.c_str());
  }
  const bool ok = outcome.correct && outcome.gate_failures.empty();
  if (!outcome.correct) {
    std::fprintf(stderr, "perfbench: %lld of %lld operations failed\n",
                 static_cast<long long>(outcome.failed),
                 static_cast<long long>(outcome.attempted));
  }
  std::printf("%s\n", outcome.report
                          .Json(ok, outcome.attempted, outcome.failed)
                          .c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
