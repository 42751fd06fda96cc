// Self-checks of the benchmark's own logic, run at the start of every
// invocation: the statistics on fixed inputs, the tail-percentile rule,
// the windowed quartiles, and seed plumbing.
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

void Expect(bool ok, const std::string& what,
            std::vector<std::string>& failures) {
  if (!ok) failures.push_back(what);
}

}  // namespace

std::vector<std::string> RunSelfChecks(const RunConfig& config) {
  std::vector<std::string> failures;

  // Median, as statistics.median.
  Expect(Median({3, 1, 2}) == 2.0, "median of odd count", failures);
  Expect(Median({4, 1, 3, 2}) == 2.5, "median of even count", failures);

  // Nearest-rank percentiles and the tail rule: the highest of
  // p50/p90/p99/p99.9/p99.99 with at least ten samples beyond it.
  std::vector<double> ramp(1000);
  std::iota(ramp.begin(), ramp.end(), 1.0);
  Expect(PercentileBp(ramp, 9900) == 990.0, "p99 of 1..1000 is 990",
         failures);
  Expect(PercentileBp(ramp, 5000) == 500.0, "p50 of 1..1000 is 500",
         failures);
  Expect(PercentileBp({5.0}, 9900) == 5.0, "percentile of one sample",
         failures);
  Expect(SamplesBeyond(1000, 9900) == 10, "10 samples beyond p99 of 1000",
         failures);
  Expect(SamplesBeyond(999, 9900) == 9, "9 samples beyond p99 of 999",
         failures);
  Expect(TailPercentileBp(20) == 5000, "20 samples support p50", failures);
  Expect(TailPercentileBp(99) == 5000, "99 samples do not support p90",
         failures);
  Expect(TailPercentileBp(100) == 9000, "100 samples support p90", failures);
  Expect(TailPercentileBp(999) == 9000, "999 samples do not support p99",
         failures);
  Expect(TailPercentileBp(1000) == 9900, "1000 samples support p99",
         failures);
  Expect(TailPercentileBp(9999) == 9900, "9999 samples do not support p99.9",
         failures);
  Expect(TailPercentileBp(10000) == 9990, "10000 samples support p99.9",
         failures);
  Expect(PercentileLabel(9900) == "p99" && PercentileLabel(9990) == "p99.9" &&
             PercentileLabel(9999) == "p99.99" &&
             PercentileLabel(5000) == "p50",
         "percentile labels", failures);

  // Windowed statistics: consecutive windows, the better quartile across
  // them, and per-window rates.
  const auto windows = SplitWindows({1, 2, 3, 4, 5, 6, 7}, 3);
  Expect(windows.size() == 3 && windows[0] == std::vector<double>{1, 2} &&
             windows[1] == std::vector<double>{3, 4} &&
             windows[2] == std::vector<double>{5, 6, 7},
         "seven values split into three consecutive windows", failures);
  Expect(SplitWindows({1, 2}, 10).size() == 2,
         "never more windows than values", failures);
  Expect(BestQuartile({5, 1, 4, 2, 3, 9, 8, 7, 6, 10}, false) == 3.0,
         "lower quartile of ten windows is the third best", failures);
  Expect(BestQuartile({5, 1, 4, 2, 3, 9, 8, 7, 6, 10}, true) == 8.0,
         "upper quartile of ten windows is the third best", failures);
  Expect(BestQuartile({4.0}, true) == 4.0, "quartile of one window",
         failures);
  Expect(WindowRate({0.5, 0.25, 0.25}, 2.0) == 6.0,
         "three items of two units in one second", failures);

  // Seed plumbing: the same seed gives byte-identical generated inputs
  // (weights, batches, request samples, arrival schedule); another seed
  // gives different ones.
  auto digest = [&](std::uint64_t seed) {
    return config.workload == "serve_mlp"
               ? ServeInputDigest(seed, config.seconds)
               : TrainingInputDigest(config.workload, seed);
  };
  const std::uint64_t first = digest(config.seed);
  Expect(first == digest(config.seed),
         "the same seed regenerates identical inputs", failures);
  Expect(first != digest(config.seed + 1),
         "a different seed generates different inputs", failures);
  return failures;
}

}  // namespace perfbench
