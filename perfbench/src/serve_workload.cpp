// serve_mlp: a threaded serve::Server (max_batch 8, 2 workers) over an
// XlaServable MLP 256 -> 1024 -> 10, driven in two phases.
//
//  * Phase A, open loop: seeded Poisson arrivals (serve::GenerateArrivals)
//    at a fixed 3000 req/s. One generator thread sends each request at its
//    due time; the collector (the main thread) observes completions in
//    order. Latency runs from the due time to the observed completion, so a
//    late generator shows as latency, and its lateness is reported.
//  * Phase B, closed loop: 32 requests always outstanding; completions per
//    second is the serving peak.
//
// Every response is compared bitwise with MlpModel::ReferenceForward of
// its sample (precomputed for the sample pool).
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <thread>

#include "common.h"
#include "probes.h"
#include "serve/server.h"
#include "serve/simulator.h"
#include "support/threadpool.h"

namespace perfbench {
namespace {

using namespace s4tf;

constexpr double kPhaseARate = 3000.0;  // requests/s, open loop
constexpr double kPhaseAShare = 0.5;    // of --seconds; the rest is Phase B
constexpr int kOutstanding = 32;        // Phase B closed-loop depth
constexpr int kSamplePool = 512;
constexpr int kSetupRepeats = 41;       // setup_s is their median
// Phase A is cut into windows of this many consecutive requests, so each
// window's p99 has ten requests beyond it (see BestQuartile).
constexpr int kLatencyWindow = 1000;
constexpr int kRateWindows = 10;        // Phase B time windows
// A generator whose p99 send lateness exceeds this fell behind its
// schedule; the run is flagged.
constexpr double kLatenessFlagS = 1e-3;

struct Requests {
  std::vector<Literal> samples;        // the sample pool
  std::vector<Literal> expected;       // reference output per pool sample
  std::vector<int> phase_a_sample;     // pool index per Phase A request
  std::vector<std::int64_t> arrival_ns;
  std::vector<int> phase_b_sample;     // cycled by Phase B
};

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream;
}

int PhaseARequests(double seconds) {
  return std::max(1000, static_cast<int>(kPhaseARate * seconds * kPhaseAShare));
}

Requests MakeRequests(const serve::MlpModel& model, std::uint64_t seed,
                      double seconds, bool with_reference) {
  Requests r;
  Rng sample_rng(Mix(seed, 3));
  for (int i = 0; i < kSamplePool; ++i) {
    std::vector<float> data(kMlpIn);
    sample_rng.FillUniform(data.data(), data.size(), -1.0f, 1.0f);
    r.samples.push_back(
        Literal::FromVector(model.sample_shape(), std::move(data)));
    if (with_reference) r.expected.push_back(model.ReferenceForward(r.samples.back()));
  }
  serve::ArrivalProcess process;
  process.seed = Mix(seed, 5);
  process.num_requests = PhaseARequests(seconds);
  process.mean_interarrival_ns = 1e9 / kPhaseARate;
  r.arrival_ns = serve::GenerateArrivals(process);
  Rng index_rng(Mix(seed, 4));
  for (int i = 0; i < process.num_requests; ++i) {
    r.phase_a_sample.push_back(static_cast<int>(index_rng.NextBelow(kSamplePool)));
  }
  for (int i = 0; i < 4096; ++i) {
    r.phase_b_sample.push_back(static_cast<int>(index_rng.NextBelow(kSamplePool)));
  }
  return r;
}

// Mean milliseconds of the samples a registry histogram took between two
// readings.
double MeanMsBetween(const HistogramReading& before,
                     const HistogramReading& after) {
  const double count = static_cast<double>(after.count - before.count);
  return static_cast<double>(after.total_us - before.total_us) /
         std::max(1.0, count) / 1e3;
}

bool BitwiseEqual(const Literal& a, const Literal& b) {
  return a.shape == b.shape &&
         std::memcmp(a.begin(), b.begin(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

struct ServingStack {
  std::unique_ptr<serve::XlaServable> servable;
  std::unique_ptr<serve::Server> server;  // destroyed before the servable
};

ServingStack SetupStack(std::uint64_t seed) {
  const serve::MlpModel model = MakeServedModel(seed);
  ServingStack stack;
  serve::XlaServableOptions options;
  options.max_batch = 8;
  stack.servable = std::make_unique<serve::XlaServable>(
      "mlp", model.Fn(), model.sample_shape(), options);
  stack.servable->Warmup();
  serve::BatchingOptions batching;
  batching.max_batch = 8;
  batching.num_workers = 2;
  stack.server = std::make_unique<serve::Server>(*stack.servable, batching);
  return stack;
}

// Sleeps most of the way, then yields until `due`. The generator thread
// runs with a 1 ns timer slack, so the sleep ends close to its target.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(50);
  for (;;) {
    const auto now = Clock::now();
    if (now >= due) return;
    if (due - now > kSpin) {
      std::this_thread::sleep_until(due - kSpin);
    } else {
      std::this_thread::yield();
    }
  }
}

struct PhaseAResult {
  std::vector<double> latency_s;        // due -> observed completion
  std::vector<double> traced_latency_s; // requests whose spans were kept
  std::vector<double> plain_latency_s;
  std::vector<double> lateness_s;       // due -> send
  std::vector<double> submit_s;         // Submit() call
  std::int64_t failed = 0;
};

PhaseAResult RunPhaseA(serve::Server& server, const Requests& r,
                       SpanRecorder* generator_rec,
                       SpanRecorder* collector_rec) {
  const std::size_t n = r.arrival_ns.size();
  std::vector<std::shared_ptr<serve::ServeFuture>> futures(n);
  std::vector<Clock::time_point> due(n), sent(n), submitted(n);
  std::atomic<std::int64_t> published{0};
  const auto origin = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = origin + std::chrono::nanoseconds(r.arrival_ns[i]);
  }
  std::exception_ptr generator_error;
  std::thread generator([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    try {
      for (std::size_t i = 0; i < n; ++i) {
        WaitUntil(due[i]);
        sent[i] = Clock::now();
        futures[i] = server.Submit(
            r.samples[static_cast<std::size_t>(r.phase_a_sample[i])]);
        submitted[i] = Clock::now();
        published.store(static_cast<std::int64_t>(i) + 1,
                        std::memory_order_release);
        published.notify_one();
      }
    } catch (...) {
      generator_error = std::current_exception();
      published.store(-1, std::memory_order_release);
      published.notify_one();
    }
  });

  PhaseAResult result;
  result.latency_s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t p = published.load(std::memory_order_acquire);
    while (p >= 0 && p <= static_cast<std::int64_t>(i)) {
      published.wait(p, std::memory_order_acquire);
      p = published.load(std::memory_order_acquire);
    }
    if (p < 0) break;
    const Status& status = futures[i]->Wait();
    const auto done = Clock::now();
    const double latency = SecondsBetween(due[i], done);
    result.latency_s.push_back(latency);
    const bool traced = collector_rec != nullptr && i % 2 == 0;
    (traced ? result.traced_latency_s : result.plain_latency_s).push_back(latency);
    if (traced) collector_rec->Add("serve.request", static_cast<std::int64_t>(i), due[i], done);
    const Literal& want =
        r.expected[static_cast<std::size_t>(r.phase_a_sample[i])];
    if (!status.ok() || !BitwiseEqual(futures[i]->output(), want)) {
      ++result.failed;
    }
    futures[i].reset();
  }
  generator.join();
  if (generator_error) std::rethrow_exception(generator_error);
  for (std::size_t i = 0; i < n; ++i) {
    result.lateness_s.push_back(SecondsBetween(due[i], sent[i]));
    result.submit_s.push_back(SecondsBetween(sent[i], submitted[i]));
    if (generator_rec != nullptr && i % 2 == 0) {
      generator_rec->Add("serve.submit", static_cast<std::int64_t>(i), sent[i],
                         submitted[i]);
    }
  }
  return result;
}

struct PhaseBResult {
  std::int64_t completed_in_window = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double window_s = 0.0;
  std::vector<double> completion_s;  // since the window opened
};

// Completions per second in each of `windows` equal slices of [0, length).
std::vector<double> TimeWindowRates(const std::vector<double>& times,
                                    double length, int windows) {
  std::vector<double> rates(static_cast<std::size_t>(windows), 0.0);
  for (double t : times) {
    const auto k = static_cast<std::size_t>(t / length * windows);
    if (k < rates.size()) rates[k] += 1.0;
  }
  for (double& r : rates) r /= length / windows;
  return rates;
}

PhaseBResult RunPhaseB(serve::Server& server, const Requests& r,
                       double seconds) {
  PhaseBResult result;
  std::deque<std::pair<std::shared_ptr<serve::ServeFuture>, int>> inflight;
  std::size_t next = 0;
  auto submit = [&] {
    const int sample = r.phase_b_sample[next++ % r.phase_b_sample.size()];
    inflight.emplace_back(
        server.Submit(r.samples[static_cast<std::size_t>(sample)]), sample);
    ++result.attempted;
  };
  for (int i = 0; i < kOutstanding; ++i) submit();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto last = start;
  while (!inflight.empty()) {
    auto [future, sample] = std::move(inflight.front());
    inflight.pop_front();
    const Status& status = future->Wait();
    const auto now = Clock::now();
    if (!status.ok() ||
        !BitwiseEqual(future->output(),
                      r.expected[static_cast<std::size_t>(sample)])) {
      ++result.failed;
    }
    if (now < end) {
      ++result.completed_in_window;
      result.completion_s.push_back(SecondsBetween(start, now));
      last = now;
      submit();
    }
  }
  result.window_s = SecondsBetween(start, last);
  return result;
}

}  // namespace

std::uint64_t ServeInputDigest(std::uint64_t seed, double seconds) {
  const serve::MlpModel model = MakeServedModel(seed);
  std::uint64_t hash = 1469598103934665603ull;
  for (const Literal* w : {&model.w1, &model.b1, &model.w2, &model.b2}) {
    hash = Fnv1a(w->begin(), static_cast<std::size_t>(w->size()) * 4, hash);
  }
  const Requests r = MakeRequests(model, seed, seconds, false);
  for (const Literal& s : r.samples) {
    hash = Fnv1a(s.begin(), static_cast<std::size_t>(s.size()) * 4, hash);
  }
  hash = Fnv1a(r.arrival_ns.data(), r.arrival_ns.size() * 8, hash);
  hash = Fnv1a(r.phase_a_sample.data(), r.phase_a_sample.size() * 4, hash);
  hash = Fnv1a(r.phase_b_sample.data(), r.phase_b_sample.size() * 4, hash);
  return hash;
}

RunOutcome RunServeMlp(const RunConfig& config) {
  RunOutcome out;
  Report& report = out.report;
  const bool traced = config.trace;

  // The reference outputs are the benchmark's, not the system's: built
  // before set-up and never timed.
  const Requests requests = MakeRequests(MakeServedModel(config.seed),
                                         config.seed, config.seconds, true);

  std::vector<double> setup_s;
  ServingStack stack;
  for (int r = 0; r < (traced ? 1 : kSetupRepeats); ++r) {
    stack.server.reset();
    stack.servable.reset();
    const auto start = Clock::now();
    stack = SetupStack(config.seed);
    setup_s.push_back(SecondsSince(start));
  }

  SpanRecorder* generator_rec = nullptr;
  SpanRecorder* collector_rec = nullptr;
  if (traced) {
    const auto origin = Clock::now();
    out.recorders.push_back(std::make_unique<SpanRecorder>(origin, "generator"));
    generator_rec = out.recorders.back().get();
    out.recorders.push_back(std::make_unique<SpanRecorder>(origin, "collector"));
    collector_rec = out.recorders.back().get();
  }

  const auto steal_before = CpuStealJiffies();
  CounterWindow window;
  CounterWindow window_a;
  const HistogramReading latency_a0 = ReadHistogram("serve.latency");
  const HistogramReading exec_a0 = ReadHistogram("serve.batch.exec");
  const PhaseAResult a =
      RunPhaseA(*stack.server, requests, generator_rec, collector_rec);
  const HistogramReading latency_a1 = ReadHistogram("serve.latency");
  const HistogramReading exec_a1 = ReadHistogram("serve.batch.exec");
  window_a.Close();
  CounterWindow window_b;
  const double phase_b_s = config.seconds * (1.0 - kPhaseAShare);
  const PhaseBResult b = RunPhaseB(*stack.server, requests, phase_b_s);
  const HistogramReading exec_b1 = ReadHistogram("serve.batch.exec");
  window_b.Close();
  window.Close();
  const double steal = StealShare(steal_before, CpuStealJiffies());
  const serve::Server::Stats stats = stack.server->stats();
  stack.server->Shutdown();

  const std::int64_t n_a = static_cast<std::int64_t>(requests.arrival_ns.size());
  out.attempted = n_a + b.attempted;
  out.failed = (n_a - static_cast<std::int64_t>(a.latency_s.size())) +
               a.failed + b.failed;
  out.correct = out.failed == 0 && stats.shed == 0 && stats.failed == 0;
  if (window.Delta("xla.cache.misses") != 0) {
    out.gate_failures.push_back(
        std::to_string(window.Delta("xla.cache.misses")) +
        " steady-state xla.cache.misses");
  }

  std::vector<double> window_p50, window_tail;
  int tail_bp = 0;
  for (const std::vector<double>& part : SplitWindows(
           a.latency_s, static_cast<int>(a.latency_s.size()) / kLatencyWindow)) {
    tail_bp = TailPercentileBp(static_cast<std::int64_t>(part.size()));
    window_p50.push_back(Median(part));
    window_tail.push_back(PercentileBp(part, tail_bp));
  }
  const double p50_ms = BestQuartile(window_p50, false) * 1e3;
  const double tail_ms = BestQuartile(window_tail, false) * 1e3;
  report.NoteText("window serve_p50_ms: " + JoinScaled(window_p50, 1e3));
  report.NoteText("window serve_" + PercentileLabel(tail_bp) +
                  "_ms: " + JoinScaled(window_tail, 1e3));
  const double peak_rps = BestQuartile(
      TimeWindowRates(b.completion_s, phase_b_s, kRateWindows), true);
  const double lateness_p99_ms = PercentileBp(a.lateness_s, 9900) * 1e3;
  const double lateness_max_ms =
      *std::max_element(a.lateness_s.begin(), a.lateness_s.end()) * 1e3;

  report.Note("failed_frac",
              static_cast<double>(out.failed) / static_cast<double>(out.attempted),
              "ratio");
  report.Note("validity.cpu_steal_frac", steal, "ratio");
  report.Note("validity.generator_lateness_p99_ms", lateness_p99_ms, "ms");
  report.Note("validity.generator_lateness_max_ms", lateness_max_ms, "ms");
  if (lateness_p99_ms * 1e-3 > kLatenessFlagS) {
    report.NoteText("FLAG: the Phase A generator fell behind its schedule "
                    "(p99 lateness above 1 ms); treat this run's latency "
                    "figures as invalid");
    std::fprintf(stderr, "perfbench: FLAG generator fell behind (p99 lateness %.3f ms)\n",
                 lateness_p99_ms);
  }
  report.Note("intra_op_threads", IntraOpThreads(), "count");

  if (!traced) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("throughput", peak_rps, "1/s");
    report.Add("p50_ms", p50_ms, "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Note("serve_p50_ms", p50_ms, "ms");
    report.Note("serve_" + PercentileLabel(tail_bp) + "_ms", tail_ms, "ms");
    report.Note("serve_peak_rps", peak_rps, "req/s");
    report.Note("whole_phase.serve_peak_rps",
                static_cast<double>(b.completed_in_window) / b.window_s,
                "req/s");
    report.Note("whole_phase.serve_p50_ms", Median(a.latency_s) * 1e3, "ms");
    report.Note("whole_phase.serve_p99_ms",
                PercentileBp(a.latency_s, 9900) * 1e3, "ms");
    report.Note("phase_a_requests", static_cast<double>(n_a), "count");
    report.Note("phase_b_completions",
                static_cast<double>(b.completed_in_window), "count");
    return out;
  }

  // --- Per-layer figures from the traced run. ---------------------------
  const double items = static_cast<double>(out.attempted);
  AddCounterMetrics(report, window, items, 0.0);

  // The served program at padded batch 8, traced as XlaServable traces it.
  LoweredStep lowered = [&] {
    const serve::MlpModel model = MakeServedModel(config.seed);
    LazyBackend backend;
    std::vector<const Literal*> rows;
    for (int i = 0; i < 8; ++i) rows.push_back(&requests.samples[static_cast<std::size_t>(i)]);
    const Tensor input = Tensor::FromLiteral(
        serve::AssembleBatch(rows, model.sample_shape(), 8), backend.device());
    return LowerRoots({model.Fn()(input)});
  }();
  const RunBatchProbe run_batch =
      AddStepProgramMetrics(report, lowered, true, 8.0, config.seed, 0);

  const double exec_b_ms = MeanMsBetween(exec_a1, exec_b1);
  const double batch_size_b =
      static_cast<double>(window_b.Delta("serve.batch.samples")) /
      std::max<double>(1.0, static_cast<double>(window_b.Delta("serve.batches")));
  const double predicted_ms = stack.servable->CostSeconds(8) * 1e3 / 8.0;
  const double measured_ms = exec_b_ms / std::max(1.0, batch_size_b);
  report.Note("device.predicted_ms", predicted_ms, "ms");
  report.Add("device.predicted_over_measured", predicted_ms / measured_ms,
             "ratio");
  report.Add("obs.trace_overhead_frac",
             Median(a.traced_latency_s) / Median(a.plain_latency_s) - 1.0,
             "ratio");

  const double latency_a_ms = MeanMsBetween(latency_a0, latency_a1);
  const double exec_a_ms = MeanMsBetween(exec_a0, exec_a1);
  const double samples_all = static_cast<double>(window.Delta("serve.batch.samples"));
  const double padding_all = static_cast<double>(window.Delta("serve.batch.padding"));
  report.Note("serve.submit_us", Median(a.submit_s) * 1e6, "us");
  report.Note("serve.queue_wait_ms", latency_a_ms - exec_a_ms, "ms");
  report.Note("serve.batch_exec_ms", exec_b_ms, "ms");
  // Server overhead per full batch: the server's own execution histogram
  // against the bare RunBatch probe at the same padded size.
  report.Note("serve.server_overhead_us", exec_b_ms * 1e3 - run_batch.b8_us,
              "us");
  report.Note("serve.batch_size_mean", batch_size_b, "count");
  report.Note("serve.padding_frac",
              padding_all / std::max(1.0, samples_all + padding_all), "ratio");
  report.Note("serve.phase_a_batch_size_mean",
              static_cast<double>(window_a.Delta("serve.batch.samples")) /
                  std::max<double>(1.0, static_cast<double>(window_a.Delta("serve.batches"))),
              "count");
  report.Note("serve.request_self_ms",
              collector_rec->Totals("serve.request").self_s * 1e3 /
                  std::max<double>(1.0, static_cast<double>(
                                            collector_rec->Totals("serve.request").count)),
              "ms");
  return out;
}

}  // namespace perfbench
