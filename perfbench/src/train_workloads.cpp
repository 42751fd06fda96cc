// Training workloads:
//
//  * lenet_eager     LeNet-5, batch 32, SGD-momentum via nn::TrainStep on
//                    the eager backend, default intra-op threads;
//  * resnet_lazy     ResNet-20 (CIFAR), batch 8, nn::TrainStep with its
//                    automatic barrier on the lazy backend;
//  * dp_lenet_ring4  nn::ReplicaGroup at world 4 on naive replica devices,
//                    global batch 64, overlapped all-reduce, one intra-op
//                    thread.
//
// Untraced runs call nn::TrainStep / ReplicaGroup::TrainStep exactly as a
// user would. Traced runs alternate those steps with the same sequence
// split at its public calls (tape watch + recorder scope, ComputeGradients,
// Optimizer::Update, LazyTensorBarrier, the final ScalarValue), each call
// inside a span, then run the layer probes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common.h"
#include "device/cost_model.h"
#include "eager/eager_backend.h"
#include "nn/models/lenet.h"
#include "nn/models/resnet.h"
#include "nn/replica_group.h"
#include "nn/training.h"
#include "probes.h"
#include "support/threadpool.h"

namespace perfbench {
namespace {

using namespace s4tf;

constexpr float kLearningRate = 0.01f;
constexpr float kMomentum = 0.9f;
constexpr int kBatchPool = 8;      // distinct batches, cycled
constexpr int kWindows = 10;       // see SplitWindows / BestQuartile
constexpr int kCheckedSteps = 4;   // leading steps compared to a reference
// Lazy vs naive losses, relative. The JIT's passes are meant to be exact
// (epilogue fusion evaluates the same float expressions), so the bound only
// leaves room for a future pass that reassociates.
constexpr double kLazyRelativeTolerance = 1e-5;

std::uint64_t WeightSeed(std::uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ull + 1;
}
std::uint64_t DataSeed(std::uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ull + 2;
}

template <typename M>
struct ModelSpec;

template <>
struct ModelSpec<nn::LeNet> {
  static nn::LeNet Make(Rng& rng) { return nn::LeNet(rng); }
  static nn::SyntheticImageDataset Data(int examples, std::uint64_t seed) {
    return nn::SyntheticImageDataset::Mnist(examples, seed);
  }
};

template <>
struct ModelSpec<nn::ResNet> {
  static nn::ResNet Make(Rng& rng) {
    return nn::ResNet(nn::ResNetConfig::Cifar(20), rng);
  }
  static nn::SyntheticImageDataset Data(int examples, std::uint64_t seed) {
    return nn::SyntheticImageDataset::Cifar10(examples, seed);
  }
};

template <typename M>
float PlainStep(M& model, nn::SGD<M>& optimizer,
                const nn::LabeledBatch& batch) {
  return nn::TrainStep(model, optimizer, [&batch](const M& m) {
    return nn::SoftmaxCrossEntropy(m(batch.images), batch.one_hot);
  });
}

// nn::TrainStep split at its public calls, each inside a span. The tape
// and the working copy die before the update, exactly as they do at
// ad::ValueWithGradient's return, so the optimizer sees the same
// ownership (and takes the same in-place paths).
template <typename M>
float SplitStep(M& model, nn::SGD<M>& optimizer,
                const nn::LabeledBatch& batch, const Device& device,
                std::int64_t step, SpanRecorder* rec,
                std::int64_t* tape_nodes) {
  ScopedSpan step_span(rec, "nn.train_step", step);
  Tensor loss;
  typename M::TangentVector grads{};
  std::optional<ScopedSpan> backward;
  {
    std::optional<ScopedSpan> forward(std::in_place, rec, "ad.forward", step);
    ad::GradientTape tape;
    M working = model;
    working.VisitParameters([&tape](Tensor& p) { tape.Watch(p); });
    {
      RecorderScope scope(&tape);
      loss = nn::SoftmaxCrossEntropy(working(batch.images), batch.one_hot);
    }
    S4TF_CHECK_EQ(loss.NumElements(), 1);
    forward.reset();
    backward.emplace(rec, "ad.backward", step);
    const auto all = tape.ComputeGradients(loss);
    working.VisitWithTangent(
        grads, [&](Tensor& p, Tensor& g) { g = tape.GradientFor(all, p); });
    if (tape_nodes != nullptr) *tape_nodes = tape.num_nodes();
  }
  backward.reset();
  {
    ScopedSpan update(rec, "nn.optimizer", step);
    optimizer.Update(model, grads);
  }
  if (device.kind() == DeviceKind::kLazy) {
    ScopedSpan barrier(rec, "lazy.barrier", step);
    LazyTensorBarrier(device);
  }
  ScopedSpan sync(rec, "sync", step);
  return loss.ScalarValue();
}

// Simulated seconds a backend's cost model charged so far.
struct SimTimes {
  double host = 0.0;
  double device = 0.0;
  double compile = 0.0;
};

double PredictedSecondsBetween(const SimTimes& a, const SimTimes& b) {
  return std::max(b.host - a.host, b.device - a.device) +
         (b.compile - a.compile);
}

// --- Single-device training (eager, lazy, and the naive reference). ----

template <typename M>
struct SingleDevice {
  // Declared first: the backends outlive every tensor on their devices.
  std::unique_ptr<EagerBackend> eager;
  std::unique_ptr<LazyBackend> lazy;
  Device device;
  M model;
  nn::SGD<M> optimizer{kLearningRate, kMomentum};
  std::vector<nn::LabeledBatch> batches;

  const nn::LabeledBatch& Batch(std::int64_t step) const {
    return batches[static_cast<std::size_t>(step % kBatchPool)];
  }
  float Step(std::int64_t step, SpanRecorder* rec,
             std::int64_t* tape_nodes) {
    if (rec == nullptr) return PlainStep(model, optimizer, Batch(step));
    return SplitStep(model, optimizer, Batch(step), device, step, rec,
                     tape_nodes);
  }
  void Sync() {
    if (eager) eager->Sync(device);
  }
  SimTimes Sim() const {
    if (eager) return {eager->host_seconds(), eager->device_seconds(), 0.0};
    if (lazy) {
      return {lazy->host_seconds(), lazy->device_seconds(),
              lazy->compile_seconds()};
    }
    return {};
  }
};

template <typename M>
std::unique_ptr<SingleDevice<M>> SetupSingle(DeviceKind kind, int batch,
                                             std::uint64_t seed) {
  auto s = std::make_unique<SingleDevice<M>>();
  if (kind == DeviceKind::kEager) {
    s->eager = std::make_unique<EagerBackend>();
    s->device = s->eager->device();
  } else if (kind == DeviceKind::kLazy) {
    s->lazy = std::make_unique<LazyBackend>();
    s->device = s->lazy->device();
  } else {
    s->device = NaiveDevice();
  }
  Rng rng(WeightSeed(seed));
  s->model = ModelSpec<M>::Make(rng);
  nn::MoveModelTo(s->model, s->device);
  const auto data = ModelSpec<M>::Data(batch * kBatchPool, DataSeed(seed));
  for (int b = 0; b < kBatchPool; ++b) {
    s->batches.push_back(data.Batch(b, batch, s->device));
  }
  return s;
}

template <typename M>
std::vector<float> NaiveReferenceLosses(int batch, std::uint64_t seed,
                                        int steps) {
  auto ref = SetupSingle<M>(DeviceKind::kNaive, batch, seed);
  std::vector<float> losses;
  for (int i = 0; i < steps; ++i) losses.push_back(ref->Step(i, nullptr, nullptr));
  return losses;
}

// Median step time (ms) and predicted ms of a few steps on another backend
// (the lazy/eager calibration pair).
template <typename M>
std::pair<double, double> TimeOnBackend(DeviceKind kind, int batch,
                                        std::uint64_t seed, int warmup,
                                        int steps) {
  auto s = SetupSingle<M>(kind, batch, seed);
  for (int w = 0; w < warmup; ++w) s->Step(w, nullptr, nullptr);
  s->Sync();
  const SimTimes before = s->Sim();
  std::vector<double> ms;
  for (int i = 0; i < steps; ++i) {
    const auto start = Clock::now();
    s->Step(warmup + i, nullptr, nullptr);
    ms.push_back(SecondsSince(start) * 1e3);
  }
  s->Sync();
  return {Median(ms), PredictedSecondsBetween(before, s->Sim()) * 1e3 / steps};
}

// --- Data-parallel training. ---------------------------------------------

struct ReplicaState {
  std::unique_ptr<nn::ReplicaGroup> group;
  nn::LeNet model;
  nn::SGD<nn::LeNet> optimizer{kLearningRate, kMomentum};
  std::vector<std::vector<nn::LabeledBatch>> shards;  // per global batch
  std::vector<double> imbalance;                       // traced steps

  float Step(std::int64_t step, SpanRecorder* rec, std::int64_t*) {
    const auto& shard =
        shards[static_cast<std::size_t>(step % kBatchPool)];
    if (rec == nullptr) return group->TrainStep(model, optimizer, shard);
    ScopedSpan step_span(rec, "nn.train_step", step);
    float loss = 0.0f;
    {
      ScopedSpan replica(rec, "nn.replica_step", step);
      loss = group->TrainStep(model, optimizer, shard);
    }
    double lo = group->last_step_replica_seconds(0);
    double hi = lo;
    for (int r = 1; r < group->replicas(); ++r) {
      lo = std::min(lo, group->last_step_replica_seconds(r));
      hi = std::max(hi, group->last_step_replica_seconds(r));
    }
    if (lo > 0.0) imbalance.push_back(hi / lo);
    return loss;
  }
  void Sync() {}
  SimTimes Sim() const { return {}; }
};

constexpr int kWorld = 4;
constexpr int kDpGlobalBatch = 64;

std::unique_ptr<ReplicaState> SetupReplicas(std::uint64_t seed,
                                            bool sequential) {
  auto s = std::make_unique<ReplicaState>();
  nn::ReplicaGroupOptions options;
  options.sequential = sequential;
  s->group = std::make_unique<nn::ReplicaGroup>(kWorld, options);
  Rng rng(WeightSeed(seed));
  s->model = nn::LeNet(rng);
  const auto data =
      nn::SyntheticImageDataset::Mnist(kDpGlobalBatch * kBatchPool, DataSeed(seed));
  for (int b = 0; b < kBatchPool; ++b) {
    s->shards.push_back(
        nn::ShardBatch(data.Batch(b, kDpGlobalBatch, NaiveDevice()), kWorld));
  }
  return s;
}

// --- The shared training loop. ------------------------------------------

struct TrainingWorkload {
  int samples_per_step;
  int warmup_steps;
  bool executed_is_compiled;  // the backend runs compiled XLA programs
  int setup_repeats;          // setup_s is the median of these
  int intra_op_threads;       // 0 = the S4TF_NUM_THREADS/hardware default
};

int CountMismatches(const std::vector<float>& got,
                    const std::vector<float>& want, double rel_tolerance,
                    const char* reference) {
  int bad = 0;
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    bool ok = false;
    if (rel_tolerance == 0.0) {
      ok = std::memcmp(&got[i], &want[i], sizeof(float)) == 0;
    } else {
      ok = std::fabs(static_cast<double>(got[i]) - want[i]) <=
           rel_tolerance * std::max(1.0, std::fabs(static_cast<double>(want[i])));
    }
    if (!ok) {
      ++bad;
      std::fprintf(stderr,
                   "perfbench: step %zu loss %.9g differs from the %s "
                   "reference %.9g\n",
                   i, got[i], reference, want[i]);
    }
  }
  return bad;
}

void AddEndToEndTraining(Report& report, const TrainingWorkload& w,
                         const std::vector<double>& setup_s,
                         const std::vector<double>& step_s, double wall_s) {
  const std::int64_t n = static_cast<std::int64_t>(step_s.size());
  std::vector<double> rates, medians, tails;
  for (const std::vector<double>& window : SplitWindows(step_s, kWindows)) {
    rates.push_back(WindowRate(window, w.samples_per_step));
    medians.push_back(Median(window));
  }
  // Tail windows hold at least 100 steps when the run has them, so each
  // supports p90.
  int tail_bp = 0;
  for (const std::vector<double>& window :
       SplitWindows(step_s, static_cast<int>(std::max<std::int64_t>(1, n / 100)))) {
    tail_bp = TailPercentileBp(static_cast<std::int64_t>(window.size()));
    tails.push_back(PercentileBp(window, tail_bp));
  }
  const double throughput = BestQuartile(rates, true);
  const double p50_ms = BestQuartile(medians, false) * 1e3;
  const double tail_ms = BestQuartile(tails, false) * 1e3;
  report.NoteText("window step_p50_ms: " + JoinScaled(medians, 1e3));
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("throughput", throughput, "1/s");
  report.Add("p50_ms", p50_ms, "ms");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Note("train_samples_per_s", throughput, "samples/s");
  report.Note("step_p50_ms", p50_ms, "ms");
  report.Note("step_tail_" + PercentileLabel(tail_bp) + "_ms", tail_ms, "ms");
  report.Note("timed_steps", static_cast<double>(n), "count");
  // The same figures over the whole timed loop, without windows.
  report.Note("whole_loop.samples_per_s",
              static_cast<double>(n) * w.samples_per_step / wall_s,
              "samples/s");
  report.Note("whole_loop.step_p50_ms", Median(step_s) * 1e3, "ms");
  report.Note("whole_loop.step_" + PercentileLabel(TailPercentileBp(n)) + "_ms",
              PercentileBp(step_s, TailPercentileBp(n)) * 1e3, "ms");
}

template <typename State, typename MakeState, typename Reference,
          typename Lower, typename Extra>
RunOutcome RunTraining(const RunConfig& config, const TrainingWorkload& w,
                       MakeState make_state, Reference reference,
                       double rel_tolerance, Lower lower, Extra extra) {
  RunOutcome out;
  Report& report = out.report;
  const bool traced = config.trace;
  SetIntraOpThreads(w.intra_op_threads);

  // Set-up, timed: construction plus warm-up steps (until the compile
  // cache stops missing). Repeated; the last instance is measured.
  std::vector<double> setup_s;
  std::unique_ptr<State> state;
  std::vector<float> losses;
  for (int r = 0; r < (traced ? 1 : w.setup_repeats); ++r) {
    state.reset();
    losses.clear();
    const auto start = Clock::now();
    state = make_state();
    for (int i = 0; i < w.warmup_steps; ++i) {
      losses.push_back(state->Step(i, nullptr, nullptr));
    }
    state->Sync();
    setup_s.push_back(SecondsSince(start));
  }

  SpanRecorder* rec = nullptr;
  if (traced) {
    out.recorders.push_back(
        std::make_unique<SpanRecorder>(Clock::now(), "main"));
    rec = out.recorders.back().get();
  }
  const SimTimes sim_before = state->Sim();
  const auto steal_before = CpuStealJiffies();
  CounterWindow window;
  std::vector<double> plain_s, traced_s;
  std::int64_t tape_nodes = 0;
  std::int64_t step = w.warmup_steps;
  const auto loop_start = Clock::now();
  while (SecondsSince(loop_start) < config.seconds) {
    const bool trace_step = traced && (step - w.warmup_steps) % 2 == 0;
    const auto start = Clock::now();
    losses.push_back(state->Step(step, trace_step ? rec : nullptr, &tape_nodes));
    (trace_step ? traced_s : plain_s).push_back(SecondsSince(start));
    ++step;
  }
  const double wall_s = SecondsSince(loop_start);
  state->Sync();
  window.Close();
  const double steal = StealShare(steal_before, CpuStealJiffies());
  const SimTimes sim_after = state->Sim();
  const std::int64_t timed_steps = step - w.warmup_steps;

  // Correctness gate, untimed: the leading steps against a reference that
  // bypasses the layer under test; every loss must be finite.
  const int checked =
      std::min<int>(kCheckedSteps, static_cast<int>(losses.size()));
  const std::vector<float> want = reference(checked);
  std::int64_t failed = CountMismatches(losses, want, rel_tolerance,
                                        rel_tolerance == 0.0 ? "bitwise" : "toleranced");
  for (float loss : losses) {
    if (!std::isfinite(loss)) ++failed;
  }
  out.attempted = static_cast<std::int64_t>(losses.size());
  out.failed = failed;
  out.correct = failed == 0;
  if (window.Delta("xla.cache.misses") != 0) {
    out.gate_failures.push_back(
        std::to_string(window.Delta("xla.cache.misses")) +
        " steady-state xla.cache.misses");
  }
  report.Note("failed_frac",
              static_cast<double>(out.failed) / static_cast<double>(out.attempted),
              "ratio");
  report.Note("validity.cpu_steal_frac", steal, "ratio");
  report.Note("intra_op_threads", IntraOpThreads(), "count");

  if (!traced) {
    AddEndToEndTraining(report, w, setup_s, plain_s, wall_s);
    return out;
  }

  // --- Per-layer figures from the traced run. ---------------------------
  const double measured_ms = Median(plain_s) * 1e3;
  const double traced_ms = Median(traced_s) * 1e3;
  const double items = static_cast<double>(timed_steps);
  auto span_ms = [&](const char* name) {
    const SpanRecorder::NameTotals t = rec->Totals(name);
    return t.count > 0 ? t.total_s * 1e3 / static_cast<double>(t.count) : 0.0;
  };
  AddCounterMetrics(report, window, items, static_cast<double>(tape_nodes));

  LoweredStep lowered = lower(*state);
  AddStepProgramMetrics(report, lowered, w.executed_is_compiled, 1.0,
                        config.seed, w.intra_op_threads);

  double predicted_ms =
      PredictedSecondsBetween(sim_before, sim_after) * 1e3 / items;
  extra(*state, report, window, lowered, span_ms, &predicted_ms,
        measured_ms);
  report.Note("device.predicted_ms", predicted_ms, "ms");
  report.Add("device.predicted_over_measured", predicted_ms / measured_ms,
             "ratio");
  report.Add("obs.trace_overhead_frac", traced_ms / measured_ms - 1.0,
             "ratio");
  report.Note("step_p50_ms.untraced_steps", measured_ms, "ms");
  report.Note("step_p50_ms.traced_steps", traced_ms, "ms");
  for (const char* span : {"ad.forward", "ad.backward", "nn.optimizer"}) {
    if (rec->Totals(span).count > 0) {
      report.Note(std::string(span) + "_ms", span_ms(span), "ms");
    }
  }
  report.Note("nn.train_step_self_ms",
              rec->Totals("nn.train_step").self_s * 1e3 /
                  std::max<double>(1.0, static_cast<double>(traced_s.size())),
              "ms");
  return out;
}

}  // namespace

RunOutcome RunLenetEager(const RunConfig& config) {
  constexpr int kBatch = 32;
  const TrainingWorkload w{kBatch, 1, false, 15, 0};
  return RunTraining<SingleDevice<nn::LeNet>>(
      config, w,
      [&] { return SetupSingle<nn::LeNet>(DeviceKind::kEager, kBatch, config.seed); },
      [&](int steps) {
        return NaiveReferenceLosses<nn::LeNet>(kBatch, config.seed, steps);
      },
      0.0,
      [](SingleDevice<nn::LeNet>& s) {
        return LowerTrainingStep(s.model, s.optimizer, s.Batch(0));
      },
      [&](SingleDevice<nn::LeNet>&, Report& report, const CounterWindow&,
          const LoweredStep&, auto span_ms, double* predicted_ms,
          double measured_ms) {
        const double host_ms = span_ms("ad.forward") + span_ms("ad.backward") +
                               span_ms("nn.optimizer");
        report.Note("eager.host_ms", host_ms, "ms");
        report.Note("eager.sync_wait_ms", span_ms("sync"), "ms");
        // Calibration: the same model and batch on the lazy backend.
        const auto [lazy_ms, lazy_predicted_ms] = TimeOnBackend<nn::LeNet>(
            DeviceKind::kLazy, kBatch, config.seed, 2, 5);
        report.Note("device.lazy_over_eager_predicted",
                    lazy_predicted_ms / *predicted_ms, "ratio");
        report.Note("device.lazy_over_eager_measured", lazy_ms / measured_ms,
                    "ratio");
      });
}

RunOutcome RunResnetLazy(const RunConfig& config) {
  constexpr int kBatch = 8;
  const TrainingWorkload w{kBatch, 2, true, 5, 0};
  return RunTraining<SingleDevice<nn::ResNet>>(
      config, w,
      [&] { return SetupSingle<nn::ResNet>(DeviceKind::kLazy, kBatch, config.seed); },
      [&](int steps) {
        return NaiveReferenceLosses<nn::ResNet>(kBatch, config.seed, steps);
      },
      kLazyRelativeTolerance,
      [](SingleDevice<nn::ResNet>& s) {
        return LowerTrainingStep(s.model, s.optimizer, s.Batch(0));
      },
      [&](SingleDevice<nn::ResNet>&, Report& report, const CounterWindow&,
          const LoweredStep&, auto span_ms, double* predicted_ms,
          double measured_ms) {
        report.Note("lazy.trace_ms",
                    span_ms("ad.forward") + span_ms("ad.backward") +
                        span_ms("nn.optimizer"),
                    "ms");
        report.Note("lazy.barrier_ms", span_ms("lazy.barrier"), "ms");
        // Calibration: the same model and batch on the eager backend.
        const auto [eager_ms, eager_predicted_ms] = TimeOnBackend<nn::ResNet>(
            DeviceKind::kEager, kBatch, config.seed, 1, 3);
        report.Note("device.lazy_over_eager_predicted",
                    *predicted_ms / eager_predicted_ms, "ratio");
        report.Note("device.lazy_over_eager_measured", measured_ms / eager_ms,
                    "ratio");
      });
}

RunOutcome RunDpLenetRing4(const RunConfig& config) {
  const TrainingWorkload w{kDpGlobalBatch, 1, false, 15, 1};
  return RunTraining<ReplicaState>(
      config, w, [&] { return SetupReplicas(config.seed, false); },
      [&](int steps) {
        auto ref = SetupReplicas(config.seed, true);
        std::vector<float> losses;
        for (int i = 0; i < steps; ++i) losses.push_back(ref->Step(i, nullptr, nullptr));
        return losses;
      },
      0.0,
      [](ReplicaState& s) {
        return LowerTrainingStep(s.model, s.optimizer, s.shards[0][0]);
      },
      [&](ReplicaState& s, Report& report, const CounterWindow& window,
          const LoweredStep& lowered, auto span_ms, double* predicted_ms,
          double) {
        report.Note("nn.replica_step_ms", span_ms("nn.replica_step"), "ms");
        const double early =
            static_cast<double>(window.Delta("dist.overlap.buckets.early"));
        const double at_wait = static_cast<double>(
            window.Delta("dist.overlap.buckets.flushed_at_wait"));
        report.Note("dist.overlap_early_frac",
                    early / std::max(1.0, early + at_wait), "ratio");
        report.Note("nn.replica_imbalance",
                    s.imbalance.empty() ? 1.0 : Median(s.imbalance), "ratio");
        // Naive replica devices carry no cost model: price one replica's
        // step program op by op plus the ring all-reduce of its gradient.
        xla::CompileOptions unfused;
        unfused.enable_fusion = false;
        SimAccelerator accelerator(AcceleratorSpec::Gtx1080());
        xla::Compile(lowered.module, unfused).executable->ChargeTo(accelerator);
        *predicted_ms =
            (accelerator.elapsed_seconds() +
             AllReduceSeconds(AcceleratorSpec::Gtx1080(),
                              LenetParameterCount() * 4, kWorld)) *
            1e3;
        // AD split of one replica's step (the compute each rank runs).
        nn::LeNet model = s.model;
        nn::SGD<nn::LeNet> optimizer = s.optimizer;
        SpanRecorder probe(Clock::now(), "ad_probe");
        for (int i = 0; i < 5; ++i) {
          SplitStep(model, optimizer, s.shards[0][0], NaiveDevice(), i, &probe,
                    nullptr);
        }
        auto probe_ms = [&](const char* name) {
          const auto t = probe.Totals(name);
          return t.total_s * 1e3 / static_cast<double>(std::max<std::int64_t>(1, t.count));
        };
        report.Note("ad.replica_forward_ms", probe_ms("ad.forward"), "ms");
        report.Note("ad.replica_backward_ms", probe_ms("ad.backward"), "ms");
      });
}

std::uint64_t TrainingInputDigest(const std::string& workload,
                                  std::uint64_t seed) {
  std::uint64_t hash = Fnv1a(workload.data(), workload.size());
  auto add_tensor = [&](const Tensor& t) {
    const std::vector<float> values = t.ToVector();
    hash = Fnv1a(values.data(), values.size() * sizeof(float), hash);
  };
  auto add_model = [&](auto& model) {
    model.VisitParameters([&](Tensor& p) { add_tensor(p); });
  };
  if (workload == "resnet_lazy") {
    auto s = SetupSingle<nn::ResNet>(DeviceKind::kNaive, 8, seed);
    add_model(s->model);
    for (const auto& b : s->batches) {
      add_tensor(b.images);
      add_tensor(b.one_hot);
    }
  } else if (workload == "lenet_eager") {
    auto s = SetupSingle<nn::LeNet>(DeviceKind::kNaive, 32, seed);
    add_model(s->model);
    for (const auto& b : s->batches) {
      add_tensor(b.images);
      add_tensor(b.one_hot);
    }
  } else {
    auto s = SetupReplicas(seed, true);
    add_model(s->model);
    for (const auto& shards : s->shards) {
      for (const auto& b : shards) {
        add_tensor(b.images);
        add_tensor(b.one_hot);
      }
    }
  }
  return hash;
}

}  // namespace perfbench
