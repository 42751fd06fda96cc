#include "probes.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <thread>

#include "device/cost_model.h"
#include "dist/communicator.h"
#include "nn/models/lenet.h"
#include "serve/batch.h"
#include "serve/servable.h"
#include "support/threadpool.h"
#include "tensor/kernels.h"

namespace perfbench {

using namespace s4tf;

serve::MlpModel MakeServedModel(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  return serve::MlpModel::Create(kMlpIn, kMlpHidden, kMlpOut, rng);
}

LoweredStep LowerRoots(const std::vector<Tensor>& roots) {
  std::vector<std::shared_ptr<LazyNode>> nodes;
  nodes.reserve(roots.size());
  for (const Tensor& t : roots) {
    auto* impl = dynamic_cast<LazyImpl*>(t.impl().get());
    S4TF_CHECK(impl != nullptr) << "lowered step left the lazy device";
    nodes.push_back(impl->node());
  }
  LoweredStep step;
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::shared_ptr<LazyNode>> leaves;
    const auto start = Clock::now();
    xla::HloModule module = LowerTrace(nodes, &leaves);
    times.push_back(SecondsSince(start) * 1e3);
    if (rep == 0) {
      step.module = std::move(module);
      for (const auto& leaf : leaves) step.parameters.push_back(leaf->LeafValue());
    }
  }
  step.lower_ms = Median(times);
  return step;
}

namespace {

const char* FamilyOf(OpKind kind) {
  switch (kind) {
    case OpKind::kConv2D:
    case OpKind::kConv2DBackpropInput:
    case OpKind::kConv2DBackpropFilter:
      return "conv";
    case OpKind::kMatMul:
      return "matmul";
    case OpKind::kReduceSum:
    case OpKind::kReduceMean:
    case OpKind::kReduceMax:
    case OpKind::kArgMax:
    case OpKind::kSoftmax:
    case OpKind::kLogSoftmax:
      return "reduce";
    default:
      return IsElementwise(kind) ? "eltwise" : "other";
  }
}

// Time of one replay of a module's instructions, by op family.
struct KernelFamily {
  double seconds = 0.0;
  std::int64_t flops = 0;
  std::int64_t bytes = 0;
};
struct KernelReplay {
  std::map<std::string, KernelFamily> families;  // conv matmul eltwise ...
  double total_seconds = 0.0;
};

struct XlaProbe {
  double compile_ms = 0.0;
  double cache_hit_us = 0.0;
  double execute_ms = 0.0;
  KernelReplay compiled_replay;  // the compiled module, op by op
  std::int64_t kernels = 0;
  std::int64_t instructions = 0;
  double arena_peak_mb = 0.0;
};

// Replays every instruction through EvalOpLiteral `reps` times; per-family
// times are medians over the repetitions.
KernelReplay ReplayKernels(const xla::HloModule& module,
                           const std::vector<Literal>& parameters, int reps) {
  const auto& insts = module.instructions();
  const std::size_t n = insts.size();
  std::vector<xla::HloId> last_use(n, -1);
  for (const xla::HloInstruction& inst : insts) {
    for (xla::HloId op : inst.operands) {
      last_use[static_cast<std::size_t>(op)] =
          std::max(last_use[static_cast<std::size_t>(op)], inst.id);
    }
  }

  KernelReplay replay;
  std::map<std::string, std::vector<double>> family_times;
  std::vector<double> totals;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::optional<Literal>> env(n);
    std::map<std::string, double> seconds;
    double total = 0.0;
    for (const xla::HloInstruction& inst : insts) {
      const std::size_t id = static_cast<std::size_t>(inst.id);
      if (inst.kind == OpKind::kParameter) {
        env[id] = parameters.at(static_cast<std::size_t>(inst.parameter_index));
      } else if (inst.kind == OpKind::kConstant) {
        env[id] = inst.literal;
      } else {
        std::vector<const Literal*> inputs;
        inputs.reserve(inst.operands.size());
        for (xla::HloId op : inst.operands) {
          inputs.push_back(&*env[static_cast<std::size_t>(op)]);
        }
        const auto start = Clock::now();
        Literal out = EvalOpLiteral(inst.kind, inputs, inst.attrs);
        const double dt = SecondsSince(start);
        const char* family = FamilyOf(inst.kind);
        seconds[family] += dt;
        total += dt;
        if (rep == 0) {
          std::vector<Shape> shapes;
          for (const Literal* in : inputs) shapes.push_back(in->shape);
          KernelFamily& f = replay.families[family];
          f.flops += OpFlops(inst.kind, shapes, inst.shape, inst.attrs);
          f.bytes += OpBytes(shapes, inst.shape);
        }
        env[id] = std::move(out);
      }
      for (xla::HloId op : inst.operands) {
        if (last_use[static_cast<std::size_t>(op)] == inst.id) {
          env[static_cast<std::size_t>(op)].reset();
        }
      }
      if (last_use[id] < 0) env[id].reset();
    }
    for (auto& [family, f] : replay.families) {
      family_times[family].push_back(seconds[family]);
    }
    totals.push_back(total);
  }
  for (auto& [family, f] : replay.families) {
    f.seconds = Median(family_times[family]);
  }
  replay.total_seconds = Median(totals);
  return replay;
}

// A cold xla::Compile of the step module, a CompileCache hit, and
// Executable::Run on the step's values.
XlaProbe ProbeXla(const LoweredStep& step) {
  XlaProbe probe;
  std::vector<double> compile_ms;
  std::shared_ptr<xla::Executable> executable;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    xla::CompileResult result = xla::Compile(step.module);
    compile_ms.push_back(SecondsSince(start) * 1e3);
    executable = result.executable;
  }
  probe.compile_ms = Median(compile_ms);

  xla::CompileCache cache;
  cache.GetOrCompile(step.module);
  std::vector<double> hit_us;
  constexpr int kHitsPerBatch = 50;
  for (int batch = 0; batch < 5; ++batch) {
    const auto start = Clock::now();
    for (int i = 0; i < kHitsPerBatch; ++i) cache.GetOrCompile(step.module);
    hit_us.push_back(SecondsSince(start) * 1e6 / kHitsPerBatch);
  }
  probe.cache_hit_us = Median(hit_us);

  std::vector<double> execute_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    const std::vector<Literal> outputs = executable->Run(step.parameters);
    execute_ms.push_back(SecondsSince(start) * 1e3);
    S4TF_CHECK_EQ(outputs.size(), executable->module().roots().size());
  }
  probe.execute_ms = Median(execute_ms);
  probe.compiled_replay =
      ReplayKernels(executable->module(), step.parameters, 3);
  probe.kernels = executable->kernel_count();
  probe.instructions = executable->module().instruction_count();
  probe.arena_peak_mb = static_cast<double>(executable->arena_peak_bytes()) / 1e6;
  return probe;
}

// Median microseconds per empty-body ParallelForRange over four blocks at
// `threads` intra-op threads; leaves the setting at `restore`.
double ProbeParallelForUs(int threads, int restore) {
  SetIntraOpThreads(threads);
  const std::function<void(std::int64_t, std::int64_t)> body =
      [](std::int64_t, std::int64_t) {};
  for (int i = 0; i < 100; ++i) ParallelForRange(4096, 1024, body);
  std::vector<double> per_call_us;
  constexpr int kCalls = 500;
  for (int batch = 0; batch < 7; ++batch) {
    const auto start = Clock::now();
    for (int i = 0; i < kCalls; ++i) ParallelForRange(4096, 1024, body);
    per_call_us.push_back(SecondsSince(start) * 1e6 / kCalls);
  }
  SetIntraOpThreads(restore);
  return Median(per_call_us);
}

// GB/s of a `world`-rank ring all-reduce-mean of `elements` floats (bytes
// per rank over the median wall time of one collective).
double ProbeRingAllReduceGbps(std::int64_t elements, int world) {
  dist::RingCommunicator comm(world);
  std::vector<std::vector<float>> buffers(
      static_cast<std::size_t>(world),
      std::vector<float>(static_cast<std::size_t>(elements), 1.0f));
  constexpr int kWarmup = 3;
  constexpr int kReps = 25;
  std::vector<double> seconds;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  std::vector<std::thread> threads;
  for (int rank = 0; rank < world; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        for (int i = 0; i < kWarmup + kReps; ++i) {
          const auto start = Clock::now();
          comm.Run(rank,
                   dist::CollectiveSpec::AllReduce(dist::ReduceOp::kMean),
                   buffers[static_cast<std::size_t>(rank)]);
          if (rank == 0 && i >= kWarmup) seconds.push_back(SecondsSince(start));
        }
      } catch (...) {
        errors[static_cast<std::size_t>(rank)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  const double bytes = static_cast<double>(elements) * sizeof(float);
  return bytes / Median(seconds) / 1e9;
}

RunBatchProbe ProbeServeRunBatch(std::uint64_t seed) {
  const serve::MlpModel model = MakeServedModel(seed);
  serve::XlaServableOptions options;
  options.max_batch = 8;
  serve::XlaServable servable("mlp", model.Fn(), model.sample_shape(),
                              options);
  servable.Warmup();
  Rng rng(seed + 99);
  std::vector<Literal> samples;
  for (int i = 0; i < 8; ++i) {
    std::vector<float> data(kMlpIn);
    rng.FillUniform(data.data(), data.size(), -1.0f, 1.0f);
    samples.push_back(Literal::FromVector(model.sample_shape(), std::move(data)));
  }
  auto time_batch = [&](int padded, int calls) {
    std::vector<const Literal*> rows;
    for (int i = 0; i < padded; ++i) rows.push_back(&samples[static_cast<std::size_t>(i)]);
    const Literal batch =
        serve::AssembleBatch(rows, model.sample_shape(), padded);
    for (int i = 0; i < 10; ++i) servable.RunBatch(batch);
    std::vector<double> us;
    for (int i = 0; i < calls; ++i) {
      const auto start = Clock::now();
      const Literal out = servable.RunBatch(batch);
      us.push_back(SecondsSince(start) * 1e6);
    }
    return Median(us);
  };
  RunBatchProbe probe;
  probe.b1_us = time_batch(1, 200);
  probe.b8_us = time_batch(8, 100);
  return probe;
}

}  // namespace

std::int64_t LenetParameterCount() {
  Rng rng(1);
  nn::LeNet model(rng);
  std::int64_t count = 0;
  model.VisitParameters([&](Tensor& p) { count += p.NumElements(); });
  return count;
}

void AddCounterMetrics(Report& report, const CounterWindow& window,
                       double items, double tape_nodes) {
  auto per = [&](const char* counter) {
    return static_cast<double>(window.Delta(counter)) / items;
  };
  report.Add("tensor.kernel_dispatches", per("tensor.kernel.dispatches"),
             "count");
  report.Add("tensor.kernel_bytes", per("tensor.kernel.bytes"), "B");
  report.Add("support.parallel_for_regions",
             per("support.parallel_for.regions"), "count");
  report.Add("ad.tape_nodes", tape_nodes, "count");
  report.Add("eager.ops", per("eager.ops_dispatched"), "count");
  report.Add("lazy.ops_traced", per("lazy.ops_traced"), "count");
  report.Add("dist.bytes", per("dist.allreduce.bytes"), "B");
  report.Add("dist.messages", per("dist.send.messages"), "count");
  report.Add("dist.retries",
             static_cast<double>(window.Delta("dist.retry.count")), "count");
}

RunBatchProbe AddStepProgramMetrics(Report& report, const LoweredStep& step,
                                    bool executed_is_compiled,
                                    double per_item_divisor,
                                    std::uint64_t seed, int restore_threads) {
  const XlaProbe xla_probe = ProbeXla(step);
  // Kernel replay of what the workload's backend runs op by op.
  const KernelReplay replay =
      executed_is_compiled
          ? xla_probe.compiled_replay
          : ReplayKernels(step.module, step.parameters, 3);
  auto family = [&](const char* name) {
    auto it = replay.families.find(name);
    return it == replay.families.end() ? KernelFamily{} : it->second;
  };
  const double d = per_item_divisor;
  report.Add("tensor.replay_ms", replay.total_seconds * 1e3 / d, "ms");
  for (const char* name : {"matmul", "eltwise", "reduce"}) {
    report.Add(std::string("tensor.") + name + "_ms",
               family(name).seconds * 1e3 / d, "ms");
  }
  for (const char* name : {"conv", "other"}) {
    report.Note(std::string("tensor.") + name + "_ms",
                family(name).seconds * 1e3 / d, "ms");
  }
  auto rate = [](double amount, double seconds) {
    return seconds > 0.0 ? amount / seconds / 1e9 : 0.0;
  };
  report.Add("tensor.matmul_gflops",
             rate(static_cast<double>(family("matmul").flops),
                  family("matmul").seconds),
             "GFLOP/s");
  report.Note("tensor.conv_gflops",
              rate(static_cast<double>(family("conv").flops),
                   family("conv").seconds),
              "GFLOP/s");
  report.Add("tensor.eltwise_gbps",
             rate(static_cast<double>(family("eltwise").bytes),
                  family("eltwise").seconds),
             "GB/s");
  report.Add("tensor.reduce_gbps",
             rate(static_cast<double>(family("reduce").bytes),
                  family("reduce").seconds),
             "GB/s");

  report.Add("lazy.lower_ms", step.lower_ms, "ms");
  report.Add("xla.compile_ms", xla_probe.compile_ms, "ms");
  report.Add("xla.cache_hit_us", xla_probe.cache_hit_us, "us");
  report.Add("xla.execute_ms", xla_probe.execute_ms, "ms");
  report.Add("xla.interp_overhead_ms",
             xla_probe.execute_ms -
                 xla_probe.compiled_replay.total_seconds * 1e3,
             "ms");
  report.Add("xla.kernels", static_cast<double>(xla_probe.kernels), "count");
  report.Add("xla.instructions", static_cast<double>(xla_probe.instructions),
             "count");
  report.Add("xla.arena_peak_mb", xla_probe.arena_peak_mb, "MB");

  report.Add("support.parallel_for_overhead_us",
             ProbeParallelForUs(4, restore_threads), "us");
  report.Add("support.parallel_for_overhead_1t_us",
             ProbeParallelForUs(1, restore_threads), "us");
  report.Add("dist.allreduce_gbps",
             ProbeRingAllReduceGbps(LenetParameterCount(), 4), "GB/s");
  // The serving probe is the same on every workload: default threads.
  SetIntraOpThreads(0);
  const RunBatchProbe run_batch = ProbeServeRunBatch(seed);
  SetIntraOpThreads(restore_threads);
  report.Add("serve.run_batch_b1_us", run_batch.b1_us, "us");
  report.Add("serve.run_batch_b8_us", run_batch.b8_us, "us");
  return run_batch;
}

}  // namespace perfbench
