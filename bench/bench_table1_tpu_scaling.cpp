// Table 1: "Swift for TensorFlow training performance for ResNet-50 on
// ImageNet on TPUv3 clusters."
//
//   paper:  16 cores: 78.1% acc, 189 min, 10164 ex/s, 635.25 ex/s/core
//           32 cores: 77.7% acc,  96 min, 20015 ex/s, 625.47 ex/s/core
//          128 cores: 77.8% acc,  25 min, 77726 ex/s, 607.23 ex/s/core
//   shape:  per-accelerator throughput largely flat while scaling 16->128
//           cores (a few percent lost to the synchronous all-reduce), and
//           validation accuracy independent of cluster size.
//
// Method: the S4TF LazyTensor strategy prices one per-core SGD step
// (traced at the per-core batch and compiled by the XLA-like JIT), then a
// synchronous data-parallel step on N simulated TPUv3 cores adds the ring
// all-reduce of the gradients. The accuracy column is *measured* by
// actually training the scaled ResNet on the synthetic ImageNet stand-in
// (same model/data for every row — data parallelism does not change the
// math, which is why the paper's accuracies match across cluster sizes).
#include <cstdio>

#include "device/sim_accelerator.h"
#include "report.h"
#include "frameworks/profiles.h"
#include "nn/models/lenet.h"
#include "nn/models/resnet.h"
#include "nn/replica_group.h"
#include "nn/training.h"
#include "step_program.h"

namespace s4tf::bench {
namespace {

constexpr std::int64_t kPerCoreBatch = 32;
constexpr double kImageNetEpochExamples = 1.28e6;

// Real (wall-clock) training of the scaled model on synthetic data to
// produce the accuracy column.
float MeasureAccuracy() {
  Rng rng(11);
  nn::ResNet model(nn::ResNetConfig::ImageNetScaled(1, 8, 10), rng);
  // High-noise variant so the accuracy column is not a trivial 100%.
  const nn::SyntheticImageDataset dataset(Shape({16, 16, 3}), 10, 96, 5,
                                          /*noise=*/1.6f);
  nn::SGD<nn::ResNet> sgd(0.08f, 0.9f);
  for (int epoch = 0; epoch < 4; ++epoch) {
    nn::TrainEpoch(model, sgd, dataset, /*batch_size=*/8);
  }
  return nn::Evaluate(model, dataset, 8, 6);
}

}  // namespace
}  // namespace s4tf::bench

int main() {
  using namespace s4tf;
  using namespace s4tf::bench;

  std::printf(
      "== Table 1: S4TF ResNet-50-class training on simulated TPUv3 "
      "clusters ==\n\n");

  BenchReport report("table1_tpu_scaling");
  report.SetConfig("per_core_batch", kPerCoreBatch);
  report.SetConfig("model", std::string("resnet50_imagenet_scaled"));

  Rng rng(3);
  const nn::ResNet model(nn::ResNetConfig::ImageNetScaled(2, 16, 100), rng);
  const StepProgram program =
      BuildStepProgram(model, Shape({kPerCoreBatch, 32, 32, 3}), 100, 0.1f);

  const frameworks::FrameworkProfile profile =
      frameworks::Table2S4tfProfile();
  const AcceleratorSpec spec = AcceleratorSpec::TpuV3Core();
  SimAccelerator device(spec);
  program.fused->ChargeTo(device);
  const double device_seconds =
      device.elapsed_seconds() / profile.device_efficiency;
  const double host_seconds =
      static_cast<double>(program.trace_ops) * profile.per_op_host_seconds;

  std::printf("accuracy run (real training on synthetic stand-in data)...\n");
  WallTimer acc_timer;
  MetricsDelta counters;
  const float accuracy = MeasureAccuracy();
  counters.Capture();  // freeze the window before reading it out
  std::printf("measured accuracy: %.1f%%  (in %.1f s wall)\n%s\n\n",
              100.0f * accuracy, acc_timer.Seconds(),
              counters.Summary().c_str());
  {
    BenchRow& row = report.AddRow("accuracy_run");
    row.SetCounters(counters);
    row.SetValue("accuracy_top1", static_cast<double>(accuracy));
    WallStats acc_wall;
    acc_wall.AddSample(acc_timer.Milliseconds());
    row.SetWall("train_4_epochs", acc_wall);
    row.SetValue("step_program.trace_ops",
                 static_cast<double>(program.trace_ops));
    row.SetValue("step_program.parameter_bytes",
                 static_cast<double>(program.parameter_bytes()));
    row.SetValue("cost.device_step_seconds", device_seconds);
    row.SetValue("cost.host_trace_seconds", host_seconds);
  }

  TablePrinter table({"# Cores", "Accuracy (top-1)", "Training time",
                      "Throughput (ex/s)", "Per-core (ex/s/core)"},
                     {8, 17, 16, 18, 20});
  table.PrintHeader();

  double per_core_16 = 0.0, per_core_128 = 0.0;
  for (int cores : {16, 32, 128}) {
    const double allreduce =
        AllReduceSeconds(spec, program.parameter_bytes(), cores);
    // Tracing of the next step overlaps device execution (see Table 2
    // harness); the synchronous all-reduce does not overlap.
    const double step_seconds =
        std::max(host_seconds, device_seconds) + allreduce;
    const double throughput =
        static_cast<double>(cores * kPerCoreBatch) / step_seconds;
    const double per_core = throughput / cores;
    const double minutes =
        90.0 * kImageNetEpochExamples / throughput / 60.0;
    if (cores == 16) per_core_16 = per_core;
    if (cores == 128) per_core_128 = per_core;
    table.PrintRow({FormatInt(cores),
                    FormatF(100.0f * accuracy, 1) + "%",
                    FormatF(minutes, 0) + " minutes",
                    FormatF(throughput, 0), FormatF(per_core, 2)});
    // Everything here is cost-model arithmetic: fully deterministic.
    BenchRow& row = report.AddRow("scaling/cores=" + FormatInt(cores));
    row.SetValue("cost.allreduce_seconds", allreduce);
    row.SetValue("cost.step_seconds", step_seconds);
    row.SetValue("throughput_ex_per_s", throughput);
    row.SetValue("per_core_ex_per_s", per_core);
    row.SetValue("training_minutes", minutes);
  }
  table.PrintRule();

  std::printf(
      "\npaper reference:  per-core throughput 635.25 (16) -> 625.47 (32) "
      "-> 607.23 (128): ~4%% decay\n");
  const double decay = 1.0 - per_core_128 / per_core_16;
  std::printf("measured decay 16->128 cores: %.1f%%\n", 100.0 * decay);
  const bool shape_holds = decay > 0.0 && decay < 0.15;
  std::printf("shape holds (flat scaling, small sync cost): %s\n",
              shape_holds ? "YES" : "NO");

  // -- Communication/computation overlap (cost model) ----------------------
  // ReplicaGroup now hands gradient buckets to the communicator as the
  // reverse sweep finalizes them, so early buckets' ring time hides
  // behind the remaining backward compute. Both columns price the same
  // per-bucket ring transfers; only the schedule differs. The backward
  // pass is ~2/3 of device step time (forward 1x, backward 2x).
  std::printf(
      "\n== Exposed gradient-communication time: synchronous vs overlapped "
      "(simulated TPUv3) ==\n\n");
  const std::int64_t bucket_bytes = dist::CollectiveOptions{}.bucket_bytes;
  report.SetConfig("bucket_bytes", bucket_bytes);
  const double backward_seconds = device_seconds * 2.0 / 3.0;
  TablePrinter overlap_table({"# Cores", "Sync comm (ms)",
                              "Overlap exposed (ms)", "Hidden (%)",
                              "Strictly lower"},
                             {8, 15, 21, 11, 15});
  overlap_table.PrintHeader();
  bool overlap_wins = true;
  for (int cores : {2, 16, 32, 128}) {
    double sync_comm = 0.0;
    for (std::int64_t off = 0; off < program.parameter_bytes();
         off += bucket_bytes) {
      sync_comm += AllReduceSeconds(
          spec, std::min<std::int64_t>(bucket_bytes,
                                       program.parameter_bytes() - off),
          cores);
    }
    const double exposed = OverlappedExposedAllReduceSeconds(
        spec, program.parameter_bytes(), bucket_bytes, cores,
        backward_seconds);
    const bool lower = exposed < sync_comm;
    overlap_wins = overlap_wins && lower;
    overlap_table.PrintRow(
        {FormatInt(cores), FormatF(sync_comm * 1e3, 3),
         FormatF(exposed * 1e3, 3),
         FormatF(100.0 * (1.0 - exposed / sync_comm), 1),
         lower ? "YES" : "NO"});
    BenchRow& row = report.AddRow("overlap/cores=" + FormatInt(cores));
    row.SetValue("cost.sync_comm_seconds", sync_comm);
    row.SetValue("cost.overlap_exposed_seconds", exposed);
    row.SetText("exposed_strictly_lower", lower ? "YES" : "NO");
  }
  overlap_table.PrintRule();
  std::printf("overlap exposed < sync comm for every world size >= 2: %s\n",
              overlap_wins ? "YES" : "NO");

  // -- Measured replica runtime --------------------------------------------
  // The analytic rows above price the collective; this section *runs* it:
  // ReplicaGroup trains LeNet with per-replica worker threads and the
  // bucketed ring all-reduce streamed during the backward pass, reporting
  // real per-replica wall-clock and the collective traffic counters, plus
  // each replica's simulated ring cost on TPUv3 cores. (Wall-clock
  // speedups need a multi-core host.) The verdict column re-trains the
  // same data on a sequential = true group — outside the row's counter
  // window — and checks the threaded run against it bitwise.
  std::printf(
      "\n== Measured in-process replica runtime (LeNet, global batch 32) "
      "==\n\n");
  TablePrinter replica_table(
      {"Replicas", "Loss", "Step wall (ms)", "Replica0 (ms)", "Allreduce MB",
       "Chunks", "Early bkts", "Sim collective (ms)", "== seq"},
      {9, 9, 15, 14, 13, 9, 11, 20, 7});
  replica_table.PrintHeader();
  bool matches_sequential = true;
  for (int replicas : {1, 2, 4, 8}) {
    constexpr int kMeasuredSteps = 3;
    const auto dataset = nn::SyntheticImageDataset::Mnist(64, 7);
    // Trains a fresh LeNet for kMeasuredSteps on `group`, returning the
    // final loss and parameters. With `window`, the training steps (not
    // the model's initialization) are its counter window and their
    // wall-clock lands in the two WallStats.
    const auto train = [&](nn::ReplicaGroup& group, MetricsDelta* window,
                           WallStats* step_wall, WallStats* replica0_wall) {
      Rng lenet_rng(5);
      nn::LeNet lenet(lenet_rng);
      nn::SGD<nn::LeNet> lenet_sgd(0.1f);
      if (window != nullptr) window->Reset();
      float loss = 0.0f;
      for (int step = 0; step < kMeasuredSteps; ++step) {
        const nn::LabeledBatch batch =
            dataset.Batch(step, 32, NaiveDevice());
        loss = group.TrainStep(lenet, lenet_sgd,
                               nn::ShardBatch(batch, replicas));
        if (window != nullptr) {
          step_wall->AddSample(group.last_step_wall_seconds() * 1e3);
          replica0_wall->AddSample(group.last_step_replica_seconds(0) * 1e3);
        }
      }
      if (window != nullptr) window->Capture();
      std::vector<std::vector<float>> params;
      lenet.VisitParameters(
          [&](const Tensor& p) { params.push_back(p.ToVector()); });
      return std::make_pair(loss, std::move(params));
    };

    nn::ReplicaGroupOptions options;
    options.accelerator = spec;
    nn::ReplicaGroup group(replicas, options);
    MetricsDelta dist_counters;
    WallStats step_wall, replica0_wall;
    const auto threaded =
        train(group, &dist_counters, &step_wall, &replica0_wall);
    const float loss = threaded.first;

    nn::ReplicaGroupOptions reference_options;
    reference_options.sequential = true;
    nn::ReplicaGroup reference_group(replicas, reference_options);
    const auto reference = train(reference_group, nullptr, nullptr, nullptr);
    const bool bitwise = threaded == reference;
    matches_sequential = matches_sequential && bitwise;

    const double wall_ms = step_wall.mean_ms * kMeasuredSteps;
    const double replica0_ms = replica0_wall.mean_ms * kMeasuredSteps;
    replica_table.PrintRow(
        {FormatInt(replicas), FormatF(loss, 4),
         FormatF(wall_ms / kMeasuredSteps, 1),
         FormatF(replica0_ms / kMeasuredSteps, 1),
         FormatF(static_cast<double>(
                     dist_counters.Counter("dist.allreduce.bytes")) /
                     1e6,
                 2),
         FormatInt(dist_counters.Counter("dist.allreduce.chunks")),
         FormatInt(dist_counters.Counter("dist.overlap.buckets.early")),
         FormatF(group.accelerator(0)->elapsed_seconds() * 1e3, 3),
         bitwise ? "YES" : "NO"});
    // The label keeps its historical "/overlap=on" suffix so artifact
    // diffs line up with earlier baselines.
    BenchRow& row =
        report.AddRow("replica/world=" + FormatInt(replicas) + "/overlap=on");
    row.SetCounters(dist_counters);
    row.SetValue("loss", static_cast<double>(loss));
    row.SetValue("cost.sim_collective_seconds",
                 group.accelerator(0)->elapsed_seconds());
    row.SetWall("train_step", step_wall);
    row.SetWall("replica0_step", replica0_wall);
  }
  replica_table.PrintRule();
  std::printf(
      "threaded losses and weights == sequential reference, bitwise, at "
      "every world size: %s\n",
      matches_sequential ? "YES" : "NO");

  // -- Hierarchical topology at world 16-256 (cost model) ------------------
  // A flat ring pays 2(N-1) latency hops; with 8 cores per host, the
  // intra-host tree + inter-host ring replaces that with
  // 2*ceil(log2(8)) fast local rounds plus a ring over N/8 hosts —
  // which is what keeps per-core throughput credible at world 64-256.
  std::printf(
      "\n== Hierarchical vs flat all-reduce, world 16-256 (simulated "
      "TPUv3, 8 cores/host) ==\n\n");
  const CommTopology hier_topology{/*replicas_per_host=*/8};
  report.SetConfig("replicas_per_host",
                   static_cast<std::int64_t>(hier_topology.replicas_per_host));
  TablePrinter hier_table({"# Cores", "Flat ring (ms)", "Hierarchical (ms)",
                           "Speedup", "Hier wins"},
                          {8, 15, 18, 9, 10});
  hier_table.PrintHeader();
  bool hierarchy_wins = true;
  for (int cores : {16, 64, 128, 256}) {
    const double flat =
        AllReduceSeconds(spec, program.parameter_bytes(), cores);
    const double hier = HierarchicalAllReduceSeconds(
        spec, program.parameter_bytes(), cores, hier_topology);
    const bool wins = hier < flat;
    if (cores >= 64) hierarchy_wins = hierarchy_wins && wins;
    hier_table.PrintRow({FormatInt(cores), FormatF(flat * 1e3, 3),
                         FormatF(hier * 1e3, 3),
                         FormatF(flat / hier, 2) + "x",
                         wins ? "YES" : "NO"});
    // Pure cost-model arithmetic: exact-gated in the artifact.
    BenchRow& row = report.AddRow("hierarchical/cores=" + FormatInt(cores));
    row.SetValue("cost.flat_allreduce_seconds", flat);
    row.SetValue("cost.hierarchical_allreduce_seconds", hier);
    row.SetValue("cost.reduce_scatter_seconds",
                 ReduceScatterSeconds(spec, program.parameter_bytes(), cores));
    row.SetValue("cost.all_gather_seconds",
                 AllGatherSeconds(spec, program.parameter_bytes(), cores));
    row.SetText("hierarchical_faster", wins ? "YES" : "NO");
  }
  hier_table.PrintRule();
  std::printf("hierarchical beats the flat ring at world >= 64: %s\n",
              hierarchy_wins ? "YES" : "NO");

  // -- ZeRO-style sharded optimizer state (measured) -----------------------
  // Runs the sharded TrainStep for real: gradients reduce-scatter, each
  // rank's Adam copy updates only its owned slot range, parameters
  // all-gather. The bitwise column checks sharded == replicated weights
  // and loss after two steps; the state column is each rank's measured
  // optimizer-state footprint (the ZeRO ~1/world memory claim).
  std::printf(
      "\n== ZeRO sharded optimizer state: LeNet + Adam, 2 steps, "
      "replicated vs sharded ==\n\n");
  TablePrinter zero_table({"Replicas", "Mode", "Loss", "State/rank (KB)",
                           "RS MB", "AG MB", "Bitwise =="},
                          {9, 11, 9, 17, 9, 9, 11});
  zero_table.PrintHeader();
  bool sharded_matches = true;
  bool state_shrinks = true;
  for (int replicas : {1, 2, 4, 8}) {
    float zero_loss[2] = {0.0f, 0.0f};
    std::vector<std::vector<float>> zero_params[2];
    std::int64_t state_per_rank[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      const bool sharded_on = mode == 1;
      nn::ReplicaGroupOptions options;
      options.sharded = sharded_on;
      nn::ReplicaGroup group(replicas, options);
      const auto dataset = nn::SyntheticImageDataset::Mnist(64, 7);
      Rng lenet_rng(5);
      nn::LeNet lenet(lenet_rng);
      nn::Adam<nn::LeNet> adam(0.01f);
      MetricsDelta zero_counters;
      float loss = 0.0f;
      for (int step = 0; step < 2; ++step) {
        const nn::LabeledBatch batch = dataset.Batch(step, 32, NaiveDevice());
        loss = group.TrainStep(lenet, adam, nn::ShardBatch(batch, replicas));
      }
      zero_counters.Capture();
      zero_loss[mode] = loss;
      lenet.VisitParameters([&](const Tensor& p) {
        zero_params[mode].push_back(p.ToVector());
      });
      if (sharded_on) {
        for (int r = 0; r < replicas; ++r) {
          state_per_rank[mode] =
              std::max(state_per_rank[mode], group.zero_opt_state_bytes(r));
        }
      } else {
        state_per_rank[mode] = nn::OptimizerStateBytes(adam);
      }
      zero_table.PrintRow(
          {FormatInt(replicas), sharded_on ? "sharded" : "replicated",
           FormatF(loss, 4),
           FormatF(static_cast<double>(state_per_rank[mode]) / 1024.0, 1),
           FormatF(static_cast<double>(zero_counters.Counter(
                       "dist.reduce_scatter.bytes")) /
                       1e6,
                   2),
           FormatF(static_cast<double>(
                       zero_counters.Counter("dist.all_gather.bytes")) /
                       1e6,
                   2),
           sharded_on ? (zero_params[1] == zero_params[0] &&
                                 zero_loss[1] == zero_loss[0]
                             ? "YES"
                             : "NO")
                      : "-"});
      // Losses, per-rank state bytes, and the RS/AG traffic counters are
      // logical quantities — deterministic, hence exact-gated.
      BenchRow& row =
          report.AddRow("zero/world=" + FormatInt(replicas) + "/mode=" +
                        (sharded_on ? "sharded" : "replicated"));
      row.SetCounters(zero_counters);
      row.SetValue("loss", static_cast<double>(loss));
      row.SetValue("opt_state_bytes_per_rank",
                   static_cast<double>(state_per_rank[mode]));
    }
    sharded_matches = sharded_matches &&
                      zero_params[1] == zero_params[0] &&
                      zero_loss[1] == zero_loss[0];
    if (replicas >= 2) {
      state_shrinks =
          state_shrinks && state_per_rank[1] < state_per_rank[0];
    }
  }
  zero_table.PrintRule();
  std::printf(
      "sharded == replicated bitwise at every world size: %s\n"
      "per-rank optimizer state shrinks for world >= 2: %s\n",
      sharded_matches ? "YES" : "NO", state_shrinks ? "YES" : "NO");

  BenchRow& verdicts = report.AddRow("verdicts");
  verdicts.SetText("shape_holds", shape_holds ? "YES" : "NO");
  verdicts.SetText("overlap_wins", overlap_wins ? "YES" : "NO");
  verdicts.SetText("matches_sequential", matches_sequential ? "YES" : "NO");
  verdicts.SetText("hierarchy_wins", hierarchy_wins ? "YES" : "NO");
  verdicts.SetText("sharded_matches", sharded_matches ? "YES" : "NO");
  verdicts.SetText("state_shrinks", state_shrinks ? "YES" : "NO");
  const bool artifact_ok = report.Write();
  return (shape_holds && overlap_wins && matches_sequential && hierarchy_wins &&
          sharded_matches && state_shrinks && artifact_ok)
             ? 0
             : 1;
}
