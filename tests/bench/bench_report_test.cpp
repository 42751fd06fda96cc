// Tests for the bench-reporting library: BENCH_*.json schema round-trip,
// bit-identical deterministic sections across intra-op thread counts,
// MetricsDelta snapshot semantics, TablePrinter bounds safety, and the
// bench_compare regression gate (library + CLI) against injected
// regressions.
#include "bench/report.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "bench/compare.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace s4tf::bench {
namespace {

json::JsonValue Parsed(const std::string& text) {
  json::JsonValue value;
  std::string error;
  EXPECT_TRUE(json::ParseJson(text, &value, &error)) << error;
  return value;
}

// A fully-populated report covering every section of the schema.
BenchReport MakeSampleReport() {
  BenchReport report("sample");
  report.SetConfig("world", static_cast<std::int64_t>(4));
  report.SetConfig("backend", std::string("lazy"));
  report.SetConfig("overlap", true);
  report.SetConfig("learning_rate", 0.1);
  BenchRow& row = report.AddRow("step/1");
  row.SetCounter("tensor.kernel.dispatches", 128);
  row.SetCounter("xla.cache.hits", 7);
  row.SetValue("cost.step_seconds", 0.1 + 0.2);  // 0.30000000000000004
  row.SetText("shape_holds", "YES");
  WallStats wall;
  wall.AddSample(10.0);
  wall.AddSample(12.0);
  wall.AddSample(11.0);
  row.SetWall("train_step", wall);
  row.SetNoisy("peak_bytes", 4096.0);
  report.AddRow("verdicts").SetText("overlap_wins", "NO");
  return report;
}

TEST(BenchReportSchemaTest, FullArtifactRoundTripsThroughJsonParser) {
  const BenchReport report = MakeSampleReport();
  const json::JsonValue root = Parsed(report.ToJson());

  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("schema_version").number(), 1.0);
  EXPECT_EQ(root.at("bench").str(), "sample");

  // env carries provenance: a git describe string and the thread count.
  ASSERT_TRUE(root.has("env"));
  EXPECT_FALSE(root.at("env").at("git").str().empty());
  EXPECT_GE(root.at("env").at("threads").number(), 1.0);

  const json::JsonValue& config = root.at("config");
  EXPECT_EQ(config.at("world").number(), 4.0);
  EXPECT_EQ(config.at("backend").str(), "lazy");
  EXPECT_EQ(std::get<bool>(config.at("overlap").value), true);
  EXPECT_EQ(config.at("learning_rate").number(), 0.1);

  const auto& rows = root.at("rows").array();
  ASSERT_EQ(rows.size(), 2u);
  const json::JsonValue& row = rows[0];
  EXPECT_EQ(row.at("label").str(), "step/1");
  EXPECT_EQ(row.at("counters").at("tensor.kernel.dispatches").number(),
            128.0);
  EXPECT_EQ(row.at("counters").at("xla.cache.hits").number(), 7.0);
  // %.17g must round-trip the double bit-for-bit (0.1 + 0.2 != 0.3).
  EXPECT_EQ(row.at("values").at("cost.step_seconds").number(), 0.1 + 0.2);
  EXPECT_EQ(row.at("text").at("shape_holds").str(), "YES");
  const json::JsonValue& wall = row.at("wall_ms").at("train_step");
  EXPECT_DOUBLE_EQ(wall.at("mean").number(), 11.0);
  EXPECT_EQ(wall.at("min").number(), 10.0);
  EXPECT_EQ(wall.at("max").number(), 12.0);
  EXPECT_EQ(wall.at("reps").number(), 3.0);
  EXPECT_EQ(row.at("noisy").at("peak_bytes").number(), 4096.0);
  EXPECT_EQ(rows[1].at("label").str(), "verdicts");
}

TEST(BenchReportSchemaTest, DeterministicJsonOmitsMachineDependentSections) {
  const BenchReport report = MakeSampleReport();
  const json::JsonValue root = Parsed(report.DeterministicJson());
  EXPECT_FALSE(root.has("env"));
  const auto& rows = root.at("rows").array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].has("wall_ms"));
  EXPECT_FALSE(rows[0].has("noisy"));
  // The deterministic sections survive untouched.
  EXPECT_EQ(rows[0].at("counters").at("tensor.kernel.dispatches").number(),
            128.0);
  EXPECT_EQ(rows[0].at("values").at("cost.step_seconds").number(), 0.1 + 0.2);
  EXPECT_EQ(rows[0].at("text").at("shape_holds").str(), "YES");
}

// NaN and infinity have no JSON spelling: a setter that took one would
// write `nan` or `inf`, and bench_compare would call the artifact
// unreadable. Each double setter throws instead, naming the row (or the
// bench, for config) and the key.
TEST(BenchReportSchemaTest, NonFiniteDoublesFailNamingTheRowAndKey) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  BenchReport report("sample");
  BenchRow& row = report.AddRow("step/1");
  WallStats bad_wall;
  bad_wall.AddSample(1.0);
  bad_wall.AddSample(inf);
  const auto expect_rejected = [](const std::function<void()>& set,
                                  const std::vector<std::string>& names) {
    try {
      set();
      ADD_FAILURE() << "a non-finite value was accepted";
    } catch (const InternalError& e) {
      for (const std::string& name : names) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
  };
  expect_rejected([&] { row.SetValue("cost.seconds", nan); },
                  {"\"step/1\"", "values \"cost.seconds\"", "nan"});
  expect_rejected([&] { row.SetNoisy("peak_bytes", -inf); },
                  {"\"step/1\"", "noisy \"peak_bytes\"", "-inf"});
  expect_rejected([&] { row.SetWall("train_step", bad_wall); },
                  {"\"step/1\"", "wall_ms \"train_step\""});
  expect_rejected([&] { report.SetConfig("learning_rate", inf); },
                  {"bench \"sample\"", "config \"learning_rate\""});

  // Nothing reached the artifact, which still parses and holds only the
  // finite values set around the refused ones.
  row.SetValue("cost.seconds", 0.25);
  report.SetConfig("learning_rate", 0.1);
  const json::JsonValue root = Parsed(report.ToJson());
  const json::JsonValue& parsed_row = root.at("rows").array().at(0);
  EXPECT_EQ(parsed_row.at("values").at("cost.seconds").number(), 0.25);
  EXPECT_FALSE(parsed_row.has("noisy"));
  EXPECT_FALSE(parsed_row.has("wall_ms"));
  EXPECT_EQ(root.at("config").at("learning_rate").number(), 0.1);
}

// The core artifact contract: the deterministic serialization of a real
// counter-instrumented workload is byte-identical for any intra-op thread
// count (S4TF_NUM_THREADS equivalent).
std::string DeterministicArtifactForWorkload() {
  Rng rng(11);
  std::vector<float> values(256 * 256);
  rng.FillUniform(values.data(), values.size(), -1.0f, 1.0f);
  const Literal a = Literal::FromVector(Shape({256, 256}), values);

  BenchReport report("thread_invariance");
  report.SetConfig("n", static_cast<std::int64_t>(256));
  MetricsDelta counters;
  const Literal out = EvalOpLiteral(OpKind::kMatMul, {a, a}, {});
  counters.Capture();
  double checksum = 0.0;
  for (float v : out.data) checksum += static_cast<double>(v);
  BenchRow& row = report.AddRow("matmul");
  row.SetCounters(counters);
  row.SetValue("checksum", checksum);
  return report.DeterministicJson();
}

TEST(BenchReportDeterminismTest, ArtifactBitIdenticalAcrossThreadCounts) {
  SetIntraOpThreads(1);
  const std::string one_thread = DeterministicArtifactForWorkload();
  SetIntraOpThreads(2);
  const std::string two_threads = DeterministicArtifactForWorkload();
  SetIntraOpThreads(4);
  const std::string four_threads = DeterministicArtifactForWorkload();
  SetIntraOpThreads(0);  // restore default
  EXPECT_EQ(one_thread, two_threads);
  EXPECT_EQ(one_thread, four_threads);
  // And reruns at the same setting are trivially identical too.
  SetIntraOpThreads(1);
  EXPECT_EQ(one_thread, DeterministicArtifactForWorkload());
  SetIntraOpThreads(0);
}

// --- MetricsDelta snapshot semantics (regression: Counter() used to walk
// the registry on EVERY read and Summary() snapshotted four times,
// skewing dispatch-heavy windows and tearing multi-counter read-outs).

TEST(MetricsDeltaTest, CaptureFreezesTheWindow) {
  obs::Counter* counter = obs::GetCounter("bench.test.capture_freeze");
  MetricsDelta delta;
  counter->Add(5);
  delta.Capture();
  counter->Add(100);  // after the window: must be invisible
  EXPECT_EQ(delta.Counter("bench.test.capture_freeze"), 5);
  EXPECT_EQ(delta.AllDeltas().at("bench.test.capture_freeze"), 5);
}

TEST(MetricsDeltaTest, UncapturedReadsSeeLiveRegistry) {
  obs::Counter* counter = obs::GetCounter("bench.test.live_reads");
  MetricsDelta delta;
  counter->Add(3);
  EXPECT_EQ(delta.Counter("bench.test.live_reads"), 3);
  counter->Add(4);
  EXPECT_EQ(delta.Counter("bench.test.live_reads"), 7);
}

TEST(MetricsDeltaTest, ResetRestartsWindowAndDropsCapture) {
  obs::Counter* counter = obs::GetCounter("bench.test.reset");
  MetricsDelta delta;
  counter->Add(9);
  delta.Capture();
  delta.Reset();
  EXPECT_EQ(delta.Counter("bench.test.reset"), 0);
  counter->Add(2);
  EXPECT_EQ(delta.Counter("bench.test.reset"), 2);
}

TEST(MetricsDeltaTest, AllDeltasSkipsThreadDependentShardCounters) {
  obs::Counter* shards = obs::GetCounter("bench.test.pool.shards");
  obs::Counter* work = obs::GetCounter("bench.test.pool.work");
  MetricsDelta delta;
  shards->Add(4);
  work->Add(1);
  delta.Capture();
  const auto deltas = delta.AllDeltas();
  EXPECT_EQ(deltas.count("bench.test.pool.shards"), 0u);
  EXPECT_EQ(deltas.at("bench.test.pool.work"), 1);
}

// --- TablePrinter bounds safety (regression: PrintRow indexed widths_[i]
// for every cell, reading out of bounds when a row had more cells than
// the configured widths).

TEST(TablePrinterTest, OverflowCellsPrintWithoutOutOfBoundsAccess) {
  TablePrinter table({"A", "B"}, {4, 4});
  table.PrintHeader();
  table.PrintRow({"1", "2"});
  table.PrintRow({"1", "2", "overflow", "more"});  // must not crash
  table.PrintRow({"1"});  // fewer cells than widths is fine too
  table.PrintRule();
}

// --- CompareReports: the CI regression gate. -------------------------------

TEST(BenchCompareTest, IdenticalArtifactsPass) {
  const std::string text = MakeSampleReport().ToJson();
  const CompareResult result =
      CompareReports(Parsed(text), Parsed(text));
  EXPECT_TRUE(result.regressions.empty()) << result.regressions[0];
  EXPECT_TRUE(result.warnings.empty());
  EXPECT_TRUE(result.ok({}));
}

TEST(BenchCompareTest, EnvDifferencesAreIgnored) {
  const json::JsonValue baseline = Parsed(MakeSampleReport().ToJson());
  std::string fresh_text = MakeSampleReport().ToJson();
  // Different provenance: another commit, another thread count.
  const std::size_t pos = fresh_text.find("\"env\"");
  ASSERT_NE(pos, std::string::npos);
  fresh_text.replace(fresh_text.find("\"threads\":"), 12, "\"threads\": 9");
  const CompareResult result = CompareReports(baseline, Parsed(fresh_text));
  EXPECT_TRUE(result.regressions.empty());
}

TEST(BenchCompareTest, CounterRegressionFails) {
  const json::JsonValue baseline = Parsed(MakeSampleReport().ToJson());
  // Inject: 128 dispatches became 130.
  std::string text = MakeSampleReport().ToJson();
  const std::string needle = "\"tensor.kernel.dispatches\": 128";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"tensor.kernel.dispatches\": 130");
  const CompareResult result = CompareReports(baseline, Parsed(text));
  ASSERT_FALSE(result.regressions.empty());
  EXPECT_NE(result.regressions[0].find("tensor.kernel.dispatches"),
            std::string::npos);
  EXPECT_FALSE(result.ok({}));
}

TEST(BenchCompareTest, CostModelValueRegressionFails) {
  const json::JsonValue baseline = Parsed(MakeSampleReport().ToJson());
  std::string text = MakeSampleReport().ToJson();
  const std::string needle = "\"cost.step_seconds\": ";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + needle.size(), "1");  // any exact change must fail
  const CompareResult result = CompareReports(baseline, Parsed(text));
  ASSERT_FALSE(result.regressions.empty());
  EXPECT_NE(result.regressions[0].find("cost.step_seconds"),
            std::string::npos);
}

TEST(BenchCompareTest, MissingAndRelabeledRowsFail) {
  const json::JsonValue baseline = Parsed(MakeSampleReport().ToJson());
  BenchReport missing("sample");
  missing.SetConfig("world", static_cast<std::int64_t>(4));
  missing.SetConfig("backend", std::string("lazy"));
  missing.SetConfig("overlap", true);
  missing.SetConfig("learning_rate", 0.1);
  missing.AddRow("step/1").SetCounter("tensor.kernel.dispatches", 128);
  // "verdicts" row dropped entirely.
  EXPECT_FALSE(
      CompareReports(baseline, Parsed(missing.ToJson())).regressions.empty());

  std::string relabeled = MakeSampleReport().ToJson();
  const std::size_t pos = relabeled.find("\"step/1\"");
  ASSERT_NE(pos, std::string::npos);
  relabeled.replace(pos, 8, "\"step/9\"");
  EXPECT_FALSE(
      CompareReports(baseline, Parsed(relabeled)).regressions.empty());
}

BenchReport RowsReport(const std::vector<std::string>& labels,
                       std::int64_t c_calls = 3) {
  BenchReport report("sample");
  for (const std::string& label : labels) {
    report.AddRow(label).SetCounter("calls", label == "C" ? c_calls : 1);
  }
  return report;
}

TEST(BenchCompareTest, RowsMatchByLabelSoLaterRowsStillDiff) {
  // B is deleted and C's counter changed: a positional match would report
  // C as relabeled and never look at its counters.
  const CompareResult result =
      CompareReports(Parsed(RowsReport({"A", "B", "C"}).ToJson()),
                     Parsed(RowsReport({"A", "C"}, 4).ToJson()));
  ASSERT_EQ(result.regressions.size(), 2u);
  EXPECT_NE(result.regressions[0].find("rows[B]: row missing"),
            std::string::npos)
      << result.regressions[0];
  EXPECT_NE(result.regressions[1].find("rows[C].counters.calls"),
            std::string::npos)
      << result.regressions[1];

  const CompareResult added =
      CompareReports(Parsed(RowsReport({"A", "C"}).ToJson()),
                     Parsed(RowsReport({"A", "B", "C"}).ToJson()));
  ASSERT_EQ(added.regressions.size(), 1u);
  EXPECT_NE(added.regressions[0].find("rows[B]: new row"), std::string::npos);
}

TEST(BenchCompareTest, ReorderedAndDuplicatedRowsFail) {
  const json::JsonValue baseline = Parsed(RowsReport({"A", "B", "C"}).ToJson());
  const CompareResult reordered =
      CompareReports(baseline, Parsed(RowsReport({"A", "C", "B"}).ToJson()));
  ASSERT_EQ(reordered.regressions.size(), 1u);
  EXPECT_NE(reordered.regressions[0].find("different order"),
            std::string::npos);

  const CompareResult duplicated = CompareReports(
      baseline, Parsed(RowsReport({"A", "B", "B", "C"}).ToJson()));
  ASSERT_EQ(duplicated.regressions.size(), 1u);
  EXPECT_NE(duplicated.regressions[0].find("rows[B]: duplicate label"),
            std::string::npos);
}

TEST(BenchCompareTest, BenchNameAndSchemaVersionMustMatch) {
  const json::JsonValue baseline = Parsed(MakeSampleReport().ToJson());
  std::string renamed = MakeSampleReport().ToJson();
  const std::size_t pos = renamed.find("\"bench\": \"sample\"");
  ASSERT_NE(pos, std::string::npos);
  renamed.replace(pos, 17, "\"bench\": \"other\"");
  EXPECT_FALSE(CompareReports(baseline, Parsed(renamed)).regressions.empty());
}

TEST(BenchCompareTest, WallClockDriftOnlyWarns) {
  const json::JsonValue baseline = Parsed(MakeSampleReport().ToJson());
  BenchReport fresh = MakeSampleReport();
  std::string text = fresh.ToJson();
  // 11ms mean became 110ms: way past the 50% noise bound.
  const std::string needle = "\"mean\": 11.000";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"mean\": 110.00");
  const CompareResult result = CompareReports(baseline, Parsed(text));
  EXPECT_TRUE(result.regressions.empty());
  ASSERT_FALSE(result.warnings.empty());
  EXPECT_NE(result.warnings[0].find("train_step"), std::string::npos);
  EXPECT_TRUE(result.ok({}));  // warn-only by default
  CompareOptions strict;
  strict.fail_on_wall = true;
  EXPECT_FALSE(result.ok(strict));  // --strict-wall escalates
}

TEST(BenchCompareTest, SubNoiseFloorWallDriftIsIgnored) {
  BenchReport base("sample");
  WallStats tiny;
  tiny.AddSample(0.01);
  base.AddRow("r").SetWall("blip", tiny);
  const json::JsonValue baseline = Parsed(base.ToJson());
  BenchReport fresh("sample");
  WallStats still_tiny;
  still_tiny.AddSample(0.04);  // 4x drift but far below wall_floor_ms
  fresh.AddRow("r").SetWall("blip", still_tiny);
  const CompareResult result = CompareReports(baseline, Parsed(fresh.ToJson()));
  EXPECT_TRUE(result.warnings.empty());
}

// --- Artifact I/O. ---------------------------------------------------------

TEST(BenchReportWriteTest, WriteToUnwritablePathReturnsFalse) {
  ::testing::internal::CaptureStderr();
  const bool ok = MakeSampleReport().WriteTo(
      ::testing::TempDir() + "s4tf_bench_no_such_dir/BENCH_sample.json");
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok);
  EXPECT_NE(stderr_text.find("cannot open"), std::string::npos);
}

TEST(BenchReportWriteTest, WriteHonorsOutDirEnvAndEmitsValidJson) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("S4TF_BENCH_OUT_DIR", dir.c_str(), 1), 0);
  const bool ok = MakeSampleReport().Write();
  unsetenv("S4TF_BENCH_OUT_DIR");
  ASSERT_TRUE(ok);
  const std::string path = dir + (dir.back() == '/' ? "" : "/") +
                           "BENCH_sample.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const json::JsonValue root = Parsed(text);
  EXPECT_EQ(root.at("bench").str(), "sample");
  std::remove(path.c_str());
}

// --- The bench_compare CLI end-to-end: an injected counter regression
// must flip the exit code (the CI gate's contract).

TEST(BenchCompareCliTest, InjectedCounterRegressionFlipsExitCode) {
#ifndef S4TF_BENCH_COMPARE_BINARY
  GTEST_SKIP() << "bench_compare binary path not configured";
#else
  const std::string base_dir = ::testing::TempDir() + "s4tf_cmp_base";
  const std::string fresh_dir = ::testing::TempDir() + "s4tf_cmp_fresh";
  ASSERT_EQ(::mkdir(base_dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  ASSERT_EQ(::mkdir(fresh_dir.c_str(), 0755) == 0 || errno == EEXIST, true);

  const BenchReport report = MakeSampleReport();
  ASSERT_TRUE(report.WriteTo(base_dir + "/BENCH_sample.json"));
  ASSERT_TRUE(report.WriteTo(fresh_dir + "/BENCH_sample.json"));

  const std::string command = std::string(S4TF_BENCH_COMPARE_BINARY) + " " +
                              base_dir + " " + fresh_dir +
                              " > /dev/null 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0) << "identical artifacts must pass";

  // Inject the regression into the fresh copy.
  std::string text = report.ToJson();
  const std::string needle = "\"tensor.kernel.dispatches\": 128";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"tensor.kernel.dispatches\": 131");
  std::ofstream(fresh_dir + "/BENCH_sample.json") << text;
  EXPECT_NE(std::system(command.c_str()), 0)
      << "injected counter regression must fail the gate";

  std::remove((base_dir + "/BENCH_sample.json").c_str());
  std::remove((fresh_dir + "/BENCH_sample.json").c_str());
#endif
}

}  // namespace
}  // namespace s4tf::bench
