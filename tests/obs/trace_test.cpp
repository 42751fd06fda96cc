#include "obs/trace.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "support/json.h"

namespace s4tf::obs {
namespace {

using json::JsonValue;
using json::ParseJson;

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "s4tf_" + name + ".json";
}

struct ParsedEvent {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  int tid = 0;
};

// Parses `path`, validating the envelope and per-event schema along the
// way; returns the events in file order.
std::vector<ParsedEvent> ParseTraceFile(const std::string& path) {
  const std::string text = ReadWholeFile(path);
  EXPECT_FALSE(text.empty()) << "trace file missing or empty: " << path;
  JsonValue root;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &root, &error)) << error;
  EXPECT_TRUE(root.is_object());
  EXPECT_TRUE(root.has("traceEvents"));
  std::vector<ParsedEvent> events;
  for (const JsonValue& event : root.at("traceEvents").array()) {
    EXPECT_TRUE(event.is_object());
    EXPECT_EQ(event.at("ph").str(), "X");  // complete events only
    EXPECT_TRUE(event.at("ts").is_number());
    EXPECT_TRUE(event.at("dur").is_number());
    EXPECT_GE(event.at("dur").number(), 0.0);
    ParsedEvent parsed;
    parsed.name = event.at("name").str();
    parsed.ts = event.at("ts").number();
    parsed.dur = event.at("dur").number();
    parsed.tid = static_cast<int>(event.at("tid").number());
    events.push_back(parsed);
  }
  return events;
}

void ExpectMonotonicTimestamps(const std::vector<ParsedEvent>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts, events[i].ts)
        << "event " << i << " (" << events[i].name
        << ") starts before its predecessor";
  }
}

// RAII spans on one thread can only produce properly nested intervals:
// walking events in start order with a stack, every event must either be
// contained in the enclosing open span or start after it ended.
void ExpectBalancedNesting(const std::vector<ParsedEvent>& events) {
  constexpr double kEps = 2e-3;  // file rounds to 3 decimals
  std::map<int, std::vector<const ParsedEvent*>> stacks;
  for (const ParsedEvent& event : events) {
    auto& stack = stacks[event.tid];
    while (!stack.empty() &&
           stack.back()->ts + stack.back()->dur <= event.ts + kEps) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      EXPECT_LE(event.ts + event.dur,
                stack.back()->ts + stack.back()->dur + kEps)
          << "span '" << event.name << "' overlaps but is not nested in '"
          << stack.back()->name << "'";
    }
    stack.push_back(&event);
  }
}

TEST(TraceTest, DisabledTracerCostsNothingAndRecordsNothing) {
  // No Start(): spans must be inert no-ops.
  EXPECT_FALSE(Tracer::Global().enabled());
  { TraceSpan span("should_not_appear", "test"); }
  EXPECT_EQ(Tracer::Global().Stop(), 0);
}

TEST(TraceTest, NestedSpansEmitBalancedMonotonicJson) {
  const std::string path = TempPath("nested");
  Tracer::Global().Start(path);
  {
    TraceSpan outer("outer", "test");
    {
      TraceSpan inner("inner", "test");
      { TraceSpan leaf("leaf", "test", "items", 7); }
    }
    { TraceSpan sibling("sibling", "test"); }
  }
  const std::int64_t written = Tracer::Global().Stop();
  EXPECT_EQ(written, 4);

  const std::vector<ParsedEvent> events = ParseTraceFile(path);
  ASSERT_EQ(events.size(), 4u);
  ExpectMonotonicTimestamps(events);
  ExpectBalancedNesting(events);
  // Sort order puts parents before children: outer first.
  EXPECT_EQ(events[0].name, "outer");
  std::remove(path.c_str());
}

TEST(TraceTest, SpanArgumentsAreEmitted) {
  const std::string path = TempPath("args");
  Tracer::Global().Start(path);
  { TraceSpan span("sized_work", "test", "items", 12345); }
  Tracer::Global().Stop();

  const std::string text = ReadWholeFile(path);
  JsonValue root;
  ASSERT_TRUE(ParseJson(text, &root));
  const auto& events = root.at("traceEvents").array();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].has("args"));
  EXPECT_EQ(events[0].at("args").at("items").number(), 12345.0);
  EXPECT_EQ(events[0].at("cat").str(), "test");
  std::remove(path.c_str());
}

TEST(TraceTest, EventsFromMultipleThreadsCarryDistinctTids) {
  const std::string path = TempPath("threads");
  Tracer::Global().Start(path);
  {
    TraceSpan main_span("main_thread", "test");
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i) {
      threads.emplace_back([] { TraceSpan span("worker", "test"); });
    }
    for (auto& t : threads) t.join();
  }
  Tracer::Global().Stop();

  const std::vector<ParsedEvent> events = ParseTraceFile(path);
  ASSERT_EQ(events.size(), 3u);
  ExpectMonotonicTimestamps(events);
  ExpectBalancedNesting(events);
  std::set<int> tids;
  for (const auto& event : events) tids.insert(event.tid);
  EXPECT_GE(tids.size(), 3u);  // main + 2 workers
  std::remove(path.c_str());
}

TEST(TraceTest, NameEscapingProducesParseableJson) {
  const std::string path = TempPath("escape");
  Tracer::Global().Start(path);
  {
    TraceEvent event;
    event.name = "quote\" backslash\\ newline\n";
    event.category = "test";
    event.ts_us = 1.0;
    event.dur_us = 1.0;
    Tracer::Global().Record(event);
  }
  Tracer::Global().Stop();
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(ReadWholeFile(path), &root, &error)) << error;
  EXPECT_EQ(root.at("traceEvents").array()[0].at("name").str(),
            "quote\" backslash\\ newline\n");
  std::remove(path.c_str());
}

// Regression: WriteFile used to ignore every fprintf/fputs/fclose result,
// silently producing empty or truncated traces on unwritable paths or
// full disks. It must now report on stderr, bump the
// "obs.trace.write_errors" counter, and never leave a partial file.
TEST(TraceWriteErrorTest, UnwritableDirectoryCountsErrorAndLeavesNoFile) {
  Counter* errors = GetCounter("obs.trace.write_errors");
  const std::int64_t before = errors->value();
  const std::string path =
      ::testing::TempDir() + "s4tf_no_such_dir/trace.json";
  Tracer::Global().Start(path);
  { TraceSpan span("doomed", "test"); }
  Tracer::Global().Stop();
  EXPECT_EQ(errors->value(), before + 1);
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0) << "no file may be created";
}

TEST(TraceWriteErrorTest, DeviceFullSurfacesFlushErrorAndKeepsNode) {
  // /dev/full: fopen succeeds, the buffered writes appear to succeed, and
  // only the fclose() flush fails with ENOSPC — the disk-full shape the
  // old void WriteFile() swallowed entirely.
  struct stat st;
  if (::stat("/dev/full", &st) != 0 || !S_ISCHR(st.st_mode)) {
    GTEST_SKIP() << "/dev/full not available";
  }
  Counter* errors = GetCounter("obs.trace.write_errors");
  const std::int64_t before = errors->value();
  Tracer::Global().Start("/dev/full");
  { TraceSpan span("doomed", "test"); }
  Tracer::Global().Stop();
  EXPECT_EQ(errors->value(), before + 1);
  // The partial-file cleanup must only unlink regular files, never the
  // device node it was pointed at.
  ASSERT_EQ(::stat("/dev/full", &st), 0);
  EXPECT_TRUE(S_ISCHR(st.st_mode));
}

// --- Acceptance criterion: S4TF_TRACE=<path> against the real LeNet
// example produces a valid Chrome-trace JSON with balanced spans and
// monotonically ordered timestamps.
TEST(TraceEndToEndTest, LenetExampleEmitsValidChromeTrace) {
#ifndef S4TF_LENET_BINARY
  GTEST_SKIP() << "example binary path not configured";
#else
  const std::string path = TempPath("lenet_e2e");
  const std::string command = std::string("S4TF_TRACE=") + path + " " +
                              S4TF_LENET_BINARY + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const std::vector<ParsedEvent> events = ParseTraceFile(path);
  // A real training run dispatches thousands of kernels.
  EXPECT_GT(events.size(), 100u);
  ExpectMonotonicTimestamps(events);
  ExpectBalancedNesting(events);
  // Spot-check the layers that must appear: conv kernels from the model's
  // forward pass and shard spans from the intra-op pool.
  bool saw_conv = false, saw_matmul = false;
  for (const auto& event : events) {
    if (event.name == "conv2d") saw_conv = true;
    if (event.name == "matmul") saw_matmul = true;
  }
  EXPECT_TRUE(saw_conv);
  EXPECT_TRUE(saw_matmul);
  std::remove(path.c_str());
#endif
}

}  // namespace
}  // namespace s4tf::obs
