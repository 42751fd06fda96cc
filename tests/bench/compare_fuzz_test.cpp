// The bench_compare gate against malformed artifacts: a seeded mutation
// sweep over the committed BENCH_*.json files (bytes flipped, inserted,
// deleted and truncated, and values retyped in place) in which
// LoadArtifact and CompareReports must always return, plus the exact
// report for one wrongly-typed field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/compare.h"
#include "support/json.h"
#include "support/rng.h"

namespace s4tf::bench {
namespace {

struct Artifact {
  std::string text;
  json::JsonValue doc;
};

// The committed artifacts, in file-name order so the sweep is seeded over
// a fixed sequence.
std::vector<Artifact> CommittedArtifacts() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(S4TF_ARTIFACT_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Artifact> artifacts;
  for (const auto& path : paths) {
    Artifact artifact;
    std::ifstream in(path);
    artifact.text.assign(std::istreambuf_iterator<char>(in), {});
    std::string error;
    EXPECT_TRUE(LoadArtifact(path.string(), &artifact.doc, &error)) << error;
    artifacts.push_back(std::move(artifact));
  }
  return artifacts;
}

// One to four byte edits: flip a bit, insert a byte, delete a span of up
// to 16 bytes, or truncate.
std::string MutateBytes(std::string text, Rng& rng) {
  static constexpr char kJsonBytes[] = "{}[]\":,.-+eE0123456789 \\ntfalsu";
  const int edits = 1 + static_cast<int>(rng.NextBelow(4));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t pos = rng.NextBelow(text.size());
    switch (rng.NextBelow(4)) {
      case 0:
        text[pos] = static_cast<char>(text[pos] ^ (1 << rng.NextBelow(8)));
        break;
      case 1:
        text.insert(pos, 1,
                    rng.NextBelow(2) == 0
                        ? kJsonBytes[rng.NextBelow(sizeof(kJsonBytes) - 1)]
                        : static_cast<char>(rng.NextBelow(256)));
        break;
      case 2:
        text.erase(pos, 1 + rng.NextBelow(16));
        break;
      default:
        text.resize(pos);
        break;
    }
  }
  return text;
}

// Every value below the root, in a fixed pre-order.
void CollectValues(json::JsonValue& value, std::vector<json::JsonValue*>* out) {
  if (auto* object = std::get_if<json::JsonObject>(&value.value)) {
    for (auto& [key, member] : *object) {
      out->push_back(&member);
      CollectValues(member, out);
    }
  } else if (auto* array = std::get_if<json::JsonArray>(&value.value)) {
    for (json::JsonValue& element : *array) {
      out->push_back(&element);
      CollectValues(element, out);
    }
  }
}

// A value of the JSON type at `index` in JsonValue's variant order.
json::JsonValue ValueOfType(std::size_t index) {
  json::JsonValue value;
  switch (index) {
    case 0: value.value = nullptr; break;
    case 1: value.value = true; break;
    case 2: value.value = 5.0; break;
    case 3: value.value = std::string("5"); break;
    case 4: value.value = json::JsonArray{}; break;
    default: value.value = json::JsonObject{}; break;
  }
  return value;
}

TEST(BenchCompareFuzzTest, MutatedCommittedArtifactsAlwaysReturn) {
  const std::vector<Artifact> artifacts = CommittedArtifacts();
  ASSERT_FALSE(artifacts.empty());
  Rng rng(23);
  const std::string path = ::testing::TempDir() + "s4tf_fuzz_BENCH.json";

  constexpr int kByteMutants = 2000;
  int parsed = 0;
  for (int i = 0; i < kByteMutants; ++i) {
    const Artifact& artifact = artifacts[i % artifacts.size()];
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << MutateBytes(artifact.text, rng);
    json::JsonValue mutant;
    std::string error;
    if (!LoadArtifact(path, &mutant, &error)) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    ++parsed;
    CompareReports(artifact.doc, mutant);
    CompareReports(mutant, artifact.doc);
  }
  std::remove(path.c_str());

  constexpr int kRetypedMutants = 1000;
  int flagged = 0;
  for (int i = 0; i < kRetypedMutants; ++i) {
    const Artifact& artifact = artifacts[i % artifacts.size()];
    json::JsonValue mutant = artifact.doc;
    std::vector<json::JsonValue*> values;
    CollectValues(mutant, &values);
    json::JsonValue& target = *values[rng.NextBelow(values.size())];
    target = ValueOfType((target.value.index() + 1 + rng.NextBelow(5)) % 6);
    if (!CompareReports(artifact.doc, mutant).regressions.empty()) ++flagged;
    CompareReports(mutant, artifact.doc);
    CompareReports(mutant, mutant);
  }
  // Both sweeps reached the diff: some byte mutants still parse, and most
  // retyped values sit in a field the gate reads.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(flagged, kRetypedMutants / 2);
}

TEST(BenchCompareFuzzTest, WronglyTypedFieldIsOneRegressionNamingItsPath) {
  const auto parse = [](const std::string& text) {
    json::JsonValue value;
    std::string error;
    EXPECT_TRUE(json::ParseJson(text, &value, &error)) << error;
    return value;
  };
  const json::JsonValue baseline = parse(
      R"({"schema_version": 1, "bench": "sample", "rows": [)"
      R"({"label": "a", "counters": {"x": 1}}, {"label": "b"}]})");
  const json::JsonValue fresh = parse(
      R"({"schema_version": 1, "bench": "sample", "rows": [)"
      R"({"label": "a", "counters": {"x": 1}}, {"label": 5}]})");
  const CompareResult result = CompareReports(baseline, fresh);
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0],
            "sample.rows[1].label: expected string, found number in the "
            "fresh artifact");
  EXPECT_TRUE(CompareReports(baseline, baseline).regressions.empty());
}

}  // namespace
}  // namespace s4tf::bench
