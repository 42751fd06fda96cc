#include "compare.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>

namespace s4tf::bench {

namespace {

using json::JsonObject;
using json::JsonValue;

const char* TypeName(const JsonValue& v) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  return kNames[v.value.index()];
}

// Finds every field CompareReports reads whose JSON type is not the one
// the artifact schema gives it, and reports each as one regression naming
// the artifact and the field's path.
class TypeChecker {
 public:
  TypeChecker(const char* side, std::vector<std::string>* regressions)
      : side_(side), regressions_(regressions) {}

  void Check(const JsonValue& doc, const std::string& name) {
    if (!Is(doc, "object", name)) return;
    Member(doc, name, "bench", "string");
    Member(doc, name, "schema_version", "number");
    Member(doc, name, "config", "object");
    const JsonValue* rows = Member(doc, name, "rows", "array");
    if (rows == nullptr) return;
    for (std::size_t i = 0; i < rows->array().size(); ++i) {
      const JsonValue& row = rows->array()[i];
      const std::string path = name + ".rows[" + std::to_string(i) + "]";
      if (!Is(row, "object", path)) continue;
      Member(row, path, "label", "string");
      for (const char* section : {"counters", "values", "text"}) {
        Member(row, path, section, "object");
      }
      if (const JsonValue* wall = Member(row, path, "wall_ms", "object")) {
        for (const auto& [metric, stats] : wall->object()) {
          const std::string stats_path = path + ".wall_ms." + metric;
          if (Is(stats, "object", stats_path)) {
            Member(stats, stats_path, "mean", "number");
          }
        }
      }
      if (const JsonValue* noisy = Member(row, path, "noisy", "object")) {
        for (const auto& [metric, value] : noisy->object()) {
          Is(value, "number", path + ".noisy." + metric);
        }
      }
    }
  }

 private:
  bool Is(const JsonValue& value, const char* type, const std::string& path) {
    if (std::string_view(TypeName(value)) == type) return true;
    regressions_->push_back(path + ": expected " + type + ", found " +
                            TypeName(value) + " in the " + side_ +
                            " artifact");
    return false;
  }

  // The member `key` of `parent` if present with the right type.
  const JsonValue* Member(const JsonValue& parent, const std::string& path,
                          const char* key, const char* type) {
    if (!parent.has(key)) return nullptr;
    const JsonValue& value = parent.at(key);
    return Is(value, type, path + "." + key) ? &value : nullptr;
  }

  const char* side_;
  std::vector<std::string>* regressions_;
};

std::string RowLabel(const JsonValue& row) {
  return row.has("label") ? row.at("label").str() : "";
}

std::string BenchName(const JsonValue& doc) {
  return doc.has("bench") && doc.at("bench").is_string()
             ? doc.at("bench").str()
             : "<unnamed>";
}

// Renders a leaf value for diff messages (numbers exactly, strings quoted).
std::string Render(const JsonValue& v) {
  if (v.is_string()) return "\"" + v.str() + "\"";
  if (v.is_number()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v.number());
    return buf;
  }
  if (std::holds_alternative<bool>(v.value)) {
    return std::get<bool>(v.value) ? "true" : "false";
  }
  return "<non-scalar>";
}

bool LeafEqual(const JsonValue& a, const JsonValue& b) {
  if (a.is_number() && b.is_number()) return a.number() == b.number();
  if (a.is_string() && b.is_string()) return a.str() == b.str();
  if (std::holds_alternative<bool>(a.value) &&
      std::holds_alternative<bool>(b.value)) {
    return std::get<bool>(a.value) == std::get<bool>(b.value);
  }
  return false;
}

// Exact comparison of one flat deterministic object ("config", a row's
// "counters"/"values"/"text"). Keys missing on either side are diffs: a
// silently dropped counter is as much a regression as a changed one.
void DiffExactObject(const std::string& where, const JsonObject& base,
                     const JsonObject& fresh,
                     std::vector<std::string>* regressions) {
  for (const auto& [key, base_value] : base) {
    auto it = fresh.find(key);
    if (it == fresh.end()) {
      regressions->push_back(where + "." + key + ": missing in fresh run (baseline " +
                             Render(base_value) + ")");
      continue;
    }
    if (!LeafEqual(base_value, it->second)) {
      regressions->push_back(where + "." + key + ": baseline " +
                             Render(base_value) + " -> fresh " +
                             Render(it->second));
    }
  }
  for (const auto& [key, fresh_value] : fresh) {
    if (base.find(key) == base.end()) {
      regressions->push_back(where + "." + key + ": new in fresh run (" +
                             Render(fresh_value) +
                             "); refresh the committed artifact");
    }
  }
}

void DiffSection(const std::string& where, const JsonValue& base_row,
                 const JsonValue& fresh_row, const char* section,
                 std::vector<std::string>* regressions) {
  const bool in_base = base_row.has(section);
  const bool in_fresh = fresh_row.has(section);
  if (!in_base && !in_fresh) return;
  const JsonObject empty;
  DiffExactObject(where + "." + section,
                  in_base ? base_row.at(section).object() : empty,
                  in_fresh ? fresh_row.at(section).object() : empty,
                  regressions);
}

double RelativeDrift(double base, double fresh) {
  const double denom = std::max(std::abs(base), 1e-9);
  return std::abs(fresh - base) / denom;
}

void WarnOnDrift(const std::string& where, const JsonValue& base_row,
                 const JsonValue& fresh_row, const CompareOptions& options,
                 std::vector<std::string>* warnings) {
  // wall_ms: compare means when both sides have the metric.
  if (base_row.has("wall_ms") && fresh_row.has("wall_ms")) {
    const JsonObject& base = base_row.at("wall_ms").object();
    const JsonObject& fresh = fresh_row.at("wall_ms").object();
    for (const auto& [name, base_stats] : base) {
      auto it = fresh.find(name);
      if (it == fresh.end() || !base_stats.has("mean") ||
          !it->second.has("mean")) {
        continue;
      }
      const double base_mean = base_stats.at("mean").number();
      const double fresh_mean = it->second.at("mean").number();
      if (std::max(base_mean, fresh_mean) < options.wall_floor_ms) continue;
      const double drift = RelativeDrift(base_mean, fresh_mean);
      if (drift > options.wall_tolerance) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s.wall_ms.%s: mean %.3f ms -> %.3f ms (%+.0f%%, "
                      "noise bound %.0f%%)",
                      where.c_str(), name.c_str(), base_mean, fresh_mean,
                      100.0 * (fresh_mean / std::max(base_mean, 1e-9) - 1.0),
                      100.0 * options.wall_tolerance);
        warnings->push_back(buf);
      }
    }
  }
  if (base_row.has("noisy") && fresh_row.has("noisy")) {
    const JsonObject& base = base_row.at("noisy").object();
    const JsonObject& fresh = fresh_row.at("noisy").object();
    for (const auto& [name, base_value] : base) {
      auto it = fresh.find(name);
      if (it == fresh.end()) continue;
      const double drift =
          RelativeDrift(base_value.number(), it->second.number());
      if (drift > options.wall_tolerance) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s.noisy.%s: %.6g -> %.6g (drift beyond %.0f%%)",
                      where.c_str(), name.c_str(), base_value.number(),
                      it->second.number(), 100.0 * options.wall_tolerance);
        warnings->push_back(buf);
      }
    }
  }
}

}  // namespace

CompareResult CompareReports(const JsonValue& baseline,
                             const JsonValue& fresh,
                             const CompareOptions& options) {
  CompareResult result;
  const std::string name = BenchName(baseline);
  // The diff below reads fields as the schema types them, so it runs only
  // when both artifacts type-check.
  TypeChecker("baseline", &result.regressions).Check(baseline, name);
  TypeChecker("fresh", &result.regressions).Check(fresh, BenchName(fresh));
  if (!result.regressions.empty()) return result;

  if (BenchName(fresh) != name) {
    result.regressions.push_back(name + ": fresh artifact is for bench \"" +
                                 BenchName(fresh) + "\"");
    return result;
  }
  const double base_schema =
      baseline.has("schema_version") ? baseline.at("schema_version").number()
                                     : 0;
  const double fresh_schema =
      fresh.has("schema_version") ? fresh.at("schema_version").number() : 0;
  if (base_schema != fresh_schema) {
    result.regressions.push_back(
        name + ": schema_version mismatch; regenerate the baseline");
    return result;
  }

  const JsonObject empty;
  DiffExactObject(name + ".config",
                  baseline.has("config") ? baseline.at("config").object()
                                         : empty,
                  fresh.has("config") ? fresh.at("config").object() : empty,
                  &result.regressions);

  const json::JsonArray no_rows;
  const json::JsonArray& base_rows =
      baseline.has("rows") ? baseline.at("rows").array() : no_rows;
  const json::JsonArray& fresh_rows =
      fresh.has("rows") ? fresh.at("rows").array() : no_rows;
  // Rows match by label. Each label missing on one side is reported once,
  // every row present on both sides is diffed, and a changed order of the
  // common rows is one more regression.
  const auto index_rows = [&](const json::JsonArray& rows, const char* side) {
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string label = RowLabel(rows[i]);
      if (!index.emplace(label, i).second) {
        result.regressions.push_back(name + ".rows[" + label +
                                     "]: duplicate label in " + side +
                                     " artifact");
      }
    }
    return index;
  };
  const auto base_index = index_rows(base_rows, "baseline");
  const auto fresh_index = index_rows(fresh_rows, "fresh");

  std::vector<std::string> base_order;
  for (std::size_t i = 0; i < base_rows.size(); ++i) {
    const std::string label = RowLabel(base_rows[i]);
    if (base_index.at(label) != i) continue;  // duplicate, reported above
    const std::string where = name + ".rows[" + label + "]";
    const auto it = fresh_index.find(label);
    if (it == fresh_index.end()) {
      result.regressions.push_back(where + ": row missing in fresh run");
      continue;
    }
    base_order.push_back(label);
    const JsonValue& base_row = base_rows[i];
    const JsonValue& fresh_row = fresh_rows[it->second];
    DiffSection(where, base_row, fresh_row, "counters", &result.regressions);
    DiffSection(where, base_row, fresh_row, "values", &result.regressions);
    DiffSection(where, base_row, fresh_row, "text", &result.regressions);
    WarnOnDrift(where, base_row, fresh_row, options, &result.warnings);
  }
  std::vector<std::string> fresh_order;
  for (std::size_t i = 0; i < fresh_rows.size(); ++i) {
    const std::string label = RowLabel(fresh_rows[i]);
    if (fresh_index.at(label) != i) continue;
    if (base_index.count(label) == 0) {
      result.regressions.push_back(name + ".rows[" + label +
                                   "]: new row in fresh run; refresh the "
                                   "committed artifact");
      continue;
    }
    fresh_order.push_back(label);
  }
  if (base_order != fresh_order) {
    result.regressions.push_back(name + ": rows present in both artifacts "
                                        "appear in a different order");
  }
  return result;
}

bool LoadArtifact(const std::string& path, json::JsonValue* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  if (!json::ParseJson(text.str(), out, &parse_error)) {
    if (error != nullptr) *error = path + ": " + parse_error;
    return false;
  }
  return true;
}

}  // namespace s4tf::bench
