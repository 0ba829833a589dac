// Shared helpers for the paper-reproduction benches: default cost-model
// calibration, operator runners, and table formatting.
//
// Scale substitution (see DESIGN.md section 2): dataset sizes are the
// paper's "GB" with kRowsPerGb lineitem rows per GB (TPC-H has ~6M/GB; we
// default to 100k/GB, a 60x row subsample). The cost model's time_scale is
// calibrated so that Table 2's Dynamic/EQ5/Z0 run lands in the paper's
// magnitude; all comparisons are shape-level, not absolute.

#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/driver.h"
#include "src/core/operator.h"
#include "src/datagen/workloads.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace bench {

constexpr uint64_t kRowsPerGb = 100000;  // 60x subsample of TPC-H

/// Calibrated so simulated seconds land near the paper's testbed magnitude:
/// the 60x row subsample plus the JVM/1GbE testbed factor.
constexpr double kTimeScale = 140.0;

inline CostModel DefaultCost(double mem_budget_mb = 0.0) {
  CostModel cost;
  cost.mem_budget_bytes =
      static_cast<uint64_t>(mem_budget_mb * 1024.0 * 1024.0);
  cost.time_scale = kTimeScale;
  return cost;
}

inline TpchConfig MakeTpch(double gb, int zipf_setting,
                           uint64_t rows_per_gb = kRowsPerGb) {
  TpchConfig cfg;
  cfg.gb = gb;
  cfg.lineitem_rows_per_gb = rows_per_gb;
  cfg.zipf_z = ZipfZForSetting(zipf_setting);
  cfg.seed = 4242;
  return cfg;
}

enum class OpKind { kDynamic, kStaticMid, kStaticOpt, kShj };

inline const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kDynamic: return "Dynamic";
    case OpKind::kStaticMid: return "StaticMid";
    case OpKind::kStaticOpt: return "StaticOpt";
    case OpKind::kShj: return "SHJ";
  }
  return "?";
}

inline OperatorConfig BaseConfig(const Workload& w, uint32_t machines,
                                 OpKind kind) {
  OperatorConfig cfg;
  cfg.spec = w.spec();
  cfg.machines = machines;
  cfg.keep_rows = false;
  cfg.min_total_before_adapt = 512;
  switch (kind) {
    case OpKind::kDynamic:
      cfg.adaptive = true;
      cfg.initial = MidMapping(machines);
      cfg.use_initial = true;
      break;
    case OpKind::kStaticMid:
      cfg.adaptive = false;
      cfg.initial = MidMapping(machines);
      cfg.use_initial = true;
      break;
    case OpKind::kStaticOpt: {
      cfg.adaptive = false;
      double r_units = static_cast<double>(w.r_count()) * w.r_tuple_bytes();
      double s_units = static_cast<double>(w.s_count()) * w.s_tuple_bytes();
      cfg.initial = OptimalMapping(machines, r_units, s_units);
      cfg.use_initial = true;
      break;
    }
    case OpKind::kShj:
      cfg.adaptive = false;
      break;
  }
  return cfg;
}

/// Runs one operator kind over the workload on a fresh SimEngine.
inline RunResult RunOne(const Workload& w, uint32_t machines, OpKind kind,
                        const CostModel& cost,
                        ArrivalPolicy arrival = ArrivalPolicy{},
                        uint32_t snapshots = 100,
                        uint64_t min_adapt = 512) {
  SimEngine engine;
  OperatorConfig cfg = BaseConfig(w, machines, kind);
  cfg.min_total_before_adapt = min_adapt;
  RunOptions opts;
  opts.cost = cost;
  opts.arrival = arrival;
  opts.snapshots = snapshots;
  if (kind == OpKind::kShj) {
    ShjOperator op(engine, cfg);
    engine.Start();
    return RunWorkload(engine, op, w, opts);
  }
  JoinOperator op(engine, cfg);
  engine.Start();
  return RunWorkload(engine, op, w, opts);
}

// ---------------------------------------------------------------------------
// JSON results writer shared by all benches. Every bench emits a
// BENCH_<name>.json file of flat rows so the perf trajectory accumulates
// machine-readable points across PRs:
//
//   JsonResult out("exchange_throughput");
//   JsonRow& row = out.AddRow();
//   row.Add("mode", "batched").Add("batch_size", 64).Add("tuples_per_sec", x);
//   out.Write();   // -> BENCH_exchange_throughput.json
// ---------------------------------------------------------------------------

class JsonRow {
 public:
  JsonRow& Add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, Quote(value));
    return *this;
  }
  JsonRow& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonRow& Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonRow& Add(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRow& Add(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRow& Add(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
  }

  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    out += "\"";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key -> literal
};

// Build provenance injected by CMake onto every bench target; defaults keep
// the header compilable outside the bench build (e.g. tooling includes).
#ifndef AJOIN_BENCH_COMMIT
#define AJOIN_BENCH_COMMIT "unknown"
#endif
#ifndef AJOIN_BENCH_BUILD_TYPE
#define AJOIN_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef AJOIN_BENCH_CXX_FLAGS
#define AJOIN_BENCH_CXX_FLAGS "unknown"
#endif

/// The recording host: CPU model and hardware threads.
inline std::string HostDescription() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model = "unknown cpu";
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  return model + ", " + std::to_string(std::thread::hardware_concurrency()) +
         " hardware threads";
}

class JsonResult {
 public:
  explicit JsonResult(std::string bench_name)
      : bench_name_(std::move(bench_name)) {
    // Every BENCH_*.json carries the commit, build type, compiler flags and
    // host it was measured on, so numbers are comparable across PRs.
    meta_.Add("commit", AJOIN_BENCH_COMMIT)
        .Add("build_type", AJOIN_BENCH_BUILD_TYPE)
        .Add("cxx_flags", AJOIN_BENCH_CXX_FLAGS)
        .Add("host", HostDescription());
  }

  /// Top-level metadata (dataset, calibration, units, ...).
  JsonRow& meta() { return meta_; }

  JsonRow& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Writes BENCH_<name>.json into `dir`. Returns false on I/O failure.
  bool Write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonResult: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n",
                 JsonRow::Quote(bench_name_).c_str());
    std::fprintf(f, "  \"meta\": %s,\n  \"rows\": [\n", meta_.ToJson().c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    %s%s\n", rows_[i].ToJson().c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  std::string bench_name_;
  JsonRow meta_;
  std::vector<JsonRow> rows_;
};

inline std::string Secs(double s, bool spilled) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.0f%s", s, spilled ? "*" : "");
  return buf;
}

/// "OK" when `value` meets its acceptance target `required`, "BELOW"
/// otherwise; printed beside each acceptance line.
inline const char* Verdict(double value, double required) {
  return value >= required ? "OK" : "BELOW";
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace ajoin
