//===- bench/BenchCommon.h - Shared benchmark harness -----------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness shared by the bench binaries and the scenario/serve/fuzz
/// tools: the bench scale, wall budgets, and BENCH_*.json emission
/// (report fields come from vm/ReportFields.h). Absolute numbers come
/// from the simulated host (host instructions = wall cycles); see
/// EXPERIMENTS.md for the paper-vs-measured comparison.
///
/// RDBT_BENCH_SCALE (env) scales workload iteration counts (default 4).
/// RDBT_BENCH_JSON (env), when set, makes each binary also write its raw
/// counters and derived figure series to BENCH_<name>.json (the variable's
/// value is the output directory; "1" or empty means the current directory).
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_BENCH_BENCHCOMMON_H
#define RDBT_BENCH_BENCHCOMMON_H

#include "guestsw/Workloads.h"
#include "vm/ReportFields.h"
#include "vm/Vm.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace rdbt {
namespace bench {

/// RDBT_BENCH_SCALE, default 4. Anything but a positive decimal integer
/// is an error (exit 2): a typo must not silently measure scale 4.
inline uint32_t benchScale() {
  const char *S = std::getenv("RDBT_BENCH_SCALE");
  if (!S)
    return 4;
  char *End = nullptr;
  const long V = std::strtol(S, &End, 10);
  if (End == S || *End != '\0' || V <= 0 || V > 1000000) {
    std::fprintf(stderr, "RDBT_BENCH_SCALE='%s' is not a positive integer\n",
                 S);
    std::exit(2);
  }
  return static_cast<uint32_t>(V);
}

/// The wall budgets the bench binaries run under: the native kind's is
/// an instruction budget (1 cycle/instr), the engine kinds' a host-cycle
/// budget.
inline uint64_t benchWallBudget(const std::string &Kind) {
  return Kind == "native" ? 2000ull * 1000 * 1000
                          : 400ull * 1000 * 1000 * 1000;
}

//===----------------------------------------------------------------------===//
// Optional BENCH_*.json emission (see RDBT_BENCH_JSON above). Binaries
// record their runs' reports and their derived series with recordMetric();
// writeBenchJson() at the end of main() dumps both, so downstream tooling
// can recompute any figure from the raw runs.
//===----------------------------------------------------------------------===//

struct JsonRecorder {
  struct Run {
    std::string Workload;
    std::string Config;
    vm::RunReport R;
  };
  struct Metric {
    std::string Series;
    std::string Point;
    double Value;
  };
  std::vector<Run> Runs;
  std::vector<Metric> Metrics;

  static JsonRecorder &get() {
    static JsonRecorder R;
    return R;
  }
};

/// Records one point of a derived series (e.g. series "speedup_fullopt",
/// point "perlbench", value 1.36) for BENCH_*.json emission.
inline void recordMetric(const std::string &Series, const std::string &Point,
                         double Value) {
  JsonRecorder::get().Metrics.push_back({Series, Point, Value});
}

/// Emits one obs histogram as a nested JSON object (counts only —
/// deterministic fields first, min/max/mean depend on the recorded
/// values, which for wall-time histograms are nondeterministic; callers
/// put these objects only in non-gated documents).
template <typename Stream>
inline void writeHistogramJson(Stream &OS, const obs::Histogram &H) {
  OS << "{\"count\": " << H.Count << ", \"sum\": " << H.Sum
     << ", \"min\": " << (H.Count ? H.Min : 0) << ", \"max\": " << H.Max
     << ", \"buckets\": [";
  // Trailing zero buckets are elided so small histograms stay readable;
  // bucket k >= 1 spans [2^(k-1), 2^k), bucket 0 is exact zeros.
  unsigned Last = obs::Histogram::NumBuckets;
  while (Last > 1 && H.Buckets[Last - 1] == 0)
    --Last;
  for (unsigned I = 0; I < Last; ++I)
    OS << (I ? ", " : "") << H.Buckets[I];
  OS << "]}";
}

/// Serializes a scenario matrix to the BENCH_matrix.json document the
/// perf-regression gate (tools/rdbt_perfgate) diffs: cell Keys[I] holds
/// Reports[I]'s JSON fields (vm/ReportFields.h), in submission order.
/// Byte-identical for equal inputs, so a parallel matrix run reproduces
/// the serial document exactly (vm/BatchRunner.h).
inline std::string formatMatrixJson(const std::vector<std::string> &Keys,
                                    const std::vector<vm::RunReport> &Reports,
                                    uint32_t Scale) {
  std::ostringstream OS;
  OS << "{\n  \"bench\": \"matrix\",\n  \"scale\": " << Scale
     << ",\n  \"matrix\": {";
  for (size_t I = 0; I < Reports.size(); ++I)
    OS << (I ? ",\n" : "\n") << "    \"" << vm::jsonEscape(Keys[I])
       << "\": {" << vm::reportJsonFields(Reports[I]) << "}";
  OS << "\n  }\n}\n";
  return OS.str();
}

/// Writes \p Doc to \p Name in the RDBT_BENCH_JSON directory (unset,
/// empty or "1" = the current one); false when the file cannot be
/// written.
inline bool writeBenchFile(const std::string &Name, const std::string &Doc) {
  const char *Env = std::getenv("RDBT_BENCH_JSON");
  const std::string Dir =
      (!Env || *Env == '\0' || std::string(Env) == "1") ? "." : Env;
  const std::string Path = Dir + "/" + Name;
  std::ofstream OS(Path);
  if (!(OS << Doc)) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", Path.c_str());
  return true;
}

/// Writes BENCH_<BenchName>.json when RDBT_BENCH_JSON is set; no-op
/// otherwise. Call once at the end of each bench binary's main().
inline void writeBenchJson(const char *BenchName) {
  if (!std::getenv("RDBT_BENCH_JSON"))
    return;
  std::ostringstream OS;
  const JsonRecorder &R = JsonRecorder::get();
  OS << "{\n  \"bench\": \"" << vm::jsonEscape(BenchName) << "\",\n"
     << "  \"scale\": " << benchScale() << ",\n  \"runs\": [";
  for (size_t I = 0; I < R.Runs.size(); ++I) {
    const JsonRecorder::Run &Run = R.Runs[I];
    OS << (I ? ",\n" : "\n") << "    {\"workload\": \""
       << vm::jsonEscape(Run.Workload) << "\", \"config\": \""
       << vm::jsonEscape(Run.Config) << "\", " << vm::reportJsonFields(Run.R)
       << "}";
  }
  OS << "\n  ],\n  \"metrics\": [";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const JsonRecorder::Metric &M = R.Metrics[I];
    OS << (I ? ",\n" : "\n") << "    {\"series\": \""
       << vm::jsonEscape(M.Series) << "\", \"point\": \""
       << vm::jsonEscape(M.Point) << "\", \"value\": " << M.Value << "}";
  }
  OS << "\n  ]\n}\n";
  writeBenchFile(std::string("BENCH_") + BenchName + ".json", OS.str());
}

inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (const double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

} // namespace bench
} // namespace rdbt

#endif // RDBT_BENCH_BENCHCOMMON_H
