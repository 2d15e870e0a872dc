//===- perfbench/src/Bench.h - Shared harness plumbing ----------*- C++ -*-===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workload runners share: the command-line options, the
/// seeded generator that makes every input, the host clock, the span log
/// of the traced run, the per-layer accumulator every session feeds, the
/// direct layer probes, and the result every run prints as its last line.
///
/// The workloads reach the program only through its public API (vm::Vm,
/// vm::VmConfig, vm::Snapshot, fuzz::generate/render, arm::decode,
/// rules::RuleSet::match, core::RuleTranslator, ir::QemuTranslator).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "vm/RunReport.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 10;
  bool Trace = false;
  /// cold-code only: deploy the planted-bug corpus and expect failures.
  bool SelfTest = false;
  /// Where the traced run writes its timelines (inside the checkout).
  std::string TraceDir = ".bench_trace";
};

/// Host steady-clock nanoseconds.
uint64_t nowNs();

/// SplitMix64: every input the benchmark makes comes from one of these,
/// seeded from --seed, so the same seed gives the same inputs.
class SeededRng {
public:
  explicit SeededRng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint32_t below(uint32_t Bound) {
    return static_cast<uint32_t>(next() % Bound);
  }
  /// Fisher-Yates shuffle.
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(static_cast<uint32_t>(I))]);
  }

private:
  uint64_t State;
};

/// Mixes a round or program index into a seed.
uint64_t subSeed(uint64_t Seed, uint64_t Index);

/// The spans of the traced run: one per call the benchmark makes into a
/// layer's public function, with its parent and its session id, kept in
/// memory and written as one Chrome trace-event file at the end. Off in
/// untraced runs, where begin() and end() only test a flag.
class SpanLog {
public:
  explicit SpanLog(bool On) : On(On), Epoch(nowNs()) {}
  size_t begin(const char *Name, uint64_t Session);
  void end(size_t Id);
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    uint64_t Start, End;
    long Parent; ///< index of the enclosing span, -1 at top level
    uint64_t Session;
  };
  bool On;
  uint64_t Epoch;
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

/// RAII span: begins at construction, ends at destruction.
class SpanScope {
public:
  SpanScope(SpanLog &Log, const char *Name, uint64_t Session = 0)
      : Log(Log), Id(Log.begin(Name, Session)) {}
  ~SpanScope() { Log.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanLog &Log;
  size_t Id;
};

/// The three translator kinds every workload runs.
enum Kind : unsigned { Native = 0, Qemu = 1, Rule = 2, NumKinds = 3 };
extern const char *const KindNames[NumKinds];

/// Counter difference A - B (a forked session's own work is its report
/// minus the snapshot's counters).
rdbt::host::ExecCounters minus(const rdbt::host::ExecCounters &A,
                               const rdbt::host::ExecCounters &B);

/// Per-layer totals, fed by every untraced session of the run. The
/// rule:scheduling sessions feed the host/dbt/rules/core buckets, the
/// native sessions the sys buckets.
struct LayerTotals {
  uint64_t ConstructNs = 0, Constructs = 0;
  uint64_t BootNs = 0, Boots = 0;
  uint64_t CaptureNs = 0, Captures = 0;
  uint64_t ForkNs = 0, Forks = 0;
  uint64_t CowPages = 0, CowSessions = 0;
  uint64_t ImageBuildNs = 0, ImageBuilds = 0;

  // rule:scheduling sessions (deltas for forked sessions).
  uint64_t RuleSessions = 0;
  rdbt::host::ExecCounters RuleCounters;
  uint64_t Translations = 0, CacheEntries = 0, Irqs = 0, WfiSleeps = 0;
  uint64_t AdoptedTbs = 0, CowBlockCopies = 0, TbsInvalidated = 0;
  uint64_t Covered = 0, Fallback = 0, MatchAttempts = 0, MatchHits = 0;

  // native sessions.
  uint64_t NativeRunNs = 0, NativeGuest = 0;
  uint64_t DecodeHits = 0, DecodeMisses = 0;

  // Traced sample sessions: rule:scheduling translate time against run
  // time, native decode time.
  uint64_t TracedRuleRunNs = 0, TracedRuleGuest = 0;
  uint64_t TracedTranslateNs = 0, TracedTranslations = 0;
  uint64_t TracedDecodeNs = 0, TracedDecodes = 0;
  uint64_t TracedSessions = 0, TracedDropped = 0;
  double TracedTimeRatioSum = 0; ///< traced / untraced run time, summed

  /// Adds a rule:scheduling session's own work: \p R minus \p Base.
  void addRule(const rdbt::vm::RunReport &R,
               const rdbt::vm::RunReport *Base);
  void addNative(const rdbt::vm::RunReport &R,
                 const rdbt::vm::RunReport *Base);
  /// Adds a traced session of kind \p K (its own work: \p R minus
  /// \p Base); \p UntracedNs is the run time of the same session without
  /// tracing.
  void addTraced(const rdbt::vm::RunReport &R, const rdbt::vm::RunReport *Base,
                 Kind K, uint64_t UntracedNs);
};

/// Direct timings of the translation layers over one workload's code,
/// made by calling arm::decode, RuleSet::match, RuleTranslator::translate
/// and QemuTranslator::translate in loops over the code's blocks.
struct ProbeTimes {
  double DecodeNsPerInstr = 0;
  double MatchUsPerInstr = 0;
  double RuleTranslateUsPerInstr = 0;
  double QemuTranslateUsPerInstr = 0;
};
/// \p Images are guest code images; \p UserMode picks the MMU index the
/// blocks are translated for (kernel-hosted user programs vs flat images).
ProbeTimes probeTranslation(const std::vector<std::vector<uint32_t>> &Images,
                            uint32_t Base, bool UserMode, SpanLog &Spans);

/// One metric of the result line.
struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// What one run reports.
struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Failures of the fixed canary operation, also counted in Failed: a
  /// known fault of the program that the check self-test looks past.
  uint64_t CanaryFailed = 0;
  std::vector<Metric> Metrics;
  void put(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

/// Appends every per-layer metric computed from \p L and \p P (the
/// traced run's result set), in the order BENCHMARK.json lists them.
/// Workload-specific ones (the paper's speed-up split) are passed in.
void putLayerMetrics(Outcome &O, const LayerTotals &L, const ProbeTimes &P,
                     double SpecSpeedup, double RealWorldSpeedup);

// --- Statistics ------------------------------------------------------------

/// Nearest-rank percentile (\p Q in (0, 1]) of \p V.
double percentile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
/// Peak resident set of this process so far, in MB.
double peakRssMb();

/// The host CPU's speed state. The shared VM this benchmark was built on
/// switches between discrete clock states, several percent apart, for
/// minutes at a time; every session's best-of-run time moves with them.
/// A fixed integer kernel, independent of the program, is timed after
/// every session; its fastest pass in the run tells the state the best
/// times were taken in, and toReference() rescales a best-of-run host
/// time to the reference state (README.md, "Host-time estimators").
class Calibration {
public:
  /// Times one pass of the kernel.
  void sample();
  /// \p Ns rescaled by the reference pass time over the best pass time.
  double toReference(double Ns) const;

private:
  uint64_t BestNs = ~0ull;
};

/// Host seconds since main() started.
double secondsSinceStart();
void markProcessStart();

// --- The workloads ---------------------------------------------------------

Outcome runPaperSuite(const Options &O);
Outcome runColdCode(const Options &O);
Outcome runSystemServe(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
