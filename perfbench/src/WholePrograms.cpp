//===- perfbench/src/WholePrograms.cpp - paper-suite and cold-code --------===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
// The two workloads whose sessions are whole programs: every program runs
// from construction to guest shutdown under native, qemu and
// rule:scheduling, each (program, kind) one session and one operation.
// A round runs every session once, in an order drawn from the seed; a run
// repeats whole rounds until --seconds have passed, so every run attempts
// the same operations in the same proportions.
//
//   paper-suite  the 12 SPEC proxies and 5 real-world proxies at scale 4
//                (steady state: translation is a negligible share);
//   cold-code    large flat images from fuzz::generate + fuzz::render,
//                each instruction run about once (translation dominates).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fuzz/Differential.h"
#include "fuzz/ProgramGen.h"
#include "guestsw/MiniKernel.h"
#include "guestsw/Workloads.h"
#include "vm/Snapshot.h"
#include "vm/Vm.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

using namespace rdbt;

namespace perfbench {
namespace {

/// One whole-program workload.
struct Suite {
  std::string Name;
  std::vector<std::string> Labels; ///< one per program
  /// 1 for a SPEC proxy, 2 for a real-world proxy, 0 otherwise.
  std::vector<int> Class;
  std::function<vm::VmConfig(size_t Program, Kind K)> Config;
  /// Marks in \p Failed the kinds whose session of \p Program failed an
  /// output check, given the program's three reports (indexed by Kind).
  std::function<void(size_t Program, const vm::RunReport *Reports,
                     bool *Failed)>
      Check;
  /// Optional: one more operation per round, on an input that does not
  /// depend on the seed; returns false when it fails its check.
  std::function<bool()> Canary;
  /// Host seconds spent making the inputs (not part of set-up).
  double InputS = 0;
  /// The programs' code, for the direct translation-layer probes.
  std::vector<std::vector<uint32_t>> Images;
  uint32_t ImageBase = 0;
  bool UserMode = false;
  uint64_t ImageBuildNs = 0;
};

/// A session runs in slices of this many cycles of its simulated clock
/// (the native kind's clock charges one cycle per guest instruction, so
/// its slices are an eighth), a few host milliseconds each, so the host
/// clock can be read per slice. Vm::run is resume-transparent: a sliced
/// run retires exactly the counts of an unsliced one.
uint64_t sliceBudget(Kind K) { return K == Native ? 62500 : 500000; }

struct Session {
  vm::RunReport R;
  uint64_t ConstructNs = 0;
  std::vector<uint64_t> SliceNs; ///< Vm::run host time of every slice
};

/// Runs one session to its end. With \p ProbeSnapshot (traced run, rule
/// kind) the finished session is also captured and forked once, timing
/// the snapshot layer on this workload's state.
Session runSession(const vm::VmConfig &Cfg, Kind K, uint64_t Id,
                   SpanLog &Spans, LayerTotals &L, bool ProbeSnapshot) {
  SpanScope Whole(Spans, "session", Id);
  Session S;
  const uint64_t T0 = nowNs();
  std::optional<vm::Vm> V;
  {
    SpanScope Span(Spans, "vm.construct", Id);
    V.emplace(Cfg);
  }
  S.ConstructNs = nowNs() - T0;
  {
    SpanScope Span(Spans, "vm.run", Id);
    uint64_t Spent = 0;
    do {
      const uint64_t Before = S.R.Time.RunNs;
      S.R = V->run(sliceBudget(K));
      S.SliceNs.push_back(S.R.Time.RunNs - Before);
      Spent += sliceBudget(K);
    } while (S.R.Stop == dbt::StopReason::WallLimit &&
             Spent < Cfg.wallBudget());
  }
  if (ProbeSnapshot && V->valid()) {
    uint64_t T = nowNs();
    vm::Snapshot Snap;
    {
      SpanScope Span(Spans, "vm.capture", Id);
      Snap = V->capture();
    }
    L.CaptureNs += nowNs() - T;
    ++L.Captures;
    T = nowNs();
    std::unique_ptr<vm::Vm> Fork;
    {
      SpanScope Span(Spans, "vm.fork", Id);
      Fork = vm::Vm::forkFrom(Snap);
    }
    L.ForkNs += nowNs() - T;
    ++L.Forks;
  }
  return S;
}

const char *const KindKeys[NumKinds] = {"native", "qemu", "rule"};

Outcome runSuite(const Options &O, const Suite &S) {
  Outcome Out;
  SpanLog Spans(O.Trace);
  LayerTotals L;
  L.ImageBuildNs = S.ImageBuildNs;
  L.ImageBuilds = S.Images.size();
  ProbeTimes Probe;
  if (O.Trace)
    Probe = probeTranslation(S.Images, S.ImageBase, S.UserMode, Spans);

  const size_t NP = S.Labels.size();
  // Set-up: everything from process start to the first session, minus
  // input generation, plus every construction of the first round.
  double SetupS = secondsSinceStart() - S.InputS;
  // Host time: every construction's and every slice's fastest repetition
  // in the run (README.md, "Host-time estimators").
  struct Best {
    uint64_t ConstructNs = ~0ull;
    std::vector<uint64_t> SliceNs;
  };
  std::vector<std::array<Best, NumKinds>> Bests(NP);
  Calibration Cal;
  std::vector<std::array<vm::RunReport, NumKinds>> First(NP);
  uint64_t SessionId = 0;

  const auto CountChecks = [&](size_t P, const vm::RunReport *Reports) {
    bool Failed[NumKinds] = {};
    S.Check(P, Reports, Failed);
    for (unsigned K = 0; K < NumKinds; ++K) {
      ++Out.Attempted;
      if (Failed[K]) {
        ++Out.Failed;
        std::fprintf(stderr, "%s: %s under %s failed its output check\n",
                     S.Name.c_str(), S.Labels[P].c_str(), KindNames[K]);
      }
    }
  };

  const uint64_t MeasureT0 = nowNs();
  for (unsigned Round = 0;; ++Round) {
    SpanScope RoundSpan(Spans, "round", Round);
    std::vector<std::pair<size_t, Kind>> Order;
    for (size_t P = 0; P < NP; ++P)
      for (unsigned K = 0; K < NumKinds; ++K)
        Order.emplace_back(P, static_cast<Kind>(K));
    SeededRng(subSeed(O.Seed, Round)).shuffle(Order);

    std::vector<std::array<vm::RunReport, NumKinds>> Reports(NP);
    for (const auto &[P, K] : Order) {
      Session X = runSession(S.Config(P, K), K, ++SessionId, Spans, L,
                             O.Trace && K == Rule);
      if (Round == 0)
        SetupS += static_cast<double>(X.ConstructNs) / 1e9;
      Cal.sample();
      Best &B = Bests[P][K];
      B.ConstructNs = std::min(B.ConstructNs, X.ConstructNs);
      B.SliceNs.resize(std::max(B.SliceNs.size(), X.SliceNs.size()), ~0ull);
      for (size_t I = 0; I < X.SliceNs.size(); ++I)
        B.SliceNs[I] = std::min(B.SliceNs[I], X.SliceNs[I]);
      L.ConstructNs += X.ConstructNs;
      ++L.Constructs;
      L.BootNs += X.R.Time.BootNs;
      ++L.Boots;
      if (K == Rule)
        L.addRule(X.R, nullptr);
      else if (K == Native)
        L.addNative(X.R, nullptr);
      Reports[P][K] = std::move(X.R);
    }
    for (size_t P = 0; P < NP; ++P)
      CountChecks(P, Reports[P].data());
    if (S.Canary) {
      SpanScope Span(Spans, "canary", Round);
      ++Out.Attempted;
      if (!S.Canary()) {
        ++Out.Failed;
        ++Out.CanaryFailed;
        std::fprintf(stderr, "%s: the fixed canary operation failed its "
                     "output check\n", S.Name.c_str());
      }
    }
    // The simulated clock is deterministic: every round must repeat the
    // first round's counts exactly.
    if (Round == 0) {
      First = Reports;
    } else {
      for (size_t P = 0; P < NP; ++P)
        for (unsigned K = 0; K < NumKinds; ++K)
          if (Reports[P][K].Counters.Wall != First[P][K].Counters.Wall ||
              Reports[P][K].Counters.GuestInstrs !=
                  First[P][K].Counters.GuestInstrs) {
            std::fprintf(stderr, "%s: %s under %s is not deterministic\n",
                         S.Name.c_str(), S.Labels[P].c_str(), KindNames[K]);
            Out.Correct = false;
          }
    }

    // Traced run: one seeded program per round runs again under every
    // kind with the program's own tracing armed, for its translate and
    // decode histograms and the tracing overhead.
    if (O.Trace) {
      const size_t P = SeededRng(subSeed(O.Seed, Round) + 1).below(
          static_cast<uint32_t>(NP));
      vm::RunReport Traced[NumKinds];
      for (unsigned K = 0; K < NumKinds; ++K) {
        vm::VmConfig Cfg = S.Config(P, static_cast<Kind>(K));
        Cfg.trace(O.TraceDir + "/" + S.Name + "-" + KindKeys[K] +
                  ".vm.trace.json");
        LayerTotals Unused;
        Session X = runSession(Cfg, static_cast<Kind>(K), ++SessionId, Spans,
                               Unused, false);
        L.addTraced(X.R, nullptr, static_cast<Kind>(K),
                    Reports[P][K].Time.RunNs);
        Traced[K] = std::move(X.R);
      }
      CountChecks(P, Traced);
    }

    if (nowNs() - MeasureT0 >= O.Seconds * 1000000000ull)
      break;
  }

  // Host clock: guest MIPS per kind over every session's best run time,
  // latency percentiles over every session's best latency.
  double Guest[NumKinds] = {}, RunNs[NumKinds] = {};
  std::vector<double> LatencyMs;
  for (size_t P = 0; P < NP; ++P)
    for (unsigned K = 0; K < NumKinds; ++K) {
      const Best &B = Bests[P][K];
      double Ns = 0;
      for (uint64_t SliceNs : B.SliceNs)
        Ns += static_cast<double>(SliceNs);
      Guest[K] += static_cast<double>(First[P][K].Counters.GuestInstrs);
      RunNs[K] += Cal.toReference(Ns);
      LatencyMs.push_back(
          Cal.toReference(static_cast<double>(B.ConstructNs) + Ns) / 1e6);
    }

  // Simulated clock (exact): from the first round's counters.
  std::vector<double> HostPerGuest, Speedup, SpecSpeedup, RwSpeedup;
  for (size_t P = 0; P < NP; ++P) {
    const vm::RunReport &Rule_ = First[P][Rule];
    const vm::RunReport &Qemu_ = First[P][Qemu];
    if (!Rule_.Counters.GuestInstrs || !Rule_.Counters.Wall)
      continue;
    HostPerGuest.push_back(static_cast<double>(Rule_.Counters.Wall) /
                           static_cast<double>(Rule_.Counters.GuestInstrs));
    const double X = static_cast<double>(Qemu_.Counters.Wall) /
                     static_cast<double>(Rule_.Counters.Wall);
    Speedup.push_back(X);
    if (S.Class[P] == 1)
      SpecSpeedup.push_back(X);
    else if (S.Class[P] == 2)
      RwSpeedup.push_back(X);
  }

  if (O.Trace) {
    putLayerMetrics(Out, L, Probe, geomean(SpecSpeedup), geomean(RwSpeedup));
    const std::string Path = O.TraceDir + "/" + S.Name + ".trace.json";
    if (!Spans.write(Path))
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return Out;
  }
  Out.put("setup_s", SetupS, "s");
  Out.put("native_guest_mips", 1e3 * Guest[Native] / RunNs[Native], "MIPS");
  Out.put("qemu_guest_mips", 1e3 * Guest[Qemu] / RunNs[Qemu], "MIPS");
  Out.put("rule_guest_mips", 1e3 * Guest[Rule] / RunNs[Rule], "MIPS");
  Out.put("rule_host_per_guest", geomean(HostPerGuest), "instr/instr");
  Out.put("speedup_vs_qemu", geomean(Speedup), "x");
  Out.put("session_p50_ms", percentile(LatencyMs, 0.50), "ms");
  Out.put("session_p99_ms", percentile(LatencyMs, 0.99), "ms");
  Out.put("peak_rss_mb", peakRssMb(), "MB");
  return Out;
}

bool cleanStop(const vm::RunReport &R) {
  return R.Error.empty() && R.Ok && R.Stop == dbt::StopReason::GuestShutdown;
}

// --- paper-suite -----------------------------------------------------------

constexpr uint32_t PaperScale = 4;

/// cpu-prime counts the odd primes below Scale * 700 + 3 by trial
/// division; the benchmark recomputes that count on its own.
uint32_t oddPrimesBelow(uint32_t Bound) {
  uint32_t Count = 0;
  for (uint32_t N = 3; N < Bound; N += 2) {
    bool Prime = true;
    for (uint32_t D = 3; D * D <= N; D += 2)
      if (N % D == 0) {
        Prime = false;
        break;
      }
    Count += Prime;
  }
  return Count;
}

/// True when the last console line is \p Value as eight hex digits (every
/// guest program prints its checksum that way before exiting).
bool printsChecksum(const std::string &Console, uint32_t Value) {
  char Want[16];
  std::snprintf(Want, sizeof(Want), "%08x\n", Value);
  const std::string W = Want;
  return Console.size() >= W.size() &&
         Console.compare(Console.size() - W.size(), W.size(), W) == 0 &&
         (Console.size() == W.size() ||
          Console[Console.size() - W.size() - 1] == '\n');
}

Suite paperSuite() {
  Suite S;
  S.Name = "paper-suite";
  const uint64_t T0 = nowNs();
  for (const guestsw::WorkloadInfo &W : guestsw::workloads())
    if (W.IsSpecProxy || W.IsRealWorld) {
      S.Labels.push_back(W.Name);
      S.Class.push_back(W.IsSpecProxy ? 1 : 2);
    }
  const uint32_t Primes = oddPrimesBelow(PaperScale * 700 + 3);
  S.InputS = static_cast<double>(nowNs() - T0) / 1e9;

  const std::vector<std::string> Labels = S.Labels;
  S.Config = [Labels](size_t P, Kind K) {
    return vm::VmConfig()
        .workload(Labels[P])
        .scale(PaperScale)
        .translator(KindNames[K]);
  };
  S.Check = [Labels, Primes](size_t P, const vm::RunReport *R,
                             bool *Failed) {
    for (unsigned K = 0; K < NumKinds; ++K) {
      Failed[K] = !cleanStop(R[K]);
      if (K != Native && R[K].Console != R[Native].Console)
        Failed[K] = true;
      if (Labels[P] == "cpu-prime" && !printsChecksum(R[K].Console, Primes))
        Failed[K] = true;
    }
  };
  S.ImageBase = guestsw::KernelLayout::UserVirt;
  S.UserMode = true;
  return S;
}

// --- cold-code -------------------------------------------------------------

/// Programs per round (one per generator profile) and guest instructions
/// per program. A flat image must fit below fuzz::DataBase (~64k words),
/// which bounds the size.
constexpr unsigned ColdPrograms = 5;
constexpr size_t ColdInstrs = 50000;

Suite coldCode(uint64_t Seed, const rules::RuleSet *Corpus) {
  Suite S;
  S.Name = "cold-code";
  const uint64_t T0 = nowNs();
  const std::vector<fuzz::Profile> &Profiles = fuzz::allProfiles();
  std::vector<std::vector<uint32_t>> Images;
  for (unsigned P = 0; P < ColdPrograms; ++P) {
    // One program: seeded generator draws of one profile, concatenated
    // until the body reaches ColdInstrs instructions.
    const fuzz::Profile &Prof = Profiles[P % Profiles.size()];
    const uint64_t ProgSeed = subSeed(Seed, P);
    fuzz::GenProgram Prog = fuzz::generate(ProgSeed, Prof);
    std::vector<fuzz::GenOp> Ops = Prog.Ops;
    size_t Instrs = fuzz::renderedInstrCount(Ops);
    for (uint64_t Draw = 1; Instrs < ColdInstrs; ++Draw) {
      const fuzz::GenProgram More =
          fuzz::generate(subSeed(ProgSeed, Draw), Prof);
      Ops.insert(Ops.end(), More.Ops.begin(), More.Ops.end());
      Instrs += fuzz::renderedInstrCount(More.Ops);
    }
    Images.push_back(fuzz::render(Prog, Ops));
    S.Labels.push_back(std::string(Prof.Name) + "#" + std::to_string(P));
    S.Class.push_back(0);
  }
  S.ImageBuildNs = nowNs() - T0;
  S.InputS = static_cast<double>(S.ImageBuildNs) / 1e9;

  S.Config = [Images, Corpus](size_t P, Kind K) {
    return fuzz::flatConfig(Images[P], KindNames[K],
                            K == Rule ? Corpus : nullptr,
                            K == Native ? fuzz::NativeBudget
                                        : fuzz::EngineBudget);
  };
  // Both DBT kinds must reach the reference interpreter's final state
  // and retire the same number of guest instructions as each other. Their
  // count against the interpreter's is checked by the canary below.
  S.Check = [](size_t, const vm::RunReport *R, bool *Failed) {
    const fuzz::FinalState Ref = fuzz::finalStateOf(R[Native]);
    Failed[Native] = !cleanStop(R[Native]);
    for (unsigned K = Qemu; K < NumKinds; ++K)
      Failed[K] = !cleanStop(R[K]) ||
                  !fuzz::statesAgree(Ref, fuzz::finalStateOf(R[K])) ||
                  R[K].Counters.GuestInstrs != R[Qemu].Counters.GuestInstrs;
  };
  // The canary: one fixed generated program (seed 0, whatever --seed is)
  // must retire as many guest instructions under rule:scheduling as
  // under the reference interpreter. A flat image takes no interrupt, so
  // the counts must agree; at this commit the DBT count is one higher on
  // every flat image (see FOUND in CHANGES.md), so this operation fails
  // in every round.
  const fuzz::GenProgram CanaryProg =
      fuzz::generate(0, *fuzz::findProfile("mixed"));
  const std::vector<uint32_t> CanaryImage = fuzz::render(CanaryProg);
  S.Canary = [CanaryImage, Corpus]() {
    vm::Vm N(fuzz::flatConfig(CanaryImage, KindNames[Native], nullptr,
                              fuzz::NativeBudget));
    vm::Vm D(fuzz::flatConfig(CanaryImage, KindNames[Rule], Corpus,
                              fuzz::EngineBudget));
    const vm::RunReport RN = N.run(), RD = D.run();
    return cleanStop(RN) && cleanStop(RD) &&
           RN.Counters.GuestInstrs == RD.Counters.GuestInstrs;
  };
  S.Images = std::move(Images);
  S.ImageBase = fuzz::CodeBase;
  S.UserMode = false;
  return S;
}

} // namespace

Outcome runPaperSuite(const Options &O) {
  Suite S = paperSuite();
  if (O.Trace) {
    // guestsw.image_build_ms and the probes' code: the program images,
    // built directly.
    const uint64_t T0 = nowNs();
    for (const std::string &Name : S.Labels)
      S.Images.push_back(guestsw::buildWorkloadImage(Name, PaperScale));
    S.ImageBuildNs = nowNs() - T0;
  }
  return runSuite(O, S);
}

Outcome runColdCode(const Options &O) {
  // The self-test deploys a corpus with one unsound rule; the output
  // checks must catch it.
  std::optional<rules::RuleSet> Planted;
  if (O.SelfTest)
    Planted.emplace(fuzz::buildPlantedBugRuleSet());
  return runSuite(O, coldCode(O.Seed, Planted ? &*Planted : nullptr));
}

} // namespace perfbench
