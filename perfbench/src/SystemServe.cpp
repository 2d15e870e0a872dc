//===- perfbench/src/SystemServe.cpp - system-serve -----------------------===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
// A closed loop with one client over copy-on-write forks. For each
// system-level program and each translator kind, one master boots for a
// fixed budget, runs one warm-up item and is captured (that is the
// set-up).
// A round then serves a seeded interleaving of fixed work items: each
// item is one session, a Vm::forkFrom of its master's snapshot that runs
// one item budget, and the next starts only when it has finished.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "guestsw/MiniKernel.h"
#include "guestsw/Workloads.h"
#include "vm/Snapshot.h"
#include "vm/Vm.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

using namespace rdbt;

namespace perfbench {
namespace {

/// The served programs and their scales: long enough that no master or
/// session reaches guest shutdown (memcached does less work per scale
/// step than the others).
struct Program {
  const char *Name;
  uint32_t Scale;
};
const Program Programs[] = {{"memcached", 128}, {"sqlite", 16},
                            {"fileio", 16},     {"untar", 16},
                            {"cpu-prime", 16},  {"ctxswitch", 16}};
constexpr size_t NumPrograms = sizeof(Programs) / sizeof(Programs[0]);

/// Budgets in cycles of the session's simulated clock. The native kind's
/// clock charges one cycle per guest instruction, so its budgets are an
/// eighth: about the guest work of a DBT budget. The boot budget takes
/// every kind past the kernel boot into the program. (Vm::runToBootMark
/// would overshoot to guest shutdown on some programs; see FOUND in
/// CHANGES.md.)
constexpr uint64_t BootCycles = 800000;
constexpr uint64_t ItemCycles = 150000;
uint64_t budget(Kind K, uint64_t Cycles) {
  return K == Native ? Cycles / 8 : Cycles;
}
/// Items of each (program, kind) per round, and sessions per round
/// checked against a fresh-boot twin.
constexpr unsigned ItemsPerMaster = 4;
constexpr unsigned TwinsPerRound = 2;

/// One captured master: the snapshot every session of its (program,
/// kind) forks from, and its report at capture time.
struct Master {
  size_t Program = 0;
  Kind K = Native;
  vm::VmConfig Cfg;
  vm::Snapshot Snap;
  vm::RunReport Base;
  /// The counter delta of this master's first session; every later
  /// session runs the same budget from the same state, so it must match.
  bool HaveDelta = false;
  host::ExecCounters Delta;
  uint64_t LastRunNs = 0; ///< run time of the latest untraced session
  /// Host time: this master's fastest session of the run (README.md,
  /// "Host-time estimators").
  uint64_t BestLatencyNs = ~0ull;
};

bool sameCounters(const host::ExecCounters &A, const host::ExecCounters &B) {
  return std::memcmp(&A, &B, sizeof(A)) == 0;
}

/// A forked session against its fresh-boot twin: console, final state,
/// every counter, engine and cache statistics (minus the two
/// fork-provenance counters), rule-translator counters and stop reason.
bool identicalToTwin(const vm::RunReport &F, const vm::RunReport &T) {
  if (!sameCounters(F.Counters, T.Counters) || F.Console != T.Console ||
      F.Ok != T.Ok || F.Stop != T.Stop)
    return false;
  for (int I = 0; I < 16; ++I)
    if (F.Final.Regs[I] != T.Final.Regs[I])
      return false;
  if (F.Final.Nzcv != T.Final.Nzcv ||
      F.Final.ShutdownRequested != T.Final.ShutdownRequested)
    return false;
  if (std::memcmp(&F.Engine, &T.Engine, sizeof(F.Engine)) != 0)
    return false;
  dbt::CacheStats A = F.Cache, B = T.Cache;
  A.AdoptedTbs = B.AdoptedTbs = 0;
  A.CowBlockCopies = B.CowBlockCopies = 0;
  return std::memcmp(&A, &B, sizeof(A)) == 0 &&
         F.RuleCoveredInstrs == T.RuleCoveredInstrs &&
         F.FallbackInstrs == T.FallbackInstrs &&
         F.RuleMatchAttempts == T.RuleMatchAttempts &&
         F.RuleMatchHits == T.RuleMatchHits;
}

double hostPerGuest(const host::ExecCounters &D) {
  return D.GuestInstrs ? static_cast<double>(D.Wall) /
                             static_cast<double>(D.GuestInstrs)
                       : 0;
}

} // namespace

Outcome runSystemServe(const Options &O) {
  Outcome Out;
  SpanLog Spans(O.Trace);
  LayerTotals L;
  uint64_t SessionId = 0;

  ProbeTimes Probe;
  if (O.Trace) {
    std::vector<std::vector<uint32_t>> Images;
    const uint64_t T0 = nowNs();
    for (const Program &P : Programs)
      Images.push_back(guestsw::buildWorkloadImage(P.Name, P.Scale));
    L.ImageBuildNs = nowNs() - T0;
    L.ImageBuilds = Images.size();
    Probe = probeTranslation(Images, guestsw::KernelLayout::UserVirt, true,
                             Spans);
  }

  // Set-up: boot, warm and capture every master.
  std::vector<Master> Masters;
  for (size_t P = 0; P < NumPrograms; ++P)
    for (unsigned K = 0; K < NumKinds; ++K) {
      Master M;
      M.Program = P;
      M.K = static_cast<Kind>(K);
      M.Cfg = vm::VmConfig()
                  .workload(Programs[P].Name)
                  .scale(Programs[P].Scale)
                  .translator(KindNames[K]);
      const uint64_t Id = ++SessionId;
      SpanScope Whole(Spans, "master", Id);
      uint64_t T = nowNs();
      std::unique_ptr<vm::Vm> V;
      {
        SpanScope Span(Spans, "vm.construct", Id);
        V = std::make_unique<vm::Vm>(M.Cfg);
      }
      L.ConstructNs += nowNs() - T;
      ++L.Constructs;
      T = nowNs();
      {
        SpanScope Span(Spans, "vm.run.boot", Id);
        V->run(budget(M.K, BootCycles));
      }
      L.BootNs += nowNs() - T;
      ++L.Boots;
      {
        SpanScope Span(Spans, "vm.run.warm", Id);
        M.Base = V->run(budget(M.K, ItemCycles));
      }
      T = nowNs();
      {
        SpanScope Span(Spans, "vm.capture", Id);
        M.Snap = V->capture();
      }
      L.CaptureNs += nowNs() - T;
      ++L.Captures;
      if (!M.Base.Error.empty() || M.Base.Stop != dbt::StopReason::WallLimit ||
          M.Snap.empty()) {
        std::fprintf(stderr, "system-serve: master %s/%s failed to boot and "
                     "warm (%s%s)\n", KindNames[K], Programs[P].Name,
                     M.Base.stopName(), M.Base.Error.c_str());
        Out.Correct = false;
        return Out;
      }
      Masters.push_back(std::move(M));
    }
  const double SetupS = secondsSinceStart();

  Calibration Cal;
  const uint64_t MeasureT0 = nowNs();
  for (unsigned Round = 0;; ++Round) {
    SpanScope RoundSpan(Spans, "round", Round);
    std::vector<size_t> Order;
    for (size_t I = 0; I < Masters.size(); ++I)
      for (unsigned J = 0; J < ItemsPerMaster; ++J)
        Order.push_back(I);
    SeededRng Draw(subSeed(O.Seed, Round));
    Draw.shuffle(Order);
    std::vector<bool> Twin(Order.size(), false);
    for (unsigned J = 0; J < TwinsPerRound; ++J)
      Twin[Draw.below(static_cast<uint32_t>(Order.size()))] = true;

    for (size_t I = 0; I < Order.size(); ++I) {
      Master &M = Masters[Order[I]];
      const uint64_t Id = ++SessionId;
      const uint64_t Budget = budget(M.K, ItemCycles);
      vm::RunReport R;
      uint64_t ForkNs = 0, LatencyNs = 0;
      {
        SpanScope Whole(Spans, "session", Id);
        const uint64_t T0 = nowNs();
        std::unique_ptr<vm::Vm> F;
        {
          SpanScope Span(Spans, "vm.fork", Id);
          F = vm::Vm::forkFrom(M.Snap);
        }
        ForkNs = nowNs() - T0;
        {
          SpanScope Span(Spans, "vm.run", Id);
          R = F->run(Budget);
        }
        LatencyNs = nowNs() - T0;
      }
      M.BestLatencyNs = std::min(M.BestLatencyNs, LatencyNs);
      Cal.sample();
      const host::ExecCounters Delta = minus(R.Counters, M.Base.Counters);
      M.LastRunNs = R.Time.RunNs;
      L.ForkNs += ForkNs;
      ++L.Forks;
      L.CowPages += R.CowPrivatePages;
      ++L.CowSessions;
      if (M.K == Rule)
        L.addRule(R, &M.Base);
      else if (M.K == Native)
        L.addNative(R, &M.Base);

      // Output checks: a clean stop, the master's counter delta, and for
      // the sampled sessions a bitwise match with a fresh-boot twin that
      // replays the master's exact run sequence.
      bool Ok = R.Error.empty() && (R.Stop == dbt::StopReason::WallLimit ||
                                    R.Ok);
      if (!M.HaveDelta) {
        M.Delta = Delta;
        M.HaveDelta = true;
      } else if (!sameCounters(Delta, M.Delta)) {
        Ok = false;
      }
      if (Twin[I]) {
        SpanScope Span(Spans, "twin", Id);
        vm::Vm T(M.Cfg);
        T.run(budget(M.K, BootCycles));
        T.run(Budget);
        Ok = Ok && identicalToTwin(R, T.run(Budget));
      }
      ++Out.Attempted;
      if (!Ok) {
        ++Out.Failed;
        std::fprintf(stderr, "system-serve: a %s/%s session failed its "
                     "output check\n",
                     KindNames[M.K], Programs[M.Program].Name);
      }
    }

    // Traced run: one seeded session per round forks again with the
    // program's own tracing armed.
    if (O.Trace) {
      Master &M = Masters[Draw.below(static_cast<uint32_t>(Masters.size()))];
      const uint64_t Id = ++SessionId;
      SpanScope Whole(Spans, "session.traced", Id);
      vm::VmConfig Cfg = M.Snap.config();
      Cfg.snapshot(&M.Snap).trace(O.TraceDir + "/system-serve.vm.trace.json");
      vm::RunReport R;
      {
        vm::Vm F(Cfg);
        R = F.run(budget(M.K, ItemCycles));
      }
      L.addTraced(R, &M.Base, M.K, M.LastRunNs);
      ++Out.Attempted;
      if (!R.Error.empty() ||
          !sameCounters(minus(R.Counters, M.Base.Counters), M.Delta))
        ++Out.Failed;
    }

    if (nowNs() - MeasureT0 >= O.Seconds * 1000000000ull)
      break;
  }

  // Host clock: guest MIPS per kind over every master's best session
  // time, latency percentiles over the masters' best latencies (each
  // master serves the same share of the items).
  double Guest[NumKinds] = {}, SessionNs[NumKinds] = {};
  std::vector<double> LatencyMs;
  for (const Master &M : Masters) {
    const double Ns = Cal.toReference(static_cast<double>(M.BestLatencyNs));
    Guest[M.K] += static_cast<double>(M.Delta.GuestInstrs);
    SessionNs[M.K] += Ns;
    LatencyMs.push_back(Ns / 1e6);
  }

  // Simulated clock (exact): every master's session delta.
  std::vector<double> HostPerGuest, Speedup, RwSpeedup;
  for (size_t P = 0; P < NumPrograms; ++P) {
    const Master &Q = Masters[P * NumKinds + Qemu];
    const Master &R = Masters[P * NumKinds + Rule];
    const double Hpg = hostPerGuest(R.Delta);
    HostPerGuest.push_back(Hpg);
    const double X = Hpg ? hostPerGuest(Q.Delta) / Hpg : 0;
    Speedup.push_back(X);
    if (std::strcmp(Programs[P].Name, "ctxswitch") != 0)
      RwSpeedup.push_back(X);
  }

  if (O.Trace) {
    putLayerMetrics(Out, L, Probe, 0, geomean(RwSpeedup));
    const std::string Path = O.TraceDir + "/system-serve.trace.json";
    if (!Spans.write(Path))
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return Out;
  }
  Out.put("setup_s", SetupS, "s");
  Out.put("native_guest_mips", 1e3 * Guest[Native] / SessionNs[Native],
          "MIPS");
  Out.put("qemu_guest_mips", 1e3 * Guest[Qemu] / SessionNs[Qemu], "MIPS");
  Out.put("rule_guest_mips", 1e3 * Guest[Rule] / SessionNs[Rule], "MIPS");
  Out.put("rule_host_per_guest", geomean(HostPerGuest), "instr/instr");
  Out.put("speedup_vs_qemu", geomean(Speedup), "x");
  Out.put("session_p50_ms", percentile(LatencyMs, 0.50), "ms");
  Out.put("session_p99_ms", percentile(LatencyMs, 0.99), "ms");
  Out.put("peak_rss_mb", peakRssMb(), "MB");
  return Out;
}

} // namespace perfbench
