//===- perfbench/src/Bench.cpp - Shared harness plumbing ------------------===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "arm/Decoder.h"
#include "core/RuleTranslator.h"
#include "dbt/GuestBlock.h"
#include "ir/QemuTranslator.h"
#include "rules/RuleSet.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

using namespace rdbt;

namespace perfbench {

const char *const KindNames[NumKinds] = {"native", "qemu", "rule:scheduling"};

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
uint64_t ProcessStartNs = 0;
} // namespace

void markProcessStart() { ProcessStartNs = nowNs(); }

double secondsSinceStart() {
  return static_cast<double>(nowNs() - ProcessStartNs) / 1e9;
}

uint64_t subSeed(uint64_t Seed, uint64_t Index) {
  SeededRng R(Seed ^ (Index * 0xD1B54A32D192ED03ull));
  return R.next();
}

// --- Spans -----------------------------------------------------------------

size_t SpanLog::begin(const char *Name, uint64_t Session) {
  if (!On)
    return 0;
  const long Parent = Open.empty() ? -1 : static_cast<long>(Open.back());
  Spans.push_back({Name, nowNs(), 0, Parent, Session});
  Open.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void SpanLog::end(size_t Id) {
  if (!On)
    return;
  Spans[Id].End = nowNs();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\"traceEvents\": [";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %ld, \"session\": %llu}}",
                  I ? "," : "", S.Name, (S.Start - Epoch) / 1e3,
                  (S.End - S.Start) / 1e3, I, S.Parent,
                  static_cast<unsigned long long>(S.Session));
    OS << Buf;
  }
  OS << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(OS);
}

// --- Counters --------------------------------------------------------------

host::ExecCounters minus(const host::ExecCounters &A,
                         const host::ExecCounters &B) {
  host::ExecCounters D;
  D.Wall = A.Wall - B.Wall;
  for (unsigned C = 0; C < host::NumCostClasses; ++C)
    D.ByClass[C] = A.ByClass[C] - B.ByClass[C];
  D.SyncOps = A.SyncOps - B.SyncOps;
  D.GuestInstrs = A.GuestInstrs - B.GuestInstrs;
  D.GuestMemInstrs = A.GuestMemInstrs - B.GuestMemInstrs;
  D.GuestSysInstrs = A.GuestSysInstrs - B.GuestSysInstrs;
  D.IrqChecks = A.IrqChecks - B.IrqChecks;
  D.TbEntries = A.TbEntries - B.TbEntries;
  D.ChainFollows = A.ChainFollows - B.ChainFollows;
  D.HelperCalls = A.HelperCalls - B.HelperCalls;
  return D;
}

namespace {
void addCounters(host::ExecCounters &Sum, const host::ExecCounters &C) {
  Sum.Wall += C.Wall;
  for (unsigned K = 0; K < host::NumCostClasses; ++K)
    Sum.ByClass[K] += C.ByClass[K];
  Sum.GuestInstrs += C.GuestInstrs;
  Sum.ChainFollows += C.ChainFollows;
  Sum.HelperCalls += C.HelperCalls;
}
} // namespace

void LayerTotals::addRule(const vm::RunReport &R, const vm::RunReport *Base) {
  const vm::RunReport Zero;
  const vm::RunReport &B = Base ? *Base : Zero;
  ++RuleSessions;
  addCounters(RuleCounters, minus(R.Counters, B.Counters));
  Translations += R.Engine.Translations - B.Engine.Translations;
  CacheEntries += R.Engine.CacheEntries - B.Engine.CacheEntries;
  Irqs += R.Engine.IrqsDelivered - B.Engine.IrqsDelivered;
  WfiSleeps += R.Engine.WfiSleeps - B.Engine.WfiSleeps;
  AdoptedTbs += R.Cache.AdoptedTbs;
  CowBlockCopies += R.Cache.CowBlockCopies;
  TbsInvalidated += R.Cache.TbsInvalidated - B.Cache.TbsInvalidated;
  Covered += R.RuleCoveredInstrs - B.RuleCoveredInstrs;
  Fallback += R.FallbackInstrs - B.FallbackInstrs;
  MatchAttempts += R.RuleMatchAttempts - B.RuleMatchAttempts;
  MatchHits += R.RuleMatchHits - B.RuleMatchHits;
}

void LayerTotals::addNative(const vm::RunReport &R,
                            const vm::RunReport *Base) {
  NativeRunNs += R.Time.RunNs;
  NativeGuest +=
      R.Counters.GuestInstrs - (Base ? Base->Counters.GuestInstrs : 0);
  DecodeHits += R.InterpDecodeHits;
  DecodeMisses += R.InterpDecodeMisses;
}

void LayerTotals::addTraced(const vm::RunReport &R, const vm::RunReport *Base,
                            Kind K, uint64_t UntracedNs) {
  for (const auto &H : R.Obs.Metrics.histograms()) {
    if (K == Rule && H.first == obs::metric::TranslateNs) {
      TracedTranslateNs += H.second.Sum;
      TracedTranslations += H.second.Count;
    } else if (K == Native && H.first == obs::metric::DecodeNs) {
      TracedDecodeNs += H.second.Sum;
      TracedDecodes += H.second.Count;
    }
  }
  if (K == Rule) {
    TracedRuleRunNs += R.Time.RunNs;
    TracedRuleGuest +=
        R.Counters.GuestInstrs - (Base ? Base->Counters.GuestInstrs : 0);
  }
  ++TracedSessions;
  TracedDropped += R.Obs.Dropped;
  if (UntracedNs)
    TracedTimeRatioSum += static_cast<double>(R.Time.RunNs) /
                          static_cast<double>(UntracedNs);
}

// --- Direct layer probes ---------------------------------------------------

namespace {

/// Splits \p Words into translation blocks the way the engine's fetcher
/// does: a block ends at its first block-ending or undecodable
/// instruction, or at the per-TB cap. Blocks starting on an undecodable
/// word (literal pools) are skipped.
std::vector<dbt::GuestBlock> splitBlocks(const std::vector<uint32_t> &Words,
                                         uint32_t Base, uint32_t MmuIdx) {
  std::vector<dbt::GuestBlock> Out;
  dbt::GuestBlock Cur;
  const auto Flush = [&]() {
    if (!Cur.Insts.empty() && Cur.Insts.front().isValid())
      Out.push_back(Cur);
    Cur = dbt::GuestBlock();
  };
  for (size_t I = 0; I < Words.size(); ++I) {
    if (Cur.Insts.empty()) {
      Cur.StartPc = Base + 4 * static_cast<uint32_t>(I);
      Cur.MmuIdx = MmuIdx;
    }
    const arm::Inst Inst = arm::decode(Words[I]);
    Cur.Insts.push_back(Inst);
    Cur.Words.push_back(Words[I]);
    if (!Inst.isValid() || Inst.endsBlock() ||
        Cur.Insts.size() == dbt::MaxGuestInstrsPerTb)
      Flush();
  }
  Flush();
  return Out;
}

/// Runs \p Pass repeatedly until \p MinNs of host time have passed and
/// returns nanoseconds per unit of work (\p UnitsPerPass per pass).
template <typename F>
double timePerUnit(F Pass, uint64_t UnitsPerPass, uint64_t MinNs) {
  uint64_t Passes = 0;
  const uint64_t T0 = nowNs();
  uint64_t Elapsed = 0;
  do {
    Pass();
    ++Passes;
    Elapsed = nowNs() - T0;
  } while (Elapsed < MinNs);
  return static_cast<double>(Elapsed) /
         static_cast<double>(Passes * UnitsPerPass);
}

/// Host time each probe loops for.
constexpr uint64_t ProbeNs = 60ull * 1000 * 1000;
/// Guest instructions each probe works over at most.
constexpr size_t ProbeInstrs = 60000;

} // namespace

ProbeTimes probeTranslation(const std::vector<std::vector<uint32_t>> &Images,
                            uint32_t Base, bool UserMode, SpanLog &Spans) {
  // Every image contributes an equal share of the probed instructions.
  std::vector<uint32_t> Words;
  std::vector<dbt::GuestBlock> Blocks;
  size_t Instrs = 0;
  const size_t PerImage = ProbeInstrs / std::max<size_t>(Images.size(), 1);
  for (const std::vector<uint32_t> &Image : Images) {
    size_t Taken = 0;
    for (dbt::GuestBlock &B : splitBlocks(Image, Base, UserMode ? 1 : 0)) {
      if (Taken >= PerImage)
        break;
      Taken += B.Insts.size();
      Words.insert(Words.end(), B.Words.begin(), B.Words.end());
      Blocks.push_back(std::move(B));
    }
    Instrs += Taken;
  }
  ProbeTimes P;
  if (Blocks.empty())
    return P;

  const rules::RuleSet Rules = rules::buildReferenceRuleSet();
  uint64_t Sink = 0;
  {
    SpanScope S(Spans, "arm.decode");
    P.DecodeNsPerInstr = timePerUnit(
        [&]() {
          for (uint32_t W : Words)
            Sink += static_cast<uint64_t>(arm::decode(W).Op);
        },
        Words.size(), ProbeNs);
  }
  {
    SpanScope S(Spans, "rules.match");
    rules::MatchStats Stats;
    P.MatchUsPerInstr =
        timePerUnit(
            [&]() {
              for (const dbt::GuestBlock &B : Blocks)
                for (size_t I = 0; I < B.Insts.size();) {
                  const rules::Rule *R = nullptr;
                  rules::Binding Bind;
                  const size_t N = Rules.match(&B.Insts[I],
                                               B.Insts.size() - I, &R, Bind,
                                               &Stats);
                  I += N ? N : 1;
                }
            },
            Instrs, ProbeNs) /
        1e3;
    Sink += Stats.Hits;
  }
  {
    SpanScope S(Spans, "core.translate");
    core::RuleTranslator Xlat(
        Rules, core::OptConfig::forLevel(core::OptLevel::Scheduling));
    P.RuleTranslateUsPerInstr =
        timePerUnit(
            [&]() {
              for (const dbt::GuestBlock &B : Blocks) {
                host::HostBlock Out;
                Xlat.translate(B, Out);
                Sink += Out.Code.size();
              }
            },
            Instrs, ProbeNs) /
        1e3;
  }
  {
    SpanScope S(Spans, "ir.translate");
    ir::QemuTranslator Xlat;
    P.QemuTranslateUsPerInstr =
        timePerUnit(
            [&]() {
              for (const dbt::GuestBlock &B : Blocks) {
                host::HostBlock Out;
                Xlat.translate(B, Out);
                Sink += Out.Code.size();
              }
            },
            Instrs, ProbeNs) /
        1e3;
  }
  // Keep the loops' results observable so none is optimized away.
  if (Sink == 42)
    std::fprintf(stderr, " ");
  return P;
}

// --- Per-layer metrics -----------------------------------------------------

namespace {
double ratio(double A, double B) { return B != 0 ? A / B : 0; }
} // namespace

void putLayerMetrics(Outcome &O, const LayerTotals &L, const ProbeTimes &P,
                     double SpecSpeedup, double RealWorldSpeedup) {
  const double Guest = static_cast<double>(L.RuleCounters.GuestInstrs);
  const double Sessions = static_cast<double>(L.RuleSessions);

  O.put("vm.construct_ms", ratio(L.ConstructNs / 1e6, L.Constructs), "ms");
  O.put("vm.boot_ms", ratio(L.BootNs / 1e6, L.Boots), "ms");
  O.put("vm.capture_ms", ratio(L.CaptureNs / 1e6, L.Captures), "ms");
  O.put("vm.fork_ms", ratio(L.ForkNs / 1e6, L.Forks), "ms");
  O.put("vm.cow_pages_per_session", ratio(L.CowPages, L.CowSessions),
        "count");
  O.put("guestsw.image_build_ms", ratio(L.ImageBuildNs / 1e6, L.ImageBuilds),
        "ms");

  static const char *const ClassNames[host::NumCostClasses] = {
      "user", "sync", "mmu", "irq", "glue", "helper"};
  for (unsigned C = 0; C < host::NumCostClasses; ++C)
    O.put(std::string("host.") + ClassNames[C] + "_per_guest",
          ratio(L.RuleCounters.ByClass[C], Guest), "instr/instr");
  O.put("host.chain_follows_per_entry",
        ratio(L.RuleCounters.ChainFollows, L.CacheEntries), "ratio");
  O.put("host.helper_calls_per_kguest",
        ratio(1e3 * L.RuleCounters.HelperCalls, Guest), "count");
  O.put("host.spec_speedup_vs_qemu", SpecSpeedup, "x");
  O.put("host.realworld_speedup_vs_qemu", RealWorldSpeedup, "x");

  O.put("dbt.translations", ratio(L.Translations, Sessions), "count");
  O.put("dbt.translate_us_per_block",
        ratio(L.TracedTranslateNs / 1e3, L.TracedTranslations), "us");
  O.put("dbt.exec_ns_per_guest",
        ratio(static_cast<double>(L.TracedRuleRunNs) -
                  static_cast<double>(L.TracedTranslateNs),
              L.TracedRuleGuest),
        "ns");
  O.put("dbt.cache_entries_per_kguest", ratio(1e3 * L.CacheEntries, Guest),
        "count");
  O.put("dbt.irqs_delivered", ratio(L.Irqs, Sessions), "count");
  O.put("dbt.adopted_tbs", ratio(L.AdoptedTbs, Sessions), "count");
  O.put("dbt.cow_block_copies", ratio(L.CowBlockCopies, Sessions), "count");
  O.put("dbt.tbs_invalidated", ratio(L.TbsInvalidated, Sessions), "count");
  O.put("dbt.wfi_sleeps", ratio(L.WfiSleeps, Sessions), "count");

  O.put("rules.match_hit_rate", ratio(L.MatchHits, L.MatchAttempts), "ratio");
  O.put("rules.match_us_per_instr", P.MatchUsPerInstr, "us");
  O.put("core.rule_coverage", ratio(L.Covered, L.Covered + L.Fallback),
        "ratio");
  O.put("core.translate_us_per_instr", P.RuleTranslateUsPerInstr, "us");
  O.put("ir.translate_us_per_instr", P.QemuTranslateUsPerInstr, "us");
  O.put("arm.decode_ns_per_instr", P.DecodeNsPerInstr, "ns");

  O.put("sys.interp_ns_per_instr", ratio(L.NativeRunNs, L.NativeGuest), "ns");
  O.put("sys.interp_decode_hit_rate",
        ratio(L.DecodeHits, L.DecodeHits + L.DecodeMisses), "ratio");
  O.put("sys.decode_ns_per_miss", ratio(L.TracedDecodeNs, L.TracedDecodes),
        "ns");

  O.put("obs.trace_overhead", ratio(L.TracedTimeRatioSum, L.TracedSessions),
        "ratio");
  O.put("obs.dropped_events", ratio(L.TracedDropped, L.TracedSessions),
        "count");
}

// --- Statistics ------------------------------------------------------------

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  Rank = std::min(std::max<size_t>(Rank, 1), V.size());
  return V[Rank - 1];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

namespace {
/// The kernel: a multiplicative-congruential walk over a 16 KiB table.
uint32_t CalibrationTable[4096];
volatile uint64_t CalibrationSink;
/// Fastest pass of the kernel on the reference machine (the 4-core VM the
/// reference figures come from), in its usual clock state.
constexpr double ReferencePassNs = 323000;
} // namespace

void Calibration::sample() {
  const uint64_t T0 = nowNs();
  uint64_t X = 12345, S = 0;
  for (int I = 0; I < 200000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    uint32_t &T = CalibrationTable[(X >> 40) & 4095];
    T += static_cast<uint32_t>(X);
    S += T ^ (S >> 3);
  }
  CalibrationSink = S;
  BestNs = std::min(BestNs, nowNs() - T0);
}

double Calibration::toReference(double Ns) const {
  return BestNs == ~0ull
             ? Ns
             : Ns * ReferencePassNs / static_cast<double>(BestNs);
}

double peakRssMb() {
  struct rusage U = {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace perfbench
