//===- tools/rdbt_fuzz.cpp - Standing differential-fuzz harness ------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standing differential fuzzer (DESIGN.md §10): runs seed ranges of
/// random guest programs (src/fuzz/ProgramGen.h) through the reference
/// interpreter and every engine translator kind — including a persisted
/// rule:file corpus — on a BatchRunner worker pool, and diffs final
/// architectural state exactly. Any mismatch is shrunk to a minimized
/// reproducer (src/fuzz/Shrink.h) and reported with the seed and spec;
/// the exit code is non-zero on any mismatch or session error, so CI
/// soak jobs cannot silently pass.
///
///   rdbt_fuzz --seeds 0..500 --jobs 8 --corpus ref.rules --json
///   rdbt_fuzz --seed 137 --spec rule:scheduling    # reproduce one seed
///   rdbt_fuzz --plant-bug                          # harness self-test
///
/// --plant-bug deploys the reference corpus with a deliberately-unsound
/// clz rule and *inverts* the exit semantics: the run succeeds only if
/// the bug is caught and the reproducer shrinks to <= 8 instructions.
///
/// With --json (or RDBT_BENCH_JSON set) a BENCH_fuzz.json summary is
/// emitted: per-kind aggregate counters, seeds run, mismatch counts,
/// wall-clock execs/sec, and the rule-matcher micro-benchmark comparing
/// the linear, fine-indexed, and hot-reordered matchers at corpus scale.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "arm/Decoder.h"
#include "fuzz/Differential.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/Shrink.h"
#include "rules/RuleIo.h"
#include "vm/BatchRunner.h"
#include "vm/Vm.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace rdbt;

namespace {

struct Options {
  uint64_t SeedLo = 0, SeedHi = 100; ///< [lo, hi) seed window
  bool SingleSeed = false;
  std::vector<std::string> Specs; ///< engine kinds to diff (default: all)
  std::string ProfileName = "mixed";
  unsigned Jobs = 1;
  std::string CorpusFile;
  bool Json = false;
  bool PlantBug = false;
  bool List = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: rdbt_fuzz [--seeds A..B] [--seed N] [--spec KIND] "
      "[--profile P]\n"
      "                 [--jobs N] [--corpus F] [--json] [--plant-bug] "
      "[--list]\n");
  return 2;
}

/// The per-program seed schedule (kept from FuzzDifferentialTest).
uint64_t seedAt(uint64_t Index) { return 0xF0DD + Index * 7919; }

struct KindState {
  std::string Spec;
  vm::RunReport Sum;  ///< counters summed across seeds
  uint64_t Seeds = 0;
  uint64_t Mismatches = 0;
  uint64_t Errors = 0;
};

struct Mismatch {
  uint64_t Seed = 0;
  std::string Spec;
  std::string Diff;
};

/// Decodes the rendered image into the instruction stream the matcher
/// micro-benchmark and the hot-order warmup replay.
std::vector<arm::Inst> decodeProgram(const fuzz::GenProgram &Prog) {
  std::vector<arm::Inst> Insts;
  for (const uint32_t W : fuzz::render(Prog))
    Insts.push_back(arm::decode(W));
  return Insts;
}

/// Replays \p Insts through \p RS once, window-by-window, accumulating
/// \p Stats — the warmup pass whose per-rule hit counts drive
/// optimizeHotOrder before the corpus is shared with the worker pool.
void warmupMatch(const rules::RuleSet &RS, const std::vector<arm::Inst> &Insts,
                 rules::MatchStats &Stats) {
  for (size_t I = 0; I < Insts.size(); ++I) {
    const rules::Rule *R = nullptr;
    rules::Binding B;
    RS.match(Insts.data() + I, Insts.size() - I, &R, B, &Stats);
  }
}

//===----------------------------------------------------------------------===//
// Rule-matcher micro-benchmark: linear vs fine-indexed vs hot-reordered,
// at reference scale and at synthetic corpus scale (1k+/10k+ rules).
//===----------------------------------------------------------------------===//

/// Extends the reference set with exact-immediate single-opcode variants
/// ("learned specializations") until it holds \p Target rules. Each
/// variant registers in exactly one fine bucket, which is how a real
/// learned corpus spreads: the linear matcher degrades with the rule
/// count while the indexed matcher only sees its bucket.
rules::RuleSet buildSyntheticCorpus(size_t Target) {
  const rules::RuleSet Ref = rules::buildReferenceRuleSet();
  // Opcode -> host-op mapping, harvested from the reference classes.
  std::vector<rules::OpClassEntry> AluEntries;
  for (size_t I = 0; I < Ref.size(); ++I)
    for (const auto &Class : Ref.rule(I).Classes)
      for (const rules::OpClassEntry &CE : Class) {
        bool Known = false;
        for (const rules::OpClassEntry &Have : AluEntries)
          Known |= Have.Guest == CE.Guest;
        if (!Known)
          AluEntries.push_back(CE);
      }

  rules::RuleSet RS;
  for (size_t I = 0; I < Ref.size(); ++I)
    RS.add(Ref.rule(I));
  size_t Serial = 0;
  while (RS.size() < Target && !AluEntries.empty()) {
    const rules::OpClassEntry &CE = AluEntries[Serial % AluEntries.size()];
    rules::Rule R;
    R.Name = "syn_" + std::to_string(Serial);
    R.Classes = {{CE}};
    rules::RulePattern P;
    P.Shape = rules::PatShape::DpImm;
    P.SetFlags = (Serial & 1) != 0;
    P.Rd = 0;
    P.Rn = 1;
    P.ImmP = -1;
    P.ImmExact = static_cast<uint32_t>(Serial / AluEntries.size()) % 256;
    R.Guest = {P};
    rules::HostTemplateOp H;
    H.UseClassHostOp = true;
    H.SetFlagsFromGuest = true;
    H.Dst = 0;
    H.Src = 1;
    H.UseImm = true;
    H.ImmExact = P.ImmExact;
    R.Host = {H};
    R.Verified = true;
    RS.add(std::move(R));
    ++Serial;
  }
  return RS;
}

struct MatchBenchResult {
  double LinearPerSec = 0;
  double IndexedPerSec = 0;
  double HotPerSec = 0;
  bool Identical = true; ///< all three matchers agreed on every probe
};

MatchBenchResult runMatchBench(const rules::RuleSet &RS,
                               const std::vector<arm::Inst> &Insts,
                               unsigned Repeat) {
  using Matcher = size_t (rules::RuleSet::*)(const arm::Inst *, size_t,
                                             const rules::Rule **,
                                             rules::Binding &,
                                             rules::MatchStats *) const;
  // Hot-order a copy on a warmup pass; the original stays canonical.
  rules::RuleSet Hot;
  for (size_t I = 0; I < RS.size(); ++I)
    Hot.add(RS.rule(I));
  rules::MatchStats Warm;
  warmupMatch(Hot, Insts, Warm);
  Hot.optimizeHotOrder(Warm);

  MatchBenchResult Res;
  // Per-probe reference results from the linear matcher (rule name +
  // consumed count identify the selection across rule-set copies). The
  // full bit-level equivalence proof lives in RuleSetIndexTest; this
  // keeps the timed paths honest on the benched stream too.
  std::vector<std::pair<std::string, size_t>> Want;
  Want.reserve(Insts.size());
  for (size_t I = 0; I < Insts.size(); ++I) {
    const rules::Rule *R = nullptr;
    rules::Binding B;
    const size_t Len =
        RS.matchLinear(Insts.data() + I, Insts.size() - I, &R, B, nullptr);
    Want.emplace_back(R ? R->Name : "", Len);
  }
  const auto Time = [&](const rules::RuleSet &Set, Matcher M, bool Check) {
    const auto T0 = std::chrono::steady_clock::now();
    uint64_t Probes = 0;
    for (unsigned Rep = 0; Rep < Repeat; ++Rep)
      for (size_t I = 0; I < Insts.size(); ++I) {
        const rules::Rule *R = nullptr;
        rules::Binding B;
        const size_t Len =
            (Set.*M)(Insts.data() + I, Insts.size() - I, &R, B, nullptr);
        ++Probes;
        if (Check && Rep == 0 &&
            (Len != Want[I].second || (R ? R->Name : "") != Want[I].first))
          Res.Identical = false;
      }
    const double Secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    return Secs > 0 ? static_cast<double>(Probes) / Secs : 0.0;
  };
  Res.LinearPerSec = Time(RS, &rules::RuleSet::matchLinear, false);
  Res.IndexedPerSec = Time(RS, &rules::RuleSet::match, true);
  Res.HotPerSec = Time(Hot, &rules::RuleSet::match, true);
  return Res;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--seeds") {
      const char *V = Next();
      uint64_t Lo = 0, Hi = 0;
      if (!V || std::sscanf(V, "%llu..%llu", (unsigned long long *)&Lo,
                            (unsigned long long *)&Hi) != 2 ||
          Hi <= Lo)
        return usage();
      Opt.SeedLo = Lo;
      Opt.SeedHi = Hi;
    } else if (A == "--seed") {
      const char *V = Next();
      if (!V)
        return usage();
      Opt.SeedLo = std::strtoull(V, nullptr, 0);
      Opt.SeedHi = Opt.SeedLo + 1;
      Opt.SingleSeed = true;
    } else if (A == "--spec") {
      const char *V = Next();
      if (!V)
        return usage();
      Opt.Specs.push_back(V);
    } else if (A == "--profile") {
      const char *V = Next();
      if (!V)
        return usage();
      Opt.ProfileName = V;
    } else if (A == "--jobs") {
      const char *V = Next();
      if (!V)
        return usage();
      Opt.Jobs = static_cast<unsigned>(std::atoi(V));
      if (!Opt.Jobs)
        Opt.Jobs = vm::BatchRunner::hardwareJobs();
    } else if (A == "--corpus") {
      const char *V = Next();
      if (!V)
        return usage();
      Opt.CorpusFile = V;
    } else if (A == "--json") {
      Opt.Json = true;
    } else if (A == "--plant-bug") {
      Opt.PlantBug = true;
    } else if (A == "--list") {
      Opt.List = true;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", A.c_str());
      return usage();
    }
  }

  if (Opt.List) {
    std::printf("profiles:");
    for (const fuzz::Profile &P : fuzz::allProfiles())
      std::printf(" %s", P.Name);
    std::printf("\nkinds:");
    for (const std::string &K : vm::TranslatorRegistry::global().kinds()) {
      const auto *Info = vm::TranslatorRegistry::global().find(K);
      if (Info && Info->UsesEngine && !Info->TakesParam)
        std::printf(" %s", K.c_str());
    }
    std::printf(" rule:file=<path>\n");
    return 0;
  }

  const fuzz::Profile *Prof = fuzz::findProfile(Opt.ProfileName);
  if (!Prof) {
    std::fprintf(stderr, "unknown profile '%s'\n", Opt.ProfileName.c_str());
    return usage();
  }

  // --- Corpora ------------------------------------------------------------
  // One immutable RuleSet per corpus, shared read-only across every seed,
  // kind, and worker thread. --plant-bug swaps in the unsound clz rule.
  rules::RuleSet Shared = Opt.PlantBug ? fuzz::buildPlantedBugRuleSet()
                                       : rules::buildReferenceRuleSet();
  rules::RuleSet FileCorpus;
  if (!Opt.CorpusFile.empty()) {
    std::string Err;
    if (!rules::readRuleFile(Opt.CorpusFile, FileCorpus, &Err)) {
      std::fprintf(stderr, "cannot load corpus '%s': %s\n",
                   Opt.CorpusFile.c_str(), Err.c_str());
      return 2;
    }
  }

  // Warm the shared corpus and reorder hot rules first — the setup-time
  // optimizeHotOrder pass every long-lived deployment would run. Sound by
  // construction (see RuleSet.h), verified by RuleSetIndexTest.
  {
    rules::MatchStats Warm;
    const std::vector<arm::Inst> WarmInsts =
        decodeProgram(fuzz::generate(seedAt(Opt.SeedLo), *Prof));
    warmupMatch(Shared, WarmInsts, Warm);
    Shared.optimizeHotOrder(Warm);
    if (!Opt.CorpusFile.empty()) {
      rules::MatchStats FileWarm;
      warmupMatch(FileCorpus, WarmInsts, FileWarm);
      FileCorpus.optimizeHotOrder(FileWarm);
    }
  }

  // --- Kind list ----------------------------------------------------------
  std::vector<std::string> Specs = Opt.Specs;
  if (Specs.empty()) {
    if (Opt.PlantBug) {
      Specs.push_back("rule:scheduling");
    } else {
      for (const std::string &K : vm::TranslatorRegistry::global().kinds()) {
        const auto *Info = vm::TranslatorRegistry::global().find(K);
        if (Info && Info->UsesEngine && !Info->TakesParam)
          Specs.push_back(K);
      }
      if (!Opt.CorpusFile.empty())
        Specs.push_back("rule:file=" + Opt.CorpusFile);
    }
  }
  const auto RulesFor = [&](const std::string &Spec) -> const rules::RuleSet * {
    if (Spec.rfind("rule:file=", 0) == 0 && !Opt.CorpusFile.empty())
      return &FileCorpus;
    return &Shared;
  };

  std::vector<KindState> Kinds;
  for (const std::string &S : Specs)
    Kinds.push_back({S, {}, 0, 0, 0});

  if (Opt.SingleSeed) {
    const fuzz::GenProgram P = fuzz::generate(seedAt(Opt.SeedLo), *Prof);
    std::printf("seed %llu (%s, %zu ops):\n",
                (unsigned long long)Opt.SeedLo, Prof->Name, P.Ops.size());
    for (const fuzz::GenOp &Op : P.Ops)
      std::printf("    %s\n", fuzz::describeOp(Op).c_str());
  }

  // --- Fuzz loop ----------------------------------------------------------
  const vm::BatchRunner Runner(Opt.Jobs);
  std::vector<Mismatch> Mismatches;
  std::vector<std::string> Errors;
  uint64_t ProgramsRun = 0;
  const auto FuzzT0 = std::chrono::steady_clock::now();

  constexpr uint64_t Wave = 32;
  for (uint64_t Lo = Opt.SeedLo; Lo < Opt.SeedHi; Lo += Wave) {
    const uint64_t Hi = std::min(Opt.SeedHi, Lo + Wave);
    std::vector<fuzz::GenProgram> Progs;
    std::vector<vm::VmConfig> Configs;
    for (uint64_t S = Lo; S < Hi; ++S) {
      Progs.push_back(fuzz::generate(seedAt(S), *Prof));
      const std::vector<uint32_t> Words = fuzz::render(Progs.back());
      Configs.push_back(
          fuzz::flatConfig(Words, "native", nullptr, fuzz::NativeBudget));
      for (const KindState &K : Kinds)
        Configs.push_back(fuzz::flatConfig(Words, K.Spec, RulesFor(K.Spec),
                                           fuzz::EngineBudget));
    }
    const std::vector<vm::RunReport> Reports = Runner.run(Configs);

    const size_t Stride = 1 + Kinds.size();
    for (uint64_t S = Lo; S < Hi; ++S) {
      const size_t Base = static_cast<size_t>(S - Lo) * Stride;
      const vm::RunReport &RefRep = Reports[Base];
      const fuzz::FinalState Ref = fuzz::finalStateOf(RefRep);
      ProgramsRun += Stride;
      if (!RefRep.Error.empty() || !Ref.Shutdown) {
        Errors.push_back("seed " + std::to_string(S) + " native: " +
                         (RefRep.Error.empty() ? "did not terminate"
                                               : RefRep.Error));
        continue;
      }
      for (size_t K = 0; K < Kinds.size(); ++K) {
        const vm::RunReport &Rep = Reports[Base + 1 + K];
        KindState &KS = Kinds[K];
        ++KS.Seeds;
        if (!Rep.Error.empty()) {
          ++KS.Errors;
          Errors.push_back("seed " + std::to_string(S) + " " + KS.Spec +
                           ": " + Rep.Error);
          continue;
        }
        // Aggregate counters for the BENCH_fuzz.json per-kind row.
        KS.Sum.Counters.Wall += Rep.Counters.Wall;
        KS.Sum.Counters.GuestInstrs += Rep.Counters.GuestInstrs;
        KS.Sum.RuleCoveredInstrs += Rep.RuleCoveredInstrs;
        KS.Sum.FallbackInstrs += Rep.FallbackInstrs;
        KS.Sum.RuleMatchAttempts += Rep.RuleMatchAttempts;
        KS.Sum.RuleMatchHits += Rep.RuleMatchHits;
        KS.Sum.UsesEngine = Rep.UsesEngine;
        KS.Sum.Ok = true;
        const fuzz::FinalState Got = fuzz::finalStateOf(Rep);
        if (!fuzz::statesAgree(Ref, Got)) {
          ++KS.Mismatches;
          Mismatches.push_back(
              {S, KS.Spec, fuzz::diffStates(Ref, Got)});
        }
      }
    }
  }
  const double FuzzSecs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - FuzzT0)
          .count();

  // --- Report -------------------------------------------------------------
  const uint64_t SeedCount = Opt.SeedHi - Opt.SeedLo;
  std::printf("fuzz: %llu seeds x %zu kinds, profile %s, jobs %u\n",
              (unsigned long long)SeedCount, Kinds.size(), Prof->Name,
              Opt.Jobs);
  for (const KindState &K : Kinds)
    std::printf("  %-24s seeds %llu  mismatches %llu  errors %llu\n",
                K.Spec.c_str(), (unsigned long long)K.Seeds,
                (unsigned long long)K.Mismatches,
                (unsigned long long)K.Errors);

  for (const std::string &E : Errors)
    std::printf("ERROR: %s\n", E.c_str());

  // Shrink the first mismatch to a minimized reproducer.
  size_t MinimizedOps = 0;
  if (!Mismatches.empty()) {
    for (const Mismatch &M : Mismatches)
      std::printf("MISMATCH: seed %llu spec %s:%s\n",
                  (unsigned long long)M.Seed, M.Spec.c_str(),
                  M.Diff.c_str());
    const Mismatch &First = Mismatches.front();
    const fuzz::GenProgram Prog = fuzz::generate(seedAt(First.Seed), *Prof);
    const rules::RuleSet *KindRules = RulesFor(First.Spec);
    const fuzz::Oracle StillFails =
        [&](const std::vector<fuzz::GenOp> &Ops) {
          const std::vector<uint32_t> Words = fuzz::render(Prog, Ops);
          vm::Vm Ref(
              fuzz::flatConfig(Words, "native", nullptr, fuzz::NativeBudget));
          const fuzz::FinalState A = fuzz::finalStateOf(Ref.run());
          if (!A.Shutdown)
            return false;
          vm::Vm Sut(fuzz::flatConfig(Words, First.Spec, KindRules,
                                      fuzz::EngineBudget));
          return !fuzz::statesAgree(A, fuzz::finalStateOf(Sut.run()));
        };
    const fuzz::ShrinkResult Min = fuzz::shrink(Prog.Ops, StillFails);
    MinimizedOps = fuzz::renderedInstrCount(Min.Ops);
    std::printf("reproducer: seed %llu spec %s shrunk %zu -> %zu "
                "instructions (%u oracle runs)\n",
                (unsigned long long)First.Seed, First.Spec.c_str(),
                fuzz::renderedInstrCount(Prog.Ops), MinimizedOps,
                Min.OracleCalls);
    for (const fuzz::GenOp &Op : Min.Ops)
      std::printf("    %s\n", fuzz::describeOp(Op).c_str());
    std::printf("reproduce with: rdbt_fuzz --seed %llu --spec %s "
                "--profile %s%s%s\n",
                (unsigned long long)First.Seed, First.Spec.c_str(),
                Prof->Name,
                Opt.CorpusFile.empty() ? "" : " --corpus ",
                Opt.CorpusFile.c_str());
  }

  // --- Matcher micro-benchmark + BENCH_fuzz.json --------------------------
  if (Opt.Json)
    setenv("RDBT_BENCH_JSON", "1", 0);
  if (std::getenv("RDBT_BENCH_JSON")) {
    std::vector<arm::Inst> Stream;
    for (uint64_t S = Opt.SeedLo; S < Opt.SeedLo + 4; ++S) {
      const std::vector<arm::Inst> P = decodeProgram(
          fuzz::generate(seedAt(S), *fuzz::findProfile("corpus")));
      Stream.insert(Stream.end(), P.begin(), P.end());
    }
    bool BenchIdentical = true;
    for (const size_t Scale : {size_t(0), size_t(1000), size_t(10000)}) {
      const rules::RuleSet RS =
          Scale ? buildSyntheticCorpus(Scale) : rules::buildReferenceRuleSet();
      const MatchBenchResult B =
          runMatchBench(RS, Stream, Scale >= 10000 ? 2 : 10);
      BenchIdentical &= B.Identical;
      const std::string Point = std::to_string(RS.size()) + "_rules";
      bench::recordMetric("match_linear_per_sec", Point, B.LinearPerSec);
      bench::recordMetric("match_indexed_per_sec", Point, B.IndexedPerSec);
      bench::recordMetric("match_hot_per_sec", Point, B.HotPerSec);
      std::printf("match_bench %-12s linear %.0f/s indexed %.0f/s hot "
                  "%.0f/s%s\n",
                  Point.c_str(), B.LinearPerSec, B.IndexedPerSec,
                  B.HotPerSec, B.Identical ? "" : " [DIVERGED]");
    }
    if (!BenchIdentical)
      Errors.push_back("match_bench: matcher paths diverged");

    for (const KindState &K : Kinds) {
      bench::JsonRecorder::get().Runs.push_back(
          {"fuzz/" + Opt.ProfileName, K.Spec, K.Sum});
      bench::recordMetric("fuzz_seeds", K.Spec,
                          static_cast<double>(K.Seeds));
      bench::recordMetric("fuzz_mismatches", K.Spec,
                          static_cast<double>(K.Mismatches));
    }
    bench::recordMetric("fuzz_execs_per_sec", "all_kinds",
                        FuzzSecs > 0 ? ProgramsRun / FuzzSecs : 0);
    bench::recordMetric("fuzz_mismatches", "total",
                        static_cast<double>(Mismatches.size()));
    bench::writeBenchJson("fuzz");
  }

  // --- Exit ---------------------------------------------------------------
  if (Opt.PlantBug) {
    // Self-test semantics: the planted bug must be caught AND shrink tight.
    if (Mismatches.empty()) {
      std::printf("plant-bug: NOT CAUGHT\n");
      return 1;
    }
    if (MinimizedOps > 8) {
      std::printf("plant-bug: caught but reproducer has %zu instructions "
                  "(> 8)\n",
                  MinimizedOps);
      return 1;
    }
    std::printf("plant-bug: caught and shrunk to %zu instructions\n",
                MinimizedOps);
    return 0;
  }
  if (!Mismatches.empty() || !Errors.empty())
    return 1;
  std::printf("all seeds agree across %zu kinds\n", Kinds.size());
  return 0;
}
