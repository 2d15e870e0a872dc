//===- bench/rulegen_loop.cpp - The mine -> learn -> reload loop, measured --===//
//
// Part of RuleDBT. The first end-to-end reproduction of the paper's
// *pipeline* rather than its endpoint: run a workload under a deliberately
// thinned rule corpus (every shifted-operand rule removed), mine the
// translation gaps the matcher reports (profile/GapMiner), drive the
// learning pipeline over the mined report, append the learned rules,
// reload the corpus through the persistence layer (rules/RuleIo), and
// re-run — reporting how far one mine -> learn -> reload iteration
// recovers the reference corpus's rule match-hit rate and coverage.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "profile/GapMiner.h"
#include "rules/Learner.h"
#include "rules/RuleIo.h"

#include <cstdio>

using namespace rdbt;
using namespace rdbt::bench;

namespace {

struct CorpusRun {
  vm::RunReport R;
  size_t Rules = 0;

  double hitRate() const {
    return R.RuleMatchAttempts ? static_cast<double>(R.RuleMatchHits) /
                                     static_cast<double>(R.RuleMatchAttempts)
                               : 0;
  }
  double ruleCoverage() const {
    const uint64_t Total = R.RuleCoveredInstrs + R.FallbackInstrs;
    return Total ? static_cast<double>(R.RuleCoveredInstrs) /
                       static_cast<double>(Total)
                 : 0;
  }
};

CorpusRun runWith(const char *Workload, uint32_t Scale,
                  const rules::RuleSet &RS, const char *CorpusLabel,
                  profile::GapMiner *Miner) {
  vm::VmConfig Cfg = vm::VmConfig()
                         .workload(Workload)
                         .scale(Scale)
                         .translator("rule:scheduling")
                         .wallBudget(benchWallBudget("rule:scheduling"))
                         .rules(&RS);
  if (Miner)
    Cfg.gapMiner(Miner);
  vm::Vm V(Cfg);
  CorpusRun Run;
  Run.Rules = RS.size();
  if (!V.valid())
    return Run;
  Run.R = V.run();
  JsonRecorder::get().Runs.push_back(
      {Workload, std::string("rule (") + CorpusLabel + ")", Run.R});
  return Run;
}

void printRow(const char *Workload, const char *CorpusLabel,
              const CorpusRun &Run) {
  std::printf("%-12s %-10s %6zu %12llu %12llu %9.4f %10.4f %14llu\n",
              Workload, CorpusLabel, Run.Rules,
              static_cast<unsigned long long>(Run.R.RuleMatchAttempts),
              static_cast<unsigned long long>(Run.R.RuleMatchHits),
              Run.hitRate(), Run.ruleCoverage(),
              static_cast<unsigned long long>(Run.R.wall()));
}

} // namespace

int main() {
  const uint32_t Scale = benchScale();
  std::printf("rule-generation loop: thinned corpus -> mine gaps -> learn "
              "-> reload (scale %u)\n\n", Scale);
  std::printf("%-12s %-10s %6s %12s %12s %9s %10s %14s\n", "workload",
              "corpus", "rules", "attempts", "hits", "hit rate", "coverage",
              "wall");

  const rules::RuleSet Reference = rules::buildReferenceRuleSet();
  const rules::RuleSet Thinned = rules::filterRuleSetByShape(
      Reference, rules::PatShape::DpRegShiftImm);

  const char *Workloads[] = {"libquantum", "sjeng", "perlbench"};
  for (const char *Workload : Workloads) {
    const CorpusRun Ref =
        runWith(Workload, Scale, Reference, "reference", nullptr);
    printRow(Workload, "reference", Ref);

    profile::GapMiner Miner;
    const CorpusRun Thin =
        runWith(Workload, Scale, Thinned, "thinned", &Miner);
    printRow(Workload, "thinned", Thin);

    // Offline phase: learn rules from the mined gaps, then reload the
    // recovered corpus through the persistence layer (the same text
    // format rdbt_rulegen writes and rule:file= deploys).
    const profile::GapReport Gaps = Miner.report();
    std::vector<std::vector<arm::Inst>> Seqs;
    for (const profile::Gap &G : Gaps.Gaps)
      Seqs.push_back(G.Seq);
    unsigned Unlearnable = 0;
    const rules::RuleSet Merged =
        rules::learnFromGapSequences(Seqs, nullptr, &Unlearnable);
    rules::RuleSet Recovered = Thinned;
    for (size_t I = 0; I < Merged.size(); ++I)
      Recovered.add(Merged.rule(I));
    rules::RuleSet Reloaded;
    std::string Err;
    if (!rules::readRuleSet(rules::writeRuleSet(Recovered), Reloaded,
                            &Err)) {
      std::fprintf(stderr, "corpus reload failed: %s\n", Err.c_str());
      return 1;
    }
    const CorpusRun Rec =
        runWith(Workload, Scale, Reloaded, "recovered", nullptr);
    printRow(Workload, "recovered", Rec);

    const double RefRate = Ref.hitRate(), ThinRate = Thin.hitRate(),
                 RecRate = Rec.hitRate();
    const double Regained =
        RefRate - ThinRate > 1e-9
            ? (RecRate - ThinRate) / (RefRate - ThinRate)
            : 1.0;
    std::printf("  -> %zu gaps mined (%llu dyn execs, %u unlearnable "
                "stmts), hit rate %.4f -> %.4f (reference %.4f, "
                "%.0f%% of the drop regained)\n\n",
                Gaps.Gaps.size(),
                static_cast<unsigned long long>(Miner.gapExecutions()),
                Unlearnable, ThinRate, RecRate, RefRate, Regained * 100);

    recordMetric("hit_rate_reference", Workload, RefRate);
    recordMetric("hit_rate_thinned", Workload, ThinRate);
    recordMetric("hit_rate_recovered", Workload, RecRate);
    recordMetric("hit_rate_regained", Workload, Regained);
    recordMetric("coverage_reference", Workload, Ref.ruleCoverage());
    recordMetric("coverage_thinned", Workload, Thin.ruleCoverage());
    recordMetric("coverage_recovered", Workload, Rec.ruleCoverage());
    recordMetric("gaps_mined", Workload,
                 static_cast<double>(Gaps.Gaps.size()));
  }

  writeBenchJson("rulegen_loop");
  return 0;
}
