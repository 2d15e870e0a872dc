//===- bench/ctxswitch_cache.cpp - ASID-aware cache vs blanket flush -------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
// Measures what the ASID-aware, selectively-invalidated translation cache
// buys on the multi-process "ctxswitch" workload: every SysYield switches
// TTBR0 + CONTEXTIDR, which under the legacy blanket policy discarded
// every translation and forced the whole working set to be retranslated
// each timeslice. Runs the workload under both policies for each engine
// translator kind and reports translations, retranslated guest
// instructions, flushes, retained-vs-dropped blocks, and wall cost.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include <cstdio>

using namespace rdbt;
using namespace rdbt::bench;

namespace {

vm::RunReport runPolicy(const char *Kind, uint32_t Scale, bool Blanket) {
  vm::Vm V(vm::VmConfig()
               .workload("ctxswitch")
               .scale(Scale)
               .translator(Kind)
               .wallBudget(benchWallBudget(Kind))
               .blanketCacheInvalidation(Blanket));
  if (!V.valid())
    return vm::RunReport();
  const vm::RunReport R = V.run();
  // Record under a policy-suffixed config name so both runs land in the
  // bench JSON side by side.
  JsonRecorder::get().Runs.push_back(
      {"ctxswitch", R.Label + (Blanket ? " (blanket)" : " (selective)"), R});
  return R;
}

} // namespace

int main() {
  const uint32_t Scale = benchScale();
  std::printf("ctxswitch translation-cache policy comparison (scale %u, "
              "%u processes)\n\n",
              Scale, guestsw::CtxSwitchNumProcs);
  std::printf("%-22s %-10s %10s %12s %8s %10s %10s %12s %10s\n", "config",
              "policy", "xlations", "retrans gi", "flushes", "tbs inval",
              "tbs live", "wall", "host/guest");

  for (const char *Kind : {"qemu", "rule:scheduling"}) {
    const vm::RunReport Blanket = runPolicy(Kind, Scale, /*Blanket=*/true);
    const vm::RunReport Selective = runPolicy(Kind, Scale, /*Blanket=*/false);
    const char *Key = Selective.MetricKey.c_str();
    for (const auto &[Label, R] :
         {std::pair<const char *, const vm::RunReport &>{"blanket", Blanket},
          {"selective", Selective}}) {
      std::printf("%-22s %-10s %10llu %12llu %8llu %10llu %10llu %12llu "
                  "%10.2f\n",
                  R.Label.c_str(), Label,
                  static_cast<unsigned long long>(R.Engine.Translations),
                  static_cast<unsigned long long>(
                      R.Cache.RetranslatedGuestInstrs),
                  static_cast<unsigned long long>(R.Cache.Flushes),
                  static_cast<unsigned long long>(R.Cache.TbsInvalidated),
                  static_cast<unsigned long long>(R.Cache.LiveTbs),
                  static_cast<unsigned long long>(R.wall()),
                  R.hostPerGuest());
    }
    const double Reduction =
        Selective.Cache.RetranslatedGuestInstrs
            ? static_cast<double>(Blanket.Cache.RetranslatedGuestInstrs) /
                  static_cast<double>(Selective.Cache.RetranslatedGuestInstrs)
            : static_cast<double>(Blanket.Cache.RetranslatedGuestInstrs);
    const double Speedup =
        Selective.wall() ? static_cast<double>(Blanket.wall()) /
                               static_cast<double>(Selective.wall())
                         : 0.0;
    std::printf("  -> retranslated guest instrs reduced %.1fx, wall %.2fx "
                "faster\n\n",
                Reduction, Speedup);
    recordMetric("retranslation_reduction", Key, Reduction);
    recordMetric("ctxswitch_speedup", Key, Speedup);
    recordMetric("retranslated_gi_blanket", Key,
                 static_cast<double>(Blanket.Cache.RetranslatedGuestInstrs));
    recordMetric("retranslated_gi_selective", Key,
                 static_cast<double>(Selective.Cache.RetranslatedGuestInstrs));
  }

  writeBenchJson("ctxswitch_cache");
  return 0;
}
