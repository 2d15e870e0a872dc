//===- vm/ReportFields.cpp - The one RunReport field table ------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//

#include "vm/ReportFields.h"

#include <string>

namespace rdbt {
namespace vm {

namespace {

using host::CostClass;

uint64_t byClass(const RunReport &R, CostClass C) {
  return R.Counters.ByClass[static_cast<unsigned>(C)];
}

const std::string &console(const RunReport &R) { return R.Console; }

} // namespace

// One line per field: JSON name, class, emission, and the expression that
// reads it from a RunReport R.
#define RDBT_FIELD(Name, Class, Json, Expr)                                    \
  {Name, Class, Emit::Json,                                                    \
   [](const RunReport &R) -> uint64_t { return (Expr); }, nullptr}
#define RDBT_REG(I) RDBT_FIELD("r" #I, Guest, No, R.Final.Regs[I])

const std::vector<ReportField> &reportFields() {
  static const std::vector<ReportField> Fields = {
      // The JSON fields, in the order every BENCH_*.json document (and
      // the perf-gate baseline) carries them.
      RDBT_FIELD("ok", Guest, Flag, R.Ok),
      RDBT_FIELD("wall", Cost, Always, R.Counters.Wall),
      RDBT_FIELD("guest_instrs", Cost, Always, R.Counters.GuestInstrs),
      RDBT_FIELD("mem_instrs", Cost, Always, R.Counters.GuestMemInstrs),
      RDBT_FIELD("sys_instrs", Cost, Always, R.Counters.GuestSysInstrs),
      RDBT_FIELD("irq_checks", Cost, Always, R.Counters.IrqChecks),
      RDBT_FIELD("sync_instrs", Cost, Always, byClass(R, CostClass::Sync)),
      RDBT_FIELD("sync_ops", Cost, Always, R.Counters.SyncOps),
      // The native kind runs no host code: its one cycle per guest
      // instruction is already in wall.
      RDBT_FIELD("host_instrs", Cost, Always,
                 R.UsesEngine ? R.Counters.Wall : 0),
      RDBT_FIELD("cache_flushes", Cost, Always, R.Cache.Flushes),
      RDBT_FIELD("tbs_invalidated", Cost, Always, R.Cache.TbsInvalidated),
      RDBT_FIELD("tbs_retained", Cost, Always, R.Cache.TbsRetained),
      RDBT_FIELD("live_tbs", Cost, Always, R.Cache.LiveTbs),
      RDBT_FIELD("retranslations", Cost, Always, R.Cache.Retranslations),
      RDBT_FIELD("retranslated_guest_instrs", Cost, Always,
                 R.Cache.RetranslatedGuestInstrs),
      RDBT_FIELD("rule_covered_instrs", Translation, Always,
                 R.RuleCoveredInstrs),
      RDBT_FIELD("fallback_instrs", Translation, Always, R.FallbackInstrs),
      RDBT_FIELD("rule_match_attempts", Translation, Always,
                 R.RuleMatchAttempts),
      RDBT_FIELD("rule_match_hits", Translation, Always, R.RuleMatchHits),
      RDBT_FIELD("gap_seqs", Translation, Always, R.Profile.GapSeqs),
      RDBT_FIELD("gap_translations", Translation, Always,
                 R.Profile.GapTranslations),
      RDBT_FIELD("gap_execs", Translation, Always, R.Profile.GapExecs),
      RDBT_FIELD("translations", Translation, Always, R.Engine.Translations),
      RDBT_FIELD("translated_guest_instrs", Translation, Always,
                 R.Engine.TranslatedGuestInstrs),
      RDBT_FIELD("cache_file_hits", Translation, Always,
                 R.Cache.CacheFileHits),
      RDBT_FIELD("cache_file_misses", Translation, Always,
                 R.Cache.CacheFileMisses),
      RDBT_FIELD("loaded_tbs", Translation, Always, R.Cache.LoadedTbs),
      RDBT_FIELD("interp_decode_hits", Host, Always, R.InterpDecodeHits),
      RDBT_FIELD("interp_decode_misses", Host, Always, R.InterpDecodeMisses),
      RDBT_FIELD("obs_events", Host, Traced, R.Obs.Events),
      RDBT_FIELD("obs_dropped_events", Host, Traced, R.Obs.Dropped),
      RDBT_FIELD("boot_ns", Host, Timing, R.Time.BootNs),
      RDBT_FIELD("run_ns", Host, Timing, R.Time.RunNs),

      // Compared, never emitted.
      RDBT_FIELD("stop", Guest, No, static_cast<uint64_t>(R.Stop)),
      {"console", Guest, Emit::No, nullptr, console},
      RDBT_REG(0), RDBT_REG(1), RDBT_REG(2), RDBT_REG(3), RDBT_REG(4),
      RDBT_REG(5), RDBT_REG(6), RDBT_REG(7), RDBT_REG(8), RDBT_REG(9),
      RDBT_REG(10), RDBT_REG(11), RDBT_REG(12), RDBT_REG(13), RDBT_REG(14),
      RDBT_REG(15),
      RDBT_FIELD("nzcv", Guest, No, R.Final.Nzcv),
      RDBT_FIELD("shutdown_requested", Guest, No, R.Final.ShutdownRequested),
      RDBT_FIELD("user_instrs", Cost, No, byClass(R, CostClass::User)),
      RDBT_FIELD("mmu_instrs", Cost, No, byClass(R, CostClass::MmuInline)),
      RDBT_FIELD("irq_instrs", Cost, No, byClass(R, CostClass::IrqCheck)),
      RDBT_FIELD("glue_instrs", Cost, No, byClass(R, CostClass::Glue)),
      RDBT_FIELD("helper_instrs", Cost, No, byClass(R, CostClass::Helper)),
      RDBT_FIELD("tb_entries", Cost, No, R.Counters.TbEntries),
      RDBT_FIELD("chain_follows", Cost, No, R.Counters.ChainFollows),
      RDBT_FIELD("helper_calls", Cost, No, R.Counters.HelperCalls),
      RDBT_FIELD("irqs_delivered", Cost, No, R.Engine.IrqsDelivered),
      RDBT_FIELD("guest_exceptions", Cost, No, R.Engine.GuestExceptions),
      RDBT_FIELD("cache_entries", Cost, No, R.Engine.CacheEntries),
      RDBT_FIELD("wfi_sleeps", Cost, No, R.Engine.WfiSleeps),
      RDBT_FIELD("asid_invalidations", Cost, No, R.Cache.AsidInvalidations),
      RDBT_FIELD("page_invalidations", Cost, No, R.Cache.PageInvalidations),
      RDBT_FIELD("chains_made", Cost, No, R.Cache.ChainsMade),
      RDBT_FIELD("chains_with_elision", Cost, No, R.Cache.ChainsWithElision),
      RDBT_FIELD("chains_unlinked", Cost, No, R.Cache.ChainsUnlinked),
      RDBT_FIELD("elisions_reverted", Cost, No, R.Cache.ElisionsReverted),
      RDBT_FIELD("stale_chain_requests", Cost, No,
                 R.Cache.StaleChainRequests),
      RDBT_FIELD("elided_sync_instrs", Cost, No, R.Cache.ElidedSyncInstrs),
      RDBT_FIELD("adopted_tbs", Provenance, No, R.Cache.AdoptedTbs),
      RDBT_FIELD("cow_block_copies", Provenance, No, R.Cache.CowBlockCopies),
      RDBT_FIELD("forked", Provenance, No, R.Forked),
      RDBT_FIELD("cow_private_pages", Provenance, No, R.CowPrivatePages),
  };
  return Fields;
}

#undef RDBT_FIELD
#undef RDBT_REG

const ReportField *findReportField(const std::string &Name) {
  for (const ReportField &F : reportFields())
    if (Name == F.Name)
      return &F;
  return nullptr;
}

std::string outcomeDiff(const RunReport &A, const RunReport &B,
                        unsigned Classes) {
  for (const ReportField &F : reportFields()) {
    if (!(F.Class & Classes))
      continue;
    if (F.Text) {
      if (F.Text(A) != F.Text(B))
        return std::string(F.Name) + " differs";
    } else if (F.Get(A) != F.Get(B)) {
      return std::string(F.Name) + ": " + std::to_string(F.Get(A)) + " vs " +
             std::to_string(F.Get(B));
    }
  }
  return std::string();
}

std::string reportJsonFields(const RunReport &R, bool WithTiming) {
  std::string Out;
  const auto Put = [&Out](const std::string &Name, const std::string &V) {
    Out += (Out.empty() ? "\"" : ", \"") + Name + "\": " + V;
  };
  for (const ReportField &F : reportFields())
    if (F.Json == Emit::Flag || F.Json == Emit::Always ||
        (F.Json == Emit::Traced && R.Obs.Enabled))
      Put(F.Name, F.Json == Emit::Flag ? (F.Get(R) ? "true" : "false")
                                       : std::to_string(F.Get(R)));
  // The named obs_* metrics follow the fixed obs_* fields; the timing
  // split, when asked for, closes the fragment.
  if (R.Obs.Enabled) {
    for (const auto &C : R.Obs.Metrics.counters())
      Put("obs_" + jsonEscape(C.first), std::to_string(C.second));
    for (const auto &H : R.Obs.Metrics.histograms()) {
      const std::string N = "obs_" + jsonEscape(H.first);
      Put(N + "_count", std::to_string(H.second.Count));
      Put(N + "_sum", std::to_string(H.second.Sum));
      Put(N + "_max", std::to_string(H.second.Max));
    }
  }
  if (WithTiming)
    for (const ReportField &F : reportFields())
      if (F.Json == Emit::Timing)
        Put(F.Name, std::to_string(F.Get(R)));
  return Out;
}

std::string jsonEscape(const std::string &In) {
  std::string Out;
  for (const char C : In) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace vm
} // namespace rdbt
