//===- tests/ReportFieldsTest.cpp - RunReport field-table tests -------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The contracts of the one report schema (vm/ReportFields.h):
///
///  * the table's JSON names are unique, and one emitted cell carries the
///    checked-in perf-gate baseline's keys in the baseline's order;
///  * every guest-visible and simulated-cost member of RunReport is in
///    the table: changing it alone makes sameOutcome fail, and the diff
///    names it;
///  * provenance and host-only members never break identity;
///  * identity reads fields, never bytes (struct padding is invisible).
///
//===----------------------------------------------------------------------===//

#include "vm/ReportFields.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace rdbt;

namespace {

#ifndef RDBT_MATRIX_BASELINE
#define RDBT_MATRIX_BASELINE "bench/baselines/BENCH_matrix.json"
#endif

/// The quoted keys of one flat `"k": v, ...` object body, in order.
std::vector<std::string> keysOf(const std::string &Body) {
  std::vector<std::string> Keys;
  for (size_t P = Body.find('"'); P != std::string::npos;
       P = Body.find('"', P)) {
    const size_t End = Body.find('"', P + 1);
    if (End == std::string::npos)
      break;
    if (Body.compare(End + 1, 1, ":") == 0)
      Keys.push_back(Body.substr(P + 1, End - P - 1));
    P = End + 1;
  }
  return Keys;
}

using Mutation = std::pair<const char *, std::function<void(vm::RunReport &)>>;
#define RDBT_MUT(Name, Stmt) {Name, [](vm::RunReport &R) { Stmt; }}

/// One mutation per guest-visible or simulated-cost member, named by the
/// field the diff must report.
std::vector<Mutation> identityMutations() {
  std::vector<Mutation> M = {
      RDBT_MUT("ok", R.Ok = !R.Ok),
      RDBT_MUT("stop", R.Stop = dbt::StopReason::Runaway),
      RDBT_MUT("console", R.Console += "!"),
      RDBT_MUT("nzcv", R.Final.Nzcv ^= 1),
      RDBT_MUT("shutdown_requested", R.Final.ShutdownRequested ^= true),
      RDBT_MUT("wall", ++R.Counters.Wall),
      RDBT_MUT("guest_instrs", ++R.Counters.GuestInstrs),
      RDBT_MUT("mem_instrs", ++R.Counters.GuestMemInstrs),
      RDBT_MUT("sys_instrs", ++R.Counters.GuestSysInstrs),
      RDBT_MUT("irq_checks", ++R.Counters.IrqChecks),
      RDBT_MUT("sync_ops", ++R.Counters.SyncOps),
      RDBT_MUT("tb_entries", ++R.Counters.TbEntries),
      RDBT_MUT("chain_follows", ++R.Counters.ChainFollows),
      RDBT_MUT("helper_calls", ++R.Counters.HelperCalls),
      RDBT_MUT("host_instrs", R.UsesEngine = !R.UsesEngine),
      RDBT_MUT("irqs_delivered", ++R.Engine.IrqsDelivered),
      RDBT_MUT("guest_exceptions", ++R.Engine.GuestExceptions),
      RDBT_MUT("cache_entries", ++R.Engine.CacheEntries),
      RDBT_MUT("wfi_sleeps", ++R.Engine.WfiSleeps),
      RDBT_MUT("cache_flushes", ++R.Cache.Flushes),
      RDBT_MUT("asid_invalidations", ++R.Cache.AsidInvalidations),
      RDBT_MUT("page_invalidations", ++R.Cache.PageInvalidations),
      RDBT_MUT("tbs_invalidated", ++R.Cache.TbsInvalidated),
      RDBT_MUT("tbs_retained", ++R.Cache.TbsRetained),
      RDBT_MUT("retranslations", ++R.Cache.Retranslations),
      RDBT_MUT("retranslated_guest_instrs", ++R.Cache.RetranslatedGuestInstrs),
      RDBT_MUT("chains_made", ++R.Cache.ChainsMade),
      RDBT_MUT("chains_with_elision", ++R.Cache.ChainsWithElision),
      RDBT_MUT("chains_unlinked", ++R.Cache.ChainsUnlinked),
      RDBT_MUT("elisions_reverted", ++R.Cache.ElisionsReverted),
      RDBT_MUT("stale_chain_requests", ++R.Cache.StaleChainRequests),
      RDBT_MUT("elided_sync_instrs", ++R.Cache.ElidedSyncInstrs),
      RDBT_MUT("live_tbs", ++R.Cache.LiveTbs),
  };
  static const char *const RegNames[16] = {
      "r0", "r1", "r2",  "r3",  "r4",  "r5",  "r6",  "r7",
      "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"};
  for (unsigned I = 0; I < 16; ++I)
    M.push_back({RegNames[I], [I](vm::RunReport &R) { ++R.Final.Regs[I]; }});
  static const char *const ClassNames[host::NumCostClasses] = {
      "user_instrs", "sync_instrs", "mmu_instrs",
      "irq_instrs",  "glue_instrs", "helper_instrs"};
  for (unsigned K = 0; K < host::NumCostClasses; ++K)
    M.push_back(
        {ClassNames[K], [K](vm::RunReport &R) { ++R.Counters.ByClass[K]; }});
  return M;
}
#undef RDBT_MUT

/// A report whose wall is nonzero, so host_instrs depends on UsesEngine.
vm::RunReport sampleReport() {
  vm::RunReport R;
  R.Counters.Wall = 1000;
  R.Counters.GuestInstrs = 250;
  R.Console = "hello\n";
  return R;
}

TEST(ReportFields, JsonNamesAreUnique) {
  std::set<std::string> Seen;
  for (const vm::ReportField &F : vm::reportFields()) {
    EXPECT_TRUE(Seen.insert(F.Name).second) << "duplicate field " << F.Name;
    EXPECT_TRUE((F.Get != nullptr) != (F.Text != nullptr)) << F.Name;
    EXPECT_EQ(vm::findReportField(F.Name), &F);
  }
  EXPECT_EQ(vm::findReportField("no_such_field"), nullptr);
}

TEST(ReportFields, EmittedKeyOrderMatchesTheBaseline) {
  std::ifstream IS(RDBT_MATRIX_BASELINE);
  ASSERT_TRUE(IS.good()) << RDBT_MATRIX_BASELINE;
  std::stringstream SS;
  SS << IS.rdbuf();
  const std::string Doc = SS.str();
  const size_t Matrix = Doc.find("\"matrix\":");
  ASSERT_NE(Matrix, std::string::npos);
  const size_t Open = Doc.find('{', Doc.find('{', Matrix) + 1);
  const size_t Close = Doc.find('}', Open);
  ASSERT_NE(Close, std::string::npos);
  const std::vector<std::string> Baseline =
      keysOf(Doc.substr(Open + 1, Close - Open - 1));
  ASSERT_FALSE(Baseline.empty());
  EXPECT_EQ(keysOf(vm::reportJsonFields(sampleReport())), Baseline);
}

TEST(ReportFields, TimingAndHostInstrsEmission) {
  vm::RunReport R = sampleReport();
  R.Time.BootNs = 5;
  R.Time.RunNs = 6;
  const std::string Plain = vm::reportJsonFields(R);
  EXPECT_NE(Plain.find("\"ok\": false, \"wall\": 1000,"), std::string::npos);
  EXPECT_NE(Plain.find("\"host_instrs\": 0,"), std::string::npos)
      << "the native kind reports no host instructions";
  EXPECT_EQ(Plain.find("boot_ns"), std::string::npos);
  R.UsesEngine = true;
  const std::string Timed = vm::reportJsonFields(R, /*WithTiming=*/true);
  EXPECT_NE(Timed.find("\"host_instrs\": 1000,"), std::string::npos);
  const std::string Tail = "\"boot_ns\": 5, \"run_ns\": 6";
  ASSERT_GE(Timed.size(), Tail.size());
  EXPECT_EQ(Timed.substr(Timed.size() - Tail.size()), Tail);
}

TEST(ReportFields, EveryGuestAndCostFieldBreaksIdentity) {
  const std::vector<Mutation> Mutations = identityMutations();
  std::set<std::string> Covered;
  for (const Mutation &M : Mutations) {
    const vm::RunReport A = sampleReport();
    vm::RunReport B = A;
    M.second(B);
    EXPECT_FALSE(vm::sameOutcome(A, B)) << M.first;
    const std::string Diff = vm::outcomeDiff(A, B, vm::Guest | vm::Cost);
    EXPECT_EQ(Diff.compare(0, std::strlen(M.first), M.first), 0)
        << "changing " << M.first << " reported '" << Diff << "'";
    Covered.insert(M.first);
  }
  // The mutation list and the table's Guest/Cost rows name the same set:
  // a RunReport member added to one but not the other fails here.
  std::set<std::string> Table;
  for (const vm::ReportField &F : vm::reportFields())
    if (F.Class & (vm::Guest | vm::Cost))
      Table.insert(F.Name);
  EXPECT_EQ(Covered, Table);
}

TEST(ReportFields, ProvenanceAndHostFieldsNeverBreakIdentity) {
  const vm::RunReport A = sampleReport();
  vm::RunReport B = A;
  B.Cache.AdoptedTbs = 12;
  B.Cache.CowBlockCopies = 3;
  B.Time.BootNs = 99;
  B.Time.RunNs = 77;
  B.Forked = true;
  B.CowPrivatePages = 41;
  B.Obs.Enabled = true;
  B.Obs.Events = 500;
  B.Obs.Dropped = 2;
  B.Obs.Metrics.counter("c") += 4;
  B.InterpDecodeHits = 1234;
  B.InterpDecodeMisses = 56;
  EXPECT_TRUE(vm::sameOutcome(A, B)) << vm::outcomeDiff(A, B);
  EXPECT_FALSE(vm::sameOutcome(A, B, vm::Provenance));
  EXPECT_FALSE(vm::sameOutcome(A, B, vm::Host));
}

TEST(ReportFields, IdentityIgnoresPaddingBytes) {
  // FinalArchState ends in a bool, so it carries tail padding: two equal
  // reports built over different garbage must still compare equal.
  alignas(vm::RunReport) unsigned char BufA[sizeof(vm::RunReport)];
  alignas(vm::RunReport) unsigned char BufB[sizeof(vm::RunReport)];
  std::memset(BufA, 0xAA, sizeof(BufA));
  std::memset(BufB, 0x55, sizeof(BufB));
  vm::RunReport *A = new (BufA) vm::RunReport;
  vm::RunReport *B = new (BufB) vm::RunReport;
  for (vm::RunReport *R : {A, B}) {
    // Field by field: a whole-struct assignment could copy the padding.
    R->Counters.Wall = 1000;
    R->Console = "hello\n";
    for (unsigned I = 0; I < 16; ++I)
      R->Final.Regs[I] = I * 3;
    R->Final.Nzcv = 0x6;
    R->Final.ShutdownRequested = true;
  }
  EXPECT_TRUE(vm::sameOutcome(*A, *B)) << vm::outcomeDiff(*A, *B);
  A->~RunReport();
  B->~RunReport();
}

} // namespace
