//===- tests/SnapshotTest.cpp - VM snapshot + COW fork tests ----------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The contracts the snapshot/fork subsystem (vm/Snapshot.h, DESIGN.md
/// §11) rests on:
///
///  * **Bitwise transparency**: a session forked from a warm snapshot
///    finishes with execution counters, final architectural state, and
///    console output identical to a fresh session that ran straight
///    through — for the native interpreter, the qemu baseline, the rule
///    translator, and a deployed rule:file corpus.
///
///  * **Pre-run kind independence**: a snapshot captured before any
///    execution can seed forks of every translator kind (the scenario
///    matrix's single-install path) without changing a single count.
///
///  * **COW isolation**: concurrent forks share the snapshot's RAM
///    image read-only; no fork can observe another's writes, and the
///    base image hashes identically before and after a parallel drain.
///    Runs under the TSan CI job together with the BatchRunner suite.
///
///  * **No retranslation**: forks inherit the warmed code cache
///    (AdoptedTbs) and pay translation only for code first reached
///    after the capture point.
///
//===----------------------------------------------------------------------===//

#include "vm/BatchRunner.h"
#include "vm/ReportFields.h"
#include "vm/Snapshot.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace rdbt;

namespace {

#ifndef RDBT_REFERENCE_RULES
#define RDBT_REFERENCE_RULES "bench/baselines/reference.rules"
#endif

/// Every executor family: interpreter, baseline DBT, rule DBT, and the
/// deployed-corpus rule DBT.
std::vector<std::string> allKinds() {
  return {"native", "qemu", "rule:scheduling",
          std::string("rule:file=") + RDBT_REFERENCE_RULES};
}

vm::VmConfig cfgFor(const std::string &Kind,
                    const std::string &Workload = "libquantum") {
  return vm::VmConfig().translator(Kind).workload(Workload).scale(1);
}

/// FNV-1a over the snapshot's shared RAM image.
uint64_t hashImage(const std::shared_ptr<const std::vector<uint8_t>> &Img) {
  uint64_t H = 1469598103934665603ull;
  if (Img)
    for (const uint8_t B : *Img)
      H = (H ^ B) * 1099511628211ull;
  return H;
}

TEST(Snapshot, WarmForkBitwiseIdenticalToFresh) {
  for (const std::string &Kind : allKinds()) {
    // Master: boot to the mark, freeze, fork, run the fork to the end.
    vm::Vm Master(cfgFor(Kind));
    ASSERT_TRUE(Master.valid()) << Kind << ": " << Master.error();
    const vm::RunReport BootR = Master.runToBootMark();
    ASSERT_TRUE(BootR.Error.empty()) << Kind << ": " << BootR.Error;
    const vm::Snapshot Snap = Master.capture();
    EXPECT_TRUE(Snap.hasRun()) << Kind;
    EXPECT_FALSE(Snap.empty()) << Kind;

    std::unique_ptr<vm::Vm> Fork = vm::Vm::forkFrom(Snap);
    ASSERT_TRUE(Fork->valid()) << Kind << ": " << Fork->error();
    EXPECT_TRUE(Fork->forked());
    const vm::RunReport F = Fork->run();
    ASSERT_TRUE(F.Ok) << Kind << ": fork stopped with " << F.stopName();
    EXPECT_TRUE(F.Forked);

    // Control: an unforked session of the same config.
    vm::Vm FreshVm(cfgFor(Kind));
    const vm::RunReport Fresh = FreshVm.run();
    ASSERT_TRUE(Fresh.Ok) << Kind;
    EXPECT_EQ("", vm::outcomeDiff(F, Fresh)) << Kind;

    // The warmed cache arrived ready-translated: every captured block
    // was adopted and none re-pays translation (Translations is part of
    // the bitwise check above; the counters below name the mechanism).
    const auto *Info = vm::TranslatorRegistry::global().find(Kind);
    ASSERT_NE(Info, nullptr);
    if (Info->UsesEngine) {
      EXPECT_EQ(F.Cache.AdoptedTbs, Snap.warmTbs()) << Kind;
      EXPECT_GT(Snap.warmTbs(), 0u) << Kind;
      EXPECT_EQ(F.Engine.Translations - BootR.Engine.Translations,
                Fresh.Engine.Translations - BootR.Engine.Translations)
          << Kind;
    }
    // Forked RAM runs copy-on-write: the guest wrote something, and the
    // shared base image never changed.
    EXPECT_GT(F.CowPrivatePages, 0u) << Kind;
    EXPECT_EQ(0u, Fresh.CowPrivatePages) << Kind;
  }
}

TEST(Snapshot, CaptureDoesNotPerturbTheMaster) {
  // The master keeps running after capture(); block sharing must be
  // invisible to it (its own chain patches privatize blocks).
  vm::Vm Master(cfgFor("rule:scheduling"));
  ASSERT_TRUE(Master.valid()) << Master.error();
  Master.runToBootMark();
  const vm::Snapshot Snap = Master.capture();
  const vm::RunReport MasterFinal = Master.run();
  ASSERT_TRUE(MasterFinal.Ok) << MasterFinal.stopName();

  vm::Vm FreshVm(cfgFor("rule:scheduling"));
  const vm::RunReport Fresh = FreshVm.run();
  EXPECT_EQ("", vm::outcomeDiff(MasterFinal, Fresh))
      << "master-after-capture";

  // And the fork still matches, even though the master ran on past the
  // capture point and patched shared state in the meantime.
  std::unique_ptr<vm::Vm> Fork = vm::Vm::forkFrom(Snap);
  const vm::RunReport F = Fork->run();
  EXPECT_EQ("", vm::outcomeDiff(F, Fresh)) << "fork-after-master-ran-on";
}

TEST(Snapshot, PreRunSnapshotIsKindIndependent) {
  // One installed board image serves every translator kind — the
  // single-install path rdbt_scenarios uses for its matrix.
  vm::Vm Booter(cfgFor("native", "cpu-prime"));
  ASSERT_TRUE(Booter.valid()) << Booter.error();
  const vm::Snapshot Board = Booter.capture();
  EXPECT_FALSE(Board.hasRun());

  for (const std::string &Kind : allKinds()) {
    vm::Vm Fork(cfgFor(Kind, "cpu-prime").snapshot(&Board));
    ASSERT_TRUE(Fork.valid()) << Kind << ": " << Fork.error();
    const vm::RunReport F = Fork.run();
    ASSERT_TRUE(F.Ok) << Kind << ": " << F.stopName();

    vm::Vm FreshVm(cfgFor(Kind, "cpu-prime"));
    const vm::RunReport Fresh = FreshVm.run();
    EXPECT_EQ("", vm::outcomeDiff(F, Fresh)) << "pre-run fork " << Kind;
  }

  // A fork may pick its own invalidation policy off a pre-run snapshot.
  vm::Vm Blanket(
      cfgFor("qemu", "cpu-prime").blanketCacheInvalidation(true).snapshot(
          &Board));
  ASSERT_TRUE(Blanket.valid()) << Blanket.error();
  const vm::RunReport FB = Blanket.run();
  vm::Vm BlanketFresh(
      cfgFor("qemu", "cpu-prime").blanketCacheInvalidation(true));
  EXPECT_EQ("", vm::outcomeDiff(FB, BlanketFresh.run()))
      << "pre-run blanket fork";
}

TEST(Snapshot, WarmSnapshotRejectsMismatchedForks) {
  vm::Vm Master(cfgFor("qemu"));
  ASSERT_TRUE(Master.valid());
  Master.runToBootMark();
  const vm::Snapshot Snap = Master.capture();
  ASSERT_TRUE(Snap.hasRun());

  // Different translator kind: warm progress cannot transfer.
  vm::Vm WrongKind(cfgFor("rule:scheduling").snapshot(&Snap));
  EXPECT_FALSE(WrongKind.valid());
  EXPECT_NE(WrongKind.error().find("warm snapshot"), std::string::npos)
      << WrongKind.error();

  // Different guest software: never compatible, warm or not.
  vm::Vm WrongWorkload(cfgFor("qemu", "mcf").snapshot(&Snap));
  EXPECT_FALSE(WrongWorkload.valid());

  // An empty snapshot is rejected outright.
  const vm::Snapshot Empty;
  vm::Vm FromEmpty(cfgFor("qemu").snapshot(&Empty));
  EXPECT_FALSE(FromEmpty.valid());
}

TEST(Snapshot, ForksCannotObserveEachOthersWrites) {
  vm::Vm Master(cfgFor("native"));
  ASSERT_TRUE(Master.valid());
  const vm::Snapshot Snap = Master.capture();
  const uint64_t HashBefore = hashImage(Snap.ramImage());

  vm::Vm A(cfgFor("native").snapshot(&Snap));
  vm::Vm B(cfgFor("native").snapshot(&Snap));
  ASSERT_TRUE(A.valid());
  ASSERT_TRUE(B.valid());
  // Poke the same physical address in both forks with different values.
  const uint32_t Pa = Snap.ramBytes() - 8;
  const uint32_t Original = A.board().Ram.read(Pa, 4);
  A.board().Ram.write(Pa, 4, 0xAAAAAAAAu);
  B.board().Ram.write(Pa, 4, 0xBBBBBBBBu);
  EXPECT_EQ(0xAAAAAAAAu, A.board().Ram.read(Pa, 4));
  EXPECT_EQ(0xBBBBBBBBu, B.board().Ram.read(Pa, 4));
  EXPECT_EQ(1u, A.board().Ram.cowPrivatePages());
  EXPECT_EQ(1u, B.board().Ram.cowPrivatePages());

  // A third fork still reads the original base value, and the base
  // image itself never changed.
  vm::Vm C(cfgFor("native").snapshot(&Snap));
  EXPECT_EQ(Original, C.board().Ram.read(Pa, 4));
  EXPECT_EQ(HashBefore, hashImage(Snap.ramImage()));
}

TEST(Snapshot, ConcurrentForksAreIsolatedAndDeterministic) {
  // The serving pattern under contention: one warm snapshot, a batch of
  // forks on a worker pool. Every fork must finish bitwise-identically
  // (no fork observes another's RAM writes, chain patches, or disk
  // writes), the batch must be schedule-invariant, and the shared
  // images must come out untouched. This test runs under the TSan CI
  // job, where any unsynchronized sharing the COW protocol missed
  // becomes a hard failure.
  vm::Vm Master(cfgFor("rule:scheduling", "fileio"));
  ASSERT_TRUE(Master.valid()) << Master.error();
  Master.runToBootMark();
  const vm::Snapshot Snap = Master.capture();
  const uint64_t HashBefore = hashImage(Snap.ramImage());

  const std::vector<vm::VmConfig> Configs(
      8, vm::VmConfig(cfgFor("rule:scheduling", "fileio")).snapshot(&Snap));
  const std::vector<vm::RunReport> Parallel =
      vm::BatchRunner(4).run(Configs);
  const std::vector<vm::RunReport> Serial =
      vm::BatchRunner(1).run(Configs);
  ASSERT_EQ(8u, Parallel.size());

  vm::Vm FreshVm(cfgFor("rule:scheduling", "fileio"));
  const vm::RunReport Fresh = FreshVm.run();
  ASSERT_TRUE(Fresh.Ok) << Fresh.stopName();
  for (size_t I = 0; I < Parallel.size(); ++I) {
    EXPECT_EQ("", vm::outcomeDiff(Parallel[I], Fresh)) << "parallel fork " << I;
    EXPECT_EQ("", vm::outcomeDiff(Parallel[I], Serial[I]))
        << "jobs-invariance " << I;
  }
  EXPECT_EQ(HashBefore, hashImage(Snap.ramImage()));
}

} // namespace
