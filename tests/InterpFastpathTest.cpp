//===- tests/InterpFastpathTest.cpp - Decoded-instruction cache tests -------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The contracts the interpreter fastpath (DESIGN.md §14) rests on:
///
///  * **Bit-identity**: with the decoded-instruction cache on or off,
///    every guest-visible quantity — final architectural state, console
///    bytes, exec counters, engine/cache statistics — is bitwise
///    identical across all three translator kinds. Only host wall time
///    and the InterpDecode* observability counters may differ.
///
///  * **SMC correctness**: rewriting a cached page re-decodes, both
///    through the TbInvKind invalidation pipeline (TLBIMVA drops the
///    page's records) and by construction (a hit re-fetches and
///    compares the raw word, so even an uninvalidated rewrite executes
///    the new instruction).
///
///  * **Fork stability**: a forked VM starts with a scrubbed decode
///    cache — its decode counters restart at zero and count only
///    post-fork execution — while its finals stay identical to a fresh
///    session's.
///
//===----------------------------------------------------------------------===//

#include "arm/AsmBuilder.h"
#include "sys/Interpreter.h"
#include "sys/Mmu.h"
#include "sys/Platform.h"
#include "vm/Snapshot.h"
#include "vm/ReportFields.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace rdbt;
using namespace rdbt::sys;
using arm::AsmBuilder;
using arm::Cp15Reg;

namespace {

vm::VmConfig cfgFor(const std::string &Kind, bool Fastpath) {
  return vm::VmConfig()
      .translator(Kind)
      .workload("libquantum")
      .scale(1)
      .interpFastpath(Fastpath);
}

TEST(InterpFastpath, OnOffBitIdenticalAcrossKinds) {
  for (const std::string &Kind : {"native", "qemu", "rule:scheduling"}) {
    vm::Vm VOn(cfgFor(Kind, true));
    vm::Vm VOff(cfgFor(Kind, false));
    ASSERT_TRUE(VOn.valid() && VOff.valid()) << Kind;
    const vm::RunReport On = VOn.run();
    const vm::RunReport Off = VOff.run();
    ASSERT_TRUE(On.Ok) << Kind;
    // Everything but the interp_* host observations is bitwise identical.
    EXPECT_EQ("", vm::outcomeDiff(On, Off)) << Kind;

    // The cache must actually be exercised: repeated execution hits with
    // the fastpath on, and with it off every decode counts as a miss.
    // (The qemu baseline's libquantum fallbacks are one-shot translation
    // leftovers — each distinct site executes once — so it legitimately
    // reports zero hits; native and rule kinds must hit.)
    if (Kind != "qemu")
      EXPECT_GT(On.InterpDecodeHits, 0u) << Kind;
    EXPECT_EQ(Off.InterpDecodeHits, 0u) << Kind;
    EXPECT_GT(Off.InterpDecodeMisses, 0u) << Kind;
    // Hit or miss, every decode-cache consultation is one interpreted
    // instruction fetch, so the on/off totals describe the same stream.
    EXPECT_EQ(On.InterpDecodeHits + On.InterpDecodeMisses,
              Off.InterpDecodeMisses)
        << Kind << ": on/off saw different decode streams";
  }
}

TEST(InterpFastpath, SpecKnobParsesAndRoundTrips) {
  std::string Err;
  const vm::VmConfig Def = vm::VmConfig::fromSpec("native/libquantum", &Err);
  EXPECT_TRUE(Err.empty());
  EXPECT_TRUE(Def.interpFastpath()) << "fastpath must default on";

  const vm::VmConfig Off =
      vm::VmConfig::fromSpec("native/libquantum,ifp=off", &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_FALSE(Off.interpFastpath());
  EXPECT_EQ(Off.toSpec(), "native/libquantum,ifp=off");
  EXPECT_FALSE(vm::VmConfig::fromSpec(Off.toSpec()).interpFastpath())
      << "fromSpec(toSpec()) must round-trip the knob";

  const vm::VmConfig On =
      vm::VmConfig::fromSpec("qemu/mcf@2,ifp=on", &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_TRUE(On.interpFastpath());
  EXPECT_EQ(On.toSpec(), "qemu/mcf@2") << "on is the default: not emitted";

  // Mixes with the other session options in any order.
  const vm::VmConfig Mixed = vm::VmConfig::fromSpec(
      "rule:scheduling/cpu-prime,ifp=off,trace=/tmp/t.json", &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_FALSE(Mixed.interpFastpath());
  EXPECT_EQ(Mixed.trace(), "/tmp/t.json");

  vm::VmConfig::fromSpec("native/libquantum,ifp=maybe", &Err);
  EXPECT_FALSE(Err.empty()) << "bad ifp value must be rejected";
}

class FastpathFixture : public ::testing::Test {
protected:
  FastpathFixture() : Board(1 << 20), Mmu_(Board.Env, Board),
                      In(Board.Env, Mmu_, Board) {}

  void load(AsmBuilder &A) { Board.Ram.loadWords(A.baseAddr(), A.finish()); }
  StepKind stepAt(uint32_t Pc) {
    Board.Env.Regs[15] = Pc;
    return In.step();
  }
  /// The encoding of "mov rd, #imm".
  static uint32_t moviWord(uint8_t Rd, uint32_t Imm) {
    AsmBuilder A(0);
    A.movi(Rd, Imm);
    return A.finish()[0];
  }

  sys::Platform Board;
  Mmu Mmu_;
  Interpreter In;
};

TEST_F(FastpathFixture, RepeatedExecutionHitsCache) {
  AsmBuilder A(0x100);
  A.movi(0, 1);
  load(A);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(In.DecodeMisses, 1u);
  EXPECT_EQ(In.DecodeHits, 0u);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(In.DecodeMisses, 1u);
  EXPECT_EQ(In.DecodeHits, 1u);
}

TEST_F(FastpathFixture, RawWordMismatchRedecodesWithoutInvalidation) {
  AsmBuilder A(0x100);
  A.movi(0, 1);
  load(A);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(Board.Env.Regs[0], 1u);

  // Plain SMC with no TLB maintenance: the record is stale, but a hit
  // compares the freshly fetched word against the record, so the new
  // instruction executes and counts as a miss.
  Board.Ram.write(0x100, 4, moviWord(0, 7));
  const uint64_t Misses = In.DecodeMisses;
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(Board.Env.Regs[0], 7u);
  EXPECT_EQ(In.DecodeMisses, Misses + 1);
}

TEST_F(FastpathFixture, TlbimvaDropsCachedPageViaInvalidationPipeline) {
  AsmBuilder A(0x100);
  A.movi(0, 1);               // 0x100: the instruction we cache
  A.mcr(Cp15Reg::TLBIMVA, 8); // 0x104: SMC-style maintenance for page 0
  load(A);
  Board.Env.Regs[8] = 0x00000100; // MVA in page 0x000 (any ASID)

  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(In.DecodeHits, 1u);
  EXPECT_EQ(In.DecodePagesDropped, 0u);

  // The TLBIMVA raises a by-page request and the interpreter scrubs its
  // own decode cache at the raise site — the page holding 0x100 (which
  // also holds the MCR itself) drops.
  ASSERT_EQ(stepAt(0x104), StepKind::Ok);
  EXPECT_EQ(Board.Env.TbInvKind, TbInvPage);
  EXPECT_EQ(Board.Env.TbInvPage, 0u);
  EXPECT_GE(In.DecodePagesDropped, 1u);

  // The dropped record must re-decode (a miss), then hit again.
  const uint64_t Misses = In.DecodeMisses;
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(In.DecodeMisses, Misses + 1);
}

TEST_F(FastpathFixture, InvalidationScopesMatchArchitecture) {
  AsmBuilder A(0x100);
  A.movi(0, 1);
  load(A);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok); // populate page 0 under ASID 0

  // A foreign ASID's scope must not touch this page...
  uint64_t Dropped = In.DecodePagesDropped;
  In.onTbInvalidate(TbInvAsid, /*Asid=*/7, 0);
  EXPECT_EQ(In.DecodePagesDropped, Dropped);
  // ...a foreign page must not either...
  In.onTbInvalidate(TbInvPage, 0, /*Page=*/0x5000);
  EXPECT_EQ(In.DecodePagesDropped, Dropped);
  // ...but the owning ASID drops it.
  In.onTbInvalidate(TbInvAsid, /*Asid=*/0, 0);
  EXPECT_EQ(In.DecodePagesDropped, Dropped + 1);

  ASSERT_EQ(stepAt(0x100), StepKind::Ok); // repopulate
  Dropped = In.DecodePagesDropped;
  In.onTbInvalidate(TbInvFull, 0, 0);
  EXPECT_EQ(In.DecodePagesDropped, Dropped + 1) << "full scope drops all";
}

TEST_F(FastpathFixture, FastpathOffNeverCaches) {
  In.setFastpath(false);
  AsmBuilder A(0x100);
  A.movi(0, 1);
  load(A);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  ASSERT_EQ(stepAt(0x100), StepKind::Ok);
  EXPECT_EQ(In.DecodeHits, 0u);
  EXPECT_EQ(In.DecodeMisses, 2u);
  EXPECT_EQ(Board.Env.Regs[0], 1u);
}

TEST(InterpFastpath, ForkSeesScrubbedCacheAndIdenticalFinals) {
  for (const std::string &Kind : {"native", "rule:scheduling"}) {
    // Master boots, is captured warm, and a fork finishes the workload.
    vm::Vm Master(cfgFor(Kind, true));
    ASSERT_TRUE(Master.valid()) << Kind;
    Master.runToBootMark();
    const vm::Snapshot Snap = Master.capture();
    std::unique_ptr<vm::Vm> Fork = vm::Vm::forkFrom(Snap);
    ASSERT_TRUE(Fork->valid()) << Kind;
    const vm::RunReport F = Fork->run();

    // A fresh session runs straight through for comparison.
    vm::Vm FreshVm(cfgFor(Kind, true));
    const vm::RunReport Fresh = FreshVm.run();
    ASSERT_TRUE(Fresh.Ok) << Kind;

    // Guest-visible identity: the fork finishes exactly like the fresh
    // session (the snapshot subsystem's own contract, re-checked here
    // because the decode cache must not leak into it).
    EXPECT_EQ("", vm::outcomeDiff(F, Fresh)) << Kind;

    // The fork's decode cache started scrubbed: its counters cover only
    // post-fork execution, so they are strictly below the fresh
    // session's boot-inclusive totals, and re-decoding happened.
    EXPECT_GT(F.InterpDecodeMisses, 0u)
        << Kind << ": scrubbed cache must re-decode";
    EXPECT_LT(F.InterpDecodeHits + F.InterpDecodeMisses,
              Fresh.InterpDecodeHits + Fresh.InterpDecodeMisses)
        << Kind << ": fork must not inherit pre-capture decode activity";
  }
}

} // namespace
