//===- bench/fig8_ccr_cost.cpp - Paper Fig. 8 -------------------------------===//
//
// Part of RuleDBT. Reproduces Fig. 8: the host-instruction cost of one
// condition-code save — parse-and-save (Base) vs packed CCR save
// (+Reduction) — measured from actually emitted sync sequences.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "arm/AsmBuilder.h"
#include "guestsw/MiniKernel.h"
#include "host/HostDisasm.h"

using namespace rdbt;

namespace {

/// Translates a tiny flag-dirtying block and extracts the first sync-save
/// sequence (between the first SyncOp marker and the next non-sync op).
host::HostBlock translateSample(core::OptLevel Level) {
  // cmp r0, #0 ; str r2, [r1] — the Fig. 7 pattern: a flag def followed
  // by a context-switch point that forces the save.
  arm::AsmBuilder A(0x1000);
  A.cmp(0, arm::Operand2::imm(0));
  A.str(2, 1, 0);
  A.b(A.hereLabel());
  const std::vector<uint32_t> Words = A.finish();

  sys::Platform Board(guestsw::KernelLayout::MinRam);
  Board.Ram.loadWords(0x1000, Words);
  sys::Mmu Mmu(Board.Env, Board);
  dbt::GuestBlock GB;
  sys::Fault F;
  fetchGuestBlock(Mmu, 0x1000, 0, GB, F);

  const rules::RuleSet RS = rules::buildReferenceRuleSet();
  vm::TranslatorRegistry::Context Ctx;
  Ctx.Rules = &RS;
  const auto Xlat = vm::TranslatorRegistry::global().create(
      vm::VmConfig().optLevel(Level).translator(), Ctx);
  host::HostBlock Out;
  Xlat->translate(GB, Out);
  return Out;
}

unsigned costOfFirstSave(const host::HostBlock &B, std::string &Listing) {
  unsigned Cost = 0;
  bool In = false;
  for (const host::HInst &H : B.Code) {
    if (H.Op == host::HOp::Marker &&
        static_cast<host::MarkerKind>(H.Imm) == host::MarkerKind::SyncOp) {
      if (In)
        break;
      In = true;
      continue;
    }
    if (!In)
      continue;
    if (H.Cls != host::CostClass::Sync)
      break;
    Cost += (H.Op == host::HOp::PackF || H.Op == host::HOp::UnpackF) ? 2 : 1;
    Listing += "    " + host::disassemble(H) + "\n";
  }
  return Cost;
}

} // namespace

int main() {
  bench::benchScale(); // validates RDBT_BENCH_SCALE before any work
  std::printf("Fig. 8: effect of coordination overhead reduction (III-B)\n\n");
  std::string ParseListing, PackedListing;
  const unsigned ParseCost =
      costOfFirstSave(translateSample(core::OptLevel::Base), ParseListing);
  const unsigned PackedCost = costOfFirstSave(
      translateSample(core::OptLevel::Reduction), PackedListing);

  std::printf("Parse-and-save cc (Base):   %u host instructions\n%s\n",
              ParseCost, ParseListing.c_str());
  std::printf("Save CCR (+Reduction):      %u host instructions\n%s\n",
              PackedCost, PackedListing.c_str());
  std::printf("reduction: %.0f%%   (paper: (14-3)/14 = 78%%)\n",
              100.0 * (ParseCost - PackedCost) / ParseCost);
  bench::recordMetric("ccr_save_cost", "parse_and_save", ParseCost);
  bench::recordMetric("ccr_save_cost", "packed", PackedCost);
  bench::writeBenchJson("fig8_ccr_cost");
  return 0;
}
