//===- vm/ReportFields.h - The one RunReport field table --------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every RunReport field declared once: its JSON name, its class, and how
/// to read it. Everything that treats report fields uniformly derives from
/// this table: the report JSON every BENCH_*.json document shares (key
/// order included), the one "same run?" predicate (sameOutcome /
/// outcomeDiff), and rdbt_perfgate's per-class policies.
///
/// The classes:
///   Guest       — the guest-visible outcome: stop reason, console,
///                 final architectural state.
///   Cost        — exact simulated-clock counts: host cycles by cost
///                 class, guest-instruction accounting, engine and
///                 code-cache behaviour. Deterministic for a run.
///   Translation — translation-time work, which a warm boot from the
///                 persistent cache legitimately skips (translations,
///                 matcher and gap statistics, cache-file provenance).
///   Provenance  — how the session came to be (snapshot fork, COW
///                 write-set, adopted blocks); never part of identity.
///   Host        — host-side observations: interpreter decode cache,
///                 observability sink, wall-clock timing.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_VM_REPORTFIELDS_H
#define RDBT_VM_REPORTFIELDS_H

#include "vm/RunReport.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rdbt {
namespace vm {

/// Field classes, usable as a bitmask (see the file header).
enum FieldClass : unsigned {
  Guest = 1u << 0,
  Cost = 1u << 1,
  Translation = 1u << 2,
  Provenance = 1u << 3,
  Host = 1u << 4,
};

/// Every class a deterministic replay must reproduce exactly: the
/// identity a snapshot fork, a traced run or an interpreter-fastpath A/B
/// keeps against its plain twin.
constexpr unsigned ExactClasses = Guest | Cost | Translation;

/// Where a field appears in report JSON.
enum class Emit : uint8_t {
  No,     ///< compared, never emitted
  Flag,   ///< always emitted, as true/false
  Always, ///< always emitted, as an integer
  Traced, ///< emitted only when the run was traced (obs_*)
  Timing, ///< emitted only on request (never in a byte-compared document)
};

struct ReportField {
  const char *Name; ///< JSON key, and the name outcomeDiff reports
  FieldClass Class;
  Emit Json;
  /// Numeric value; null only for the console, read through Text.
  uint64_t (*Get)(const RunReport &);
  const std::string &(*Text)(const RunReport &);
};

/// The table, in JSON key order.
const std::vector<ReportField> &reportFields();

/// The field named \p Name, or null.
const ReportField *findReportField(const std::string &Name);

/// Empty when \p A and \p B agree on every field whose class is in
/// \p Classes; otherwise names the first differing field and both
/// values ("wall: 100 vs 101").
std::string outcomeDiff(const RunReport &A, const RunReport &B,
                        unsigned Classes = ExactClasses);

inline bool sameOutcome(const RunReport &A, const RunReport &B,
                        unsigned Classes = ExactClasses) {
  return outcomeDiff(A, B, Classes).empty();
}

/// The report's JSON fields as one `"ok": true, "wall": ...` fragment:
/// every emitted field in table order, the obs_* family when the run was
/// traced, and the boot_ns/run_ns timing split only when \p WithTiming.
/// Byte-identical for equal reports.
std::string reportJsonFields(const RunReport &R, bool WithTiming = false);

/// Escapes '"' and '\\' — all the report documents ever need.
std::string jsonEscape(const std::string &In);

} // namespace vm
} // namespace rdbt

#endif // RDBT_VM_REPORTFIELDS_H
