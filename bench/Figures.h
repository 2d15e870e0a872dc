//===- bench/Figures.h - Paper figures from matrix reports ------*- C++ -*-===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figs. 14-19 and Table I, computed from the reports of one scenario
/// matrix run (tools/rdbt_scenarios --jobs N): each figure is a set of
/// columns over matrix cells, a per-workload table, its geomean, and the
/// paper's value. printFigures() ends with the markdown block
/// EXPERIMENTS.md carries between its figures markers; CI diffs the two
/// so the document cannot drift from the code.
///
//===----------------------------------------------------------------------===//

#ifndef RDBT_BENCH_FIGURES_H
#define RDBT_BENCH_FIGURES_H

#include "bench/BenchCommon.h"
#include "support/Format.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace rdbt {
namespace bench {

/// One figure column: a ratio of two report fields (vm/ReportFields.h),
/// each read from the named kind's cell of the same workload.
struct FigureColumn {
  const char *Label;
  const char *Kind, *Field;       ///< numerator
  const char *OverKind, *OverField; ///< denominator
};

struct Figure {
  const char *Id;       ///< "Fig. 14"
  const char *Title;    ///< console heading
  const char *Quantity; ///< markdown Quantity cell
  bool RealWorld;       ///< real-world proxies instead of the SPEC proxies
  const char *Unit;     ///< suffix for every value: "x", "%" (x100) or ""
  std::vector<FigureColumn> Columns;
  std::vector<double> Paper; ///< the paper's value per column
};

inline const std::vector<Figure> &paperFigures() {
  static const std::vector<Figure> Figures = {
      {"Fig. 14", "speedup over the QEMU baseline",
       "speedup over QEMU, rule-base / full-opt", false, "x",
       {{"rule-base", "qemu", "wall", "rule:base", "wall"},
        {"full-opt", "qemu", "wall", "rule:scheduling", "wall"}},
       {0.95, 1.36}},
      {"Fig. 15", "host instructions per guest instruction",
       "host instrs per guest instr, QEMU / full-opt", false, "",
       {{"qemu", "qemu", "wall", "qemu", "guest_instrs"},
        {"full-opt", "rule:scheduling", "wall", "rule:scheduling",
         "guest_instrs"}},
       {17.39, 15.40}},
      {"Fig. 16", "cumulative speedup over QEMU",
       "cumulative speedup Base/+Red/+Elim/+Sched", false, "x",
       {{"base", "qemu", "wall", "rule:base", "wall"},
        {"+reduction", "qemu", "wall", "rule:reduction", "wall"},
        {"+elimination", "qemu", "wall", "rule:elimination", "wall"},
        {"+scheduling", "qemu", "wall", "rule:scheduling", "wall"}},
       {0.95, 1.22, 1.30, 1.36}},
      {"Fig. 17", "sync host-instructions per guest instruction",
       "sync instrs per guest instr, four levels", false, "",
       {{"base", "rule:base", "sync_instrs", "rule:base", "guest_instrs"},
        {"+reduction", "rule:reduction", "sync_instrs", "rule:reduction",
         "guest_instrs"},
        {"+elimination", "rule:elimination", "sync_instrs",
         "rule:elimination", "guest_instrs"},
        {"+scheduling", "rule:scheduling", "sync_instrs", "rule:scheduling",
         "guest_instrs"}},
       {8.36, 1.79, 1.33, 0.89}},
      {"Fig. 18", "slowdown vs native execution (lower is better)",
       "slowdown vs native, QEMU / full-opt", false, "x",
       {{"qemu", "qemu", "wall", "native", "wall"},
        {"full-opt", "rule:scheduling", "wall", "native", "wall"}},
       {18.73, 13.83}},
      {"Fig. 19", "real-world application speedup over QEMU",
       "real-world full-opt speedup geomean", true, "x",
       {{"full-opt", "qemu", "wall", "rule:scheduling", "wall"}},
       {1.15}},
      {"Table I", "guest instructions needing coordination (under QEMU)",
       "coordination share: sys / mem / irq", false, "%",
       {{"system-level", "qemu", "sys_instrs", "qemu", "guest_instrs"},
        {"memory", "qemu", "mem_instrs", "qemu", "guest_instrs"},
        {"irq-check", "qemu", "irq_checks", "qemu", "guest_instrs"}},
       {0.25, 33.46, 15.12}},
  };
  return Figures;
}

/// "0.72x / 1.74x"
inline std::string joinValues(const std::vector<double> &Values,
                              const char *Unit) {
  std::string Out;
  for (size_t I = 0; I < Values.size(); ++I)
    Out += format("%s%.2f%s", I ? " / " : "", Values[I], Unit);
  return Out;
}

/// Prints every figure's per-workload table and geomean, then the
/// markdown block of geomeans EXPERIMENTS.md carries. Cell Keys[I]
/// ("<kind>/<workload>@<scale>", as in BENCH_matrix.json) holds
/// Reports[I]; a missing or unclean cell fails its workload's row.
inline void printFigures(const std::vector<std::string> &Keys,
                         const std::vector<vm::RunReport> &Reports,
                         uint32_t Scale) {
  std::map<std::string, const vm::RunReport *> ByKey;
  for (size_t I = 0; I < Reports.size(); ++I)
    if (Reports[I].Ok)
      ByKey.emplace(Keys[I], &Reports[I]);
  const auto Cell = [&](const std::string &Kind, const char *Workload) {
    const auto It =
        ByKey.find(Kind + "/" + Workload + "@" + std::to_string(Scale));
    return It == ByKey.end() ? nullptr : It->second;
  };
  std::vector<std::string> Markdown;
  for (const Figure &F : paperFigures()) {
    std::printf("\n%s: %s (scale %u)\n\n%-12s", F.Id, F.Title, Scale,
                F.RealWorld ? "Application" : "Benchmark");
    for (const FigureColumn &C : F.Columns)
      std::printf(" %13s", C.Label);
    std::printf("\n");
    std::vector<std::vector<double>> Series(F.Columns.size());
    for (const auto &W : guestsw::workloads()) {
      if (F.RealWorld ? !W.IsRealWorld : !W.IsSpecProxy)
        continue;
      // A row counts only when every cell it reads ran clean, so each
      // column's geomean covers the same workload set.
      std::vector<double> Row;
      for (const FigureColumn &C : F.Columns) {
        const vm::RunReport *R = Cell(C.Kind, W.Name);
        const vm::RunReport *O = Cell(C.OverKind, W.Name);
        if (!R || !O)
          break;
        Row.push_back((*F.Unit == '%' ? 100.0 : 1.0) *
                      vm::findReportField(C.Field)->Get(*R) /
                      vm::findReportField(C.OverField)->Get(*O));
      }
      if (Row.size() != F.Columns.size()) {
        std::printf("%-12s  FAILED\n", W.Name);
        continue;
      }
      std::printf("%-12s", W.Name);
      for (size_t I = 0; I < Row.size(); ++I) {
        std::printf(" %13s", format("%.2f%s", Row[I], F.Unit).c_str());
        Series[I].push_back(Row[I]);
      }
      std::printf("\n");
    }
    std::vector<double> Geo;
    std::printf("%-12s", "GEOMEAN");
    for (const std::vector<double> &S : Series) {
      Geo.push_back(geomean(S));
      std::printf(" %13s", format("%.2f%s", Geo.back(), F.Unit).c_str());
    }
    std::printf("\npaper: %s\n", joinValues(F.Paper, F.Unit).c_str());
    Markdown.push_back(format("| %s | %s | %s | %s |", F.Id, F.Quantity,
                              joinValues(F.Paper, F.Unit).c_str(),
                              joinValues(Geo, F.Unit).c_str()));
  }
  std::printf("\n<!-- figures:begin -->\n"
              "| Figure | Quantity | Paper | Measured (scale %u) |\n"
              "|---|---|---|---|\n", Scale);
  for (const std::string &Row : Markdown)
    std::printf("%s\n", Row.c_str());
  std::printf("<!-- figures:end -->\n");
}

} // namespace bench
} // namespace rdbt

#endif // RDBT_BENCH_FIGURES_H
