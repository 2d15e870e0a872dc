//===- tools/rdbt_scenarios.cpp - Registry-wide scenario smoke --------------===//
//
// Part of RuleDBT. Runs the translator-kind x workload scenario matrix
// through the vm/ facade and checks the invariant the whole evaluation
// rests on: every executor produces the same guest console output and
// stops with a clean guest shutdown.
//
// Two modes:
//
//   rdbt_scenarios [--json] [--corpus F] [--trace-dir D] [--hot N]
//                  [--ifp on|off] [workload] [scale]
//     Single-workload smoke (default: libquantum 1): one row per
//     registered kind. --json emits BENCH_scenarios.json through the
//     bench/BenchCommon.h recorder. --hot N turns on the per-TB
//     execution profiler (src/obs/) and dumps each engine kind's top-N
//     translation blocks — guest and host disassembly, execution share,
//     rule-coverage attribution — after its run.
//
//   rdbt_scenarios --jobs N [--json] [--corpus F] [--cache-dir D]
//                  [--trace-dir D] [--ifp on|off] [scale]
//     Full matrix: every registered kind x every workload at the given
//     scale (default 1), executed by vm/BatchRunner on N worker threads.
//     --json writes the merged BENCH_matrix.json — cells keyed
//     "<kind>/<workload>@<scale>" in submission order, byte-identical
//     regardless of N (the perf-gate baseline artifact; see
//     tools/rdbt_perfgate and bench/README.md). The run ends with the
//     paper's Figs. 14-19 and Table I computed from its cells, and the
//     markdown block of their geomeans that EXPERIMENTS.md carries.
//
//     --cache-dir D runs the matrix twice against the persistent
//     translation cache in D (dbt/CodeCacheIo.h): a cold pass that
//     populates it, then a warm pass that must boot every engine cell
//     from the saved files alone — identical guest-visible outcome
//     (vm::sameOutcome over the Guest class), cache_file_hits == 1,
//     translations == 0. --json additionally writes the warm pass as
//     BENCH_matrix_warm.json (the rdbt_perfgate --warm artifact).
//
// --ifp on|off (either mode) selects the interpreter's decoded-
// instruction cache (DESIGN.md §14; default on). The fastpath is
// guest-invisible, so every perf-gated counter stays bitwise identical
// either way — only the interp_* JSON field family moves, which is why
// the CI A/B compares an --ifp off matrix against the baseline with
// `rdbt_perfgate --allow-prefix interp_`.
//
// --trace-dir D (either mode) arms the observability sink on every
// cell: each session writes a Chrome trace-event timeline to
// D/<sanitized-cell-key>.trace.json (warm-pass cells get a -warm
// suffix) and its matrix JSON grows the obs_* field family. Tracing
// reads only host wall time — every counter, console byte, and
// perf-gated field stays bitwise identical to an untraced run
// (rdbt_perfgate --allow-prefix obs_ is the CI check).
//
// The parameterized rule:file kind joins both modes when a corpus file
// resolves: --corpus <path>, else $RDBT_RULE_CORPUS, else the checked-in
// bench/baselines/reference.rules relative to the working directory —
// so the learn -> persist -> deploy path is continuously exercised.
// Without a corpus the kind is skipped, as before.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "bench/Figures.h"
#include "guestsw/Workloads.h"
#include "vm/BatchRunner.h"
#include "vm/ReportFields.h"
#include "vm/Vm.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace rdbt;

namespace {

/// The default checked-in corpus, relative to the repo root (where CI
/// and the documented quickstart run from).
const char *DefaultCorpusPath = "bench/baselines/reference.rules";

bool fileExists(const std::string &Path) {
  return std::ifstream(Path).good();
}

/// Resolves the rule:file corpus: explicit flag > environment > the
/// checked-in default when present. Returns "" when unavailable.
std::string resolveCorpus(const char *Flag) {
  if (Flag)
    return Flag;
  if (const char *Env = std::getenv("RDBT_RULE_CORPUS"))
    return Env;
  if (fileExists(DefaultCorpusPath))
    return DefaultCorpusPath;
  return std::string();
}

void printRow(const vm::RunReport &R) {
  std::printf("%-28s %-14s %12llu %14llu %10.2f\n", R.Spec.c_str(),
              R.stopName(),
              static_cast<unsigned long long>(R.guestInstrs()),
              static_cast<unsigned long long>(R.wall()),
              R.hostPerGuest());
}

/// A cell key as a file-name stem: '/', ':' and '=' become '_' so
/// "rule:scheduling/libquantum@1" names exactly one trace file.
std::string sanitizeKey(const std::string &Key) {
  std::string Out = Key;
  for (char &C : Out)
    if (C == '/' || C == ':' || C == '=')
      C = '_';
  return Out;
}

/// One planned matrix cell: the stable key, the kind string handed to
/// the translator registry (carries the =<param> for rule:file), and the
/// workload.
struct Cell {
  std::string Key;
  std::string Kind;
  std::string Workload;
};

/// One pre-run board snapshot per workload: the guest image is
/// assembled and installed once, then every kind's cell forks it
/// copy-on-write instead of re-running the whole install (the per-cell
/// "double boot"). Pre-run snapshots carry no executor progress, so
/// every translator kind can adopt one and every counter stays exactly
/// what a from-scratch session produces — the perf gate's exact-count
/// baseline holds this. Keyed storage is a std::map so the addresses
/// handed to VmConfig::snapshot() stay stable while the batch runs.
std::map<std::string, vm::Snapshot> captureBoards(uint32_t Scale) {
  std::map<std::string, vm::Snapshot> Snaps;
  for (const auto &W : guestsw::workloads()) {
    vm::Vm Booter(
        vm::VmConfig().translator("native").workload(W.Name).scale(Scale));
    if (Booter.valid())
      Snaps.emplace(W.Name, Booter.capture());
  }
  return Snaps;
}

/// Runs every cell through the batch runner once. \p CacheDir, when
/// non-empty, arms the persistent translation cache on every cell (a
/// no-op for non-engine kinds); the cache key includes the guest image
/// and the translator configuration, so all cells share one directory
/// without collisions. Consoles are cross-checked per workload.
std::vector<vm::RunReport> runBatch(const std::vector<Cell> &Cells,
                                    const std::map<std::string, vm::Snapshot>
                                        &Boards,
                                    uint32_t Scale, unsigned Jobs,
                                    const std::string &CacheDir,
                                    const std::string &TraceDir,
                                    const char *TraceSuffix, bool Ifp,
                                    int &Failures) {
  std::vector<vm::VmConfig> Configs;
  Configs.reserve(Cells.size());
  for (const Cell &C : Cells) {
    vm::VmConfig Cfg = vm::VmConfig()
                           .translator(C.Kind)
                           .workload(C.Workload)
                           .scale(Scale)
                           .interpFastpath(Ifp);
    if (!CacheDir.empty())
      Cfg.persistentCache(CacheDir);
    // --trace-dir: one timeline per cell. Tracing reads only host wall
    // time, so every matrix counter stays byte-identical to an untraced
    // run — only the obs_* JSON field family appears on top.
    if (!TraceDir.empty())
      Cfg.trace(TraceDir + "/" + sanitizeKey(C.Key) + TraceSuffix +
                ".trace.json");
    const auto It = Boards.find(C.Workload);
    if (It != Boards.end())
      Cfg.snapshot(&It->second);
    Configs.push_back(std::move(Cfg));
  }

  const std::vector<vm::RunReport> Reports =
      vm::BatchRunner(Jobs).run(Configs);

  std::printf("%-28s %-14s %12s %14s %10s\n", "spec", "stop", "guest",
              "host cycles", "host/guest");
  std::map<std::string, std::string> RefConsole; // workload -> console
  for (size_t I = 0; I < Reports.size(); ++I) {
    const vm::RunReport &R = Reports[I];
    printRow(R);
    if (!R.Ok) {
      std::fprintf(stderr, "FAIL: %s stopped with '%s'%s%s\n",
                   Cells[I].Key.c_str(), R.stopName(),
                   R.Error.empty() ? "" : ": ", R.Error.c_str());
      ++Failures;
      continue;
    }
    const auto It = RefConsole.find(Cells[I].Workload);
    if (It == RefConsole.end()) {
      RefConsole.emplace(Cells[I].Workload, R.Console);
    } else if (R.Console != It->second) {
      std::fprintf(stderr, "FAIL: %s console diverged from the first "
                           "executor of '%s'\n",
                   Cells[I].Key.c_str(), Cells[I].Workload.c_str());
      ++Failures;
    }
  }
  return Reports;
}

int runMatrix(unsigned Jobs, uint32_t Scale, bool Json,
              const std::string &Corpus, const std::string &CacheDir,
              const std::string &TraceDir, bool Ifp) {
  std::vector<Cell> Cells;
  for (const std::string &Kind : vm::TranslatorRegistry::global().kinds()) {
    const auto *Info = vm::TranslatorRegistry::global().find(Kind);
    std::string Resolved = Kind;
    if (Info && Info->TakesParam) {
      if (Corpus.empty()) {
        std::fprintf(stderr,
                     "note: skipping %s (no corpus; pass --corpus or check "
                     "in %s)\n", Kind.c_str(), DefaultCorpusPath);
        continue;
      }
      Resolved = Kind + "=" + Corpus;
    }
    for (const auto &W : guestsw::workloads()) {
      Cell C;
      // The key names the kind, never the corpus path (or cache dir), so
      // baselines stay stable across checkouts.
      C.Key = Kind + "/" + W.Name + "@" + std::to_string(Scale);
      C.Kind = Resolved;
      C.Workload = W.Name;
      Cells.push_back(std::move(C));
    }
  }

  const std::map<std::string, vm::Snapshot> Boards = captureBoards(Scale);

  std::printf("scenario matrix: %zu cells (%zu kinds x %zu workloads) at "
              "scale %u, %u job(s)%s\n\n",
              Cells.size(),
              Cells.size() / guestsw::workloads().size(),
              guestsw::workloads().size(), Scale, Jobs,
              CacheDir.empty() ? "" : " [cold pass]");

  std::vector<std::string> Keys;
  for (const Cell &C : Cells)
    Keys.push_back(C.Key);

  int Failures = 0;
  const std::vector<vm::RunReport> Cold = runBatch(
      Cells, Boards, Scale, Jobs, CacheDir, TraceDir, "", Ifp, Failures);

  if (Json &&
      !bench::writeBenchFile("BENCH_matrix.json",
                             bench::formatMatrixJson(Keys, Cold, Scale)))
    ++Failures;

  if (!CacheDir.empty()) {
    // Warm pass: every cold cell has destructed — and saved its cache
    // file — so this second batch boots entirely from the directory. The
    // warm-boot contract is checked per engine cell: an identical
    // guest-visible outcome, and zero translations (every block comes
    // from the file, counted in loaded_tbs).
    std::printf("\nwarm pass against %s:\n\n", CacheDir.c_str());
    const std::vector<vm::RunReport> Warm =
        runBatch(Cells, Boards, Scale, Jobs, CacheDir, TraceDir, "-warm",
                 Ifp, Failures);

    std::printf("\n%-28s %12s %12s %10s %6s\n", "cell", "cold-xlate",
                "warm-xlate", "loaded", "hits");
    for (size_t I = 0; I < Cells.size(); ++I) {
      const auto *Info = vm::TranslatorRegistry::global().find(Cells[I].Kind);
      if (!Info || !Info->UsesEngine)
        continue;
      const vm::RunReport &C = Cold[I], &W = Warm[I];
      std::printf("%-28s %12llu %12llu %10llu %6llu\n", Cells[I].Key.c_str(),
                  static_cast<unsigned long long>(C.Engine.Translations),
                  static_cast<unsigned long long>(W.Engine.Translations),
                  static_cast<unsigned long long>(W.Cache.LoadedTbs),
                  static_cast<unsigned long long>(W.Cache.CacheFileHits));
      const std::string Diff = vm::outcomeDiff(C, W, vm::Guest);
      if (!Diff.empty()) {
        std::fprintf(stderr, "FAIL: %s warm run differs from cold (%s)\n",
                     Cells[I].Key.c_str(), Diff.c_str());
        ++Failures;
      }
      if (W.Cache.CacheFileHits != 1) {
        std::fprintf(stderr, "FAIL: %s warm run did not load its cache "
                             "file (hits=%llu misses=%llu)\n",
                     Cells[I].Key.c_str(),
                     static_cast<unsigned long long>(W.Cache.CacheFileHits),
                     static_cast<unsigned long long>(W.Cache.CacheFileMisses));
        ++Failures;
      }
      if (W.Engine.Translations != 0) {
        std::fprintf(stderr, "FAIL: %s warm run still translated %llu "
                             "block(s)\n", Cells[I].Key.c_str(),
                     static_cast<unsigned long long>(W.Engine.Translations));
        ++Failures;
      }
    }

    if (Json &&
        !bench::writeBenchFile("BENCH_matrix_warm.json",
                               bench::formatMatrixJson(Keys, Warm, Scale)))
      ++Failures;
  }

  bench::printFigures(Keys, Cold, Scale);

  if (Failures) {
    std::fprintf(stderr, "\n%d matrix cell(s) failed\n", Failures);
    return 1;
  }
  std::printf("\nall %zu matrix cells clean; consoles identical per "
              "workload%s\n", Cells.size(),
              CacheDir.empty() ? "" : "; warm boots translated nothing");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  const char *Workload = nullptr;
  const char *CorpusFlag = nullptr;
  std::string CacheDir;
  std::string TraceDir;
  size_t Hot = 0;
  uint32_t Scale = 1;
  bool HaveScale = false;
  bool Matrix = false;
  bool Ifp = true;
  unsigned Jobs = 1;
  const auto ParseIfp = [&Ifp](const char *Value) {
    if (std::strcmp(Value, "on") == 0)
      Ifp = true;
    else if (std::strcmp(Value, "off") == 0)
      Ifp = false;
    else {
      std::fprintf(stderr, "bad --ifp value '%s' (want on|off)\n", Value);
      return false;
    }
    return true;
  };
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--list") == 0) {
      std::printf("workloads:\n");
      for (const auto &W : guestsw::workloads())
        std::printf("  %-12s %-10s %s\n", W.Name,
                    W.IsSpecProxy   ? "[spec]"
                    : W.IsRealWorld ? "[realworld]"
                                    : "[system]",
                    W.Sketch);
      std::printf("\ntranslator kinds:\n");
      for (const std::string &K : vm::TranslatorRegistry::global().kinds()) {
        const auto *Info = vm::TranslatorRegistry::global().find(K);
        std::printf("  %s%s\n", K.c_str(),
                    Info && Info->TakesParam ? "=<param>" : "");
      }
      return 0;
    }
    if (std::strcmp(argv[I], "--json") == 0) {
      Json = true;
      continue;
    }
    if (std::strcmp(argv[I], "--jobs") == 0 && I + 1 < argc) {
      Matrix = true;
      const int N = std::atoi(argv[++I]);
      Jobs = N > 0 ? static_cast<unsigned>(N)
                   : vm::BatchRunner::hardwareJobs();
      continue;
    }
    if (std::strncmp(argv[I], "--jobs=", 7) == 0) {
      Matrix = true;
      const int N = std::atoi(argv[I] + 7);
      Jobs = N > 0 ? static_cast<unsigned>(N)
                   : vm::BatchRunner::hardwareJobs();
      continue;
    }
    if (std::strcmp(argv[I], "--corpus") == 0 && I + 1 < argc) {
      CorpusFlag = argv[++I];
      continue;
    }
    if (std::strcmp(argv[I], "--cache-dir") == 0 && I + 1 < argc) {
      CacheDir = argv[++I];
      continue;
    }
    if (std::strncmp(argv[I], "--cache-dir=", 12) == 0) {
      CacheDir = argv[I] + 12;
      continue;
    }
    if (std::strcmp(argv[I], "--trace-dir") == 0 && I + 1 < argc) {
      TraceDir = argv[++I];
      continue;
    }
    if (std::strncmp(argv[I], "--trace-dir=", 12) == 0) {
      TraceDir = argv[I] + 12;
      continue;
    }
    if (std::strcmp(argv[I], "--ifp") == 0 && I + 1 < argc) {
      if (!ParseIfp(argv[++I]))
        return 2;
      continue;
    }
    if (std::strncmp(argv[I], "--ifp=", 6) == 0) {
      if (!ParseIfp(argv[I] + 6))
        return 2;
      continue;
    }
    if (std::strcmp(argv[I], "--hot") == 0 && I + 1 < argc) {
      const int N = std::atoi(argv[++I]);
      Hot = N > 0 ? static_cast<size_t>(N) : 0;
      continue;
    }
    if (!Matrix && !Workload && argv[I][0] != '-') {
      Workload = argv[I];
      continue;
    }
    if (!HaveScale && argv[I][0] != '-') {
      // In matrix mode the only positional is the scale; reject
      // non-numeric values instead of letting atoi turn a misplaced
      // workload name into scale 0 (and a degenerate "@0" baseline).
      const int Parsed = std::atoi(argv[I]);
      if (Parsed <= 0) {
        std::fprintf(stderr, "invalid scale '%s'%s\n", argv[I],
                     Matrix ? " (matrix mode runs every workload; the "
                              "only positional argument is the scale)"
                            : "");
        return 2;
      }
      Scale = static_cast<uint32_t>(Parsed);
      HaveScale = true;
      continue;
    }
    std::fprintf(stderr,
                 "unexpected argument '%s'\n"
                 "usage: rdbt_scenarios [--json] [--corpus F] "
                 "[--trace-dir D] [--hot N] [--ifp on|off] "
                 "[workload] [scale]\n"
                 "       rdbt_scenarios --jobs N [--json] [--corpus F] "
                 "[--cache-dir D] [--trace-dir D] [--ifp on|off] [scale]\n"
                 "       rdbt_scenarios --list\n"
                 "--ifp selects the interpreter's decoded-instruction "
                 "cache (DESIGN.md §14; default on,\nguest-invisible "
                 "either way)\n", argv[I]);
    return 2;
  }

  const std::string Corpus = resolveCorpus(CorpusFlag);
  if (!Corpus.empty() && !fileExists(Corpus)) {
    std::fprintf(stderr, "corpus file '%s' not found\n", Corpus.c_str());
    return 2;
  }

  if (Matrix) {
    if (Hot) {
      std::fprintf(stderr,
                   "--hot needs single-workload mode (drop --jobs N)\n");
      return 2;
    }
    return runMatrix(Jobs, Scale, Json, Corpus, CacheDir, TraceDir, Ifp);
  }

  if (!CacheDir.empty()) {
    std::fprintf(stderr,
                 "--cache-dir needs matrix mode (add --jobs N)\n");
    return 2;
  }

  if (!Workload)
    Workload = "libquantum";

  std::printf("scenario smoke: '%s' @ scale %u under every registered "
              "translator kind\n\n", Workload, Scale);
  std::printf("%-28s %-14s %12s %14s %10s\n", "spec", "stop", "guest",
              "host cycles", "host/guest");

  // Same single-install scheme as the matrix: assemble and install the
  // guest image once, fork it copy-on-write per kind.
  vm::Vm Booter(
      vm::VmConfig().translator("native").workload(Workload).scale(Scale));
  const vm::Snapshot Board = Booter.valid() ? Booter.capture() : vm::Snapshot();

  std::string RefConsole;
  bool HaveRef = false;
  int Failures = 0;
  for (const std::string &Kind : vm::TranslatorRegistry::global().kinds()) {
    const auto *Info = vm::TranslatorRegistry::global().find(Kind);
    std::string SpecKind = Kind;
    if (Info && Info->TakesParam) {
      if (Corpus.empty())
        continue; // unusable without an argument (e.g. rule:file=<path>)
      SpecKind = Kind + "=" + Corpus;
    }
    vm::VmConfig Cfg = vm::VmConfig()
                           .translator(SpecKind)
                           .workload(Workload)
                           .scale(Scale)
                           .interpFastpath(Ifp);
    if (!Board.empty())
      Cfg.snapshot(&Board);
    // --trace-dir: one timeline per kind, named like a matrix cell.
    if (!TraceDir.empty())
      Cfg.trace(TraceDir + "/" +
                sanitizeKey(Kind + "_" + Workload + "@" +
                            std::to_string(Scale)) +
                ".trace.json");
    if (Hot)
      Cfg.profileHotBlocks(true);
    vm::Vm V(std::move(Cfg));
    if (!V.valid()) {
      std::fprintf(stderr, "%s/%s: %s\n", SpecKind.c_str(), Workload,
                   V.error().c_str());
      return 1;
    }
    const vm::RunReport R = V.run();
    if (Json)
      bench::JsonRecorder::get().Runs.push_back({Workload, R.Label, R});
    printRow(R);
    if (!R.Ok) {
      std::fprintf(stderr, "FAIL: %s stopped with '%s'%s%s\n", R.Spec.c_str(),
                   R.stopName(), R.Error.empty() ? "" : ": ",
                   R.Error.c_str());
      ++Failures;
      continue;
    }
    if (!HaveRef) {
      RefConsole = R.Console;
      HaveRef = true;
    } else if (R.Console != RefConsole) {
      std::fprintf(stderr, "FAIL: %s console diverged from the first "
                           "executor\n", R.Spec.c_str());
      ++Failures;
    }
    if (Hot) {
      // Hot-block profile (src/obs/): top-N live TBs by execution
      // count, with both disassemblies and rule-coverage attribution.
      // The native executor has no TBs and prints nothing.
      const std::vector<vm::Vm::HotBlock> Blocks = V.hotBlocks(Hot);
      for (size_t BI = 0; BI < Blocks.size(); ++BI) {
        const vm::Vm::HotBlock &B = Blocks[BI];
        std::printf("\n  #%zu tb %d @ 0x%08x: %llu entries, %.2f%% of "
                    "retired guest instrs\n"
                    "     %u guest instr(s): %u rule-covered, %u via the "
                    "emulate helper\n",
                    BI + 1, B.TbId, B.GuestPc,
                    static_cast<unsigned long long>(B.Execs),
                    B.ExecShare * 100.0, B.NumGuestInstrs, B.CoveredInstrs,
                    B.EmulatedInstrs);
        std::printf("    guest:\n%s    host:\n", B.GuestDisasm.c_str());
        // Indent the host disassembly to match.
        std::string Line;
        for (char C : B.HostDisasm) {
          Line += C;
          if (C == '\n') {
            std::printf("      %s", Line.c_str());
            Line.clear();
          }
        }
        if (!Line.empty())
          std::printf("      %s\n", Line.c_str());
      }
      if (!Blocks.empty())
        std::printf("\n");
    }
  }

  if (Json) {
    // The recorder only writes when RDBT_BENCH_JSON is set; an explicit
    // --json defaults the output directory to the current one.
    if (!std::getenv("RDBT_BENCH_JSON"))
      setenv("RDBT_BENCH_JSON", "1", /*overwrite=*/0);
    bench::writeBenchJson("scenarios");
  }

  if (Failures) {
    std::fprintf(stderr, "\n%d scenario(s) failed\n", Failures);
    return 1;
  }
  std::printf("\nall scenarios clean; consoles identical\n");
  return 0;
}
