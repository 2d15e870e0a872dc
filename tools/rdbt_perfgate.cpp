//===- tools/rdbt_perfgate.cpp - Exact-count perf-regression gate -----------===//
//
// Part of RuleDBT. Diffs two BENCH_matrix.json documents (written by
// `rdbt_scenarios --jobs N --json`) and exits nonzero on ANY counter
// difference outside an explicit allowlist.
//
// Because the host machine is simulated, every counter is an exact,
// byte-reproducible instruction count — so the gate is a hard equality
// check, not a noisy threshold: a PR that changes any count must either
// be fixed or update the checked-in baseline in the same commit (the
// reviewable statement "this change costs/saves exactly N cycles on
// scenario X"). See bench/README.md for the baseline-update workflow.
//
// Usage:
//   rdbt_perfgate <baseline.json> <current.json> [--allow <key>[:<field>]]...
//                 [--allow-prefix <pfx>]...
//   rdbt_perfgate --warm <cold.json> <warm.json> [--allow <key>[:<field>]]...
//                 [--allow-prefix <pfx>]...
//   rdbt_perfgate --selfcheck
//
// --allow "qemu/mcf@1"            waives every counter of one scenario
// --allow "qemu/mcf@1:wall"       waives one counter of one scenario
// --allow-prefix "obs_"           waives a field CLASS in every cell —
//                                 fields whose name starts with the
//                                 prefix. The observability family
//                                 (obs_*: trace-armed runs append it on
//                                 top of the exact counters) is host
//                                 wall time by design, so CI compares a
//                                 traced run against the untraced
//                                 baseline with --allow-prefix obs_ and
//                                 zero per-counter --allow entries.
//
// Missing and newly-appearing scenarios both fail (the baseline must
// describe exactly the matrix CI runs). --selfcheck exercises the parser
// and comparator on built-in documents; registered with CTest.
//
// --warm compares a cold matrix against the warm rerun written by
// `rdbt_scenarios --cache-dir` (BENCH_matrix_warm.json). Guest-visible
// counters must still match the cold document exactly, but the
// translation-work counters are gated instead of diffed: a warm boot
// against the persistent cache must translate *nothing* (translations
// and translated_guest_instrs exactly 0), load its cache file cleanly
// (cache_file_hits == 1 wherever the cold run translated,
// cache_file_misses == 0 — a miss means a corrupt or stale-keyed file),
// while every other field of the Translation class (vm/ReportFields.h:
// loaded_tbs, the rule-matching and gap statistics — zero when nothing
// translates) is informational.
//
//===----------------------------------------------------------------------===//

#include "vm/ReportFields.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// One parsed scenario cell: key plus field name/value pairs in document
/// order. Values stay strings — the gate compares canonical emissions,
/// it never does arithmetic.
struct Cell {
  std::string Key;
  std::vector<std::pair<std::string, std::string>> Fields;

  const std::string *field(const std::string &Name) const {
    for (const auto &F : Fields)
      if (F.first == Name)
        return &F.second;
    return nullptr;
  }
};

struct MatrixDoc {
  std::string Scale; ///< the top-level "scale" value ("" if absent)
  std::vector<Cell> Cells;

  const Cell *cell(const std::string &Key) const {
    for (const Cell &C : Cells)
      if (C.Key == Key)
        return &C;
    return nullptr;
  }
};

/// Minimal parser for the BENCH_matrix.json subset this repo writes
/// (bench::formatMatrixJson): flat string-keyed cells of scalar fields.
/// Returns false and sets *Error on anything it does not understand.
bool parseMatrix(const std::string &Text, MatrixDoc &Doc,
                 std::string *Error) {
  const auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  size_t P = 0;
  const auto SkipWs = [&] {
    while (P < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[P])))
      ++P;
  };
  const auto ReadString = [&](std::string &Out) {
    SkipWs();
    if (P >= Text.size() || Text[P] != '"')
      return false;
    Out.clear();
    for (++P; P < Text.size() && Text[P] != '"'; ++P) {
      if (Text[P] == '\\' && P + 1 < Text.size())
        ++P; // formatMatrixJson only escapes '"' and '\\'
      Out += Text[P];
    }
    if (P >= Text.size())
      return false;
    ++P; // closing quote
    return true;
  };
  const auto ReadScalar = [&](std::string &Out) {
    SkipWs();
    Out.clear();
    while (P < Text.size() && Text[P] != ',' && Text[P] != '}' &&
           !std::isspace(static_cast<unsigned char>(Text[P])))
      Out += Text[P++];
    return !Out.empty();
  };

  const size_t ScaleAt = Text.find("\"scale\":");
  if (ScaleAt != std::string::npos) {
    P = ScaleAt + std::strlen("\"scale\":");
    std::string V;
    if (ReadScalar(V))
      Doc.Scale = V;
  }

  const size_t MatrixAt = Text.find("\"matrix\":");
  if (MatrixAt == std::string::npos)
    return Fail("no \"matrix\" object");
  P = MatrixAt + std::strlen("\"matrix\":");
  SkipWs();
  if (P >= Text.size() || Text[P] != '{')
    return Fail("\"matrix\" is not an object");
  ++P;
  for (;;) {
    SkipWs();
    if (P < Text.size() && Text[P] == ',') {
      ++P;
      continue;
    }
    if (P < Text.size() && Text[P] == '}')
      return true; // end of matrix
    Cell C;
    if (!ReadString(C.Key))
      return Fail("expected a cell key string");
    SkipWs();
    if (P >= Text.size() || Text[P] != ':')
      return Fail("expected ':' after cell key");
    ++P;
    SkipWs();
    if (P >= Text.size() || Text[P] != '{')
      return Fail("expected '{' to open a cell");
    ++P;
    for (;;) {
      SkipWs();
      if (P < Text.size() && Text[P] == ',') {
        ++P;
        continue;
      }
      if (P < Text.size() && Text[P] == '}') {
        ++P;
        break;
      }
      std::string Name, Value;
      if (!ReadString(Name))
        return Fail("expected a field name string");
      SkipWs();
      if (P >= Text.size() || Text[P] != ':')
        return Fail("expected ':' after field name");
      ++P;
      if (!ReadScalar(Value))
        return Fail("expected a scalar field value");
      C.Fields.emplace_back(std::move(Name), std::move(Value));
    }
    Doc.Cells.push_back(std::move(C));
  }
}

bool allowed(const std::vector<std::string> &Allow,
             const std::vector<std::string> &AllowPrefixes,
             const std::string &Key, const std::string &Field) {
  // --allow-prefix waives a whole field *class* in every cell — the
  // obs_* observability family is informational by design (host wall
  // time feeds it), so CI gates a traced run with --allow-prefix obs_
  // and zero per-counter --allow entries.
  if (!Field.empty())
    for (const std::string &Pfx : AllowPrefixes)
      if (Field.compare(0, Pfx.size(), Pfx) == 0)
        return true;
  return std::find(Allow.begin(), Allow.end(), Key) != Allow.end() ||
         (!Field.empty() &&
          std::find(Allow.begin(), Allow.end(), Key + ":" + Field) !=
              Allow.end());
}

/// Exact-count comparison. Appends one human-readable line per
/// regression to \p Diffs; returns the number of regressions (waived
/// differences are reported as notes but not counted).
int compareMatrices(const MatrixDoc &Base, const MatrixDoc &Cur,
                    const std::vector<std::string> &Allow,
                    const std::vector<std::string> &AllowPrefixes,
                    std::vector<std::string> &Diffs) {
  int Regressions = 0;
  const auto Note = [&](const std::string &Line, bool Waived) {
    Diffs.push_back((Waived ? "allowed: " : "FAIL: ") + Line);
    if (!Waived)
      ++Regressions;
  };

  if (Base.Scale != Cur.Scale)
    Note("scale mismatch: baseline " + Base.Scale + ", current " + Cur.Scale,
         false);

  for (const Cell &B : Base.Cells) {
    const Cell *C = Cur.cell(B.Key);
    if (!C) {
      Note(B.Key + ": missing from current run", allowed(Allow, AllowPrefixes, B.Key, ""));
      continue;
    }
    for (const auto &F : B.Fields) {
      const std::string *V = C->field(F.first);
      if (!V)
        Note(B.Key + "." + F.first + ": missing from current run",
             allowed(Allow, AllowPrefixes, B.Key, F.first));
      else if (*V != F.second)
        Note(B.Key + "." + F.first + ": " + F.second + " -> " + *V,
             allowed(Allow, AllowPrefixes, B.Key, F.first));
    }
    for (const auto &F : C->Fields)
      if (!B.field(F.first))
        Note(B.Key + "." + F.first + ": not in baseline",
             allowed(Allow, AllowPrefixes, B.Key, F.first));
  }
  for (const Cell &C : Cur.Cells)
    if (!Base.cell(C.Key))
      Note(C.Key + ": not in baseline (update bench/baselines/)",
           allowed(Allow, AllowPrefixes, C.Key, ""));
  return Regressions;
}

/// True for the Translation-class report fields (vm/ReportFields.h):
/// work a warm boot from the persistent cache skips by design.
bool isTranslationWork(const std::string &Field) {
  const rdbt::vm::ReportField *F = rdbt::vm::findReportField(Field);
  return F && F->Class == rdbt::vm::Translation;
}

/// Cold-vs-warm comparison (--warm). \p Base is the cold document,
/// \p Cur the warm rerun against the same cache directory. See the file
/// header for the per-field rules.
int compareWarm(const MatrixDoc &Base, const MatrixDoc &Cur,
                const std::vector<std::string> &Allow,
                const std::vector<std::string> &AllowPrefixes,
                std::vector<std::string> &Diffs) {
  int Regressions = 0;
  const auto Note = [&](const std::string &Line, bool Waived) {
    Diffs.push_back((Waived ? "allowed: " : "FAIL: ") + Line);
    if (!Waived)
      ++Regressions;
  };

  if (Base.Scale != Cur.Scale)
    Note("scale mismatch: cold " + Base.Scale + ", warm " + Cur.Scale, false);

  for (const Cell &B : Base.Cells) {
    const Cell *C = Cur.cell(B.Key);
    if (!C) {
      Note(B.Key + ": missing from warm run", allowed(Allow, AllowPrefixes, B.Key, ""));
      continue;
    }
    const std::string *ColdXlate = B.field("translations");
    const bool ColdTranslated = ColdXlate && *ColdXlate != "0";
    for (const auto &F : B.Fields) {
      const std::string *V = C->field(F.first);
      if (!V) {
        Note(B.Key + "." + F.first + ": missing from warm run",
             allowed(Allow, AllowPrefixes, B.Key, F.first));
        continue;
      }
      if (F.first == "translations" ||
          F.first == "translated_guest_instrs") {
        if (*V != "0")
          Note(B.Key + "." + F.first + ": warm boot still translated (" +
                   *V + ", must be 0)",
               allowed(Allow, AllowPrefixes, B.Key, F.first));
      } else if (F.first == "cache_file_hits") {
        if (ColdTranslated && *V != "1")
          Note(B.Key + ".cache_file_hits: warm boot did not load its "
                       "cache file (" + *V + ", must be 1)",
               allowed(Allow, AllowPrefixes, B.Key, F.first));
      } else if (F.first == "cache_file_misses") {
        if (*V != "0")
          Note(B.Key + ".cache_file_misses: warm boot rejected a cache "
                       "file (" + *V + ", must be 0)",
               allowed(Allow, AllowPrefixes, B.Key, F.first));
      } else if (isTranslationWork(F.first)) {
        // Informational: a warm boot skips translation-time work by
        // design, and the translations gate above already proves it.
      } else if (*V != F.second) {
        Note(B.Key + "." + F.first + ": cold " + F.second + " -> warm " + *V,
             allowed(Allow, AllowPrefixes, B.Key, F.first));
      }
    }
  }
  for (const Cell &C : Cur.Cells)
    if (!Base.cell(C.Key))
      Note(C.Key + ": not in cold run", allowed(Allow, AllowPrefixes, C.Key, ""));
  return Regressions;
}

int selfcheck() {
  const char *BaseText =
      "{\n  \"bench\": \"matrix\",\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"native/a@1\": {\"ok\": true, \"wall\": 100, \"guest_instrs\": 100},\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 450, \"guest_instrs\": 100}\n"
      "  }\n}\n";
  const char *SameText = BaseText;
  const char *RegressedText =
      "{\n  \"bench\": \"matrix\",\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"native/a@1\": {\"ok\": true, \"wall\": 100, \"guest_instrs\": 100},\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 451, \"guest_instrs\": 100}\n"
      "  }\n}\n";

  int Failures = 0;
  const auto Check = [&Failures](bool Cond, const char *What) {
    if (!Cond) {
      std::fprintf(stderr, "selfcheck FAIL: %s\n", What);
      ++Failures;
    }
  };

  MatrixDoc Base, Same, Regressed;
  std::string Err;
  Check(parseMatrix(BaseText, Base, &Err), "parse baseline");
  Check(parseMatrix(SameText, Same, &Err), "parse identical");
  Check(parseMatrix(RegressedText, Regressed, &Err), "parse regressed");
  Check(Base.Scale == "1", "scale parsed");
  Check(Base.Cells.size() == 2, "two cells parsed");
  Check(Base.cell("qemu/a@1") &&
            *Base.cell("qemu/a@1")->field("wall") == "450",
        "field value parsed");

  std::vector<std::string> Diffs;
  Check(compareMatrices(Base, Same, {}, {}, Diffs) == 0 && Diffs.empty(),
        "identical documents must pass");
  Diffs.clear();
  Check(compareMatrices(Base, Regressed, {}, {}, Diffs) == 1,
        "one changed counter must be one regression");
  Diffs.clear();
  Check(compareMatrices(Base, Regressed, {"qemu/a@1:wall"}, {}, Diffs) == 0,
        "key:field allowlist must waive the regression");
  Diffs.clear();
  Check(compareMatrices(Base, Regressed, {"qemu/a@1"}, {}, Diffs) == 0,
        "whole-key allowlist must waive the regression");

  // A cell present only in one document fails in both directions.
  MatrixDoc OneCell;
  Check(parseMatrix("{\"scale\": 1, \"matrix\": {\"native/a@1\": "
                    "{\"ok\": true, \"wall\": 100, \"guest_instrs\": 100}}}",
                    OneCell, &Err),
        "parse one-cell document");
  Diffs.clear();
  Check(compareMatrices(Base, OneCell, {}, {}, Diffs) == 1,
        "missing scenario must regress");
  Diffs.clear();
  Check(compareMatrices(OneCell, Base, {}, {}, Diffs) == 1,
        "new scenario must regress");

  // --allow-prefix: the obs_* field class a trace-armed run appends on
  // top of the exact counters. The counters themselves are still gated:
  // a traced document with an obs_* delta AND a counter delta must keep
  // regressing under the prefix waiver.
  const char *TracedText =
      "{\n  \"bench\": \"matrix\",\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"native/a@1\": {\"ok\": true, \"wall\": 100, \"guest_instrs\": 100},\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 450, \"guest_instrs\": 100,"
      " \"obs_events\": 42, \"obs_translate_ns_count\": 7}\n  }\n}\n";
  const char *TracedRegressedText =
      "{\n  \"bench\": \"matrix\",\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"native/a@1\": {\"ok\": true, \"wall\": 100, \"guest_instrs\": 100},\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 451, \"guest_instrs\": 100,"
      " \"obs_events\": 42, \"obs_translate_ns_count\": 7}\n  }\n}\n";
  MatrixDoc Traced, TracedRegressed;
  Check(parseMatrix(TracedText, Traced, &Err), "parse traced");
  Check(parseMatrix(TracedRegressedText, TracedRegressed, &Err),
        "parse traced-regressed");
  Diffs.clear();
  Check(compareMatrices(Base, Traced, {}, {}, Diffs) == 2,
        "unwaived obs_ fields must regress");
  Diffs.clear();
  Check(compareMatrices(Base, Traced, {}, {"obs_"}, Diffs) == 0,
        "--allow-prefix obs_ must waive the whole field class");
  Diffs.clear();
  Check(compareMatrices(Base, TracedRegressed, {}, {"obs_"}, Diffs) == 1,
        "--allow-prefix must not waive an exact-counter regression");
  Diffs.clear();
  Check(compareMatrices(Traced, Base, {}, {"obs_"}, Diffs) == 0,
        "--allow-prefix must waive obs_ fields missing from current");

  // --warm mode: guest counters exact, translation counters gated, the
  // rest of the Translation class (rule_match_hits here) informational.
  const char *ColdText =
      "{\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 450, \"translations\": 36,"
      " \"translated_guest_instrs\": 200, \"cache_file_hits\": 0,"
      " \"cache_file_misses\": 0, \"loaded_tbs\": 0,"
      " \"rule_match_hits\": 5}\n  }\n}\n";
  const char *WarmGoodText =
      "{\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 450, \"translations\": 0,"
      " \"translated_guest_instrs\": 0, \"cache_file_hits\": 1,"
      " \"cache_file_misses\": 0, \"loaded_tbs\": 36,"
      " \"rule_match_hits\": 0}\n  }\n}\n";
  const char *WarmStillXlates =
      "{\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 450, \"translations\": 7,"
      " \"translated_guest_instrs\": 40, \"cache_file_hits\": 1,"
      " \"cache_file_misses\": 0, \"loaded_tbs\": 29,"
      " \"rule_match_hits\": 0}\n  }\n}\n";
  const char *WarmRejected =
      "{\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 450, \"translations\": 0,"
      " \"translated_guest_instrs\": 0, \"cache_file_hits\": 0,"
      " \"cache_file_misses\": 1, \"loaded_tbs\": 0,"
      " \"rule_match_hits\": 0}\n  }\n}\n";
  const char *WarmDiverged =
      "{\n  \"scale\": 1,\n  \"matrix\": {\n"
      "    \"qemu/a@1\": {\"ok\": true, \"wall\": 451, \"translations\": 0,"
      " \"translated_guest_instrs\": 0, \"cache_file_hits\": 1,"
      " \"cache_file_misses\": 0, \"loaded_tbs\": 36,"
      " \"rule_match_hits\": 0}\n  }\n}\n";

  MatrixDoc Cold, WGood, WXlate, WReject, WDiverge;
  Check(parseMatrix(ColdText, Cold, &Err), "parse cold");
  Check(parseMatrix(WarmGoodText, WGood, &Err), "parse warm-good");
  Check(parseMatrix(WarmStillXlates, WXlate, &Err), "parse warm-xlates");
  Check(parseMatrix(WarmRejected, WReject, &Err), "parse warm-rejected");
  Check(parseMatrix(WarmDiverged, WDiverge, &Err), "parse warm-diverged");

  Diffs.clear();
  Check(compareWarm(Cold, WGood, {}, {}, Diffs) == 0,
        "clean warm boot must pass --warm");
  Diffs.clear();
  Check(compareWarm(Cold, WXlate, {}, {}, Diffs) == 2,
        "warm translations must be gated to zero");
  Diffs.clear();
  // A rejected file regresses twice: the miss itself, and the hit the
  // cold-translated cell was required to have.
  Check(compareWarm(Cold, WReject, {}, {}, Diffs) == 2,
        "warm cache-file rejection must regress");
  Diffs.clear();
  Check(compareWarm(Cold, WDiverge, {}, {}, Diffs) == 1,
        "warm guest-counter divergence must regress");
  Diffs.clear();
  Check(compareWarm(Cold, WXlate,
                    {"qemu/a@1:translations",
                     "qemu/a@1:translated_guest_instrs"},
                    {}, Diffs) == 0,
        "--warm must honor the allowlist");

  if (Failures == 0)
    std::printf("rdbt_perfgate selfcheck: all checks passed\n");
  return Failures ? 1 : 0;
}

bool readFile(const char *Path, std::string &Out) {
  std::ifstream IS(Path);
  if (!IS)
    return false;
  std::ostringstream SS;
  SS << IS.rdbuf();
  Out = SS.str();
  return true;
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selfcheck") == 0)
    return selfcheck();

  const char *BasePath = nullptr;
  const char *CurPath = nullptr;
  bool WarmMode = false;
  std::vector<std::string> Allow;
  std::vector<std::string> AllowPrefixes;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--allow") == 0 && I + 1 < argc) {
      Allow.push_back(argv[++I]);
      continue;
    }
    if (std::strcmp(argv[I], "--allow-prefix") == 0 && I + 1 < argc) {
      AllowPrefixes.push_back(argv[++I]);
      continue;
    }
    if (std::strcmp(argv[I], "--warm") == 0) {
      WarmMode = true;
      continue;
    }
    if (!BasePath) {
      BasePath = argv[I];
      continue;
    }
    if (!CurPath) {
      CurPath = argv[I];
      continue;
    }
    BasePath = nullptr; // force the usage message
    break;
  }
  if (!BasePath || !CurPath) {
    std::fprintf(stderr,
                 "usage: rdbt_perfgate <baseline.json> <current.json> "
                 "[--allow <key>[:<field>]]... [--allow-prefix <pfx>]...\n"
                 "       rdbt_perfgate --warm <cold.json> <warm.json> "
                 "[--allow <key>[:<field>]]... [--allow-prefix <pfx>]...\n"
                 "       rdbt_perfgate --selfcheck\n");
    return 2;
  }

  std::string BaseText, CurText, Err;
  if (!readFile(BasePath, BaseText)) {
    std::fprintf(stderr, "cannot read baseline '%s'\n", BasePath);
    return 2;
  }
  if (!readFile(CurPath, CurText)) {
    std::fprintf(stderr, "cannot read current '%s'\n", CurPath);
    return 2;
  }
  MatrixDoc Base, Cur;
  if (!parseMatrix(BaseText, Base, &Err)) {
    std::fprintf(stderr, "baseline '%s': %s\n", BasePath, Err.c_str());
    return 2;
  }
  if (!parseMatrix(CurText, Cur, &Err)) {
    std::fprintf(stderr, "current '%s': %s\n", CurPath, Err.c_str());
    return 2;
  }

  std::vector<std::string> Diffs;
  const int Regressions =
      WarmMode ? compareWarm(Base, Cur, Allow, AllowPrefixes, Diffs)
               : compareMatrices(Base, Cur, Allow, AllowPrefixes, Diffs);
  for (const std::string &D : Diffs)
    std::fprintf(Regressions ? stderr : stdout, "%s\n", D.c_str());
  if (Regressions) {
    if (WarmMode)
      std::fprintf(stderr,
                   "\nperf-gate: %d warm-boot regression(s) across %zu "
                   "scenario(s)\n",
                   Regressions, Base.Cells.size());
    else
      std::fprintf(stderr,
                   "\nperf-gate: %d exact-count regression(s) across %zu "
                   "baseline scenario(s)\n"
                   "intentional? update the baseline in the same commit "
                   "(see bench/README.md)\n",
                   Regressions, Base.Cells.size());
    return 1;
  }
  std::printf(WarmMode ? "perf-gate: %zu scenario(s) compared, warm boots "
                         "translated nothing\n"
                       : "perf-gate: %zu scenario(s) compared, every counter "
                         "exact\n",
              Base.Cells.size());
  return 0;
}
