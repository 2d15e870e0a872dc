//===- tests/ObsTest.cpp - Observability subsystem tests --------------------===//
//
// Part of RuleDBT. See DESIGN.md for the project overview.
//
//===----------------------------------------------------------------------===//
///
/// The contracts the observability subsystem (src/obs/, DESIGN.md §13)
/// rests on:
///
///  * **Zero observable effect**: a trace-armed run's guest-visible
///    results — execution counters, engine statistics, console bytes,
///    final architectural state — are bitwise identical to an untraced
///    run, across every translator kind. Tracing reads host wall time
///    and nothing else.
///
///  * **Monotonic, bounded timeline**: event timestamps never decrease,
///    and a sink past its cap counts drops instead of growing (the
///    written JSON reports the count, so truncation is never silent).
///
///  * **Loadable JSON**: the emitted document is structurally valid
///    Chrome trace-event JSON — balanced, string-escaped, carrying the
///    stable event names CI greps for.
///
///  * **Exact histogram bucketing**: the log2 layout puts 0 in bucket 0
///    and v in bucket floor(log2(v))+1, with the top bucket absorbing
///    values past 2^31 — checked at every edge.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/TraceSink.h"
#include "vm/ReportFields.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <string>
#include <vector>

using namespace rdbt;

namespace {

/// A self-cleaning temp directory for trace files.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/rdbt-obs-XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    if (Path.empty())
      return;
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        const std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          std::remove((Path + "/" + Name).c_str());
      }
      closedir(D);
    }
    std::remove(Path.c_str());
  }
};

std::string readFile(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::string Out((std::istreambuf_iterator<char>(IS)),
                  std::istreambuf_iterator<char>());
  return Out;
}

/// Structural JSON check: braces/brackets balance outside string
/// literals, strings terminate, and the document is one object. Not a
/// full parser — exactly the well-formedness chrome://tracing needs
/// before it even looks at the schema.
bool jsonBalanced(const std::string &Text) {
  int Depth = 0;
  bool InString = false;
  bool SawObject = false;
  for (size_t I = 0; I < Text.size(); ++I) {
    const char C = Text[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    switch (C) {
    case '"':
      InString = true;
      break;
    case '{':
    case '[':
      ++Depth;
      SawObject = true;
      break;
    case '}':
    case ']':
      if (--Depth < 0)
        return false;
      break;
    default:
      break;
    }
  }
  return !InString && Depth == 0 && SawObject;
}

vm::VmConfig cfgFor(const std::string &Kind) {
  return vm::VmConfig().translator(Kind).workload("libquantum").scale(1);
}

/// The translator kinds the bitwise-identity contract is proven for:
/// the interpreter baseline, the QEMU-like translator, and the full-opt
/// rule translator.
std::vector<std::string> allKinds() {
  return {"native", "qemu", "rule:scheduling"};
}

} // namespace

TEST(ObsHistogram, BucketEdges) {
  using obs::Histogram;
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(7), 3u);
  EXPECT_EQ(Histogram::bucketOf(8), 4u);
  // Every power of two opens its own bucket; the value just below it
  // still belongs to the previous one.
  for (unsigned K = 1; K < 31; ++K) {
    EXPECT_EQ(Histogram::bucketOf(1ull << K), K + 1)
        << "2^" << K << " must open bucket " << (K + 1);
    EXPECT_EQ(Histogram::bucketOf((1ull << K) - 1), K)
        << "2^" << K << "-1 must stay in bucket " << K;
  }
  // Past 2^31 everything shares the final bucket.
  EXPECT_EQ(Histogram::bucketOf(1ull << 31), Histogram::NumBuckets - 1);
  EXPECT_EQ(Histogram::bucketOf(1ull << 40), Histogram::NumBuckets - 1);
  EXPECT_EQ(Histogram::bucketOf(~0ull), Histogram::NumBuckets - 1);
}

TEST(ObsHistogram, RecordAndMerge) {
  obs::Histogram H;
  EXPECT_EQ(H.Count, 0u);
  EXPECT_EQ(H.mean(), 0.0);
  H.record(0);
  H.record(1);
  H.record(5);
  H.record(1000);
  EXPECT_EQ(H.Count, 4u);
  EXPECT_EQ(H.Sum, 1006u);
  EXPECT_EQ(H.Min, 0u);
  EXPECT_EQ(H.Max, 1000u);
  EXPECT_EQ(H.mean(), 1006.0 / 4.0);
  EXPECT_EQ(H.Buckets[0], 1u);  // the zero
  EXPECT_EQ(H.Buckets[1], 1u);  // 1
  EXPECT_EQ(H.Buckets[3], 1u);  // 5 in [4,8)
  EXPECT_EQ(H.Buckets[10], 1u); // 1000 in [512,1024)

  // Mergeable by plain addition: bucket sums equal a combined recording.
  obs::Histogram A, B, Combined;
  for (uint64_t V : {3u, 9u, 80u})
    A.record(V);
  for (uint64_t V : {0u, 700u})
    B.record(V);
  for (uint64_t V : {3u, 9u, 80u, 0u, 700u})
    Combined.record(V);
  uint64_t MergedCount = A.Count + B.Count, MergedSum = A.Sum + B.Sum;
  EXPECT_EQ(MergedCount, Combined.Count);
  EXPECT_EQ(MergedSum, Combined.Sum);
  for (unsigned I = 0; I < obs::Histogram::NumBuckets; ++I)
    EXPECT_EQ(A.Buckets[I] + B.Buckets[I], Combined.Buckets[I]);
}

TEST(ObsMetrics, ReferencesSurviveLaterRegistrations) {
  obs::Metrics M;
  uint64_t &C0 = M.counter("first");
  obs::Histogram &H0 = M.histogram("first_hist");
  C0 = 7;
  H0.record(42);
  // The deque contract: piling on more entries must not move the
  // earlier ones (the engine caches these pointers at wiring time).
  for (int I = 0; I < 100; ++I) {
    M.counter("c" + std::to_string(I));
    M.histogram("h" + std::to_string(I));
  }
  EXPECT_EQ(&C0, &M.counter("first"));
  EXPECT_EQ(&H0, &M.histogram("first_hist"));
  EXPECT_EQ(C0, 7u);
  EXPECT_EQ(H0.Count, 1u);
  // Registration order is stable for JSON emission.
  EXPECT_EQ(M.counters().front().first, "first");
  EXPECT_EQ(M.histograms().front().first, "first_hist");
}

TEST(ObsTraceSink, MonotonicTimestamps) {
  obs::TraceSink S;
  for (int I = 0; I < 200; ++I)
    S.record(obs::EventKind::RuleMatch, static_cast<uint64_t>(I));
  const uint64_t T0 = S.now();
  S.recordSpan(obs::EventKind::TranslateBlock, T0, 0x8000);
  ASSERT_EQ(S.size(), 201u);
  uint64_t Prev = 0;
  for (const obs::TraceEvent &E : S.events()) {
    EXPECT_GE(E.Ts, Prev) << "event timestamps must never decrease";
    Prev = E.Ts;
  }
  // The span began at a prior now() sample, so its start cannot precede
  // the instants recorded before it.
  EXPECT_GE(S.events().back().Ts, T0 == 0 ? 0 : T0 - 1);
}

TEST(ObsTraceSink, CapCountsDropsInsteadOfGrowing) {
  obs::TraceSink S(/*MaxEvents=*/4);
  for (int I = 0; I < 10; ++I)
    S.record(obs::EventKind::ChainPatch, static_cast<uint64_t>(I));
  EXPECT_EQ(S.size(), 4u);
  EXPECT_EQ(S.dropped(), 6u);
  const std::string Json = S.toJson();
  EXPECT_TRUE(Json.find("\"rdbtDroppedEvents\": 6") != std::string::npos)
      << "a truncated timeline must report its drop count";
}

TEST(ObsTraceSink, EventNamesStableAndDistinct) {
  std::vector<std::string> Names;
  for (unsigned K = 0;
       K < static_cast<unsigned>(obs::EventKind::NumEventKinds); ++K) {
    const char *N = obs::eventName(static_cast<obs::EventKind>(K));
    ASSERT_TRUE(N != nullptr);
    EXPECT_GT(std::strlen(N), 0u);
    for (const std::string &Prev : Names)
      EXPECT_NE(Prev, N) << "event names must be distinct";
    Names.push_back(N);
  }
  // The names CI greps for are API, not presentation.
  EXPECT_EQ(std::string("translate_block"),
            obs::eventName(obs::EventKind::TranslateBlock));
  EXPECT_EQ(std::string("chain_patch"),
            obs::eventName(obs::EventKind::ChainPatch));
  EXPECT_EQ(std::string("cache_file_load"),
            obs::eventName(obs::EventKind::CacheFileLoad));
  EXPECT_EQ(std::string("fallback_entry"),
            obs::eventName(obs::EventKind::FallbackEntry));
}

TEST(ObsTraceSink, JsonWellFormedWithEscapedLabel) {
  obs::TraceSink S;
  S.record(obs::EventKind::SeedBlock, 0x8000);
  const uint64_t T0 = S.now();
  S.recordSpan(obs::EventKind::TranslateBlock, T0, 0x8010, 96, 4);
  // A label with both escapable characters.
  const std::string Json = S.toJson("spec \"with\\quotes\"");
  EXPECT_TRUE(jsonBalanced(Json)) << Json;
  EXPECT_TRUE(Json.find("\"traceEvents\"") != std::string::npos);
  EXPECT_TRUE(Json.find("\"displayTimeUnit\": \"ns\"") != std::string::npos);
  EXPECT_TRUE(Json.find("\"seed_block\"") != std::string::npos);
  EXPECT_TRUE(Json.find("\"translate_block\"") != std::string::npos);
  EXPECT_TRUE(Json.find("process_name") != std::string::npos);
  // The raw quote/backslash must not survive unescaped inside the label.
  EXPECT_TRUE(Json.find("with\\\\quotes") != std::string::npos);
}

TEST(ObsVm, SpecStringRoundTrip) {
  std::string Err;
  vm::VmConfig C =
      vm::VmConfig::fromSpec("qemu/libquantum,trace=/tmp/t.json", &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(C.trace(), "/tmp/t.json");
  EXPECT_EQ(C.toSpec(), "qemu/libquantum,trace=/tmp/t.json");

  // Both options together, in either order, each keeping its value.
  C = vm::VmConfig::fromSpec("qemu/libquantum,cache=/tmp/d,trace=/tmp/t.json",
                             &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(C.persistentCache(), "/tmp/d");
  EXPECT_EQ(C.trace(), "/tmp/t.json");
  C = vm::VmConfig::fromSpec("qemu/libquantum,trace=/tmp/t.json,cache=/tmp/d",
                             &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(C.persistentCache(), "/tmp/d");
  EXPECT_EQ(C.trace(), "/tmp/t.json");

  // An empty value and an unknown option are both parse errors.
  vm::VmConfig::fromSpec("qemu/libquantum,trace=", &Err);
  EXPECT_FALSE(Err.empty());
  vm::VmConfig::fromSpec("qemu/libquantum,trace=/tmp/t.json,bogus=1", &Err);
  EXPECT_FALSE(Err.empty());
}

TEST(ObsVm, TracedRunBitwiseIdenticalToUntraced) {
  TempDir Dir;
  ASSERT_FALSE(Dir.Path.empty());
  for (const std::string &Kind : allKinds()) {
    vm::RunReport Plain;
    {
      vm::Vm V(cfgFor(Kind));
      ASSERT_TRUE(V.valid()) << Kind << ": " << V.error();
      Plain = V.run();
      ASSERT_TRUE(Plain.Ok) << Kind;
      EXPECT_FALSE(Plain.Obs.Enabled);
      EXPECT_EQ(V.traceSink(), nullptr);
    }
    const std::string TracePath = Dir.Path + "/" + (Kind == "rule:scheduling"
                                                        ? "rule"
                                                        : Kind) +
                                  ".trace.json";
    vm::RunReport Traced;
    {
      vm::Vm V(cfgFor(Kind).trace(TracePath));
      ASSERT_TRUE(V.valid()) << Kind << ": " << V.error();
      Traced = V.run();
      ASSERT_TRUE(Traced.Ok) << Kind;
      ASSERT_TRUE(V.traceSink() != nullptr);
    }

    // The whole point: tracing must be invisible to everything the perf
    // gate and the correctness checks look at.
    EXPECT_EQ("", vm::outcomeDiff(Plain, Traced)) << Kind;

    // The traced run, and only it, carries the obs family.
    EXPECT_TRUE(Traced.Obs.Enabled) << Kind;
    if (Kind != "native") {
      EXPECT_GT(Traced.Obs.Events, 0u) << Kind;
      EXPECT_EQ(Traced.Obs.Dropped, 0u) << Kind;
    }

    // The timeline written at destruction is loadable JSON with the
    // expected events.
    const std::string Json = readFile(TracePath);
    ASSERT_FALSE(Json.empty()) << Kind << ": no trace written";
    EXPECT_TRUE(jsonBalanced(Json)) << Kind;
    EXPECT_TRUE(Json.find("\"traceEvents\"") != std::string::npos) << Kind;
    if (Kind != "native")
      EXPECT_TRUE(Json.find("\"translate_block\"") != std::string::npos)
          << Kind << ": engine timeline must record translations";
  }
}

TEST(ObsVm, HotBlockProfile) {
  vm::Vm V(cfgFor("rule:scheduling").profileHotBlocks(true));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  ASSERT_TRUE(R.Ok);

  const std::vector<vm::Vm::HotBlock> Top = V.hotBlocks(5);
  ASSERT_FALSE(Top.empty());
  EXPECT_LE(Top.size(), 5u);
  double ShareSum = 0;
  uint64_t PrevExecs = ~0ull;
  for (const vm::Vm::HotBlock &B : Top) {
    EXPECT_GE(B.TbId, 0);
    EXPECT_GT(B.Execs, 0u);
    EXPECT_LE(B.Execs, PrevExecs) << "ranking must be by execution count";
    PrevExecs = B.Execs;
    EXPECT_GT(B.NumGuestInstrs, 0u);
    EXPECT_LE(B.CoveredInstrs + B.EmulatedInstrs, B.NumGuestInstrs);
    EXPECT_GT(B.ExecShare, 0.0);
    EXPECT_LE(B.ExecShare, 1.0);
    EXPECT_FALSE(B.GuestDisasm.empty());
    EXPECT_FALSE(B.HostDisasm.empty());
    ShareSum += B.ExecShare;
  }
  EXPECT_LE(ShareSum, 1.0 + 1e-9);

  // Without the profile armed, the counts were never collected.
  vm::Vm Plain(cfgFor("rule:scheduling"));
  ASSERT_TRUE(Plain.valid());
  ASSERT_TRUE(Plain.run().Ok);
  EXPECT_TRUE(Plain.hotBlocks(5).empty());
}

TEST(ObsVm, RunReportCarriesMetrics) {
  TempDir Dir;
  ASSERT_FALSE(Dir.Path.empty());
  vm::Vm V(cfgFor("rule:scheduling").trace(Dir.Path + "/m.trace.json"));
  ASSERT_TRUE(V.valid()) << V.error();
  const vm::RunReport R = V.run();
  ASSERT_TRUE(R.Ok);
  ASSERT_TRUE(R.Obs.Enabled);

  // The engine histograms observed every translation.
  bool SawTranslateNs = false, SawBlockLen = false, SawAttempts = false;
  for (const auto &H : R.Obs.Metrics.histograms()) {
    if (H.first == obs::metric::TranslateNs) {
      SawTranslateNs = true;
      EXPECT_EQ(H.second.Count, R.Engine.Translations);
    } else if (H.first == obs::metric::GuestBlockLen) {
      SawBlockLen = true;
      EXPECT_EQ(H.second.Count, R.Engine.Translations);
      EXPECT_EQ(H.second.Sum, R.Engine.TranslatedGuestInstrs);
    } else if (H.first == obs::metric::MatchAttempts) {
      SawAttempts = true;
      EXPECT_EQ(H.second.Sum, R.RuleMatchAttempts);
    }
  }
  EXPECT_TRUE(SawTranslateNs);
  EXPECT_TRUE(SawBlockLen);
  EXPECT_TRUE(SawAttempts);
}
