//===- perfbench/src/Main.cpp - Benchmark harness entry point -------------===//
//
// Part of RuleDBT's benchmark (perfbench/README.md).
//
//   perfbench --workload paper-suite|cold-code|system-serve --seed N
//             --seconds S --trace 0|1 [--self-test]
//
// Runs one workload for S seconds of whole rounds and prints, as the last
// line of standard output, one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 the per-layer ones, and the span timeline goes to
// .bench_trace/<workload>.trace.json. --self-test (cold-code only) deploys the
// planted-bug rule corpus and exits 0 only if the output checks caught it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper-suite|cold-code|"
               "system-serve --seed N --seconds S --trace 0|1 "
               "[--self-test]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  if (!Text || !*Text)
    return false;
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno || *End || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

void printResult(const Outcome &O) {
  std::printf("\n%-34s %20s  %s\n", "metric", "value", "unit");
  for (const Metric &M : O.Metrics)
    std::printf("%-34s %20.6f  %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed),
              O.Correct ? "true" : "false");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              O.Correct ? "true" : "false",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed));
  for (size_t I = 0; I < O.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", O.Metrics[I].Name.c_str(), O.Metrics[I].Value,
                O.Metrics[I].Unit);
  std::printf("}}\n");
}

} // namespace

int main(int argc, char **argv) {
  markProcessStart();
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    uint64_t N = 0;
    if (A == "--workload" && V) {
      O.Workload = V;
      ++I;
    } else if (A == "--seed" && parseUnsigned(V, N)) {
      O.Seed = N;
      HaveSeed = true;
      ++I;
    } else if (A == "--seconds" && parseUnsigned(V, N) && N >= 1 &&
               N <= 3600) {
      O.Seconds = static_cast<unsigned>(N);
      HaveSeconds = true;
      ++I;
    } else if (A == "--trace" && parseUnsigned(V, N) && N <= 1) {
      O.Trace = N == 1;
      HaveTrace = true;
      ++I;
    } else if (A == "--self-test") {
      O.SelfTest = true;
    } else {
      return usage(("bad argument '" + A + "'").c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace are required");
  if (O.SelfTest && O.Workload != "cold-code")
    return usage("--self-test runs the cold-code workload only");
  if (O.Trace && mkdir(O.TraceDir.c_str(), 0755) != 0 && errno != EEXIST)
    return usage(("cannot create " + O.TraceDir).c_str());

  Outcome Out;
  if (O.Workload == "paper-suite")
    Out = runPaperSuite(O);
  else if (O.Workload == "cold-code")
    Out = runColdCode(O);
  else if (O.Workload == "system-serve")
    Out = runSystemServe(O);
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  if (Out.Attempted == 0) {
    std::fprintf(stderr, "perfbench: %s attempted no operation\n",
                 O.Workload.c_str());
    return 1;
  }
  printResult(Out);
  if (O.SelfTest) {
    // The planted bug must make cold-code sessions fail their checks,
    // beyond the canary that fails at this commit anyway.
    const uint64_t Caught = Out.Failed - Out.CanaryFailed;
    if (Caught == 0) {
      std::fprintf(stderr, "perfbench: self-test FAILED: the planted-bug "
                           "corpus passed every output check\n");
      return 1;
    }
    std::fprintf(stderr, "perfbench: self-test passed: the output checks "
                         "caught the planted bug in %llu of %llu "
                         "operations\n",
                 static_cast<unsigned long long>(Caught),
                 static_cast<unsigned long long>(Out.Attempted));
  }
  return Out.Correct ? 0 : 1;
}
