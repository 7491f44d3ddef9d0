//===- main.cpp - The repository benchmark's command line -----------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//   perfbench --workload <awfy-eval|scaled-build|micro-fleet|all>
//             --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--source-id TEXT]
//
// Prints a readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// `--workload all` runs every workload in this process; its last line
// keys the metrics as "<workload>/<metric>".
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <awfy-eval|scaled-build|"
               "micro-fleet|all> --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--source-id TEXT]\n",
               Why);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || *S == '-')
    return false;
  Out = V;
  return true;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  std::string SourceId = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (A == "--workload") {
      Opts.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      if (!parseU64(V, Opts.Seed))
        return usage("--seed takes a non-negative integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      if (!parseU64(V, N) || N == 0 || N > 3600)
        return usage("--seconds takes an integer from 1 to 3600");
      Opts.Seconds = double(N);
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace takes 0 or 1");
      Opts.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--trace-out") {
      Opts.TracePath = V;
    } else if (A == "--source-id") {
      SourceId = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  std::vector<std::string> Workloads = {Opts.Workload};
  const bool All = Opts.Workload == "all";
  if (All)
    Workloads = workloadNames();

  std::printf("# source %s\n", SourceId.c_str());
  Result Total;
  Total.Correct = true;
  std::string Json;
  for (const std::string &W : Workloads) {
    Options One = Opts;
    One.Workload = W;
    if (All && !Opts.TracePath.empty())
      One.TracePath = Opts.TracePath + "." + W;
    Result R;
    std::string Error;
    if (!runBenchmark(One, stdout, R, Error)) {
      std::fflush(stdout);
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return 1;
    }
    Total.Correct = Total.Correct && R.Correct;
    Total.Attempted += R.Attempted;
    Total.Failed += R.Failed;
    for (const Metric &M : R.Metrics) {
      std::string Name = All ? W + "/" + M.Name : M.Name;
      Json += (Json.empty() ? "" : ", ") + ("\"" + Name + "\": {\"value\": ") +
              jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Total.Correct ? "true" : "false",
              static_cast<unsigned long long>(Total.Attempted),
              static_cast<unsigned long long>(Total.Failed), Json.c_str());
  return 0;
}
