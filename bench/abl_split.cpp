//===- abl_split.cpp - Ablation: hot/cold CU splitting ----------------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Sweeps --split hotcold against unsplit builds across both code
// strategies (cu / method) on the 14 AWFY benchmarks. For each
// (benchmark, strategy) pair it measures first-run .text faults on a cold
// cache and the run's resident .text working set (pages faulted or
// prefetched). Splitting exiles never-executed blocks to the cold tail, so
// it should reduce first-run faults on most benchmarks and must never grow
// the working set beyond the stub-byte overhead (plus page-rounding
// slack) — the latter is asserted and fails the driver. Results land in
// BENCH_split.json.
//
// `--smoke` runs two benchmarks only (CI sanity of the harness + JSON).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include <cstdio>

using namespace nimg;

namespace {

struct Measured {
  uint64_t TextFaults = 0;
  uint64_t ColdFaults = 0;
  uint64_t TouchedPages = 0; ///< Resident .text pages after the run.
  uint32_t SplitCus = 0;
  uint32_t DegradedCus = 0;
  uint64_t StubBytes = 0;
  uint32_t PageSize = 4096;
};

uint64_t touchedPages(const std::vector<PageState> &Pages) {
  uint64_t N = 0;
  for (PageState S : Pages)
    if (S != PageState::Untouched)
      ++N;
  return N;
}

Measured measure(Program &P, const BuildConfig &Cfg, const RunConfig &Run) {
  NativeImage Img = buildNativeImage(P, Cfg);
  Measured M;
  if (Img.Built.Failed)
    return M;
  RunStats Stats = runImage(Img, Run);
  M.TextFaults = Stats.TextFaults;
  M.ColdFaults = Stats.TextColdFaults;
  M.TouchedPages = touchedPages(Stats.TextPages);
  M.SplitCus = Img.Split.SplitCus;
  M.DegradedCus = Img.Split.DegradedCus;
  M.StubBytes = Img.Split.StubBytes;
  M.PageSize = Img.Layout.PageSize;
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = benchutil::smokeMode(Argc, Argv);
  RunConfig Run;
  // Readahead batches 4 pages per fault, which aliases sub-cluster layout
  // savings to zero. The ablation isolates the layout effect: every page
  // is demand-faulted, so one fault == one 4 KiB page. The working-set
  // bound below is granularity-independent (resident pages, not faults).
  Run.Paging.ReadaheadPages = 1;

  const CodeStrategy Strategies[] = {CodeStrategy::CuOrder,
                                     CodeStrategy::MethodOrder};
  constexpr size_t NumStrategies = sizeof(Strategies) / sizeof(Strategies[0]);

  struct Row {
    std::string Name;
    Measured Unsplit[NumStrategies];
    Measured Split[NumStrategies];
  };
  std::vector<Row> Rows;
  size_t NoWorse[NumStrategies] = {};
  size_t Reduced[NumStrategies] = {};
  bool WorkingSetOk = true;

  std::vector<std::string> Names = awfyBenchmarkNames();
  if (Smoke && Names.size() > 2)
    Names.resize(2);

  std::printf("Ablation — hot/cold CU splitting, first-run .text faults "
              "(cold cache)\n");
  std::printf("%-12s", "benchmark");
  for (CodeStrategy S : Strategies)
    std::printf(" %9s %9s %5s", codeStrategyName(S), "+split", "cold");
  std::printf("\n");

  for (const std::string &Name : Names) {
    std::vector<std::string> Errors;
    std::unique_ptr<Program> P = compileBenchmark(awfyBenchmark(Name), Errors);
    if (!P) {
      for (const std::string &E : Errors)
        std::fprintf(stderr, "error: %s\n", E.c_str());
      continue;
    }
    BuildConfig ProfCfg;
    ProfCfg.Seed = 1001;
    CollectedProfiles Prof = collectProfiles(*P, ProfCfg, Run);

    Row R;
    R.Name = Name;
    std::printf("%-12s", Name.c_str());
    for (size_t S = 0; S < NumStrategies; ++S) {
      LayoutVariant V{.Code = Strategies[S]};
      R.Unsplit[S] = measure(*P, layoutConfig(V, Prof, 1), Run);
      V.Split = SplitMode::HotCold;
      R.Split[S] = measure(*P, layoutConfig(V, Prof, 1), Run);
      if (R.Split[S].TextFaults <= R.Unsplit[S].TextFaults)
        ++NoWorse[S];
      if (R.Split[S].TextFaults < R.Unsplit[S].TextFaults)
        ++Reduced[S];
      // Working-set bound: the split image may grow the complete-run
      // resident set only by its stub bytes plus page-rounding slack (the
      // cold tail starts on a fresh page; readahead granularity adds a
      // cluster's worth of noise on each side).
      uint64_t StubPages =
          R.Split[S].StubBytes / R.Split[S].PageSize + 1;
      if (R.Split[S].TouchedPages >
          R.Unsplit[S].TouchedPages + StubPages + 4) {
        WorkingSetOk = false;
        std::fprintf(stderr,
                     "FAIL: %s/%s split working set %llu pages exceeds "
                     "unsplit %llu + stub bound\n",
                     Name.c_str(), codeStrategyName(Strategies[S]),
                     (unsigned long long)R.Split[S].TouchedPages,
                     (unsigned long long)R.Unsplit[S].TouchedPages);
      }
      std::printf(" %9llu %9llu %5llu",
                  (unsigned long long)R.Unsplit[S].TextFaults,
                  (unsigned long long)R.Split[S].TextFaults,
                  (unsigned long long)R.Split[S].ColdFaults);
    }
    std::printf("\n");
    Rows.push_back(std::move(R));
  }

  std::printf("\nfirst-run .text faults, split vs unsplit:\n");
  for (size_t S = 0; S < NumStrategies; ++S)
    std::printf("  %-8s reduced on %zu of %zu benchmarks, no worse on %zu\n",
                codeStrategyName(Strategies[S]), Reduced[S], Rows.size(),
                NoWorse[S]);
  std::printf("working-set bound: %s\n", WorkingSetOk ? "ok" : "VIOLATED");

  benchjson::writeBenchJson(
      "BENCH_split.json", "abl_split", [&](obs::JsonWriter &W) {
        W.member("smoke", Smoke);
        W.key("benchmarks");
        W.beginArray();
        for (const Row &R : Rows) {
          W.beginObject();
          W.member("name", R.Name);
          for (size_t S = 0; S < NumStrategies; ++S) {
            std::string Prefix = codeStrategyName(Strategies[S]);
            W.member(Prefix + "_text_faults", R.Unsplit[S].TextFaults);
            W.member(Prefix + "_split_text_faults", R.Split[S].TextFaults);
            W.member(Prefix + "_split_cold_faults", R.Split[S].ColdFaults);
            W.member(Prefix + "_pages", R.Unsplit[S].TouchedPages);
            W.member(Prefix + "_split_pages", R.Split[S].TouchedPages);
            W.member(Prefix + "_cus_split", uint64_t(R.Split[S].SplitCus));
            W.member(Prefix + "_cus_degraded",
                     uint64_t(R.Split[S].DegradedCus));
            W.member(Prefix + "_stub_bytes", R.Split[S].StubBytes);
          }
          W.endObject();
        }
        W.endArray();
        for (size_t S = 0; S < NumStrategies; ++S) {
          W.member(std::string(codeStrategyName(Strategies[S])) +
                       "_split_le_unsplit_count",
                   uint64_t(NoWorse[S]));
          W.member(std::string(codeStrategyName(Strategies[S])) +
                       "_split_lt_unsplit_count",
                   uint64_t(Reduced[S]));
        }
        W.member("benchmark_count", uint64_t(Rows.size()));
        W.member("working_set_bound_ok", WorkingSetOk);
      });
  return WorkingSetOk ? 0 : 1;
}
