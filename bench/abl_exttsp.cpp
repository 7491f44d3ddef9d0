//===- abl_exttsp.cpp - Ablation: ext-TSP hot-fragment block reordering -----===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Sweeps --blocks exttsp against --blocks none (both under --split hotcold)
// across all three code strategies (cu / method / cluster) on the 14 AWFY
// benchmarks. For each benchmark it reports the ext-TSP objective uplift
// of the emitted block order over block index order, the modeled
// taken-branch weight and weighted jump distance before/after, and
// first-run .text faults on a cold cache. Reordering happens *within*
// fragments the runtime touches wholesale on method entry, so faults must
// be bit-identical to --blocks none on every (benchmark, strategy) pair —
// asserted, and a violation fails the driver. Results land in
// BENCH_exttsp.json.
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
  ExtTspSummary Tsp;
};

Measured measure(Program &P, const BuildConfig &Cfg, const RunConfig &Run) {
  NativeImage Img = buildNativeImage(P, Cfg);
  Measured M;
  if (Img.Built.Failed)
    return M;
  RunStats Stats = runImage(Img, Run);
  M.TextFaults = Stats.TextFaults;
  M.ColdFaults = Stats.TextColdFaults;
  M.Tsp = Img.Split.ExtTsp;
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = benchutil::smokeMode(Argc, Argv);
  RunConfig Run;
  // Same geometry as abl_split: demand-fault every page so the layout
  // effect isn't aliased away by readahead batching.
  Run.Paging.ReadaheadPages = 1;

  const CodeStrategy Strategies[] = {CodeStrategy::CuOrder,
                                     CodeStrategy::MethodOrder,
                                     CodeStrategy::Cluster};

  struct Row {
    std::string Name;
    Measured None[3];
    Measured Tsp[3];
    bool UpliftPositive = false; ///< Any strategy's score strictly improved.
  };
  std::vector<Row> Rows;
  size_t UpliftCount = 0;
  size_t FaultsNoWorse[3] = {0, 0, 0};
  bool FaultsOk = true;

  std::vector<std::string> Names = awfyBenchmarkNames();
  if (Smoke && Names.size() > 2)
    Names.resize(2);

  std::printf("Ablation — ext-TSP block reordering inside hot fragments "
              "(vs block index order, both split hotcold)\n");
  std::printf("%-12s %9s %9s %9s %9s %9s %7s\n", "benchmark", "score",
              "+exttsp", "taken", "+exttsp", "jumpdist", "reord");

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
    for (size_t S = 0; S < 3; ++S) {
      LayoutVariant V{.Code = Strategies[S], .Split = SplitMode::HotCold};
      R.None[S] = measure(*P, layoutConfig(V, Prof, 1), Run);
      V.Blocks = BlockOrderMode::ExtTsp;
      R.Tsp[S] = measure(*P, layoutConfig(V, Prof, 1), Run);
      if (R.Tsp[S].Tsp.ScoreAfter > R.Tsp[S].Tsp.ScoreBefore)
        R.UpliftPositive = true;
      // Fault neutrality: method entry touches the whole hot fragment, so
      // an intra-fragment reorder cannot change what faults. Anything
      // else is a bug in the reorderer's accounting.
      if (R.Tsp[S].TextFaults <= R.None[S].TextFaults) {
        ++FaultsNoWorse[S];
      } else {
        FaultsOk = false;
        std::fprintf(stderr,
                     "FAIL: %s/%s exttsp text faults %llu exceed none %llu\n",
                     Name.c_str(), codeStrategyName(Strategies[S]),
                     (unsigned long long)R.Tsp[S].TextFaults,
                     (unsigned long long)R.None[S].TextFaults);
      }
    }
    if (R.UpliftPositive)
      ++UpliftCount;
    // The summary line shows the method-strategy build (the one whose
    // profile the edge counts rode in on); the JSON carries all three.
    const ExtTspSummary &T = R.Tsp[1].Tsp;
    std::printf("%-12s %9.1f %9.1f %9llu %9llu %8.0f %7u\n", Name.c_str(),
                T.ScoreBefore, T.ScoreAfter,
                (unsigned long long)T.TakenBefore,
                (unsigned long long)T.TakenAfter, T.JumpDistanceAfter,
                T.ReorderedCus);
    Rows.push_back(std::move(R));
  }

  std::printf("\next-TSP score uplift > 0 on %zu of %zu benchmarks\n",
              UpliftCount, Rows.size());
  for (size_t S = 0; S < 3; ++S)
    std::printf("  %-8s faults no worse than --blocks none on %zu of %zu\n",
                codeStrategyName(Strategies[S]), FaultsNoWorse[S], Rows.size());

  benchjson::writeBenchJson(
      "BENCH_exttsp.json", "abl_exttsp", [&](obs::JsonWriter &W) {
        W.member("smoke", Smoke);
        W.key("benchmarks");
        W.beginArray();
        for (const Row &R : Rows) {
          W.beginObject();
          W.member("name", R.Name);
          W.member("uplift_positive", R.UpliftPositive);
          for (size_t S = 0; S < 3; ++S) {
            std::string Prefix = codeStrategyName(Strategies[S]);
            const ExtTspSummary &T = R.Tsp[S].Tsp;
            W.member(Prefix + "_text_faults", R.None[S].TextFaults);
            W.member(Prefix + "_exttsp_text_faults", R.Tsp[S].TextFaults);
            W.member(Prefix + "_score_index", T.ScoreBefore);
            W.member(Prefix + "_score_exttsp", T.ScoreAfter);
            W.member(Prefix + "_taken_weight_index", T.TakenBefore);
            W.member(Prefix + "_taken_weight_exttsp", T.TakenAfter);
            W.member(Prefix + "_jump_distance_index", T.JumpDistanceBefore);
            W.member(Prefix + "_jump_distance_exttsp", T.JumpDistanceAfter);
            W.member(Prefix + "_cus_reordered", uint64_t(T.ReorderedCus));
            W.member(Prefix + "_cus_degraded", uint64_t(T.DegradedCus));
            W.member(Prefix + "_chain_merges", T.ChainMerges);
          }
          W.endObject();
        }
        W.endArray();
        for (size_t S = 0; S < 3; ++S)
          W.member(std::string(codeStrategyName(Strategies[S])) +
                       "_faults_le_none_count",
                   uint64_t(FaultsNoWorse[S]));
        W.member("uplift_positive_count", uint64_t(UpliftCount));
        W.member("benchmark_count", uint64_t(Rows.size()));
        W.member("faults_ok", FaultsOk);
      });

  // The full sweep enforces the acceptance bar; smoke only sanity-checks
  // the harness shape.
  bool UpliftOk = Smoke || Rows.size() < 14 || UpliftCount * 14 >= 12 * 14;
  if (!UpliftOk)
    std::fprintf(stderr, "FAIL: uplift > 0 on only %zu of %zu benchmarks\n",
                 UpliftCount, Rows.size());
  return (FaultsOk && UpliftOk) ? 0 : 1;
}
