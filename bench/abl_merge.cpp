//===- abl_merge.cpp - Ablation: fleet profile aggregation ------------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Measures the layout quality of fleet-aggregated profiles against the
// single clean instrumented run on the 14 AWFY benchmarks, under
// increasing member damage. Each benchmark gets an 8-member profile set
// (one clean cu capture re-stamped to generations 100..107); the sweep
// faults the first k members (k = 0, 2, 4, 6, 8) with a deterministic
// cycle of quarantine-guaranteed kinds (truncation, version skew, stale
// generation, coverage collapse), plus one all-truncated set to hit the
// ladder bottom. Asserted and failing the driver:
//
//   * at k = 0 the merged layout is no worse than the single clean run,
//   * first-run .text faults are monotone non-decreasing in k,
//   * no merged/degraded build is ever worse than the profile-less
//     default layout (the ladder's fallback).
//
// Results land in BENCH_merge.json. `--smoke` runs two benchmarks only.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"
#include "src/support/FaultInjection.h"

#include <cstdio>

using namespace nimg;

namespace {

constexpr size_t kMembers = 8;
constexpr uint64_t kBaseGen = 100;
const size_t kSweep[] = {0, 2, 4, 6, 8};

/// One clean member text: the corpus cu profile re-stamped to \p Gen.
std::string stampedCsv(const CodeProfile &Cu, uint64_t Gen) {
  CodeProfile P = Cu;
  P.Header.Generation = Gen;
  return P.toCsv();
}

/// The 8-member set with the first \p Damaged members faulted. The kind
/// cycle contains only kinds the aggregator quarantines deterministically
/// (a member that *correctly* survives — e.g. an equally-stale fleet —
/// would make the quality curve a statement about luck, not the ladder).
std::vector<MemberProfile> memberSet(const CodeProfile &Cu, size_t Damaged,
                                     uint64_t Seed) {
  const MemberFault Kinds[] = {
      MemberFault::TruncateCsv, MemberFault::VersionSkew,
      MemberFault::StaleGeneration, MemberFault::CoverageCollapse};
  FaultInjector Inj(Seed);
  std::vector<MemberProfile> Members;
  for (size_t I = 0; I < kMembers; ++I) {
    std::string Text = stampedCsv(Cu, kBaseGen + I);
    if (I < Damaged)
      Inj.applyMemberFault(Text, Kinds[I % 4], kBaseGen + kMembers - 1);
    Members.push_back(loadMemberProfile("inst" + std::to_string(I), Text));
  }
  return Members;
}

struct Measured {
  uint64_t TextFaults = 0;
  MergeOutcome Outcome = MergeOutcome::NotAttempted;
  size_t Quarantined = 0;
};

Measured measure(Program &P, const BuildConfig &Cfg, const RunConfig &Run) {
  NativeImage Img = buildNativeImage(P, Cfg);
  Measured M;
  if (Img.Built.Failed)
    return M;
  RunStats Stats = runImage(Img, Run);
  M.TextFaults = Stats.TextFaults;
  M.Outcome = Img.ProfileDiag.Merge.Outcome;
  M.Quarantined =
      Img.ProfileDiag.Merge.countWithStatus(MergeMemberStatus::Quarantined);
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = benchutil::smokeMode(Argc, Argv);
  RunConfig Run;
  // Demand-fault every page (as in abl_split): readahead batching would
  // alias small layout differences to zero and hide real regressions.
  Run.Paging.ReadaheadPages = 1;

  struct Row {
    std::string Name;
    uint64_t BaselineFaults = 0; ///< Default layout, no profile at all.
    uint64_t SingleFaults = 0;   ///< The one clean instrumented run.
    Measured Sweep[5];           ///< k = 0, 2, 4, 6, 8 damaged members.
    Measured AllDead;            ///< Every member truncated: ladder bottom.
  };
  std::vector<Row> Rows;
  size_t MergedLeSingle = 0;
  bool MonotoneOk = true, NeverWorseThanDefaultOk = true;

  std::vector<std::string> Names = awfyBenchmarkNames();
  if (Smoke && Names.size() > 2)
    Names.resize(2);

  std::printf("Ablation — fleet profile aggregation, first-run .text faults "
              "(cold cache)\n");
  std::printf("%-12s %9s %9s", "benchmark", "default", "single");
  for (size_t K : kSweep)
    std::printf("   k=%zu", K);
  std::printf("   dead\n");

  uint64_t Seed = 11;
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
    const LayoutVariant Merged{.Code = CodeStrategy::CuOrder,
                               .MergedMembers = true};
    R.BaselineFaults = measure(*P, layoutConfig({}, Prof, 1), Run).TextFaults;
    R.SingleFaults =
        measure(*P, layoutConfig({.Code = CodeStrategy::CuOrder}, Prof, 1), Run)
            .TextFaults;

    std::printf("%-12s %9llu %9llu", Name.c_str(),
                (unsigned long long)R.BaselineFaults,
                (unsigned long long)R.SingleFaults);
    for (size_t S = 0; S < 5; ++S) {
      std::vector<MemberProfile> Members =
          memberSet(Prof.Cu, kSweep[S], Seed + S);
      R.Sweep[S] = measure(*P, layoutConfig(Merged, Prof, 1, &Members), Run);
      std::printf(" %5llu", (unsigned long long)R.Sweep[S].TextFaults);
    }
    {
      // All eight members truncated: nothing survives, the ladder bottoms
      // out on the profile-less default layout.
      FaultInjector Inj(Seed + 5);
      std::vector<MemberProfile> Members;
      for (size_t I = 0; I < kMembers; ++I) {
        std::string Text = stampedCsv(Prof.Cu, kBaseGen + I);
        Inj.applyMemberFault(Text, MemberFault::TruncateCsv, 0);
        Members.push_back(
            loadMemberProfile("inst" + std::to_string(I), Text));
      }
      R.AllDead = measure(*P, layoutConfig(Merged, Prof, 1, &Members), Run);
      std::printf(" %6llu", (unsigned long long)R.AllDead.TextFaults);
    }
    std::printf("\n");
    Seed += 16;

    // --- The quality contract -----------------------------------------------
    if (R.Sweep[0].TextFaults <= R.SingleFaults)
      ++MergedLeSingle;
    else
      std::fprintf(stderr,
                   "FAIL: %s merged (clean) %llu faults > single %llu\n",
                   Name.c_str(),
                   (unsigned long long)R.Sweep[0].TextFaults,
                   (unsigned long long)R.SingleFaults);
    for (size_t S = 1; S < 5; ++S)
      if (R.Sweep[S].TextFaults < R.Sweep[S - 1].TextFaults) {
        // Degradation must be monotone: more damage, never fewer faults
        // (equality is the expected flat region while quarantine holds).
        MonotoneOk = false;
        std::fprintf(stderr, "FAIL: %s not monotone at k=%zu\n",
                     Name.c_str(), kSweep[S]);
      }
    for (const Measured &M : R.Sweep)
      if (M.TextFaults > R.BaselineFaults) {
        NeverWorseThanDefaultOk = false;
        std::fprintf(stderr,
                     "FAIL: %s degraded below the default layout\n",
                     Name.c_str());
      }
    if (R.AllDead.TextFaults > R.BaselineFaults)
      NeverWorseThanDefaultOk = false;

    Rows.push_back(std::move(R));
  }

  std::printf("\nmerged (0%% damage) <= single clean on %zu of %zu "
              "benchmarks\n",
              MergedLeSingle, Rows.size());
  std::printf("monotone degradation: %s; never worse than default: %s\n",
              MonotoneOk ? "ok" : "VIOLATED",
              NeverWorseThanDefaultOk ? "ok" : "VIOLATED");

  benchjson::writeBenchJson(
      "BENCH_merge.json", "abl_merge", [&](obs::JsonWriter &W) {
        W.member("smoke", Smoke);
        W.member("members", uint64_t(kMembers));
        W.key("benchmarks");
        W.beginArray();
        for (const Row &R : Rows) {
          W.beginObject();
          W.member("name", R.Name);
          W.member("default_text_faults", R.BaselineFaults);
          W.member("single_text_faults", R.SingleFaults);
          W.key("sweep");
          W.beginArray();
          for (size_t S = 0; S < 5; ++S) {
            W.beginObject();
            W.member("damaged", uint64_t(kSweep[S]));
            W.member("text_faults", R.Sweep[S].TextFaults);
            W.member("outcome", mergeOutcomeName(R.Sweep[S].Outcome));
            W.member("quarantined", uint64_t(R.Sweep[S].Quarantined));
            W.endObject();
          }
          W.endArray();
          W.member("all_dead_text_faults", R.AllDead.TextFaults);
          W.member("all_dead_outcome", mergeOutcomeName(R.AllDead.Outcome));
          W.endObject();
        }
        W.endArray();
        W.member("merged_le_single_count", uint64_t(MergedLeSingle));
        W.member("benchmark_count", uint64_t(Rows.size()));
        W.member("monotone_ok", MonotoneOk);
        W.member("never_worse_than_default_ok", NeverWorseThanDefaultOk);
      });
  bool Ok = MergedLeSingle == Rows.size() && MonotoneOk &&
            NeverWorseThanDefaultOk;
  return Ok ? 0 : 1;
}
