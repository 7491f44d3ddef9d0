//===- abl_sample.cpp - Ablation: sampled vs instrumented capture -----------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// The case for the sampling profiler (--profile-mode sampled), on the 14
// AWFY benchmarks plus the three microservices:
//
//   (i)  capture cost — modeled run-time overhead of a sampled capture
//        (periodic samples on the *uninstrumented* production image) per
//        sample period, against the instrumented cu-mode trace run. At
//        the default period the sampled overhead must be at least 10x
//        lower (geomean across all workloads).
//
//   (ii) layout fidelity — first-run .text faults of images built from a
//        4-member sampled-merged profile set (staggered sample phases,
//        aggregated through the fleet pipeline) against images built from
//        the single clean instrumented run, for both --code
//        strategies. Sampled-merged must land within 10% of the
//        instrumented layout on all but at most two AWFY benchmarks per
//        strategy.
//
// Results land in BENCH_sample.json. `--smoke` keeps two AWFY benchmarks
// and one microservice.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"
#include "src/image/ImageFile.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace nimg;

namespace {

const uint64_t kPeriods[] = {512, TraceOptions::DefaultSamplePeriod, 8192};
constexpr size_t kNumPeriods = sizeof(kPeriods) / sizeof(kPeriods[0]);
constexpr size_t kDefaultIdx = 1;
/// Fleet size of the sampled-merged profile set; member i samples with
/// phase i * period / kFleet so the set covers the whole period.
constexpr size_t kFleet = 4;
constexpr uint64_t kBaseGen = 100;
/// Floor on the overhead denominator: a sampled run whose modeled cost
/// rounds to zero still yields a finite (and huge) ratio.
constexpr double kMinOverhead = 1e-4;
/// The fidelity contract: sampled-merged first-run faults within 10% of
/// the single instrumented run's layout.
constexpr double kFaultSlack = 1.10;

struct SampledPoint {
  uint64_t Period = 0;
  double OverheadFrac = 0; ///< time / base - 1
  uint64_t Samples = 0;
  uint64_t Skipped = 0;
  uint32_t CoveragePermille = 0;
};

struct StrategyFaults {
  uint64_t Instrumented = 0;
  uint64_t Sampled = 0;
  MergeOutcome Outcome = MergeOutcome::NotAttempted;
  size_t Quarantined = 0;
  bool Within = false;
};

struct Row {
  std::string Name;
  bool Micro = false;
  double BaseNs = 0;
  double InstrOverheadFrac = 0;
  SampledPoint Sweep[kNumPeriods];
  double RatioAtDefault = 0;
  bool HasFaults = false;
  StrategyFaults Faults[2]; ///< cu, method
};

const struct {
  CodeStrategy Strategy;
  const char *Name;
} kLegs[2] = {{CodeStrategy::CuOrder, "cu"},
              {CodeStrategy::MethodOrder, "method"}};
constexpr size_t kNumLegs = sizeof(kLegs) / sizeof(kLegs[0]);

/// Model time of one run: time-to-first-response for microservices,
/// end-to-end otherwise (the paper's measurement convention).
double modelTime(const RunStats &S, bool Micro) {
  return Micro && S.Responded ? S.TimeToFirstResponseNs : S.TimeNs;
}

uint64_t measureFaults(Program &P, const BuildConfig &Cfg, const RunConfig &Run,
                       MergeOutcome *OutcomeOut, size_t *QuarantinedOut) {
  NativeImage Img = buildNativeImage(P, Cfg);
  if (OutcomeOut)
    *OutcomeOut = Img.ProfileDiag.Merge.Outcome;
  if (QuarantinedOut)
    *QuarantinedOut =
        Img.ProfileDiag.Merge.countWithStatus(MergeMemberStatus::Quarantined);
  if (Img.Built.Failed)
    return 0;
  return runImage(Img, Run).TextFaults;
}

bool evalWorkload(const std::string &Name, bool Micro, const RunConfig &RunBase,
                  const RunConfig &RunFault, Row &R) {
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(
      Micro ? microserviceBenchmark(Name) : awfyBenchmark(Name), Errors);
  if (!P) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "error: %s\n", E.c_str());
    return false;
  }
  R.Name = Name;
  R.Micro = Micro;

  // The production image the sampler attaches to: uninstrumented, so the
  // sampled capture sees the real geometry (no probe-inflated inlining).
  BuildConfig BaseCfg;
  BaseCfg.Seed = 1;
  NativeImage BaseImg = buildNativeImage(*P, BaseCfg);
  if (BaseImg.Built.Failed)
    return false;

  RunConfig RC = RunBase;
  RC.StopAtFirstResponse = Micro;
  R.BaseNs = modelTime(runImage(BaseImg, RC), Micro);
  if (R.BaseNs <= 0)
    return false;

  // (i) Sampled capture cost per period, on the same image as the base
  // run — the only delta is the sampler itself.
  for (size_t I = 0; I < kNumPeriods; ++I) {
    TraceOptions TOpts;
    TOpts.Mode = TraceMode::Sampled;
    TOpts.SamplePeriod = kPeriods[I];
    TOpts.Dump = Micro ? DumpMode::MemoryMapped : DumpMode::FlushOnFull;
    RunConfig TRC = RC;
    TRC.Trace = &TOpts;
    RunStats S = runImage(BaseImg, TRC);
    R.Sweep[I].Period = kPeriods[I];
    R.Sweep[I].OverheadFrac = modelTime(S, Micro) / R.BaseNs - 1.0;
    R.Sweep[I].Samples = S.SamplesTaken;
    R.Sweep[I].Skipped = S.SampleEventsSkipped;
    R.Sweep[I].CoveragePermille = S.SampleCoveragePermille;
  }

  // Instrumented capture cost: the cu-mode trace run (the *cheapest* of
  // the instrumented modes, so the reported ratio is conservative) on the
  // instrumented build, against the same uninstrumented base time.
  {
    BuildConfig ICfg;
    ICfg.Seed = 1;
    ICfg.Instrumented = true;
    NativeImage InstrImg = buildNativeImage(*P, ICfg);
    if (InstrImg.Built.Failed)
      return false;
    TraceOptions TOpts;
    TOpts.Mode = TraceMode::CuOrder;
    TOpts.Dump = Micro ? DumpMode::MemoryMapped : DumpMode::FlushOnFull;
    RunConfig TRC = RC;
    TRC.Trace = &TOpts;
    R.InstrOverheadFrac = modelTime(runImage(InstrImg, TRC), Micro) / R.BaseNs - 1.0;
  }
  R.RatioAtDefault =
      std::max(R.InstrOverheadFrac, 0.0) /
      std::max(R.Sweep[kDefaultIdx].OverheadFrac, kMinOverhead);

  if (Micro)
    return true;

  // (ii) Layout fidelity, AWFY only: a 4-member sampled fleet (staggered
  // phases, default period) aggregated through the merge pipeline, vs the
  // single clean instrumented run. Each capture yields both a cu- and a
  // method-granularity member; both sets round-trip through CSV so the
  // sampled v2 header cells are exercised end to end.
  uint64_t Fp = programFingerprint(*P);
  std::vector<MemberProfile> CuMembers, MethodMembers;
  for (size_t I = 0; I < kFleet; ++I) {
    TraceOptions TOpts;
    TOpts.Mode = TraceMode::Sampled;
    TOpts.SamplePeriod = kPeriods[kDefaultIdx];
    TOpts.SamplePhase = I * TOpts.SamplePeriod / kFleet;
    RunConfig TRC = RC;
    TRC.Trace = &TOpts;
    TraceCapture Cap;
    RunStats S = runImage(BaseImg, TRC, &Cap);
    CodeProfile Pc = analyzeSampledCuOrder(*P, Cap);
    CodeProfile Pm = analyzeSampledMethodOrder(*P, Cap);
    for (CodeProfile *Q : {&Pc, &Pm}) {
      Q->Header.Fingerprint = Fp;
      Q->Header.Generation = kBaseGen + I;
      Q->Header.CoveragePermille =
          std::min(Q->Header.CoveragePermille, S.SampleCoveragePermille);
    }
    std::string MemberName = "samp" + std::to_string(I);
    CuMembers.push_back(loadMemberProfile(MemberName, Pc.toCsv()));
    MethodMembers.push_back(loadMemberProfile(MemberName, Pm.toCsv()));
  }

  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(*P, ProfCfg, RunFault);

  R.HasFaults = true;
  for (size_t L = 0; L < kNumLegs; ++L) {
    StrategyFaults &F = R.Faults[L];
    LayoutVariant V{.Code = kLegs[L].Strategy};
    F.Instrumented = measureFaults(*P, layoutConfig(V, Prof, 1), RunFault,
                                   nullptr, nullptr);
    const std::vector<MemberProfile> *Members =
        kLegs[L].Strategy == CodeStrategy::MethodOrder ? &MethodMembers
                                                       : &CuMembers;
    V.MergedMembers = true;
    F.Sampled = measureFaults(*P, layoutConfig(V, Prof, 1, Members), RunFault,
                              &F.Outcome, &F.Quarantined);
    F.Within = double(F.Sampled) <= kFaultSlack * double(F.Instrumented);
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = benchutil::smokeMode(Argc, Argv);

  RunConfig RunBase; // capture-overhead runs: default paging
  RunConfig RunFault;
  // Fidelity runs demand-fault every page (as in abl_merge): readahead
  // batching would alias small layout differences to zero.
  RunFault.Paging.ReadaheadPages = 1;

  std::vector<std::string> AwfyNames = awfyBenchmarkNames();
  std::vector<std::string> MicroNames = microserviceNames();
  if (Smoke) {
    if (AwfyNames.size() > 2)
      AwfyNames.resize(2);
    if (MicroNames.size() > 1)
      MicroNames.resize(1);
  }

  std::printf("Ablation — sampled vs instrumented capture\n\n");
  std::printf("modeled capture overhead (time/base - 1)\n");
  std::printf("%-12s %10s", "workload", "instr-cu");
  for (size_t I = 0; I < kNumPeriods; ++I)
    std::printf("   p=%-5llu", (unsigned long long)kPeriods[I]);
  std::printf(" %8s %8s\n", "ratio", "coverage");

  std::vector<Row> Rows;
  auto RunOne = [&](const std::string &Name, bool Micro) {
    Row R;
    if (!evalWorkload(Name, Micro, RunBase, RunFault, R))
      return;
    std::printf("%-12s %9.2f%%", R.Name.c_str(),
                R.InstrOverheadFrac * 100.0);
    for (size_t I = 0; I < kNumPeriods; ++I)
      std::printf("  %6.3f%%", R.Sweep[I].OverheadFrac * 100.0);
    std::printf(" %7.0fx %7u‰\n", R.RatioAtDefault,
                R.Sweep[kDefaultIdx].CoveragePermille);
    Rows.push_back(std::move(R));
  };
  for (const std::string &Name : AwfyNames)
    RunOne(Name, /*Micro=*/false);
  for (const std::string &Name : MicroNames)
    RunOne(Name, /*Micro=*/true);

  std::printf("\nfirst-run .text faults, sampled-merged (%zu members) vs "
              "single instrumented run\n",
              kFleet);
  std::printf("%-12s", "benchmark");
  for (const auto &Leg : kLegs)
    std::printf(" %9s-i %9s-s", Leg.Name, Leg.Name);
  std::printf("\n");
  for (const Row &R : Rows) {
    if (!R.HasFaults)
      continue;
    std::printf("%-12s", R.Name.c_str());
    for (const StrategyFaults &F : R.Faults)
      std::printf(" %11llu %10llu%c", (unsigned long long)F.Instrumented,
                  (unsigned long long)F.Sampled, F.Within ? ' ' : '!');
    std::printf("\n");
  }

  // --- The quality contract -------------------------------------------------
  std::vector<double> Ratios;
  for (const Row &R : Rows)
    Ratios.push_back(std::max(R.RatioAtDefault, 1e-3));
  double GeoRatio = geomean(Ratios);
  bool OverheadOk = GeoRatio >= 10.0;
  if (!OverheadOk)
    std::fprintf(stderr,
                 "FAIL: sampled overhead only %.1fx below instrumented at "
                 "period %llu (need >= 10x)\n",
                 GeoRatio, (unsigned long long)kPeriods[kDefaultIdx]);

  size_t FaultRows = 0;
  size_t WithinCount[kNumLegs] = {};
  for (const Row &R : Rows) {
    if (!R.HasFaults)
      continue;
    ++FaultRows;
    for (size_t L = 0; L < kNumLegs; ++L)
      if (R.Faults[L].Within)
        ++WithinCount[L];
  }
  size_t NeedWithin = FaultRows > 2 ? FaultRows - 2 : 0;
  bool FaultsOk = true;
  for (size_t L = 0; L < kNumLegs; ++L) {
    if (WithinCount[L] < NeedWithin) {
      FaultsOk = false;
      std::fprintf(stderr,
                   "FAIL: --code %s sampled-merged within %.0f%% on only "
                   "%zu of %zu AWFY benchmarks (need >= %zu)\n",
                   kLegs[L].Name, (kFaultSlack - 1.0) * 100.0,
                   WithinCount[L], FaultRows, NeedWithin);
    }
  }

  std::printf("\nsampled overhead at period %llu: %.0fx below instrumented "
              "(geomean; need >= 10x): %s\n",
              (unsigned long long)kPeriods[kDefaultIdx], GeoRatio,
              OverheadOk ? "ok" : "VIOLATED");
  for (size_t L = 0; L < kNumLegs; ++L)
    std::printf("--code %s: sampled-merged within 10%% on %zu of %zu\n",
                kLegs[L].Name, WithinCount[L], FaultRows);

  benchjson::writeBenchJson(
      "BENCH_sample.json", "abl_sample", [&](obs::JsonWriter &W) {
        W.member("smoke", Smoke);
        W.member("fleet_members", uint64_t(kFleet));
        W.member("default_period", kPeriods[kDefaultIdx]);
        W.key("workloads");
        W.beginArray();
        for (const Row &R : Rows) {
          W.beginObject();
          W.member("name", R.Name);
          W.member("kind", R.Micro ? "microservice" : "awfy");
          W.member("base_ns", R.BaseNs);
          W.member("instrumented_cu_overhead", R.InstrOverheadFrac);
          W.key("sampled");
          W.beginArray();
          for (size_t I = 0; I < kNumPeriods; ++I) {
            W.beginObject();
            W.member("period", R.Sweep[I].Period);
            W.member("overhead", R.Sweep[I].OverheadFrac);
            W.member("samples", R.Sweep[I].Samples);
            W.member("events_skipped", R.Sweep[I].Skipped);
            W.member("coverage_permille",
                     uint64_t(R.Sweep[I].CoveragePermille));
            W.endObject();
          }
          W.endArray();
          W.member("overhead_ratio_at_default", R.RatioAtDefault);
          if (R.HasFaults) {
            W.key("faults");
            W.beginObject();
            for (size_t L = 0; L < kNumLegs; ++L) {
              W.key(kLegs[L].Name);
              W.beginObject();
              W.member("instrumented", R.Faults[L].Instrumented);
              W.member("sampled_merged", R.Faults[L].Sampled);
              W.member("outcome", mergeOutcomeName(R.Faults[L].Outcome));
              W.member("quarantined", uint64_t(R.Faults[L].Quarantined));
              W.member("within", R.Faults[L].Within);
              W.endObject();
            }
            W.endObject();
          }
          W.endObject();
        }
        W.endArray();
        W.member("overhead_ratio_geomean", GeoRatio);
        W.member("overhead_contract_ok", OverheadOk);
        W.key("within_counts");
        W.beginObject();
        for (size_t L = 0; L < kNumLegs; ++L)
          W.member(kLegs[L].Name, uint64_t(WithinCount[L]));
        W.endObject();
        W.member("fault_rows", uint64_t(FaultRows));
        W.member("faults_contract_ok", FaultsOk);
      });
  return OverheadOk && FaultsOk ? 0 : 1;
}
