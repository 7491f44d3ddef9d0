//===- SampleTest.cpp - Sampling profiler mode tests -------------------------===//
//
// The sampled capture pipeline end to end: deterministic model-clock
// sampling with the novelty buffer, rank reconstruction at cu and method
// granularity, the sampled v2 header cells (and the instrumented header
// staying byte-identical), prefix salvage of truncated sampled payloads,
// the aggregator's sampled gates (coverage floor, implausible period,
// expected mode), and the sampled collectProfiles flow with its
// documented degradations. This binary carries the "sample" ctest label.
//
//===----------------------------------------------------------------------===//

#include "src/core/Builder.h"
#include "src/image/ImageFile.h"
#include "src/ir/IrBuilder.h"
#include "src/lang/Compile.h"
#include "src/profiling/Aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace nimg;

namespace {

/// Two trivial static methods for record-level tests (each is its own CU
/// root when replayed through synthetic captures).
struct Fixture {
  Program P;
  MethodId A, B;

  Fixture() {
    ClassId C = P.addClass("T");
    A = add(C, "aa");
    B = add(C, "bb");
  }

  MethodId add(ClassId C, const char *Name) {
    MethodId M = P.addMethod(C, Name, {}, P.intType(), true);
    IrBuilder Bld(P, M);
    Bld.ret(Bld.constInt(1));
    return M;
  }

  TraceCapture capture(std::initializer_list<std::pair<MethodId, MethodId>>
                           Samples,
                       uint64_t Period = 2048) {
    TraceCapture Cap;
    Cap.Options.Mode = TraceMode::Sampled;
    Cap.Options.SamplePeriod = Period;
    Cap.Threads.resize(1);
    for (const auto &S : Samples)
      Cap.Threads[0].Words.push_back(tracerec::makeSample(S.first, S.second));
    return Cap;
  }
};

const char *kWorkload = R"(
class Worker {
  static int step(int x) { return x * 3 + 1; }
  static int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + step(i); }
    return acc;
  }
}
class Other {
  static int twist(int x) { return x - 7; }
}
class Main {
  static int main() {
    int a = Worker.spin(4000);
    int b = Other.twist(a);
    Sys.print("" + (a + b));
    return 0;
  }
}
)";

/// A sampled member with chosen header stamps, round-tripped through the
/// CSV interchange like a file off disk.
MemberProfile makeSampledMember(std::string Name,
                                std::vector<std::string> Sigs,
                                uint64_t Period = 2048, uint32_t Cov = 800,
                                uint64_t Gen = 0,
                                TraceMode Mode = TraceMode::CuOrder) {
  CodeProfile P;
  P.Header.Mode = Mode;
  P.Header.Capture = CaptureKind::Sampled;
  P.Header.SamplePeriod = Period;
  P.Header.CoveragePermille = Cov;
  P.Header.Generation = Gen;
  P.Sigs = std::move(Sigs);
  return loadMemberProfile(std::move(Name), P.toCsv());
}

const MergeMemberReport *reportFor(const MergeManifest &M,
                                   const std::string &Name) {
  for (const MergeMemberReport &R : M.Members)
    if (R.Name == Name)
      return &R;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// The sampled run: model-clock ticks, novelty buffer, coverage estimate.
//===----------------------------------------------------------------------===//

TEST(SampledRun, TakesPeriodicSamplesOnUninstrumentedImage) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({kWorkload}, P, Errors));
  BuildConfig Cfg;
  Cfg.Seed = 1;
  NativeImage Img = buildNativeImage(P, Cfg); // no instrumentation
  ASSERT_FALSE(Img.Built.Failed);

  TraceOptions TOpts;
  TOpts.Mode = TraceMode::Sampled;
  TOpts.SamplePeriod = 512;
  RunConfig RC;
  RC.Trace = &TOpts;
  TraceCapture Cap;
  RunStats S = runImage(Img, RC, &Cap);
  EXPECT_GT(S.SamplesTaken, 0u);
  EXPECT_GT(S.SampleEventsSkipped, 0u);
  EXPECT_EQ(S.SamplePeriod, 512u);
  // Every record costs probe units; nothing else does in sampled mode.
  EXPECT_GT(S.ProbeUnits, 0u);
  EXPECT_EQ(S.ProbeUnits % S.SamplesTaken == 0 ||
                S.ProbeUnits / S.SamplesTaken >= 1,
            true);
  // The novelty buffer flushes first-entered roots at the next tick, so
  // nearly every entered root is sampled (only a post-final-tick tail can
  // be missing).
  EXPECT_GE(S.SampleCoveragePermille, 900u);
  EXPECT_LE(S.SampleCoveragePermille, 1000u);
  size_t Words = 0;
  for (const auto &T : Cap.Threads)
    Words += T.Words.size();
  EXPECT_EQ(Words, S.SamplesTaken);
}

TEST(SampledRun, DeterministicAcrossIdenticalRuns) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({kWorkload}, P, Errors));
  BuildConfig Cfg;
  Cfg.Seed = 1;
  NativeImage Img = buildNativeImage(P, Cfg);
  ASSERT_FALSE(Img.Built.Failed);

  auto Capture = [&](uint64_t Phase) {
    TraceOptions TOpts;
    TOpts.Mode = TraceMode::Sampled;
    TOpts.SamplePeriod = 512;
    TOpts.SamplePhase = Phase;
    RunConfig RC;
    RC.Trace = &TOpts;
    TraceCapture Cap;
    runImage(Img, RC, &Cap);
    return Cap;
  };
  TraceCapture First = Capture(0), Second = Capture(0);
  ASSERT_EQ(First.Threads.size(), Second.Threads.size());
  for (size_t T = 0; T < First.Threads.size(); ++T)
    EXPECT_EQ(First.Threads[T].Words, Second.Threads[T].Words);
}

TEST(SampledRun, CoarserPeriodTakesFewerTickSamples) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({kWorkload}, P, Errors));
  BuildConfig Cfg;
  Cfg.Seed = 1;
  NativeImage Img = buildNativeImage(P, Cfg);
  ASSERT_FALSE(Img.Built.Failed);

  auto Count = [&](uint64_t Period) {
    TraceOptions TOpts;
    TOpts.Mode = TraceMode::Sampled;
    TOpts.SamplePeriod = Period;
    RunConfig RC;
    RC.Trace = &TOpts;
    return runImage(Img, RC).SamplesTaken;
  };
  // Novelty records are period-independent, tick samples halve; the total
  // must drop strictly when the period quadruples.
  EXPECT_GT(Count(256), Count(1024));
}

//===----------------------------------------------------------------------===//
// Rank reconstruction from sample records.
//===----------------------------------------------------------------------===//

TEST(SampledAnalysis, CuRanksByEarliestSampleWithHitCounts) {
  Fixture F;
  TraceCapture Cap = F.capture({{F.B, F.B}, {F.A, F.A}, {F.B, F.B}});
  CodeProfile Prof = analyzeSampledCuOrder(F.P, Cap);
  ASSERT_EQ(Prof.Sigs.size(), 2u);
  EXPECT_EQ(Prof.Sigs[0], "T.bb()");
  EXPECT_EQ(Prof.Sigs[1], "T.aa()");
  ASSERT_EQ(Prof.Counts.size(), 2u);
  EXPECT_EQ(Prof.Counts[0], 2u);
  EXPECT_EQ(Prof.Counts[1], 1u);
  EXPECT_EQ(Prof.Header.Mode, TraceMode::CuOrder);
  EXPECT_EQ(Prof.Header.Capture, CaptureKind::Sampled);
  EXPECT_EQ(Prof.Header.SamplePeriod, 2048u);
}

TEST(SampledAnalysis, MethodGranularityUsesSampledMethodNotRoot) {
  Fixture F;
  // Method A sampled while inlined under root B.
  TraceCapture Cap = F.capture({{F.A, F.B}});
  CodeProfile Method = analyzeSampledMethodOrder(F.P, Cap);
  ASSERT_EQ(Method.Sigs.size(), 1u);
  EXPECT_EQ(Method.Sigs[0], "T.aa()");
  EXPECT_EQ(Method.Header.Mode, TraceMode::MethodOrder);
  CodeProfile Cu = analyzeSampledCuOrder(F.P, Cap);
  ASSERT_EQ(Cu.Sigs.size(), 1u);
  EXPECT_EQ(Cu.Sigs[0], "T.bb()");
}

//===----------------------------------------------------------------------===//
// The sampled v2 header cells.
//===----------------------------------------------------------------------===//

TEST(SampledCsv, CaptureCellsRoundTrip) {
  Fixture F;
  CodeProfile Prof =
      analyzeSampledCuOrder(F.P, F.capture({{F.A, F.A}}, /*Period=*/1024));
  Prof.Header.CoveragePermille = 640;
  std::string Csv = Prof.toCsv();
  EXPECT_NE(Csv.find(",sampled,1024\n"), std::string::npos);

  ProfileReadReport Read;
  CodeProfile Back = CodeProfile::fromCsv(Csv, &Read);
  EXPECT_EQ(Back.LoadError, ProfileError::None);
  EXPECT_EQ(Back.Header.Capture, CaptureKind::Sampled);
  EXPECT_EQ(Back.Header.SamplePeriod, 1024u);
  EXPECT_EQ(Back.Header.CoveragePermille, 640u);
  EXPECT_EQ(Back.Sigs, Prof.Sigs);
}

TEST(SampledCsv, InstrumentedHeaderStaysByteIdentical) {
  // The capture cells are emitted only for sampled profiles: an
  // instrumented header keeps its eight cells so pre-sampling readers
  // (and CRC-exact fleet tooling) see unchanged bytes.
  CodeProfile P;
  P.Header.Mode = TraceMode::CuOrder;
  P.Sigs = {"x"};
  std::string Csv = P.toCsv();
  std::string Header = Csv.substr(0, Csv.find('\n'));
  EXPECT_EQ(std::count(Header.begin(), Header.end(), ','), 7);
  EXPECT_EQ(Header.find("sampled"), std::string::npos);
}

TEST(SampledCsv, TruncatedSampledPayloadSalvagesToPrefix) {
  Fixture F;
  CodeProfile Prof = analyzeSampledCuOrder(
      F.P, F.capture({{F.A, F.A}, {F.B, F.B}}, /*Period=*/2048));
  std::string Csv = Prof.toCsv();
  // Cut the payload mid-way: CRC no longer matches, the final row is
  // gone, but the surviving prefix is intact.
  std::string Cut = Csv.substr(0, Csv.rfind("T.bb()"));
  ProfileReadReport Read;
  CodeProfile Back = CodeProfile::fromCsv(Cut, &Read);
  EXPECT_EQ(Back.LoadError, ProfileError::None);
  EXPECT_TRUE(Read.PrefixSalvaged);
  ASSERT_EQ(Back.Sigs.size(), 1u);
  EXPECT_EQ(Back.Sigs[0], "T.aa()");
}

TEST(SampledCsv, TruncatedInstrumentedPayloadStaysFatal) {
  // The prefix-salvage rule is sampled-only: an instrumented capture is a
  // complete record, so a checksum mismatch stays a fatal load error (the
  // aggregator's TruncateCsv quarantine guarantee depends on it).
  CodeProfile P;
  P.Header.Mode = TraceMode::CuOrder;
  P.Sigs = {"a", "b"};
  std::string Csv = P.toCsv();
  std::string Cut = Csv.substr(0, Csv.rfind('b'));
  ProfileReadReport Read;
  CodeProfile Back = CodeProfile::fromCsv(Cut, &Read);
  EXPECT_EQ(Back.LoadError, ProfileError::ChecksumMismatch);
  EXPECT_FALSE(Read.PrefixSalvaged);
}

//===----------------------------------------------------------------------===//
// Aggregation gates for sampled members.
//===----------------------------------------------------------------------===//

TEST(SampledMerge, ImplausiblePeriodIsQuarantined) {
  std::vector<MemberProfile> Members = {
      makeSampledMember("good", {"a", "b"}),
      makeSampledMember("absurd", {"a", "b"},
                        /*Period=*/TraceOptions::MaxSamplePeriod + 1)};
  MergeResult R = aggregateProfiles(Members);
  const MergeMemberReport *Rep = reportFor(R.Manifest, "absurd");
  ASSERT_NE(Rep, nullptr);
  EXPECT_EQ(Rep->Status, MergeMemberStatus::Quarantined);
  EXPECT_EQ(Rep->Reason, ProfileError::ImplausibleSamplePeriod);
  // Fail-open: the build still gets a usable profile.
  EXPECT_EQ(R.Manifest.Outcome, MergeOutcome::BestSingle);
  EXPECT_STREQ(profileErrorSlug(ProfileError::ImplausibleSamplePeriod),
               "implausible_sample_period");
}

TEST(SampledMerge, SampledCoverageGateIsTheLowFloor) {
  // 200 permille would fail the instrumented gate (500) but clears the
  // sampled floor (50): a sparse sampling votes weakly, it is not damage.
  std::vector<MemberProfile> Members = {
      makeSampledMember("sparse", {"a", "b"}, 2048, /*Cov=*/200),
      makeSampledMember("dense", {"b", "a"}, 2048, /*Cov=*/900)};
  MergeResult R = aggregateProfiles(Members);
  const MergeMemberReport *Rep = reportFor(R.Manifest, "sparse");
  ASSERT_NE(Rep, nullptr);
  EXPECT_NE(Rep->Status, MergeMemberStatus::Quarantined);
  EXPECT_EQ(R.Manifest.Outcome, MergeOutcome::Merged);

  // Below the floor the member carries no rank signal and is dropped.
  std::vector<MemberProfile> Floor = {
      makeSampledMember("dust", {"a", "b"}, 2048, /*Cov=*/10),
      makeSampledMember("dense", {"b", "a"}, 2048, /*Cov=*/900)};
  MergeResult R2 = aggregateProfiles(Floor);
  const MergeMemberReport *Dust = reportFor(R2.Manifest, "dust");
  ASSERT_NE(Dust, nullptr);
  EXPECT_EQ(Dust->Status, MergeMemberStatus::Quarantined);
  EXPECT_EQ(Dust->Reason, ProfileError::CoverageBelowGate);
}

TEST(SampledMerge, AllSampledMergeKeepsCaptureAndCoarsestPeriod) {
  std::vector<MemberProfile> Members = {
      makeSampledMember("m0", {"a", "b"}, /*Period=*/1024),
      makeSampledMember("m1", {"b", "a"}, /*Period=*/4096)};
  MergeResult R = aggregateProfiles(Members);
  ASSERT_EQ(R.Manifest.Outcome, MergeOutcome::Merged);
  EXPECT_EQ(R.Profile.Header.Capture, CaptureKind::Sampled);
  EXPECT_EQ(R.Profile.Header.SamplePeriod, 4096u);

  // One instrumented member makes the merged profile instrumented: it
  // already contributes exact ranks.
  CodeProfile Instr;
  Instr.Header.Mode = TraceMode::CuOrder;
  Instr.Sigs = {"a", "b"};
  std::vector<MemberProfile> Mixed = {
      makeSampledMember("m0", {"a", "b"}, 1024),
      loadMemberProfile("exact", Instr.toCsv())};
  MergeResult R2 = aggregateProfiles(Mixed);
  ASSERT_EQ(R2.Manifest.Outcome, MergeOutcome::Merged);
  EXPECT_EQ(R2.Profile.Header.Capture, CaptureKind::Instrumented);
}

TEST(SampledMerge, ExpectedModeAdmitsMethodGranularityMembers) {
  std::vector<MemberProfile> Members = {
      makeSampledMember("m0", {"a", "b"}, 2048, 800, 0,
                        TraceMode::MethodOrder),
      makeSampledMember("m1", {"b", "a"}, 2048, 800, 0,
                        TraceMode::MethodOrder)};
  // Default options expect cu granularity: method members are rejected.
  MergeResult Rejected = aggregateProfiles(Members);
  EXPECT_EQ(Rejected.Manifest.Outcome, MergeOutcome::Fallback);
  const MergeMemberReport *Rep = reportFor(Rejected.Manifest, "m0");
  ASSERT_NE(Rep, nullptr);
  EXPECT_EQ(Rep->Reason, ProfileError::ModeMismatch);

  MergeOptions Opts;
  Opts.ExpectedMode = TraceMode::MethodOrder;
  MergeResult R = aggregateProfiles(Members, Opts);
  ASSERT_EQ(R.Manifest.Outcome, MergeOutcome::Merged);
  EXPECT_EQ(R.Profile.Header.Mode, TraceMode::MethodOrder);
}

//===----------------------------------------------------------------------===//
// The sampled collectProfiles flow and its documented degradations.
//===----------------------------------------------------------------------===//

TEST(SampledPipeline, CollectProfilesSampledFeedsAllCodeStrategies) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({kWorkload}, P, Errors));
  BuildConfig Cfg;
  Cfg.Seed = 1001;
  Cfg.ProfileCapture = CaptureKind::Sampled;
  Cfg.SamplePeriod = 512;
  CollectedProfiles Prof = collectProfiles(P, Cfg, RunConfig());

  ASSERT_FALSE(Prof.Cu.Sigs.empty());
  EXPECT_EQ(Prof.Cu.Header.Capture, CaptureKind::Sampled);
  EXPECT_EQ(Prof.Cu.Header.SamplePeriod, 512u);
  ASSERT_FALSE(Prof.Method.Sigs.empty());
  EXPECT_EQ(Prof.Method.Header.Mode, TraceMode::MethodOrder);
  EXPECT_GT(Prof.CuRun.SamplesTaken, 0u);
  EXPECT_EQ(Prof.CuRun.SamplePeriod, 512u);

  // Samples carry no path records: block splitting evidence is
  // typed-unavailable.
  EXPECT_EQ(Prof.Blocks.LoadError, ProfileError::InsufficientBlockProfile);

  // The sampled cu profile drives an optimizing build like any other.
  BuildConfig Opt;
  Opt.Seed = 2;
  Opt.CodeOrder = CodeStrategy::CuOrder;
  Opt.CodeProf = &Prof.Cu;
  NativeImage Img = buildNativeImage(P, Opt);
  ASSERT_FALSE(Img.Built.Failed);
  EXPECT_TRUE(Img.ProfileDiag.CodeProfileApplied);
}

TEST(SampledPipeline, ProfileSetStaggersPhasesDeterministically) {
  Program P;
  std::vector<std::string> Errors;
  ASSERT_TRUE(compileSources({kWorkload}, P, Errors));
  BuildConfig Cfg;
  Cfg.Seed = 1001;
  Cfg.ProfileCapture = CaptureKind::Sampled;
  Cfg.SamplePeriod = 512;
  std::vector<std::string> Names = {"i0", "i1", "i2", "i3"};
  std::vector<MemberProfile> First =
      collectProfileSet(P, Cfg, RunConfig(), Names);
  std::vector<MemberProfile> Second =
      collectProfileSet(P, Cfg, RunConfig(), Names);
  ASSERT_EQ(First.size(), 4u);
  for (size_t I = 0; I < First.size(); ++I) {
    EXPECT_EQ(First[I].Profile.Header.Capture, CaptureKind::Sampled);
    EXPECT_EQ(First[I].Profile.toCsv(), Second[I].Profile.toCsv());
  }
  // The staggered set merges into a usable sampled profile.
  MergeResult R = aggregateProfiles(First);
  EXPECT_TRUE(R.usable());
  EXPECT_EQ(R.Profile.Header.Capture, CaptureKind::Sampled);
}
