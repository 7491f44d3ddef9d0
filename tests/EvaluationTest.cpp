//===- EvaluationTest.cpp - Layout variants and the evaluation series -------===//
//
// layoutConfig must wire a variant's profiles exactly the way the bench
// programs wired them by hand: every variant a bench program uses builds
// an image byte-identical to a hand-wired reference config. evaluateSeries must
// give the same numbers whether a series runs against the shared profile
// bundle or against one collected with the series' own split settings.
//
//===----------------------------------------------------------------------===//

#include "src/core/Evaluation.h"
#include "src/image/ImageFile.h"

#include <gtest/gtest.h>

using namespace nimg;

namespace {

using Members = std::vector<MemberProfile>;

/// Hand-wired reference: sets the BuildConfig fields a bench program set
/// for one variant, on top of a default config at seed 1.
using WireFn = void (*)(BuildConfig &, const CollectedProfiles &,
                        const Members *);

struct Case {
  std::string Name;
  LayoutVariant V;
  WireFn Wire;
};

/// Three fleet members stamped from one profile (as abl_merge does).
Members stampedMembers(const CodeProfile &Prof) {
  Members Out;
  for (uint64_t Gen = 100; Gen < 103; ++Gen) {
    CodeProfile P = Prof;
    P.Header.Generation = Gen;
    Out.push_back(
        loadMemberProfile("inst" + std::to_string(Gen), P.toCsv()));
  }
  return Out;
}

/// The paper matrix (baseline + six strategies) in both series, each
/// wired the way the figure benches' shared evaluation loop wired it.
std::vector<Case> paperCases() {
  const NamedLayout Series[] = {
      {"plain", {}},
      {"split", {.Split = SplitMode::HotCold}}};
  std::vector<NamedLayout> Matrix = {{"baseline", {}}};
  for (const NamedLayout &S : paperStrategies())
    Matrix.push_back(S);
  std::vector<Case> Out;
  for (const NamedLayout &S : Series)
    for (const NamedLayout &M : Matrix) {
      LayoutVariant V = M.Layout;
      V.Split = S.Layout.Split;
      Out.push_back({M.Name + "/" + S.Name, V, nullptr});
    }
  return Out;
}

/// What the figure benches' evaluation loop did for one matrix cell.
void wirePaperCell(const LayoutVariant &V, BuildConfig &Cfg,
                   const CollectedProfiles &Prof) {
  Cfg.Split = V.Split;
  Cfg.CodeOrder = V.Code;
  if (V.Code == CodeStrategy::CuOrder)
    Cfg.CodeProf = &Prof.Cu;
  else if (V.Code == CodeStrategy::MethodOrder)
    Cfg.CodeProf = &Prof.Method;
  Cfg.UseHeapOrder = V.Heap.has_value();
  if (V.Heap) {
    Cfg.HeapOrder = *V.Heap;
    Cfg.HeapProf = *V.Heap == HeapStrategy::IncrementalId ? &Prof.IncrementalId
                   : *V.Heap == HeapStrategy::StructuralHash
                       ? &Prof.StructuralHash
                       : &Prof.HeapPath;
  }
  if (Cfg.Split != SplitMode::None)
    Cfg.BlockProf = &Prof.Blocks;
}

/// The ablation, fleet and figure-6 benches' variants with their own
/// hand wiring.
std::vector<Case> benchCases() {
  const LayoutVariant Cu{.Code = CodeStrategy::CuOrder};
  const LayoutVariant CuSplit{.Code = CodeStrategy::CuOrder,
                              .Split = SplitMode::HotCold};
  const LayoutVariant CuHeapPath{.Code = CodeStrategy::CuOrder,
                                 .Heap = HeapStrategy::HeapPath};
  std::vector<Case> Out = {
      // abl_split / fleet_storm.
      {"cu_split", CuSplit,
       [](BuildConfig &C, const CollectedProfiles &P, const Members *) {
         C.CodeOrder = CodeStrategy::CuOrder;
         C.CodeProf = &P.Cu;
         C.Split = SplitMode::HotCold;
         C.BlockProf = &P.Blocks;
       }},
      // abl_merge / abl_sample: the code profile comes from the members.
      {"cu_merged",
       {.Code = CodeStrategy::CuOrder, .MergedMembers = true},
       [](BuildConfig &C, const CollectedProfiles &, const Members *M) {
         C.CodeOrder = CodeStrategy::CuOrder;
         C.CodeMembers = M;
       }},
      {"method_merged",
       {.Code = CodeStrategy::MethodOrder, .MergedMembers = true},
       [](BuildConfig &C, const CollectedProfiles &, const Members *M) {
         C.CodeOrder = CodeStrategy::MethodOrder;
         C.CodeMembers = M;
       }},
      // abl_maxdepth's ordered build.
      {"heap_struct",
       {.Heap = HeapStrategy::StructuralHash},
       [](BuildConfig &C, const CollectedProfiles &P, const Members *) {
         C.UseHeapOrder = true;
         C.HeapOrder = HeapStrategy::StructuralHash;
         C.HeapProf = &P.StructuralHash;
       }},
      // fig6 panel (c): cu + heap path + split.
      {"cu_heap_path_split",
       {.Code = CodeStrategy::CuOrder,
        .Heap = HeapStrategy::HeapPath,
        .Split = SplitMode::HotCold},
       [](BuildConfig &C, const CollectedProfiles &P, const Members *) {
         C.CodeOrder = CodeStrategy::CuOrder;
         C.CodeProf = &P.Cu;
         C.UseHeapOrder = true;
         C.HeapOrder = HeapStrategy::HeapPath;
         C.HeapProf = &P.HeapPath;
         C.Split = SplitMode::HotCold;
         C.BlockProf = &P.Blocks;
       }},
  };
  // abl_hugepages sweeps {cu, cu+split} over budgets 0/1/2/4; fig6
  // panel (d) is cu + heap path at budget 1.
  for (uint32_t Budget : {1u, 2u, 4u}) {
    LayoutVariant V = Cu;
    V.HugePages = Budget;
    Out.push_back({"cu_huge" + std::to_string(Budget), V,
                   [](BuildConfig &C, const CollectedProfiles &P,
                      const Members *) {
                     C.CodeOrder = CodeStrategy::CuOrder;
                     C.CodeProf = &P.Cu;
                   }});
    V = CuSplit;
    V.HugePages = Budget;
    Out.push_back({"cu_split_huge" + std::to_string(Budget), V,
                   [](BuildConfig &C, const CollectedProfiles &P,
                      const Members *) {
                     C.CodeOrder = CodeStrategy::CuOrder;
                     C.CodeProf = &P.Cu;
                     C.Split = SplitMode::HotCold;
                     C.BlockProf = &P.Blocks;
                   }});
  }
  LayoutVariant Huge = CuHeapPath;
  Huge.HugePages = 1;
  Out.push_back({"cu_heap_path_huge1", Huge,
                 [](BuildConfig &C, const CollectedProfiles &P,
                    const Members *) {
                   C.CodeOrder = CodeStrategy::CuOrder;
                   C.CodeProf = &P.Cu;
                   C.UseHeapOrder = true;
                   C.HeapOrder = HeapStrategy::HeapPath;
                   C.HeapProf = &P.HeapPath;
                 }});
  return Out;
}

} // namespace

TEST(EvaluationTest, LayoutConfigMatchesHandWiredBuilds) {
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P =
      compileBenchmark(awfyBenchmark("Richards"), Errors);
  ASSERT_TRUE(P);
  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(*P, ProfCfg, RunConfig());
  Members Set = stampedMembers(Prof.Cu);

  std::vector<Case> Cases = paperCases();
  for (Case &C : benchCases())
    Cases.push_back(std::move(C));
  ASSERT_EQ(Cases.size(), 14u + 12u);
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    BuildConfig Ref;
    Ref.Seed = 1;
    if (C.Wire)
      C.Wire(Ref, Prof, &Set);
    else
      wirePaperCell(C.V, Ref, Prof);
    Ref.Image.HugePages = C.V.HugePages;
    NativeImage Want = buildNativeImage(*P, Ref);
    NativeImage Got = buildNativeImage(*P, layoutConfig(C.V, Prof, 1, &Set));
    ASSERT_FALSE(Want.Built.Failed);
    ASSERT_FALSE(Got.Built.Failed);
    EXPECT_EQ(serializeImage(*P, Got), serializeImage(*P, Want));
  }
}

TEST(EvaluationTest, MergedVariantIgnoresTheBundleCodeProfile) {
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P =
      compileBenchmark(awfyBenchmark("Richards"), Errors);
  ASSERT_TRUE(P);
  BuildConfig ProfCfg;
  ProfCfg.Seed = 1001;
  CollectedProfiles Prof = collectProfiles(*P, ProfCfg, RunConfig());
  Members Set = stampedMembers(Prof.Cu);
  BuildConfig Cfg = layoutConfig(
      {.Code = CodeStrategy::CuOrder, .MergedMembers = true}, Prof, 1, &Set);
  EXPECT_EQ(Cfg.CodeMembers, &Set);
  EXPECT_EQ(Cfg.CodeProf, nullptr);
  NativeImage Img = buildNativeImage(*P, Cfg);
  EXPECT_EQ(Img.ProfileDiag.Merge.Outcome, MergeOutcome::Merged);
}

namespace {

void expectSameStat(const Stat &A, const Stat &B) {
  EXPECT_EQ(A.Mean, B.Mean);
  EXPECT_EQ(A.Lo, B.Lo);
  EXPECT_EQ(A.Hi, B.Hi);
}

void expectSameVariant(const VariantEval &A, const VariantEval &B) {
  SCOPED_TRACE(A.Name);
  EXPECT_EQ(A.Name, B.Name);
  expectSameStat(A.TextFaults, B.TextFaults);
  expectSameStat(A.HeapFaults, B.HeapFaults);
  expectSameStat(A.TotalFaults, B.TotalFaults);
  expectSameStat(A.TimeNs, B.TimeNs);
  EXPECT_EQ(A.TextFaultFactor, B.TextFaultFactor);
  EXPECT_EQ(A.HeapFaultFactor, B.HeapFaultFactor);
  EXPECT_EQ(A.TotalFaultFactor, B.TotalFaultFactor);
  EXPECT_EQ(A.Speedup, B.Speedup);
}

} // namespace

TEST(EvaluationTest, SeriesShareOneProfileBundle) {
  ProfiledWorkload Shared = profileWorkload(awfyBenchmark("Bounce"));
  EvalOptions Opts;
  Opts.Seeds = 1;
  const LayoutVariant Split{.Split = SplitMode::HotCold};
  // A freshly compiled workload whose profiles were collected with the
  // series' own split setting.
  ProfiledWorkload Own;
  Own.Spec = Shared.Spec;
  std::vector<std::string> Errors;
  Own.P = compileBenchmark(Own.Spec, Errors);
  ASSERT_TRUE(Own.P);
  Own.Run = Shared.Run;
  BuildConfig InstrCfg;
  InstrCfg.Seed = 1001;
  InstrCfg.Split = Split.Split;
  Own.Prof = collectProfiles(*Own.P, InstrCfg, Own.Run);

  BenchmarkEval A = evaluateSeries(Shared, Split, Opts);
  BenchmarkEval B = evaluateSeries(Own, Split, Opts);
  expectSameVariant(A.Baseline, B.Baseline);
  ASSERT_EQ(A.Variants.size(), paperStrategies().size());
  ASSERT_EQ(B.Variants.size(), A.Variants.size());
  for (size_t I = 0; I < A.Variants.size(); ++I)
    expectSameVariant(A.Variants[I], B.Variants[I]);
  EXPECT_EQ(A.PctStoredObjectsTouched, B.PctStoredObjectsTouched);
  EXPECT_EQ(A.CuOverhead, B.CuOverhead);
  EXPECT_EQ(A.MethodOverhead, B.MethodOverhead);
  EXPECT_EQ(A.HeapOverhead, B.HeapOverhead);
}
