//===- Evaluation.cpp - Paper-evaluation measurement harness ----------------===//

#include "src/core/Evaluation.h"

#include <cmath>
#include <cstdlib>

using namespace nimg;

Stat nimg::statOf(const std::vector<double> &Samples) {
  Stat S;
  if (Samples.empty())
    return S;
  double Sum = 0;
  for (double V : Samples)
    Sum += V;
  S.Mean = Sum / double(Samples.size());
  if (Samples.size() == 1) {
    S.Lo = S.Hi = S.Mean;
    return S;
  }
  double Var = 0;
  for (double V : Samples)
    Var += (V - S.Mean) * (V - S.Mean);
  Var /= double(Samples.size() - 1);
  double Half = 1.96 * std::sqrt(Var / double(Samples.size()));
  S.Lo = S.Mean - Half;
  S.Hi = S.Mean + Half;
  return S;
}

double nimg::geomean(const std::vector<double> &Factors) {
  if (Factors.empty())
    return 1.0;
  double LogSum = 0;
  for (double F : Factors)
    LogSum += std::log(F);
  return std::exp(LogSum / double(Factors.size()));
}

int nimg::evalSeedsFromEnv(int Default) {
  const char *Env = std::getenv("NIMAGE_EVAL_SEEDS");
  if (!Env)
    return Default;
  int N = std::atoi(Env);
  return N > 0 ? N : Default;
}

BuildConfig nimg::layoutConfig(const LayoutVariant &V,
                               const CollectedProfiles &Prof, uint64_t Seed,
                               const std::vector<MemberProfile> *Members) {
  BuildConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.CodeOrder = V.Code;
  if (V.MergedMembers)
    Cfg.CodeMembers = Members;
  else if (V.Code == CodeStrategy::CuOrder)
    Cfg.CodeProf = &Prof.Cu;
  else if (V.Code == CodeStrategy::MethodOrder)
    Cfg.CodeProf = &Prof.Method;
  if (V.Heap) {
    Cfg.UseHeapOrder = true;
    Cfg.HeapOrder = *V.Heap;
    Cfg.HeapProf = &Prof.forStrategy(*V.Heap);
  }
  Cfg.Split = V.Split;
  if (V.Split != SplitMode::None)
    Cfg.BlockProf = &Prof.Blocks;
  Cfg.Image.HugePages = V.HugePages;
  return Cfg;
}

const std::vector<NamedLayout> &nimg::paperStrategies() {
  static const std::vector<NamedLayout> Strategies = {
      {"cu", {.Code = CodeStrategy::CuOrder}},
      {"method", {.Code = CodeStrategy::MethodOrder}},
      {"incremental id", {.Heap = HeapStrategy::IncrementalId}},
      {"structural hash", {.Heap = HeapStrategy::StructuralHash}},
      {"heap path", {.Heap = HeapStrategy::HeapPath}},
      {"cu+heap path",
       {.Code = CodeStrategy::CuOrder, .Heap = HeapStrategy::HeapPath}},
  };
  return Strategies;
}

ProfiledWorkload nimg::profileWorkload(const BenchmarkSpec &Spec) {
  ProfiledWorkload W;
  W.Spec = Spec;
  std::vector<std::string> Errors;
  W.P = compileBenchmark(Spec, Errors);
  assert(W.P && "benchmark failed to compile");
  W.Run.StopAtFirstResponse = Spec.Microservice;
  BuildConfig InstrCfg;
  InstrCfg.Seed = 1001;
  W.Prof = collectProfiles(*W.P, InstrCfg, W.Run);
  return W;
}

/// The measured quantity for the time axis: end-to-end time for AWFY,
/// time to first response for microservices (Sec. 7.1).
static double timeOf(const RunStats &S, bool Microservice) {
  if (Microservice && S.Responded)
    return S.TimeToFirstResponseNs;
  return S.TimeNs;
}

BenchmarkEval nimg::evaluateSeries(const ProfiledWorkload &W,
                                   const LayoutVariant &Series,
                                   const EvalOptions &Opts) {
  BenchmarkEval Eval;
  Eval.Benchmark = W.Spec.Name;
  Eval.Microservice = W.Spec.Microservice;

  auto Measure = [&](const std::string &Name, LayoutVariant V) {
    V.Split = Series.Split;
    VariantEval E;
    E.Name = Name;
    std::vector<double> Text, HeapF, Total, Time;
    for (int S = 0; S < Opts.Seeds; ++S) {
      NativeImage Img =
          buildNativeImage(*W.P, layoutConfig(V, W.Prof, 1 + uint64_t(S)));
      assert(!Img.Built.Failed && "image build failed");
      RunStats Stats = runImage(Img, W.Run);
      assert(!Stats.Trapped && "benchmark trapped");
      Text.push_back(double(Stats.TextFaults));
      HeapF.push_back(double(Stats.HeapFaults));
      Total.push_back(double(Stats.totalFaults()));
      Time.push_back(timeOf(Stats, Eval.Microservice));
      if (Name == "baseline" && S == 0) {
        Eval.PctStoredObjectsTouched =
            Stats.StoredObjectsTotal == 0
                ? 0.0
                : 100.0 * double(Stats.StoredObjectsTouched) /
                      double(Stats.StoredObjectsTotal);
        Eval.SnapshotObjects = Stats.StoredObjectsTotal;
        Eval.ImageBytes = Img.imageBytes();
      }
    }
    E.TextFaults = statOf(Text);
    E.HeapFaults = statOf(HeapF);
    E.TotalFaults = statOf(Total);
    E.TimeNs = statOf(Time);
    return E;
  };

  Eval.Baseline = Measure("baseline", {});
  auto Factor = [](double Base, double Opt) {
    if (Opt <= 0)
      return Base <= 0 ? 1.0 : Base;
    return Base / Opt;
  };
  for (const NamedLayout &NV : paperStrategies()) {
    VariantEval V = Measure(NV.Name, NV.Layout);
    V.TextFaultFactor =
        Factor(Eval.Baseline.TextFaults.Mean, V.TextFaults.Mean);
    V.HeapFaultFactor =
        Factor(Eval.Baseline.HeapFaults.Mean, V.HeapFaults.Mean);
    V.TotalFaultFactor =
        Factor(Eval.Baseline.TotalFaults.Mean, V.TotalFaults.Mean);
    V.Speedup = Factor(Eval.Baseline.TimeNs.Mean, V.TimeNs.Mean);
    Eval.Variants.push_back(std::move(V));
  }

  // --- Profiling overhead (Sec. 7.4) ---------------------------------------
  double BaseTime = Eval.Baseline.TimeNs.Mean;
  if (BaseTime > 0) {
    bool Micro = Eval.Microservice;
    Eval.CuOverhead = timeOf(W.Prof.CuRun, Micro) / BaseTime;
    Eval.MethodOverhead = timeOf(W.Prof.MethodRun, Micro) / BaseTime;
    Eval.HeapOverhead = timeOf(W.Prof.HeapRun, Micro) / BaseTime;
  }
  return Eval;
}
