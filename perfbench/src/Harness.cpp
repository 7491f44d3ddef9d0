//===- Harness.cpp - Workloads, cells and checks of the benchmark -----------===//

#include "Harness.h"

#include "Stats.h"

#include "src/fleet/FleetSim.h"
#include "src/image/ImageFile.h"
#include "src/support/SplitMix64.h"
#include "src/support/ThreadPool.h"
#include "src/workloads/WorkloadSources.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>
#include <sched.h>
#include <sys/resource.h>
#include <thread>
#include <unordered_map>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace nimg;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

std::vector<Variant> awfyVariants() {
  using CS = CodeStrategy;
  using HS = HeapStrategy;
  return {{"baseline", CS::None, false, HS::HeapPath, false},
          {"cu", CS::CuOrder, false, HS::HeapPath, false},
          {"method", CS::MethodOrder, false, HS::HeapPath, false},
          {"incremental id", CS::None, true, HS::IncrementalId, false},
          {"structural hash", CS::None, true, HS::StructuralHash, false},
          {"heap path", CS::None, true, HS::HeapPath, false},
          {HeadlineVariant, CS::CuOrder, true, HS::HeapPath, false}};
}

Variant baselineVariant() { return awfyVariants().front(); }
Variant headlineVariant() { return awfyVariants().back(); }

FleetConfig stormConfig(uint32_t Instances, uint64_t ArrivalSeed) {
  FleetConfig FC;
  FC.Instances = Instances;
  FC.Arrivals = ArrivalKind::Storm;
  FC.Seed = ArrivalSeed;
  return FC;
}

BuildConfig buildConfig(const Variant &V, const RoundProfiles &RP,
                        uint64_t BuildSeed) {
  BuildConfig Cfg;
  Cfg.Seed = BuildSeed;
  Cfg.CodeOrder = V.Code;
  if (V.Merged)
    Cfg.CodeProf = RP.Merged.usable() ? &RP.Merged.Profile : nullptr;
  else if (V.Code == CodeStrategy::CuOrder)
    Cfg.CodeProf = &RP.Prof.Cu;
  else if (V.Code == CodeStrategy::MethodOrder)
    Cfg.CodeProf = &RP.Prof.Method;
  Cfg.UseHeapOrder = V.UseHeap;
  if (V.UseHeap) {
    Cfg.HeapOrder = V.Heap;
    Cfg.HeapProf = &RP.Prof.forStrategy(V.Heap);
  }
  return Cfg;
}

RunConfig runConfig(const LoadedProgram &LP, bool Touches) {
  RunConfig Run;
  Run.StopAtFirstResponse = LP.Spec.Microservice;
  Run.RecordTouches = Touches;
  return Run;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workloads and seeds
//===----------------------------------------------------------------------===//

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"awfy-eval", "scaled-build",
                                                 "micro-fleet"};
  return Names;
}

BenchmarkSpec perfbench::scaledProgram() {
  BenchmarkSpec Spring = microserviceBenchmark("spring");
  BenchmarkSpec Spec;
  Spec.Name = "scaled-spring";
  Spec.Microservice = true;
  Spec.Sources.push_back(somLibrarySource());
  Spec.Sources.push_back(runtimePreludeSource(1400));
  // Five times spring's controllers, services and repositories.
  Spec.Sources.push_back(
      workloads::microserviceSource("spring", 400, 330, 210, 3));
  Spec.Resources = Spring.Resources;
  return Spec;
}

bool perfbench::planWorkload(const std::string &Name, int Cpus,
                             WorkloadPlan &Out) {
  WorkloadPlan W;
  W.Name = Name;
  if (Name == "awfy-eval") {
    for (const std::string &N : awfyBenchmarkNames())
      W.Programs.push_back(awfyBenchmark(N));
    W.Variants = awfyVariants();
  } else if (Name == "scaled-build") {
    W.Programs.push_back(scaledProgram());
    W.Variants = {baselineVariant(), headlineVariant()};
    W.Jobs = std::max(1, Cpus);
    W.BuildSeedsPerRound = 6;
    W.VerifiedRounds = 4;
    W.ImageIo = true;
  } else if (Name == "micro-fleet") {
    for (const std::string &N : microserviceNames())
      W.Programs.push_back(microserviceBenchmark(N));
    Variant Merged = {"cu-merged", CodeStrategy::CuOrder, false,
                      HeapStrategy::HeapPath, true};
    W.Variants = {baselineVariant(), headlineVariant(), Merged};
    W.ImageIo = true;
    W.FleetInCell = true;
    W.MergeMembers = 8;
  } else {
    return false;
  }
  Out = std::move(W);
  return true;
}

RoundSeeds perfbench::roundSeeds(uint64_t WorkloadSeed, int Round,
                                 int BuildSeeds) {
  uint64_t Base = mix64(mix64(WorkloadSeed, 0x9e7f), uint64_t(Round));
  RoundSeeds S;
  S.Capture = mix64(Base, 1);
  S.Arrival = mix64(Base, 2);
  for (int B = 0; B < BuildSeeds; ++B)
    S.Build.push_back(mix64(Base, 100 + uint64_t(B)));
  return S;
}

int perfbench::availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  int N = 0;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    N = CPU_COUNT(&Set);
  int Hw = int(std::thread::hardware_concurrency());
  if (N <= 0)
    N = Hw > 0 ? Hw : 1;
  return Hw > 0 ? std::min(N, Hw) : N;
}

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

std::string perfbench::referenceOutput(Program &P, bool Microservice,
                                       std::string &Error) {
  ensureClassMetaClass(P);
  Heap H(P);
  std::unordered_map<std::string, CellIdx> Resources;
  for (const auto &[Name, Contents] : P.Resources)
    Resources.emplace(Name, H.allocString(Contents));
  RunConfig Defaults;
  InterpConfig ICfg;
  ICfg.RunClinits = true;
  ICfg.MaxInstructions = Defaults.MaxInstructions;
  Interpreter I(P, H, ICfg);
  I.setResources(&Resources);
  bool Responded = false;
  I.OnSpawn = [&](MethodId M) { I.spawnThread(M, {}); };
  I.OnRespond = [&](uint32_t, const std::string &) { Responded = true; };

  // The same round-robin schedule as runImage, so thread interleaving of
  // the output matches.
  I.spawnThread(P.MainMethod, {});
  bool Progress = true;
  bool Stop = false;
  while (Progress && !Stop) {
    Progress = false;
    size_t NumThreads = I.numThreads();
    for (uint32_t Tid = 0; Tid < NumThreads && !Stop; ++Tid) {
      if (I.threadFinished(Tid))
        continue;
      if (I.step(Tid, Defaults.ThreadQuantum) > 0)
        Progress = true;
      if (I.threadTrapped(Tid)) {
        Error = "reference run trapped: " + I.trapMessage(Tid);
        return "";
      }
      Stop = Microservice && Responded;
    }
    if (I.fuelExhausted()) {
      Error = "reference run ran out of fuel";
      return "";
    }
  }
  if (Microservice && !Responded) {
    Error = "reference run never responded";
    return "";
  }
  return I.output();
}

std::string perfbench::checkRun(const RunStats &S, const std::string &Reference,
                                bool Microservice) {
  if (S.Trapped)
    return "trapped: " + S.TrapMessage;
  if (S.FuelExhausted)
    return "ran out of fuel";
  if (Microservice && !S.Responded)
    return "never responded";
  if (S.Output != Reference)
    return "output differs from the reference run";
  return "";
}

std::string perfbench::compareRuns(const RunStats &A, const RunStats &B) {
  if (A.TimeNs != B.TimeNs)
    return "modeled time";
  if (A.Responded != B.Responded ||
      A.TimeToFirstResponseNs != B.TimeToFirstResponseNs)
    return "time to first response";
  if (A.TextFaults != B.TextFaults || A.TextColdFaults != B.TextColdFaults ||
      A.TextHugeFaults != B.TextHugeFaults)
    return ".text faults";
  if (A.HeapFaults != B.HeapFaults)
    return ".svm_heap faults";
  if (A.Instructions != B.Instructions || A.ProbeUnits != B.ProbeUnits)
    return "instructions";
  if (A.Trapped != B.Trapped || A.Output != B.Output)
    return "output";
  return "";
}

double perfbench::startupNs(const RunStats &S, bool Microservice) {
  return Microservice && S.Responded ? S.TimeToFirstResponseNs : S.TimeNs;
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

Runner::Runner(WorkloadPlan Plan, uint64_t Seed, SpanLog &Log)
    : Plan(std::move(Plan)), Seed(Seed), Log(Log) {}

bool Runner::setUp(std::string &Error) {
  Programs.clear();
  Clock::time_point T0 = Clock::now();
  for (const BenchmarkSpec &Spec : Plan.Programs) {
    LoadedProgram LP;
    LP.Spec = Spec;
    for (const std::string &S : Spec.Sources)
      LP.SourceBytes += S.size();
    std::vector<std::string> Errors;
    {
      ScopedSpan S(Log, "lang.compile");
      LP.P = compileBenchmark(Spec, Errors);
    }
    if (!LP.P) {
      Error = Spec.Name + " does not compile";
      for (const std::string &E : Errors)
        Error += "; " + E;
      return false;
    }
    {
      ScopedSpan S(Log, "setup.reference");
      LP.Reference = referenceOutput(*LP.P, Spec.Microservice, Error);
    }
    if (!Error.empty()) {
      Error = Spec.Name + ": " + Error;
      return false;
    }
    Programs.push_back(std::move(LP));
  }
  // Warm-up: one default build and run of every program, so allocator
  // and thread-pool start-up are paid before the timed phase.
  setJobs(Plan.Jobs);
  for (LoadedProgram &LP : Programs) {
    ScopedSpan S(Log, "setup.warmup");
    BuildConfig Cfg;
    Cfg.Seed = roundSeeds(Seed, 0, 1).Build[0];
    NativeImage Img = buildNativeImage(*LP.P, Cfg);
    if (Img.Built.Failed) {
      Error = LP.Spec.Name + ": warm-up build failed: " +
              Img.Built.FailureMessage;
      return false;
    }
    RunStats Run = runImage(Img, runConfig(LP, false));
    std::string Why = checkRun(Run, LP.Reference, LP.Spec.Microservice);
    if (!Why.empty()) {
      Error = LP.Spec.Name + ": warm-up run " + Why;
      return false;
    }
  }
  SetupSeconds.push_back(secondsSince(T0));
  return true;
}

void Runner::fail(CellResult &C, const LoadedProgram &LP, const Variant &V,
                  std::string Why) {
  if (C.Failed)
    return;
  C.Failed = true;
  C.Why = Why;
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(LP.Spec.Name + " / " + V.Name + ": " + Why);
}

RoundProfiles Runner::capture(LoadedProgram &LP, const RoundSeeds &Seeds) {
  Program &P = *LP.P;
  RoundProfiles RP;
  RunConfig Run = runConfig(LP, false);
  BuildConfig Instr;
  Instr.Seed = Seeds.Capture;
  {
    ScopedSpan S(Log, "profiling.collect");
    RP.Prof = collectProfiles(P, Instr, Run);
  }
  for (const SalvageStats *S :
       {&RP.Prof.CuSalvage, &RP.Prof.MethodSalvage, &RP.Prof.HeapSalvage}) {
    Counts.WordsKept += double(S->WordsKept);
    Counts.WordsScanned += double(S->WordsScanned);
  }
  Counts.RetriedRuns += RP.Prof.RetriedRuns;

  if (Plan.MergeMembers > 0) {
    BuildConfig SetCfg;
    SetCfg.Seed = Seeds.Capture;
    SetCfg.ProfileGeneration = 1;
    std::vector<std::string> Names;
    for (int I = 0; I < Plan.MergeMembers; ++I)
      Names.push_back("inst" + std::to_string(I));
    std::vector<MemberProfile> Members;
    {
      ScopedSpan S(Log, "profiling.collect_set");
      Members = collectProfileSet(P, SetCfg, Run, Names);
    }
    MergeOptions MOpts;
    MOpts.ExpectedFingerprint = programFingerprint(P);
    MOpts.ExpectedMode = TraceMode::CuOrder;
    {
      ScopedSpan S(Log, "profiling.merge");
      RP.Merged = aggregateProfiles(Members, MOpts);
    }
    Counts.MergeQuarantined += double(
        RP.Merged.Manifest.countWithStatus(MergeMemberStatus::Quarantined));
  }
  return RP;
}

CellResult Runner::runCell(LoadedProgram &LP, const Variant &V,
                           const RoundProfiles &RP, uint64_t BuildSeed,
                           uint64_t ArrivalSeed, bool Verify) {
  Program &P = *LP.P;
  const bool Micro = LP.Spec.Microservice;
  CellResult C;
  C.Id = NextCellId++;
  ++Attempted;
  BuildConfig Cfg = buildConfig(V, RP, BuildSeed);
  RunConfig Run = runConfig(LP, Plan.FleetInCell);

  NativeImage Img, Loaded;
  std::vector<uint8_t> Bytes;
  std::string ReadError;
  bool Ran = false, ReadOk = true;
  FleetResult Storm;
  const NativeImage *Image = &Img;

  Clock::time_point T0 = Clock::now();
  {
    ScopedSpan Cell(Log, "cell", C.Id);
    {
      ScopedSpan S(Log, "core.build", C.Id);
      Img = buildNativeImage(P, Cfg);
    }
    if (!Img.Built.Failed) {
      if (Plan.ImageIo) {
        {
          ScopedSpan S(Log, "image.write", C.Id);
          Bytes = serializeImage(P, Img);
        }
        {
          ScopedSpan S(Log, "image.read", C.Id);
          ReadOk = deserializeImage(P, Bytes, Loaded, ReadError);
        }
        Image = &Loaded;
      }
      if (ReadOk) {
        {
          ScopedSpan S(Log, "runtime.run", C.Id);
          C.Run = runImage(*Image, Run);
        }
        Ran = true;
        if (Plan.FleetInCell) {
          ScopedSpan S(Log, "fleet.replay", C.Id);
          Storm = simulateFleet(C.Run, Image->Layout.TextSize,
                                Image->Layout.HeapSize, Run.Paging, Run.Cost,
                                stormConfig(FleetInstances, ArrivalSeed));
        }
      }
    }
  }
  C.WallMs = secondsSince(T0) * 1e3;
  CellMs.push_back(C.WallMs);

  if (Img.Built.Failed)
    fail(C, LP, V, "build failed: " + Img.Built.FailureMessage);
  else if (!ReadOk)
    fail(C, LP, V, "image read failed: " + ReadError);
  else if (std::string Why = checkRun(C.Run, LP.Reference, Micro);
           !Why.empty())
    fail(C, LP, V, Why);
  if (!Ran)
    return C;

  Counts.BuiltImages += 1;
  Counts.TextKiB += double(Img.Layout.TextSize) / 1024.0;
  Counts.HeapKiB += double(Img.Layout.HeapSize) / 1024.0;
  Counts.SnapshotObjects += double(Img.Snapshot.numStored());
  Counts.ImageBytes += double(Img.imageBytes());
  Counts.CuDegraded += double(Img.Code.CompileFaults.size());
  Counts.SerializedBytes += double(Bytes.size());
  Counts.Runs += 1;
  Counts.Instructions += double(C.Run.Instructions);
  Counts.TextFaults += double(C.Run.TextFaults);
  Counts.HeapFaults += double(C.Run.HeapFaults);
  Counts.Prefetched += double(C.Run.PrefetchedPages);
  if (C.Run.StoredObjectsTotal)
    Counts.TouchedRatioSum += double(C.Run.StoredObjectsTouched) /
                              double(C.Run.StoredObjectsTotal);
  if (Plan.FleetInCell) {
    C.FleetP99Ns = Storm.P99Ns;
    Counts.FleetReplays += 1;
    Counts.FleetMajors += double(Storm.TotalMajors);
    Counts.FleetWarmRatioSum += Storm.warmHitRatio();
  }
  if (!Verify || C.Failed)
    return C;

  // Check-only work below is not part of the timed phase.
  Clock::time_point V0 = Clock::now();
  if (Plan.ImageIo) {
    RunStats InMemory = runImage(Img, Run);
    if (std::string Why = compareRuns(InMemory, C.Run); !Why.empty())
      fail(C, LP, V, "read-back image differs from the in-memory image in " +
                         Why);
  }
  // The N=1 anchor needs a run that recorded its page touches.
  const bool Headline = V.Name == HeadlineVariant;
  if (Plan.FleetInCell || Headline) {
    RunStats Ref;
    if (Plan.FleetInCell) {
      Ref = C.Run;
    } else {
      Ref = runImage(*Image, runConfig(LP, true));
      if (std::string Why = compareRuns(Ref, C.Run); !Why.empty())
        fail(C, LP, V, "touch-recording run differs in " + Why);
    }
    FleetResult One =
        simulateFleet(Ref, Image->Layout.TextSize, Image->Layout.HeapSize,
                      Run.Paging, Run.Cost, stormConfig(1, ArrivalSeed));
    if (One.TotalMajors != Ref.totalFaults() || One.P50Ns != Ref.TimeNs)
      fail(C, LP, V, "1-instance fleet differs from the single run");
    if (!Plan.FleetInCell)
      C.FleetP99Ns =
          simulateFleet(Ref, Image->Layout.TextSize, Image->Layout.HeapSize,
                        Run.Paging, Run.Cost,
                        stormConfig(FleetInstances, ArrivalSeed))
              .P99Ns;
  }
  // Once per run: the same image bytes at --jobs 1 as at --jobs N.
  if (Plan.Jobs > 1 && Plan.ImageIo && Headline && !JobsChecked) {
    JobsChecked = true;
    setJobs(1);
    NativeImage Serial = buildNativeImage(P, Cfg);
    std::vector<uint8_t> SerialBytes = serializeImage(P, Serial);
    setJobs(Plan.Jobs);
    if (SerialBytes != Bytes)
      fail(C, LP, V, "image bytes differ between --jobs 1 and --jobs " +
                         std::to_string(Plan.Jobs));
  }
  UntimedSeconds += secondsSince(V0);
  return C;
}

bool Runner::timedPhase(double Seconds, PhaseStats &Stats,
                        std::string &Error) {
  setJobs(Plan.Jobs);
  Counts = LayerCounts{};
  UntimedSeconds = 0;
  const size_t CellsBefore = CellMs.size();
  Clock::time_point T0 = Clock::now();
  auto Elapsed = [&] { return secondsSince(T0) - UntimedSeconds; };
  const size_t B = size_t(Plan.BuildSeedsPerRound);
  double NextSetUp = Seconds / SetupsPerPhase;
  bool Done = false;
  for (int Round = 0; !Done; ++Round) {
    if (Round > 0 && Elapsed() >= NextSetUp) {
      Clock::time_point S0 = Clock::now();
      if (!setUp(Error))
        return false;
      NextSetUp += Seconds / SetupsPerPhase;
      UntimedSeconds += secondsSince(S0);
    }
    const bool Verify = Round < Plan.VerifiedRounds;
    RoundSeeds Seeds = roundSeeds(Seed, Round, int(B));
    for (size_t PI = 0; PI < Programs.size() && !Done; ++PI) {
      LoadedProgram &LP = Programs[PI];
      const bool Micro = LP.Spec.Microservice;
      if (!Verify && Elapsed() >= Seconds) {
        Done = true;
        break;
      }
      RoundProfiles RP = capture(LP, Seeds);
      double BaseNs = 0;
      const uint64_t Arrival = mix64(Seeds.Arrival, PI);
      for (size_t BI = 0; BI < B && !Done; ++BI) {
        for (const Variant &V : Plan.Variants) {
          if (!Verify && Elapsed() >= Seconds) {
            Done = true;
            break;
          }
          CellResult C = runCell(LP, V, RP, Seeds.Build[BI], Arrival, Verify);
          if (C.Failed)
            continue;
          double Ns = startupNs(C.Run, Micro);
          if (V.Name == "baseline" && BI == 0)
            BaseNs = Ns;
          if (!Verify)
            continue;
          if (V.Name == "baseline")
            BaseStartupMs.push_back(Ns / 1e6);
          if (V.Name == HeadlineVariant) {
            OptStartupMs.push_back(Ns / 1e6);
            OptFaults.push_back(double(C.Run.totalFaults()));
            FleetP99Ms.push_back(C.FleetP99Ns / 1e6);
          }
        }
      }
      if (BaseNs > 0)
        Counts.InstrOverhead.push_back(startupNs(RP.Prof.CuRun, Micro) /
                                       BaseNs);
      if (Round == 0 && Log.enabled())
        FirstRound.push_back(std::move(RP));
    }
  }
  Stats.Cells = CellMs.size() - CellsBefore;
  Stats.Seconds = Elapsed();
  return true;
}

void Runner::replayStages() {
  for (size_t PI = 0; PI < Programs.size() && PI < FirstRound.size(); ++PI) {
    LoadedProgram &LP = Programs[PI];
    Program &P = *LP.P;
    const RoundProfiles &RP = FirstRound[PI];
    uint64_t BuildSeed = roundSeeds(Seed, 0, 1).Build[0];
    for (const Variant &V : Plan.Variants) {
      BuildConfig Cfg = buildConfig(V, RP, BuildSeed);
      uint64_t Id = NextCellId++;
      ensureClassMetaClass(P);
      ScopedSpan Root(Log, "stages", Id);
      ReachabilityResult Reach;
      {
        ScopedSpan S(Log, "compiler.reachability", Id);
        Reach = analyzeReachability(P, Cfg.Reach);
      }
      CompiledProgram Code;
      {
        ScopedSpan S(Log, "compiler.cu_formation", Id);
        Code = buildCompilationUnits(P, Reach, Cfg.Inliner, Cfg.Instrumented);
      }
      Counts.StageCalls += 1;
      Counts.ReachableMethods += double(Reach.compiledMethods(P).size());
      Counts.Cus += double(Code.CUs.size());
      std::vector<int32_t> CuOrder;
      if (Cfg.CodeOrder != CodeStrategy::None && Cfg.CodeProf) {
        ScopedSpan S(Log, "ordering.code_order", Id);
        CuOrder = orderCusWithProfile(P, Code, *Cfg.CodeProf, Cfg.CodeOrder);
      }
      BuildHeapResult Built;
      {
        ScopedSpan S(Log, "heap.init", Id);
        Built = initializeBuildHeap(P, Reach, Cfg.Seed);
      }
      if (Built.Failed)
        continue;
      SnapshotConfig SnapCfg;
      SnapCfg.EnablePea = Cfg.EnablePea;
      SnapCfg.PeaRate = Cfg.PeaRate;
      SnapCfg.PeaFingerprint = mix64(Code.InlineFingerprint, Cfg.Seed);
      SnapCfg.CuOrder = CuOrder;
      HeapSnapshot Snap;
      {
        ScopedSpan S(Log, "heap.snapshot", Id);
        Snap = buildSnapshot(P, *Built.BuildHeap, Built, Code, Reach, SnapCfg);
      }
      IdTable Ids;
      {
        ScopedSpan S(Log, "ordering.id_table", Id);
        Ids = computeIdTable(P, *Built.BuildHeap, Snap,
                             Cfg.StructuralMaxDepth);
      }
      std::vector<int32_t> ObjOrder;
      if (Cfg.UseHeapOrder && Cfg.HeapProf) {
        HeapMatchStats Match;
        {
          ScopedSpan S(Log, "ordering.heap_order", Id);
          ObjOrder = orderObjectsWithProfile(Snap, Ids, Cfg.HeapOrder,
                                             *Cfg.HeapProf, &Match);
        }
        Counts.HeapMatched += double(Match.Matched);
        Counts.HeapProfileIds += double(Match.ProfileIds);
      }
      ScopedSpan S(Log, "image.layout", Id);
      computeImageLayout(P, Code, Snap, CuOrder, ObjOrder, Cfg.Image);
    }
  }
}

//===----------------------------------------------------------------------===//
// One benchmark run
//===----------------------------------------------------------------------===//

namespace {

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

void printMetric(std::FILE *Out, const Metric &M) {
  if (M.Samples)
    std::fprintf(Out, "  %-30s %14.4f %-10s (n=%zu)\n", M.Name.c_str(),
                 M.Value, M.Unit.c_str(), M.Samples);
  else
    std::fprintf(Out, "  %-30s %14.4f %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
}

std::vector<Metric> perLayerMetrics(Runner &Run, const SpanLog &Log,
                                    const PhaseStats &Untraced,
                                    const PhaseStats &Traced,
                                    std::FILE *Out) {
  std::map<std::string, SelfTime> Self = selfTimesByName(Log.spans());
  auto Calls = [&](const char *Name) -> size_t {
    auto It = Self.find(Name);
    return It == Self.end() ? 0 : size_t(It->second.Calls);
  };
  auto TotalMs = [&](const char *Name) {
    auto It = Self.find(Name);
    return It == Self.end() ? 0.0 : double(It->second.Ns) / 1e6;
  };
  auto PerCall = [&](const char *Name) {
    return ratio(TotalMs(Name), double(Calls(Name)));
  };
  const LayerCounts &C = Run.counts();
  double SourceKiB = 0, Methods = 0;
  for (LoadedProgram &LP : Run.programs()) {
    SourceKiB += double(LP.SourceBytes) / 1024.0;
    Methods += double(LP.P->numMethods());
  }
  // Every program compiles once per set-up; spans cover the traced ones.
  double CompileS = TotalMs("lang.compile") / 1e3;
  double CompiledKiB =
      SourceKiB * ratio(double(Calls("lang.compile")),
                        double(Run.programs().size()));

  std::vector<Metric> M;
  auto Ms = [&](const char *Metric, const char *Span) {
    M.push_back({Metric, PerCall(Span), "ms", Calls(Span)});
  };
  auto Num = [&](const char *Metric, double V, const char *Unit) {
    M.push_back({Metric, V, Unit, 0});
  };
  Ms("lang.compile_ms", "lang.compile");
  Num("lang.source_kb", SourceKiB, "KiB");
  Num("lang.methods", Methods, "count");
  Num("lang.kb_per_s", ratio(CompiledKiB, CompileS), "KiB/s");
  Ms("compiler.reachability_ms", "compiler.reachability");
  Ms("compiler.cu_formation_ms", "compiler.cu_formation");
  Num("compiler.reachable_methods", ratio(C.ReachableMethods, C.StageCalls),
      "count");
  Num("compiler.cus", ratio(C.Cus, C.StageCalls), "count");
  Num("compiler.text_kb", ratio(C.TextKiB, C.BuiltImages), "KiB");
  Num("compiler.cu_degraded", C.CuDegraded, "count");
  Ms("heap.init_ms", "heap.init");
  Ms("heap.snapshot_ms", "heap.snapshot");
  Num("heap.snapshot_objects", ratio(C.SnapshotObjects, C.BuiltImages),
      "count");
  Num("heap.kb", ratio(C.HeapKiB, C.BuiltImages), "KiB");
  Num("heap.touched_ratio", ratio(C.TouchedRatioSum, C.Runs), "ratio");
  Ms("ordering.id_table_ms", "ordering.id_table");
  Ms("ordering.code_order_ms", "ordering.code_order");
  Ms("ordering.heap_order_ms", "ordering.heap_order");
  Num("ordering.heap_match_ratio", ratio(C.HeapMatched, C.HeapProfileIds),
      "ratio");
  Ms("image.layout_ms", "image.layout");
  Ms("image.write_ms", "image.write");
  Ms("image.read_ms", "image.read");
  Num("image.bytes", ratio(C.ImageBytes, C.BuiltImages), "bytes");
  Num("image.read_mb_per_s",
      ratio(C.SerializedBytes / 1e6, TotalMs("image.read") / 1e3), "MB/s");
  Ms("core.build_ms", "core.build");
  Ms("profiling.collect_ms", "profiling.collect");
  Num("profiling.salvage_kept_ratio", ratio(C.WordsKept, C.WordsScanned),
      "ratio");
  Num("profiling.retried_runs", C.RetriedRuns, "count");
  Num("profiling.instr_overhead", geomean(C.InstrOverhead), "ratio");
  Ms("profiling.collect_set_ms", "profiling.collect_set");
  Ms("profiling.merge_ms", "profiling.merge");
  Num("profiling.merge_quarantined", C.MergeQuarantined, "count");
  Ms("runtime.run_ms", "runtime.run");
  Num("runtime.instructions", ratio(C.Instructions, C.Runs), "count");
  Num("runtime.minstr_per_s",
      ratio(C.Instructions / 1e6, TotalMs("runtime.run") / 1e3), "Minstr/s");
  Num("runtime.text_faults", ratio(C.TextFaults, C.Runs), "count");
  Num("runtime.heap_faults", ratio(C.HeapFaults, C.Runs), "count");
  Num("runtime.prefetched_pages", ratio(C.Prefetched, C.Runs), "count");
  Ms("fleet.replay_ms", "fleet.replay");
  Num("fleet.major_faults", ratio(C.FleetMajors, C.FleetReplays), "count");
  Num("fleet.warm_hit_ratio", ratio(C.FleetWarmRatioSum, C.FleetReplays),
      "ratio");
  Num("trace_overhead_ratio",
      ratio(ratio(double(Untraced.Cells), Untraced.Seconds),
            ratio(double(Traced.Cells), Traced.Seconds)),
      "ratio");

  // Where a cell's time goes: self time per span, and for the spans that
  // make up a cell, their share of the time inside cells.
  static const std::set<std::string> CellSpans = {
      "cell", "core.build", "image.write", "image.read", "runtime.run",
      "fleet.replay"};
  double CellTotal = 0;
  for (const std::string &Name : CellSpans)
    CellTotal += TotalMs(Name.c_str());
  std::fprintf(Out, "# self time by span (traced phase, %zu cells)\n",
               Traced.Cells);
  std::fprintf(Out, "  %-24s %8s %12s %10s %9s\n", "span", "calls", "total_ms",
               "mean_ms", "of_cells");
  for (const auto &[Name, T] : Self) {
    double Total = double(T.Ns) / 1e6;
    std::fprintf(Out, "  %-24s %8llu %12.2f %10.4f", Name.c_str(),
                 static_cast<unsigned long long>(T.Calls), Total,
                 ratio(Total, double(T.Calls)));
    if (CellSpans.count(Name))
      std::fprintf(Out, " %8.1f%%", 100.0 * ratio(Total, CellTotal));
    std::fprintf(Out, "\n");
  }
  return M;
}

} // namespace

bool perfbench::runBenchmark(const Options &Opts, std::FILE *Out, Result &R,
                             std::string &Error) {
  const int Cpus = availableCpus();
  WorkloadPlan Plan;
  if (!planWorkload(Opts.Workload, Cpus, Plan)) {
    Error = "unknown workload '" + Opts.Workload + "'";
    return false;
  }
  std::fprintf(Out,
               "# perfbench workload=%s seed=%llu seconds=%g trace=%d "
               "cpus=%d jobs=%d build=%s\n",
               Plan.Name.c_str(), static_cast<unsigned long long>(Opts.Seed),
               Opts.Seconds, Opts.Trace ? 1 : 0, Cpus, Plan.Jobs,
               PERFBENCH_BUILD_TYPE);

  SpanLog Log(Opts.Trace);
  Runner Run(Plan, Opts.Seed, Log);
  if (!Run.setUp(Error))
    return false;

  PhaseStats Untraced, Traced;
  if (!Opts.Trace) {
    if (!Run.timedPhase(Opts.Seconds, Untraced, Error))
      return false;
  } else {
    // Half the time untraced, half traced: their throughput ratio is the
    // tracing overhead. The untraced half records no spans.
    Log.setEnabled(false);
    if (!Run.timedPhase(Opts.Seconds / 2, Untraced, Error))
      return false;
    Log.setEnabled(true);
    if (!Run.timedPhase(Opts.Seconds / 2, Traced, Error))
      return false;
    Run.replayStages();
  }
  R.Attempted += Run.attempted();
  R.Failed += Run.failed();
  for (const std::string &F : Run.failures())
    std::fprintf(Out, "# FAILED %s\n", F.c_str());
  R.Correct = R.Failed == 0;

  std::fprintf(Out, "# cells attempted=%llu failed=%llu failed_ratio=%.6f\n",
               static_cast<unsigned long long>(R.Attempted),
               static_cast<unsigned long long>(R.Failed),
               ratio(double(R.Failed), double(R.Attempted)));

  if (Opts.Trace) {
    R.Metrics = perLayerMetrics(Run, Log, Untraced, Traced, Out);
    if (!Opts.TracePath.empty()) {
      std::ofstream F(Opts.TracePath, std::ios::binary);
      F << Log.toChromeJson();
      if (!F)
        std::fprintf(Out, "# warning: could not write %s\n",
                     Opts.TracePath.c_str());
    }
  } else {
    const std::vector<double> &Cells = Run.cellMs();
    const size_t N = Cells.size();
    R.Metrics = {
        {"throughput_cells_per_s", ratio(double(N), Untraced.Seconds),
         "cells/s", N},
        {"cell_ms_p50", percentile(Cells, 0.5), "ms", N},
        {"cell_ms_p90", percentile(Cells, 0.9), "ms", N},
        {"setup_s", percentile(Run.setupSeconds(), 0.5), "s",
         Run.setupSeconds().size()},
        {"peak_rss_mb", peakRssMiB(), "MiB", 0},
        {"ok_ratio", 1.0 - ratio(double(R.Failed), double(R.Attempted)),
         "ratio", 0},
        {"base_startup_ms", geomean(Run.BaseStartupMs), "model_ms",
         Run.BaseStartupMs.size()},
        {"opt_startup_ms", geomean(Run.OptStartupMs), "model_ms",
         Run.OptStartupMs.size()},
        {"opt_first_run_faults", mean(Run.OptFaults), "faults",
         Run.OptFaults.size()},
        {"fleet_p99_ms", geomean(Run.FleetP99Ms), "model_ms",
         Run.FleetP99Ms.size()},
    };
    if (samplesBeyond(N, 0.9) < 10)
      std::fprintf(Out, "# warning: only %zu cells beyond p90\n",
                   samplesBeyond(N, 0.9));
  }
  std::fprintf(Out, "# metrics\n");
  for (const Metric &M : R.Metrics)
    printMetric(Out, M);
  return true;
}
