//===- abl_maxdepth.cpp - Ablation: structural-hash MAX_DEPTH --------------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Sec. 7.1 sets MAX_DEPTH = 2, "experimentally determined as a good
// trade-off between computational time, hash collision probability, and
// identity-matching probability across compilations" (Sec. 5.2: deeper
// recursion lowers collisions but also lowers cross-build matchability,
// because divergent neighbours enter the hash). This ablation sweeps
// MAX_DEPTH and reports exactly those three axes.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

using namespace nimg;

int main(int Argc, char **Argv) {
  // --smoke: sweep depths 0..2 only (bench-smoke ctest label).
  bool Smoke = benchutil::smokeMode(Argc, Argv);
  BenchmarkSpec Spec = awfyBenchmark("Bounce");
  std::vector<std::string> Errors;
  std::unique_ptr<Program> P = compileBenchmark(Spec, Errors);
  if (!P)
    return 1;

  RunConfig Run;
  std::printf("Ablation — structural-hash MAX_DEPTH sweep (AWFY Bounce)\n");
  std::printf("%8s %12s %12s %14s %12s\n", "depth", "computeMs",
              "collisions", "crossBuild", "heapFaultF");

  for (int Depth = 0; Depth <= (Smoke ? 2 : 4); ++Depth) {
    BuildConfig InstrCfg;
    InstrCfg.Seed = 1001;
    InstrCfg.Instrumented = true;
    InstrCfg.StructuralMaxDepth = Depth;
    NativeImage InstrImg = buildNativeImage(*P, InstrCfg);
    BuildConfig ProfCfg = InstrCfg;
    ProfCfg.Instrumented = false; // collectProfiles sets it itself.
    CollectedProfiles Prof = collectProfiles(*P, ProfCfg, Run);

    BuildConfig Cfg;
    Cfg.Seed = 1;
    Cfg.StructuralMaxDepth = Depth;
    auto Start = std::chrono::steady_clock::now();
    NativeImage Img = buildNativeImage(*P, Cfg);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

    // Collisions: stored entries sharing a structural hash.
    std::unordered_map<uint64_t, int> Seen;
    size_t Collisions = 0, Stored = 0;
    for (size_t I = 0; I < Img.Snapshot.Entries.size(); ++I) {
      if (Img.Snapshot.Entries[I].Elided)
        continue;
      ++Stored;
      if (Seen[Img.Ids.StructuralHashes[I]]++ > 0)
        ++Collisions;
    }

    // Cross-build identity agreement: how many of the other build's ids
    // this build can consume (multiset intersection) — the
    // identity-matching probability axis of Sec. 7.1's trade-off.
    std::unordered_map<uint64_t, int> Other;
    for (size_t I = 0; I < InstrImg.Snapshot.Entries.size(); ++I)
      if (!InstrImg.Snapshot.Entries[I].Elided)
        ++Other[InstrImg.Ids.StructuralHashes[I]];
    size_t Agree = 0;
    for (size_t I = 0; I < Img.Snapshot.Entries.size(); ++I) {
      if (Img.Snapshot.Entries[I].Elided)
        continue;
      auto It = Other.find(Img.Ids.StructuralHashes[I]);
      if (It != Other.end() && It->second > 0) {
        --It->second;
        ++Agree;
      }
    }
    double MatchRate = Stored == 0 ? 0.0 : double(Agree) / double(Stored);

    BuildConfig Ordered =
        layoutConfig({.Heap = HeapStrategy::StructuralHash}, Prof, Cfg.Seed);
    Ordered.StructuralMaxDepth = Depth;
    NativeImage OrderedImg = buildNativeImage(*P, Ordered);
    RunStats Base = runImage(Img, Run);
    RunStats Opt = runImage(OrderedImg, Run);
    double Factor = Opt.HeapFaults == 0
                        ? 1.0
                        : double(Base.HeapFaults) / double(Opt.HeapFaults);

    std::printf("%8d %12.2f %7zu/%-4zu %13.1f%% %12.2f\n", Depth, Ms,
                Collisions, Stored, 100.0 * MatchRate, Factor);
  }
  std::printf("\n(The paper settles on MAX_DEPTH = 2.)\n");
  return 0;
}
