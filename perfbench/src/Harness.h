//===- Harness.h - Workloads, cells and checks of the benchmark --*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark measures both of the system's clocks in one
/// run: the modeled startup time the paper is about (CostModel::startupNs)
/// and the wall time of the tool itself, end to end and per layer.
///
/// A *cell* is one (program, variant, build seed): buildNativeImage, the
/// image write and read when the workload has them, runImage, and the
/// fleet replay when the workload has one. Profile capture runs once per
/// program and round, inside the timed phase, and counts toward throughput
/// but not toward cell latency. The workload seed drives every build and
/// arrival seed; the programs themselves are fixed (see README.md).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Spans.h"

#include "src/core/Builder.h"
#include "src/workloads/Workloads.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Variant {
  std::string Name;
  nimg::CodeStrategy Code = nimg::CodeStrategy::None;
  bool UseHeap = false;
  nimg::HeapStrategy Heap = nimg::HeapStrategy::HeapPath;
  /// Code order from the aggregated fleet member set (cu-merged).
  bool Merged = false;
};

struct WorkloadPlan {
  std::string Name;
  std::vector<nimg::BenchmarkSpec> Programs;
  std::vector<Variant> Variants;
  /// Worker count of the library's build pool (--jobs).
  int Jobs = 1;
  int BuildSeedsPerRound = 1;
  /// Each cell writes its image, reads it back and runs the loaded copy.
  bool ImageIo = false;
  /// Each cell replays a FleetInstances storm of its own run.
  bool FleetInCell = false;
  /// Members of the fleet profile set captured per program and round.
  int MergeMembers = 0;
  /// Rounds whose cells carry the full checks and feed the modeled
  /// metrics. A run always completes them, so the modeled metrics depend
  /// on the seed alone, never on how fast the machine is. Enough of them
  /// keep the modeled geomeans within a few percent across seeds.
  int VerifiedRounds = 8;
};

inline constexpr const char *HeadlineVariant = "cu+heap path";
inline constexpr uint32_t FleetInstances = 1000;

const std::vector<std::string> &workloadNames();

/// Fills \p Out for the named workload; false for an unknown name.
/// \p Cpus caps the worker count of the parallel workloads.
bool planWorkload(const std::string &Name, int Cpus, WorkloadPlan &Out);

/// The Native-Image-scale program of the scaled-build workload, made by the
/// existing public generators at larger parameters.
nimg::BenchmarkSpec scaledProgram();

struct RoundSeeds {
  uint64_t Capture = 0;
  std::vector<uint64_t> Build;
  uint64_t Arrival = 0;
};

/// Seeds of round \p Round of a run started with \p WorkloadSeed.
RoundSeeds roundSeeds(uint64_t WorkloadSeed, int Round, int BuildSeeds);

/// Output of a direct Interpreter run of the unbuilt program (class
/// initializers run lazily), scheduled like runImage and, for a
/// microservice, cut after the scheduling step of the first response.
/// Sets \p Error when the program traps, runs out of fuel or never
/// responds.
std::string referenceOutput(nimg::Program &P, bool Microservice,
                            std::string &Error);

/// Why a cell's run is wrong (trap, fuel, missing response, output that
/// differs from \p Reference); empty when it is right.
std::string checkRun(const nimg::RunStats &S, const std::string &Reference,
                     bool Microservice);

/// Why two runs of the same image differ in modeled time, faults or
/// output; empty when they agree.
std::string compareRuns(const nimg::RunStats &A, const nimg::RunStats &B);

/// Modeled startup: end-to-end time, or time to first response for a
/// microservice (Sec. 7.1).
double startupNs(const nimg::RunStats &S, bool Microservice);

struct LoadedProgram {
  nimg::BenchmarkSpec Spec;
  std::unique_ptr<nimg::Program> P;
  std::string Reference;
  size_t SourceBytes = 0;
};

/// Profiles of one program for one round.
struct RoundProfiles {
  nimg::CollectedProfiles Prof;
  nimg::MergeResult Merged;
};

struct CellResult {
  uint64_t Id = 0;
  double WallMs = 0;
  bool Failed = false;
  std::string Why;
  nimg::RunStats Run;
  /// p99 cold start of the fleet storm, when the cell replayed one.
  double FleetP99Ns = 0;
};

/// Counts the layers report, gathered from return values.
struct LayerCounts {
  double ReachableMethods = 0, Cus = 0, StageCalls = 0;
  double TextKiB = 0, HeapKiB = 0, SnapshotObjects = 0, ImageBytes = 0;
  double BuiltImages = 0, CuDegraded = 0;
  double HeapMatched = 0, HeapProfileIds = 0;
  double SerializedBytes = 0;
  double Runs = 0, Instructions = 0, TextFaults = 0, HeapFaults = 0;
  double Prefetched = 0, TouchedRatioSum = 0;
  double FleetReplays = 0, FleetMajors = 0, FleetWarmRatioSum = 0;
  double WordsKept = 0, WordsScanned = 0, RetriedRuns = 0;
  std::vector<double> InstrOverhead;
  double MergeQuarantined = 0;
};

struct PhaseStats {
  size_t Cells = 0;
  double Seconds = 0;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  /// Samples behind the value (0 for a count or a ratio of totals).
  size_t Samples = 0;
};

/// Runs one workload: set-up, then the timed phase of rounds. The runner
/// owns the programs; cells of a round share its profiles.
class Runner {
public:
  Runner(WorkloadPlan Plan, uint64_t Seed, SpanLog &Log);

  /// One set-up: compiles every program, makes the reference outputs and
  /// warms up with one default build and run per program. Records its
  /// seconds in setupSeconds(); false (with \p Error) when a program does
  /// not compile or its reference run fails.
  bool setUp(std::string &Error);

  /// Runs rounds until \p Seconds of timed work have passed and at least
  /// Plan.VerifiedRounds rounds are done. Check-only work of the verified
  /// rounds is not timed, nor are the SetupsPerPhase set-ups repeated
  /// between rounds. Layer counts restart with every phase. False (with
  /// \p Error) when a repeated set-up fails.
  bool timedPhase(double Seconds, PhaseStats &Stats, std::string &Error);

  /// Replays buildNativeImage's stages one by one on the first round's
  /// inputs (traced run only), so the build splits into per-stage spans.
  void replayStages();

  /// Profile capture of one program for one round.
  RoundProfiles capture(LoadedProgram &LP, const RoundSeeds &Seeds);
  /// One cell. \p Verify adds the round-trip and fleet checks, and on the
  /// run's first verified headline cell the --jobs check.
  CellResult runCell(LoadedProgram &LP, const Variant &V,
                     const RoundProfiles &RP, uint64_t BuildSeed,
                     uint64_t ArrivalSeed, bool Verify);

  const WorkloadPlan &plan() const { return Plan; }
  std::vector<LoadedProgram> &programs() { return Programs; }

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &failures() const { return Failures; }
  const std::vector<double> &cellMs() const { return CellMs; }
  const LayerCounts &counts() const { return Counts; }
  const std::vector<double> &setupSeconds() const { return SetupSeconds; }

  /// Modeled metrics of the verified rounds.
  std::vector<double> BaseStartupMs, OptStartupMs, OptFaults, FleetP99Ms;

private:
  void fail(CellResult &C, const LoadedProgram &LP, const Variant &V,
            std::string Why);

  WorkloadPlan Plan;
  uint64_t Seed;
  SpanLog &Log;
  std::vector<LoadedProgram> Programs;
  std::vector<RoundProfiles> FirstRound;
  uint64_t NextCellId = 1;
  bool JobsChecked = false;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  std::vector<double> CellMs;
  std::vector<double> SetupSeconds;
  double UntimedSeconds = 0;
  LayerCounts Counts;
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its spans (Chrome trace JSON); empty to
  /// keep them in memory only.
  std::string TracePath;
};

struct Result {
  bool Correct = false;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
};

/// Set-ups repeated between the rounds of a timed phase, evenly over its
/// seconds. setup_s is the median of these and the first set-up: spread
/// over the run, they see the same machine conditions as the timed work,
/// which a burst of set-ups at start-up would not.
inline constexpr int SetupsPerPhase = 8;

/// Runs the benchmark for \p Opts, writing a readable report to \p Out.
/// False (with \p Error) when set-up fails; the run then has no result.
bool runBenchmark(const Options &Opts, std::FILE *Out, Result &R,
                  std::string &Error);

/// CPUs this process may run on.
int availableCpus();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
