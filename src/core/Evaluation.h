//===- Evaluation.h - Paper-evaluation measurement harness -----*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the measurement protocol of Sec. 7.1: per benchmark, build
/// several images per strategy (the paper builds 10; the seed plays the
/// role of build-to-build nondeterminism), run each on a cold page cache,
/// and report factors M_baseline / M_optimized with 95% confidence
/// intervals. Code strategies are scored on .text faults, heap strategies
/// on .svm_heap faults, the combined strategy on both — exactly the
/// figures' conventions. AWFY workloads measure end-to-end time;
/// microservices measure elapsed time until the first response and are
/// then killed.
///
/// A workload is compiled and profiled once (profileWorkload); each series
/// of the figures (plain, split) is then evaluated against that one profile
/// bundle (evaluateSeries). The instrumented build ignores the split
/// setting, so sharing the bundle changes no result.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_CORE_EVALUATION_H
#define NIMG_CORE_EVALUATION_H

#include "src/core/Builder.h"
#include "src/workloads/Workloads.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace nimg {

/// One point of the layout matrix: code ordering × heap ordering ×
/// hot/cold splitting × huge-page budget, and
/// whether the code profile is merged from a fleet member set instead of
/// the single collected profile.
struct LayoutVariant {
  CodeStrategy Code = CodeStrategy::None;
  /// Heap ordering strategy; empty keeps the default heap layout.
  std::optional<HeapStrategy> Heap = std::nullopt;
  SplitMode Split = SplitMode::None;
  uint32_t HugePages = 0;
  /// Feed the code strategy from the member set passed to layoutConfig
  /// (merged at build time) rather than from the bundle's own profile.
  bool MergedMembers = false;
};

/// A display name for a variant: the JSON key or table column it lands in.
struct NamedLayout {
  std::string Name;
  LayoutVariant Layout;
};

/// The optimizing build of \p V at build seed \p Seed: wires the bundle's
/// profile for each requested axis (code, heap, blocks for splitting) and,
/// for a MergedMembers variant, \p Members as the code profile source. Every other BuildConfig field keeps its default.
BuildConfig layoutConfig(const LayoutVariant &V, const CollectedProfiles &Prof,
                         uint64_t Seed,
                         const std::vector<MemberProfile> *Members = nullptr);

struct EvalOptions {
  /// Images built per strategy (paper: 10). Runs are deterministic given a
  /// build, so one measured run per image suffices.
  int Seeds = 3;
};

/// Mean with a 95% confidence interval over build seeds.
struct Stat {
  double Mean = 0;
  double Lo = 0;
  double Hi = 0;
};

Stat statOf(const std::vector<double> &Samples);

/// Measurements for one strategy (or the baseline).
struct VariantEval {
  std::string Name;
  Stat TextFaults;
  Stat HeapFaults;
  Stat TotalFaults;
  Stat TimeNs;
  // Factors versus the baseline (higher is better, Sec. 7.1).
  double TextFaultFactor = 1.0;
  double HeapFaultFactor = 1.0;
  double TotalFaultFactor = 1.0;
  double Speedup = 1.0;
};

struct BenchmarkEval {
  std::string Benchmark;
  bool Microservice = false;
  VariantEval Baseline;
  /// One entry per paperStrategies() row, in that order.
  std::vector<VariantEval> Variants;

  /// Fraction of stored snapshot objects the baseline run touches
  /// (Sec. 7.2 reports ~4 % on AWFY).
  double PctStoredObjectsTouched = 0;
  size_t SnapshotObjects = 0;
  uint64_t ImageBytes = 0;

  /// Sec. 7.4 profiling overheads: instrumented time / baseline time.
  double CuOverhead = 1.0;
  double MethodOverhead = 1.0;
  double HeapOverhead = 1.0;
};

/// The six strategies of Figs. 2–5, in column order: cu, method,
/// incremental id, structural hash, heap path, cu+heap path.
const std::vector<NamedLayout> &paperStrategies();

/// A compiled benchmark with its profile bundle (one instrumented build,
/// Sec. 3) and the run configuration every measurement of it uses.
struct ProfiledWorkload {
  BenchmarkSpec Spec;
  std::unique_ptr<Program> P;
  RunConfig Run;
  CollectedProfiles Prof;
};

/// Compiles \p Spec and collects its profiles once.
ProfiledWorkload profileWorkload(const BenchmarkSpec &Spec);

/// Evaluates the baseline and every paperStrategies() row against \p W's
/// profiles, with \p Series's split setting applied to every image (the
/// baseline included). Its other fields are ignored.
BenchmarkEval evaluateSeries(const ProfiledWorkload &W,
                             const LayoutVariant &Series,
                             const EvalOptions &Opts);

/// Geometric mean (the figures' summary statistic).
double geomean(const std::vector<double> &Factors);

/// Reads NIMAGE_EVAL_SEEDS from the environment (default \p Default);
/// lets bench binaries trade precision for wall time.
int evalSeedsFromEnv(int Default);

} // namespace nimg

#endif // NIMG_CORE_EVALUATION_H
