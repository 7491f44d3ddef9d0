//===- Analyses.h - Trace post-processing analyses --------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-processing framework of Sec. 6.2: analyses consume decoded
/// trace events in execution order (threads concatenated in creation
/// order, Sec. 7.1), keep an ordered set in encounter order, and emit a
/// CSV ordering profile that the optimizing build consumes.
///
/// Ingestion is crash-tolerant: replay salvages the longest valid prefix
/// of each thread (TraceSalvage.h), and the CSV interchange carries a
/// versioned header with a payload CRC-32 and program fingerprint so a
/// truncated, bit-flipped, or stale profile is rejected with a typed
/// diagnostic instead of silently producing a garbage layout.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PROFILING_ANALYSES_H
#define NIMG_PROFILING_ANALYSES_H

#include "src/ordering/IdStrategies.h"
#include "src/profiling/PathGraph.h"
#include "src/profiling/ProfileDiagnostics.h"
#include "src/profiling/Trace.h"
#include "src/profiling/TraceSalvage.h"

#include <string>
#include <vector>

namespace nimg {

/// Ordering profile over code: first-execution order of CU roots (cu
/// ordering) or of all methods (method ordering).
struct CodeProfile {
  ProfileHeader Header;
  /// Fatal problem found by fromCsv(); a profile with a load error is
  /// empty and the optimizing build falls back to the default layout.
  ProfileError LoadError = ProfileError::None;
  std::vector<std::string> Sigs;
  /// Optional per-sig event counts (cu mode: cu_enter events observed for
  /// the root, summed across threads). Either empty (no count evidence —
  /// legacy and method profiles) or parallel to Sigs. The merge
  /// drift scorer compares these distributions across fleet members.
  std::vector<uint64_t> Counts;

  /// Count for \p I, treating missing count evidence as 1.
  uint64_t countAt(size_t I) const {
    return I < Counts.size() ? Counts[I] : 1;
  }

  /// Serializes header row + payload + CRC.
  std::string toCsv() const;
  /// Parses and validates; never throws or asserts on hostile input. The
  /// returned profile records any fatal problem in LoadError; pass
  /// \p Report for per-row diagnostics.
  static CodeProfile fromCsv(const std::string &Text,
                             ProfileReadReport *Report = nullptr);
};

/// Ordering profile over heap objects: first-access order of 64-bit
/// strategy ids.
struct HeapProfile {
  ProfileHeader Header;
  ProfileError LoadError = ProfileError::None;
  std::vector<uint64_t> Ids;

  std::string toCsv() const;
  static HeapProfile fromCsv(const std::string &Text,
                             ProfileReadReport *Report = nullptr);
};

/// An event sink in the visitor style of Sec. 6.2.
class OrderingAnalysis {
public:
  virtual ~OrderingAnalysis() = default;
  virtual void onCuEnter(MethodId Root) { (void)Root; }
  virtual void onMethodEnter(MethodId M) { (void)M; }
  /// One periodic sample from a Sampled-mode capture: the method that was
  /// executing at the sample tick and its enclosing CU root.
  virtual void onSample(MethodId M, MethodId Root) {
    (void)M;
    (void)Root;
  }
  /// One basic-block visit decoded from a path record (method/heap modes;
  /// consecutive duplicates within one path are collapsed).
  virtual void onBlockVisit(MethodId M, BlockId B) {
    (void)M;
    (void)B;
  }
  /// \p SnapshotEntry is the traced image-object index (already >= 0).
  virtual void onObjectAccess(int32_t SnapshotEntry) { (void)SnapshotEntry; }
};

/// Replays a capture: salvages each thread's longest valid prefix, decodes
/// path records via \p Paths, and dispatches events to \p Analyses in
/// execution order. \p Stats (optional) reports what salvage dropped.
void replayTrace(const Program &P, const TraceCapture &Capture,
                 PathGraphCache &Paths,
                 const std::vector<OrderingAnalysis *> &Analyses,
                 SalvageStats *Stats = nullptr);

/// Replays the already-salvaged prefix (\p End words) of one thread's
/// trace, dispatching events to \p Analyses in that thread's execution
/// order. The building block of the parallel analyses: the sequential
/// semantics ("threads concatenated in creation order") equal per-thread
/// replays merged in thread order. Callers obtain \p End from
/// scanCapture().
void replayThreadPrefix(const Program &P, TraceMode Mode,
                        const std::vector<uint64_t> &Words, size_t End,
                        LocalPathCache &Paths,
                        const std::vector<OrderingAnalysis *> &Analyses);

/// The cu-ordering profile (Sec. 4.1) from a CuOrder-mode capture. A
/// capture in the wrong mode yields an empty profile (and sets
/// Stats->ModeMismatch) instead of asserting — trace files are external
/// input.
CodeProfile analyzeCuOrder(const Program &P, const TraceCapture &Capture,
                           SalvageStats *Stats = nullptr);

/// The method-ordering profile (Sec. 4.2) from a MethodOrder-mode capture.
CodeProfile analyzeMethodOrder(const Program &P, const TraceCapture &Capture,
                               PathGraphCache &Paths,
                               SalvageStats *Stats = nullptr);

/// Rank reconstruction from a Sampled-mode capture at CU granularity: CU
/// roots ordered by their earliest sample (per-thread streams merged in
/// creation order), counts = sample hits per root. The emitted profile is
/// stamped Mode=cu with Capture=Sampled and the capture's period, so it
/// flows through the cu ingestion path unchanged.
CodeProfile analyzeSampledCuOrder(const Program &P, const TraceCapture &Capture,
                                  SalvageStats *Stats = nullptr);

/// Same reconstruction at method granularity (Mode=method, for
/// `--code method` builds): methods ordered by earliest sample, counts =
/// sample hits per method.
CodeProfile analyzeSampledMethodOrder(const Program &P,
                                      const TraceCapture &Capture,
                                      SalvageStats *Stats = nullptr);

/// First-access order of snapshot entries from a HeapOrder-mode capture.
std::vector<int32_t> analyzeHeapAccessOrder(const Program &P,
                                            const TraceCapture &Capture,
                                            PathGraphCache &Paths,
                                            SalvageStats *Stats = nullptr);

/// Translates a first-access entry order into a strategy-id profile using
/// the profiling build's identity table.
HeapProfile heapProfileFor(const std::vector<int32_t> &EntryOrder,
                           const IdTable &Ids, HeapStrategy Strategy);

/// Per-basic-block execution counts derived by replaying a MethodOrder
/// path capture — the evidence the hot/cold CU splitter consumes. Counts
/// are keyed by (method signature, block index) so they apply to every
/// inline copy of a method. CoveragePermille records how much of the raw
/// trace survived salvage when the counts were derived; the splitter
/// degrades to unsplit below its threshold (the counts of a heavily
/// truncated trace under-report executed blocks, and a block wrongly
/// believed cold would fault on the cold tail every startup).
struct BlockProfile {
  ProfileHeader Header;
  ProfileError LoadError = ProfileError::None;
  /// WordsKept * 1000 / WordsScanned of the deriving salvage scan; 1000
  /// for a clean trace, 0 when nothing was scanned.
  uint32_t CoveragePermille = 1000;

  struct Row {
    std::string Sig;
    uint32_t Block = 0;
    uint64_t Count = 0;
  };
  /// Sorted by Sig then Block — a deterministic function of the merged
  /// profile, independent of --jobs.
  std::vector<Row> Rows;

  bool usable() const { return LoadError == ProfileError::None; }

  std::string toCsv() const;
  static BlockProfile fromCsv(const std::string &Text,
                              ProfileReadReport *Report = nullptr);
};

/// Derives per-block execution counts from a MethodOrder-mode capture.
/// Per-thread counts merge by summation, so the result is byte-identical
/// for any worker count. A capture in the wrong mode yields an empty
/// profile (and sets Stats->ModeMismatch).
BlockProfile analyzeBlockCounts(const Program &P, const TraceCapture &Capture,
                                PathGraphCache &Paths,
                                SalvageStats *Stats = nullptr);

} // namespace nimg

#endif // NIMG_PROFILING_ANALYSES_H
