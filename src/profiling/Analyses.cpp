//===- Analyses.cpp - Trace post-processing analyses ------------------------===//

#include "src/profiling/Analyses.h"

#include "src/obs/Metrics.h"
#include "src/support/Crc32.h"
#include "src/support/Csv.h"
#include "src/support/ThreadPool.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

using namespace nimg;

//===----------------------------------------------------------------------===//
// CSV interchange: header row + payload + CRC.
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *ProfileMagic = "#nimg-profile";
/// Cap on recorded per-row issues so a multi-megabyte corrupt file cannot
/// balloon the report.
constexpr size_t MaxRecordedIssues = 16;
/// Payload sanity bound: no real signature is this long.
constexpr size_t MaxSigBytes = 4096;

const char *modeToken(TraceMode M) {
  switch (M) {
  case TraceMode::CuOrder:
    return "cu";
  case TraceMode::MethodOrder:
    return "method";
  case TraceMode::HeapOrder:
    return "heap";
  case TraceMode::Sampled:
    return "sampled";
  }
  return "cu";
}

bool parseModeToken(const std::string &S, TraceMode &Out) {
  if (S == "cu")
    Out = TraceMode::CuOrder;
  else if (S == "method")
    Out = TraceMode::MethodOrder;
  else if (S == "heap")
    Out = TraceMode::HeapOrder;
  else if (S == "sampled")
    Out = TraceMode::Sampled;
  else
    return false;
  return true;
}

bool parseCaptureToken(const std::string &S, CaptureKind &Out) {
  if (S == "instrumented")
    Out = CaptureKind::Instrumented;
  else if (S == "sampled")
    Out = CaptureKind::Sampled;
  else
    return false;
  return true;
}

const char *strategyToken(HeapStrategy S) {
  switch (S) {
  case HeapStrategy::IncrementalId:
    return "inc";
  case HeapStrategy::StructuralHash:
    return "struct";
  case HeapStrategy::HeapPath:
    return "path";
  }
  return "inc";
}

bool parseStrategyToken(const std::string &S, bool &Has, HeapStrategy &Out) {
  Has = true;
  if (S == "inc")
    Out = HeapStrategy::IncrementalId;
  else if (S == "struct")
    Out = HeapStrategy::StructuralHash;
  else if (S == "path")
    Out = HeapStrategy::HeapPath;
  else if (S == "-")
    Has = false;
  else
    return false;
  return true;
}

/// Range-checked hex parse of a whole cell (satellite: no strtoull UB on
/// non-numeric or overflowing cells).
bool parseHexU64(const std::string &Cell, uint64_t &Out) {
  if (Cell.empty() || Cell.size() > 16)
    return false;
  auto [Ptr, Ec] =
      std::from_chars(Cell.data(), Cell.data() + Cell.size(), Out, 16);
  return Ec == std::errc() && Ptr == Cell.data() + Cell.size();
}

bool parseDecU32(const std::string &Cell, uint32_t &Out) {
  if (Cell.empty() || Cell.size() > 9)
    return false;
  auto [Ptr, Ec] =
      std::from_chars(Cell.data(), Cell.data() + Cell.size(), Out, 10);
  return Ec == std::errc() && Ptr == Cell.data() + Cell.size();
}

bool parseDecU64(const std::string &Cell, uint64_t &Out) {
  if (Cell.empty() || Cell.size() > 20)
    return false;
  auto [Ptr, Ec] =
      std::from_chars(Cell.data(), Cell.data() + Cell.size(), Out, 10);
  return Ec == std::errc() && Ptr == Cell.data() + Cell.size();
}

void addIssue(ProfileReadReport &R, ProfileError Kind, size_t Row,
              std::string Detail) {
  if (R.Issues.size() < MaxRecordedIssues)
    R.Issues.push_back({Kind, Row, std::move(Detail)});
}

std::string headerRowCsv(const ProfileHeader &H, uint32_t Crc) {
  char Fp[17], CrcBuf[9];
  std::snprintf(Fp, sizeof(Fp), "%016" PRIx64, H.Fingerprint);
  std::snprintf(CrcBuf, sizeof(CrcBuf), "%08" PRIx32, Crc);
  CsvDocument Doc;
  // v2 appends generation and coverage after the CRC so v1 readers that
  // stop at cell 6 (and our own v1 test vectors) stay parseable.
  Doc.Rows.push_back({ProfileMagic, std::to_string(ProfileFormatVersion),
                      modeToken(H.Mode),
                      H.HasStrategy ? strategyToken(H.Strategy) : "-", Fp,
                      CrcBuf, std::to_string(H.Generation),
                      std::to_string(H.CoveragePermille)});
  // Sampled-capture profiles append their capture kind and sample period;
  // instrumented headers stay byte-identical with pre-sampling emitters.
  if (H.Capture == CaptureKind::Sampled) {
    Doc.Rows[0].push_back(captureKindName(H.Capture));
    Doc.Rows[0].push_back(std::to_string(H.SamplePeriod));
  }
  return writeCsv(Doc);
}

/// Validates the header row (Doc.Rows[0]) if present. Returns the index of
/// the first payload row; on a fatal problem R.Fatal is set. A file whose
/// first cell does not start with '#' is a legacy headerless profile:
/// accepted without checksum or fingerprint protection.
size_t readProfileHeader(const std::string &Text, const CsvDocument &Doc,
                         ProfileReadReport &R) {
  R.Header.Version = 0;
  if (Doc.Rows.empty())
    return 0;
  const std::vector<std::string> &Row = Doc.Rows[0];
  if (Row.empty() || Row[0].empty() || Row[0][0] != '#') {
    addIssue(R, ProfileError::LegacyFormat, 1, "no interchange header");
    return 0;
  }
  // The row claims to be a header; from here anything unparsable is fatal
  // corruption, not legacy data.
  if (Row[0] != ProfileMagic || Row.size() < 6) {
    R.Fatal = ProfileError::BadHeader;
    addIssue(R, R.Fatal, 1, "unrecognized header row");
    return 1;
  }
  uint32_t Version = 0;
  if (!parseDecU32(Row[1], Version) || Version == 0) {
    R.Fatal = ProfileError::BadHeader;
    addIssue(R, R.Fatal, 1, "bad version cell: " + Row[1]);
    return 1;
  }
  if (Version > ProfileFormatVersion) {
    R.Fatal = ProfileError::UnsupportedVersion;
    addIssue(R, R.Fatal, 1, "profile version " + Row[1]);
    return 1;
  }
  uint64_t Fp = 0, Crc = 0;
  if (!parseModeToken(Row[2], R.Header.Mode) ||
      !parseStrategyToken(Row[3], R.Header.HasStrategy, R.Header.Strategy) ||
      !parseHexU64(Row[4], Fp) || !parseHexU64(Row[5], Crc) ||
      Crc > 0xffffffffu) {
    R.Fatal = ProfileError::BadHeader;
    addIssue(R, R.Fatal, 1, "bad header cells");
    return 1;
  }
  // v2 carries a generation stamp and capture coverage after the CRC; a
  // v1 row simply lacks them (generation unknown, full coverage assumed).
  R.Header.Generation = 0;
  R.Header.CoveragePermille = 1000;
  if (Version >= 2) {
    if (Row.size() < 8 || !parseDecU64(Row[6], R.Header.Generation) ||
        !parseDecU32(Row[7], R.Header.CoveragePermille) ||
        R.Header.CoveragePermille > 1000) {
      R.Fatal = ProfileError::BadHeader;
      addIssue(R, R.Fatal, 1, "bad generation/coverage cells");
      return 1;
    }
    // Optional capture cells (sampled profiles only): the capture kind
    // token and the sample period. The period is only syntax-checked here;
    // its plausibility is an aggregation gate (implausible_sample_period),
    // not a parse error — bad metadata quarantines a member, a lone build
    // still degrades through the normal profile-rejection path.
    if (Row.size() >= 9) {
      if (!parseCaptureToken(Row[8], R.Header.Capture) ||
          (R.Header.Capture == CaptureKind::Sampled &&
           (Row.size() < 10 || !parseDecU64(Row[9], R.Header.SamplePeriod)))) {
        R.Fatal = ProfileError::BadHeader;
        addIssue(R, R.Fatal, 1, "bad capture cells");
        return 1;
      }
    }
  }
  R.Header.Version = Version;
  R.Header.Fingerprint = Fp;
  R.HeaderPresent = true;
  // The CRC covers the raw payload text: everything after the header line.
  size_t Nl = Text.find('\n');
  std::string Payload = Nl == std::string::npos ? "" : Text.substr(Nl + 1);
  if (crc32(Payload) != uint32_t(Crc)) {
    if (R.Header.Capture == CaptureKind::Sampled) {
      // A sampled profile is a statistical artifact: a truncated upload
      // still carries usable hit evidence, so recover the longest
      // well-formed row prefix instead of rejecting the file. Instrumented
      // profiles keep the strict contract — every row is rank-bearing.
      R.PrefixSalvaged = true;
      addIssue(R, ProfileError::ChecksumMismatch, 0,
               "payload CRC-32 mismatch; salvaging sampled row prefix");
      return 1;
    }
    R.Fatal = ProfileError::ChecksumMismatch;
    addIssue(R, R.Fatal, 0, "payload CRC-32 mismatch");
    return 1;
  }
  return 1;
}

bool isBlankRow(const std::vector<std::string> &Row) {
  return Row.empty() || (Row.size() == 1 && Row[0].empty());
}

/// Surfaces one profile-load outcome ("code"/"heap") through the registry,
/// including a per-rejection-kind counter (dynamic names; ingestion is not
/// a hot path).
void meterProfileLoad(const char *Kind, const ProfileReadReport &R) {
  std::string Base = std::string("nimg.profile.load.") + Kind;
  NIMG_COUNTER_ADD_DYN(Base + ".attempts", 1);
  if (R.usable()) {
    NIMG_COUNTER_ADD_DYN(Base + ".ok", 1);
  } else {
    NIMG_COUNTER_ADD_DYN(Base + ".rejected", 1);
    NIMG_COUNTER_ADD_DYN(Base + ".rejected." + profileErrorSlug(R.Fatal), 1);
  }
  if (R.RowsKept)
    NIMG_COUNTER_ADD_DYN(Base + ".rows_kept", R.RowsKept);
  if (R.RowsSkipped)
    NIMG_COUNTER_ADD_DYN(Base + ".rows_skipped", R.RowsSkipped);
}

} // namespace

std::string CodeProfile::toCsv() const {
  CsvDocument Doc;
  Doc.Rows.reserve(Sigs.size());
  bool WithCounts = Counts.size() == Sigs.size() && !Counts.empty();
  for (size_t I = 0; I < Sigs.size(); ++I) {
    if (WithCounts)
      Doc.Rows.push_back({Sigs[I], std::to_string(Counts[I])});
    else
      Doc.Rows.push_back({Sigs[I]});
  }
  std::string Body = writeCsv(Doc);
  return headerRowCsv(Header, crc32(Body)) + Body;
}

CodeProfile CodeProfile::fromCsv(const std::string &Text,
                                 ProfileReadReport *Report) {
  ProfileReadReport Local;
  ProfileReadReport &R = Report ? *Report : Local;
  R = ProfileReadReport{};
  CodeProfile P;
  CsvDocument Doc = parseCsv(Text);
  size_t Start = readProfileHeader(Text, Doc, R);
  P.Header = R.Header;
  if (!R.usable()) {
    P.LoadError = R.Fatal;
    meterProfileLoad("code", R);
    return P;
  }
  P.Sigs.reserve(Doc.Rows.size() - Start);
  bool AnyCount = false;
  for (size_t I = Start; I < Doc.Rows.size(); ++I) {
    const std::vector<std::string> &Row = Doc.Rows[I];
    if (isBlankRow(Row))
      continue;
    if (Row[0].empty() || Row[0].size() > MaxSigBytes) {
      R.RowsSkipped += R.PrefixSalvaged ? Doc.Rows.size() - I : 1;
      addIssue(R, ProfileError::MalformedCell, I + 1, "bad signature cell");
      if (R.PrefixSalvaged)
        break; // Prefix salvage: the first bad row marks the cut point.
      continue;
    }
    // Optional second cell: per-sig event count (v2 cu profiles). A row
    // without one contributes the neutral count 1.
    uint64_t Count = 1;
    if (Row.size() >= 2 && !Row[1].empty()) {
      if (!parseDecU64(Row[1], Count)) {
        R.RowsSkipped += R.PrefixSalvaged ? Doc.Rows.size() - I : 1;
        addIssue(R, ProfileError::MalformedCell, I + 1, "bad count cell");
        if (R.PrefixSalvaged)
          break;
        continue;
      }
      AnyCount = true;
    }
    P.Sigs.push_back(Row[0]);
    P.Counts.push_back(Count);
    ++R.RowsKept;
  }
  // A CRC-mismatched sampled file that salvaged clean to its last row
  // still lost *something* (the CRC said so): account at least one row so
  // the aggregator classifies the member as salvaged, not accepted.
  if (R.PrefixSalvaged && R.RowsSkipped == 0)
    R.RowsSkipped = 1;
  if (!AnyCount)
    P.Counts.clear(); // No count evidence: keep the legacy shape.
  meterProfileLoad("code", R);
  return P;
}

std::string HeapProfile::toCsv() const {
  CsvDocument Doc;
  Doc.Rows.reserve(Ids.size());
  char Buf[32];
  for (uint64_t Id : Ids) {
    std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, Id);
    Doc.Rows.push_back({Buf});
  }
  std::string Body = writeCsv(Doc);
  return headerRowCsv(Header, crc32(Body)) + Body;
}

HeapProfile HeapProfile::fromCsv(const std::string &Text,
                                 ProfileReadReport *Report) {
  ProfileReadReport Local;
  ProfileReadReport &R = Report ? *Report : Local;
  R = ProfileReadReport{};
  HeapProfile P;
  CsvDocument Doc = parseCsv(Text);
  size_t Start = readProfileHeader(Text, Doc, R);
  P.Header = R.Header;
  if (!R.usable()) {
    P.LoadError = R.Fatal;
    meterProfileLoad("heap", R);
    return P;
  }
  P.Ids.reserve(Doc.Rows.size() - Start);
  for (size_t I = Start; I < Doc.Rows.size(); ++I) {
    const std::vector<std::string> &Row = Doc.Rows[I];
    if (isBlankRow(Row))
      continue;
    uint64_t Id = 0;
    if (!parseHexU64(Row[0], Id)) {
      ++R.RowsSkipped;
      addIssue(R, ProfileError::MalformedCell, I + 1,
               Row[0].substr(0, 32));
      continue;
    }
    P.Ids.push_back(Id);
    ++R.RowsKept;
  }
  meterProfileLoad("heap", R);
  return P;
}

//===----------------------------------------------------------------------===//
// Replay and analyses.
//===----------------------------------------------------------------------===//

void nimg::replayThreadPrefix(const Program &P, TraceMode Mode,
                              const std::vector<uint64_t> &Words, size_t End,
                              LocalPathCache &Paths,
                              const std::vector<OrderingAnalysis *> &Analyses) {
  bool HasOperands = Mode == TraceMode::HeapOrder;
  // One per-call scratch: decodeInto() reuses its vectors across records,
  // so the loop does not reallocate Blocks/Sites for every trace word.
  PathEvents Events;
  size_t I = 0;
  while (I < End) {
    uint64_t W = Words[I++];
    if (tracerec::isCuEnter(W)) {
      for (OrderingAnalysis *A : Analyses)
        A->onCuEnter(tracerec::cuRoot(W));
      continue;
    }
    if (tracerec::isSample(W)) {
      for (OrderingAnalysis *A : Analyses)
        A->onSample(tracerec::sampleMethod(W), tracerec::sampleRoot(W));
      continue;
    }
    if (!tracerec::isPath(W))
      continue; // Unreachable inside a salvaged prefix; defensive.
    MethodId M = tracerec::pathMethod(W);
    if (M < 0 || size_t(M) >= P.numMethods())
      continue;
    Paths.of(M).decodeInto(tracerec::pathId(W), Events);
    if (Events.MethodEntry)
      for (OrderingAnalysis *A : Analyses)
        A->onMethodEnter(M);
    for (BlockId B : Events.Blocks)
      for (OrderingAnalysis *A : Analyses)
        A->onBlockVisit(M, B);
    if (!HasOperands)
      continue;
    // A record cut mid-operands at the thread's end (mode-1 SIGKILL)
    // keeps its surviving operands; consume what is there.
    for (uint32_t K = 0; K < Events.OperandCount && I < End; ++K) {
      uint64_t Op = Words[I++];
      if (Op == 0)
        continue;
      for (OrderingAnalysis *A : Analyses)
        A->onObjectAccess(int32_t(Op - 1));
    }
  }
}

void nimg::replayTrace(const Program &P, const TraceCapture &Capture,
                       PathGraphCache &Paths,
                       const std::vector<OrderingAnalysis *> &Analyses,
                       SalvageStats *StatsOut) {
  if (captureEncoded(Capture)) {
    size_t Cut = 0;
    TraceCapture Decoded = decodeCapture(Capture, &Cut);
    replayTrace(P, Decoded, Paths, Analyses, StatsOut);
    if (StatsOut)
      StatsOut->IncompleteTailRecords += Cut;
    return;
  }
  SalvageStats Stats;
  std::vector<size_t> Prefix = scanCapture(P, Capture, Paths, Stats);
  LocalPathCache Local(Paths);
  for (size_t T = 0; T < Capture.Threads.size(); ++T)
    replayThreadPrefix(P, Capture.Options.Mode, Capture.Threads[T].Words,
                       Prefix[T], Local, Analyses);
  if (StatsOut)
    *StatsOut = Stats;
}

namespace {

/// First-seen id collector, generic over the three event kinds. One lives
/// per (worker, thread-trace) in the parallel analyses; the per-thread
/// orders are then merged front-to-back in thread creation order, which
/// reproduces the sequential "threads concatenated" first-seen order
/// exactly — so profiles are byte-identical for any worker count.
template <typename Id> class FirstSeen {
public:
  void note(Id V) {
    if (Seen.insert(V).second)
      Order.push_back(V);
  }
  std::vector<Id> Order;

private:
  std::unordered_set<Id> Seen;
};

class CuFirstSeen : public OrderingAnalysis {
public:
  void onCuEnter(MethodId Root) override {
    Ids.note(Root);
    ++Counts[Root];
  }
  FirstSeen<MethodId> Ids;
  /// cu_enter events per root within one thread; merged by summation, so
  /// the totals are independent of the worker count.
  std::unordered_map<MethodId, uint64_t> Counts;
};

class MethodFirstSeen : public OrderingAnalysis {
public:
  void onMethodEnter(MethodId M) override { Ids.note(M); }
  FirstSeen<MethodId> Ids;
};

/// Sampled-capture collectors: order by earliest sample, count hits. The
/// CU-granularity form keys on the sample's CU root, the method form on
/// the sampled method itself.
class SampleCuFirstSeen : public OrderingAnalysis {
public:
  void onSample(MethodId M, MethodId Root) override {
    (void)M;
    Ids.note(Root);
    ++Counts[Root];
  }
  FirstSeen<MethodId> Ids;
  std::unordered_map<MethodId, uint64_t> Counts;
};

class SampleMethodFirstSeen : public OrderingAnalysis {
public:
  void onSample(MethodId M, MethodId Root) override {
    (void)Root;
    Ids.note(M);
    ++Counts[M];
  }
  FirstSeen<MethodId> Ids;
  std::unordered_map<MethodId, uint64_t> Counts;
};

class EntryFirstSeen : public OrderingAnalysis {
public:
  void onObjectAccess(int32_t Entry) override { Ids.note(Entry); }
  FirstSeen<int32_t> Ids;
};

/// Runs \p Analysis over every thread of \p Capture in parallel (one task
/// per thread trace) and merges the per-thread first-seen orders in thread
/// order. \p Analysis must be one of the FirstSeen visitors above.
template <typename Analysis, typename Id>
std::vector<Id> analyzeFirstSeen(const Program &P, const TraceCapture &Capture,
                                 PathGraphCache &Paths, const char *Stage,
                                 SalvageStats *StatsOut) {
  if (captureEncoded(Capture)) {
    size_t Cut = 0;
    TraceCapture Decoded = decodeCapture(Capture, &Cut);
    std::vector<Id> Out =
        analyzeFirstSeen<Analysis, Id>(P, Decoded, Paths, Stage, StatsOut);
    if (StatsOut)
      StatsOut->IncompleteTailRecords += Cut;
    return Out;
  }
  SalvageStats Stats;
  std::vector<size_t> Prefix = scanCapture(P, Capture, Paths, Stats);

  std::vector<std::vector<Id>> PerThread = parallelMap(
      Capture.Threads.size(), 1, Stage, [&](size_t T) {
        Analysis A;
        LocalPathCache Local(Paths);
        replayThreadPrefix(P, Capture.Options.Mode, Capture.Threads[T].Words,
                           Prefix[T], Local, {&A});
        return std::move(A.Ids.Order);
      });

  // Ordered merge: earlier threads win ties, exactly as if the threads had
  // been replayed back to back sequentially.
  size_t Total = 0;
  for (const std::vector<Id> &O : PerThread)
    Total += O.size();
  std::vector<Id> Merged;
  Merged.reserve(Total);
  std::unordered_set<Id> Seen;
  Seen.reserve(Total);
  for (const std::vector<Id> &O : PerThread)
    for (Id V : O)
      if (Seen.insert(V).second)
        Merged.push_back(V);

  if (StatsOut)
    *StatsOut = Stats;
  return Merged;
}

std::vector<std::string> sigsOf(const Program &P,
                                const std::vector<MethodId> &Ids) {
  std::vector<std::string> Sigs;
  Sigs.reserve(Ids.size());
  for (MethodId M : Ids)
    Sigs.push_back(P.method(M).Sig);
  return Sigs;
}

void reportModeMismatch(SalvageStats *Stats) {
  NIMG_COUNTER_ADD("nimg.salvage.mode_mismatch", 1);
  if (!Stats) {
    return;
  }
  *Stats = SalvageStats{};
  Stats->ModeMismatch = true;
}

/// Salvage coverage in permille; an unscanned (empty) capture counts as
/// full coverage — there was nothing to lose.
uint32_t salvageCoveragePermille(const SalvageStats &S) {
  if (!S.WordsScanned)
    return 1000;
  return uint32_t(S.WordsKept * 1000 / S.WordsScanned);
}

} // namespace

CodeProfile nimg::analyzeCuOrder(const Program &P, const TraceCapture &Capture,
                                 SalvageStats *Stats) {
  CodeProfile Out;
  Out.Header.Mode = TraceMode::CuOrder;
  if (Capture.Options.Mode != TraceMode::CuOrder) {
    reportModeMismatch(Stats);
    return Out;
  }
  if (captureEncoded(Capture)) {
    size_t Cut = 0;
    TraceCapture Decoded = decodeCapture(Capture, &Cut);
    Out = analyzeCuOrder(P, Decoded, Stats);
    if (Stats)
      Stats->IncompleteTailRecords += Cut;
    return Out;
  }
  PathGraphCache Paths(P); // Unused for cu records but required by replay.
  SalvageStats Local;
  std::vector<size_t> Prefix = scanCapture(P, Capture, Paths, Local);

  std::vector<std::pair<std::vector<MethodId>,
                        std::unordered_map<MethodId, uint64_t>>>
      PerThread = parallelMap(Capture.Threads.size(), 1, "replay_cu",
                              [&](size_t T) {
                                CuFirstSeen A;
                                LocalPathCache LocalPaths(Paths);
                                replayThreadPrefix(P, Capture.Options.Mode,
                                                   Capture.Threads[T].Words,
                                                   Prefix[T], LocalPaths, {&A});
                                return std::make_pair(std::move(A.Ids.Order),
                                                      std::move(A.Counts));
                              });

  // Ordered merge (earlier threads win ties) plus count summation — both
  // deterministic functions of the capture, independent of --jobs.
  std::vector<MethodId> Order;
  std::unordered_set<MethodId> Seen;
  std::unordered_map<MethodId, uint64_t> Totals;
  for (const auto &[ThreadOrder, ThreadCounts] : PerThread) {
    for (MethodId M : ThreadOrder)
      if (Seen.insert(M).second)
        Order.push_back(M);
    for (const auto &[M, N] : ThreadCounts)
      Totals[M] += N;
  }
  Out.Sigs = sigsOf(P, Order);
  Out.Counts.reserve(Order.size());
  for (MethodId M : Order)
    Out.Counts.push_back(Totals[M]);
  Out.Header.CoveragePermille = salvageCoveragePermille(Local);
  if (Stats)
    *Stats = Local;
  return Out;
}

CodeProfile nimg::analyzeMethodOrder(const Program &P,
                                     const TraceCapture &Capture,
                                     PathGraphCache &Paths,
                                     SalvageStats *Stats) {
  CodeProfile Out;
  Out.Header.Mode = TraceMode::MethodOrder;
  if (Capture.Options.Mode != TraceMode::MethodOrder) {
    reportModeMismatch(Stats);
    return Out;
  }
  SalvageStats Local;
  Out.Sigs = sigsOf(P, analyzeFirstSeen<MethodFirstSeen, MethodId>(
                           P, Capture, Paths, "replay_method", &Local));
  Out.Header.CoveragePermille = salvageCoveragePermille(Local);
  if (Stats)
    *Stats = Local;
  return Out;
}

namespace {

/// Shared body of the two sampled rank reconstructions: per-thread
/// first-sample orders merged in thread-creation order (earliest sample
/// wins), hit counts merged by summation — a deterministic function of
/// the capture, independent of --jobs, exactly like analyzeCuOrder.
template <typename Visitor>
CodeProfile analyzeSampledWith(const Program &P, const TraceCapture &Capture,
                               TraceMode OutMode, const char *Stage,
                               SalvageStats *Stats) {
  CodeProfile Out;
  Out.Header.Mode = OutMode;
  Out.Header.Capture = CaptureKind::Sampled;
  Out.Header.SamplePeriod = Capture.Options.SamplePeriod;
  if (Capture.Options.Mode != TraceMode::Sampled) {
    reportModeMismatch(Stats);
    return Out;
  }
  if (captureEncoded(Capture)) {
    size_t Cut = 0;
    TraceCapture Decoded = decodeCapture(Capture, &Cut);
    Out = analyzeSampledWith<Visitor>(P, Decoded, OutMode, Stage, Stats);
    if (Stats)
      Stats->IncompleteTailRecords += Cut;
    return Out;
  }
  PathGraphCache Paths(P); // Unused for sample records; required by scan.
  SalvageStats Local;
  std::vector<size_t> Prefix = scanCapture(P, Capture, Paths, Local);

  std::vector<std::pair<std::vector<MethodId>,
                        std::unordered_map<MethodId, uint64_t>>>
      PerThread = parallelMap(Capture.Threads.size(), 1, Stage,
                              [&](size_t T) {
                                Visitor A;
                                LocalPathCache LocalPaths(Paths);
                                replayThreadPrefix(P, Capture.Options.Mode,
                                                   Capture.Threads[T].Words,
                                                   Prefix[T], LocalPaths, {&A});
                                return std::make_pair(std::move(A.Ids.Order),
                                                      std::move(A.Counts));
                              });

  std::vector<MethodId> Order;
  std::unordered_set<MethodId> Seen;
  std::unordered_map<MethodId, uint64_t> Totals;
  for (const auto &[ThreadOrder, ThreadCounts] : PerThread) {
    for (MethodId M : ThreadOrder)
      if (Seen.insert(M).second)
        Order.push_back(M);
    for (const auto &[M, N] : ThreadCounts)
      Totals[M] += N;
  }
  Out.Sigs = sigsOf(P, Order);
  Out.Counts.reserve(Order.size());
  for (MethodId M : Order)
    Out.Counts.push_back(Totals[M]);
  Out.Header.CoveragePermille = salvageCoveragePermille(Local);
  if (Stats)
    *Stats = Local;
  return Out;
}

} // namespace

CodeProfile nimg::analyzeSampledCuOrder(const Program &P,
                                        const TraceCapture &Capture,
                                        SalvageStats *Stats) {
  return analyzeSampledWith<SampleCuFirstSeen>(P, Capture, TraceMode::CuOrder,
                                               "replay_sample_cu", Stats);
}

CodeProfile nimg::analyzeSampledMethodOrder(const Program &P,
                                            const TraceCapture &Capture,
                                            SalvageStats *Stats) {
  return analyzeSampledWith<SampleMethodFirstSeen>(
      P, Capture, TraceMode::MethodOrder, "replay_sample_method", Stats);
}

std::vector<int32_t> nimg::analyzeHeapAccessOrder(const Program &P,
                                                  const TraceCapture &Capture,
                                                  PathGraphCache &Paths,
                                                  SalvageStats *Stats) {
  if (Capture.Options.Mode != TraceMode::HeapOrder) {
    reportModeMismatch(Stats);
    return {};
  }
  return analyzeFirstSeen<EntryFirstSeen, int32_t>(P, Capture, Paths,
                                                   "replay_heap", Stats);
}

//===----------------------------------------------------------------------===//
// Block execution counts (hot/cold splitting evidence).
//===----------------------------------------------------------------------===//

namespace {

/// First payload cell of the coverage row. '@' cannot start a method
/// signature, so the row is unambiguous in the payload.
constexpr const char *CoverageRowTag = "@coverage";

class BlockCountAnalysis : public OrderingAnalysis {
public:
  void onBlockVisit(MethodId M, BlockId B) override {
    ++Counts[(uint64_t(uint32_t(M)) << 32) | uint32_t(B)];
  }
  std::unordered_map<uint64_t, uint64_t> Counts;
};

} // namespace

std::string BlockProfile::toCsv() const {
  CsvDocument Doc;
  Doc.Rows.reserve(Rows.size() + 1);
  Doc.Rows.push_back({CoverageRowTag, std::to_string(CoveragePermille)});
  for (const Row &R : Rows)
    Doc.Rows.push_back(
        {R.Sig, std::to_string(R.Block), std::to_string(R.Count)});
  std::string Body = writeCsv(Doc);
  return headerRowCsv(Header, crc32(Body)) + Body;
}

BlockProfile BlockProfile::fromCsv(const std::string &Text,
                                   ProfileReadReport *Report) {
  ProfileReadReport Local;
  ProfileReadReport &R = Report ? *Report : Local;
  R = ProfileReadReport{};
  BlockProfile P;
  P.CoveragePermille = 0; // Only an explicit coverage row vouches for one.
  CsvDocument Doc = parseCsv(Text);
  size_t Start = readProfileHeader(Text, Doc, R);
  P.Header = R.Header;
  if (!R.usable()) {
    P.LoadError = R.Fatal;
    meterProfileLoad("block", R);
    return P;
  }
  P.Rows.reserve(Doc.Rows.size() - Start);
  for (size_t I = Start; I < Doc.Rows.size(); ++I) {
    const std::vector<std::string> &Row = Doc.Rows[I];
    if (isBlankRow(Row))
      continue;
    if (Row[0] == CoverageRowTag) {
      uint32_t Permille = 0;
      if (Row.size() < 2 || !parseDecU32(Row[1], Permille) ||
          Permille > 1000) {
        ++R.RowsSkipped;
        addIssue(R, ProfileError::MalformedCell, I + 1, "bad coverage row");
        continue;
      }
      P.CoveragePermille = Permille;
      ++R.RowsKept;
      continue;
    }
    BlockProfile::Row Parsed;
    if (Row.size() < 3 || Row[0].empty() || Row[0].size() > MaxSigBytes ||
        !parseDecU32(Row[1], Parsed.Block) ||
        !parseDecU64(Row[2], Parsed.Count)) {
      ++R.RowsSkipped;
      addIssue(R, ProfileError::MalformedCell, I + 1, "bad block-count row");
      continue;
    }
    Parsed.Sig = Row[0];
    P.Rows.push_back(std::move(Parsed));
    ++R.RowsKept;
  }
  meterProfileLoad("block", R);
  return P;
}

BlockProfile nimg::analyzeBlockCounts(const Program &P,
                                      const TraceCapture &Capture,
                                      PathGraphCache &Paths,
                                      SalvageStats *StatsOut) {
  BlockProfile Out;
  Out.Header.Mode = TraceMode::MethodOrder;
  if (Capture.Options.Mode != TraceMode::MethodOrder) {
    reportModeMismatch(StatsOut);
    Out.CoveragePermille = 0;
    return Out;
  }
  if (captureEncoded(Capture)) {
    size_t Cut = 0;
    TraceCapture Decoded = decodeCapture(Capture, &Cut);
    Out = analyzeBlockCounts(P, Decoded, Paths, StatsOut);
    if (StatsOut)
      StatsOut->IncompleteTailRecords += Cut;
    return Out;
  }

  SalvageStats Stats;
  std::vector<size_t> Prefix = scanCapture(P, Capture, Paths, Stats);
  std::vector<std::unordered_map<uint64_t, uint64_t>> PerThread = parallelMap(
      Capture.Threads.size(), 1, "replay_blocks", [&](size_t T) {
        BlockCountAnalysis A;
        A.Counts.reserve(Prefix[T] < 4096 ? Prefix[T] : 4096);
        LocalPathCache Local(Paths);
        replayThreadPrefix(P, Capture.Options.Mode, Capture.Threads[T].Words,
                           Prefix[T], Local, {&A});
        return std::move(A.Counts);
      });

  // Counts merge by summation — order-insensitive, so the merged map is
  // identical for any worker count; the sorted rows below fix the output
  // byte order.
  std::unordered_map<uint64_t, uint64_t> Merged;
  size_t Hint = 0;
  for (const auto &M : PerThread)
    Hint += M.size();
  Merged.reserve(Hint);
  for (const auto &M : PerThread)
    for (const auto &[Key, N] : M)
      Merged[Key] += N;

  Out.Rows.reserve(Merged.size());
  for (const auto &[Key, N] : Merged) {
    BlockProfile::Row R;
    R.Sig = P.method(MethodId(int32_t(Key >> 32))).Sig;
    R.Block = uint32_t(Key & 0xffffffffu);
    R.Count = N;
    Out.Rows.push_back(std::move(R));
  }
  std::sort(Out.Rows.begin(), Out.Rows.end(),
            [](const BlockProfile::Row &A, const BlockProfile::Row &B) {
              if (A.Sig != B.Sig)
                return A.Sig < B.Sig;
              return A.Block < B.Block;
            });

  Out.CoveragePermille =
      Stats.WordsScanned
          ? uint32_t(Stats.WordsKept * 1000 / Stats.WordsScanned)
          : 0;
  NIMG_COUNTER_ADD("nimg.split.block_rows", Out.Rows.size());
  if (StatsOut)
    *StatsOut = Stats;
  return Out;
}

HeapProfile nimg::heapProfileFor(const std::vector<int32_t> &EntryOrder,
                                 const IdTable &Ids, HeapStrategy Strategy) {
  HeapProfile P;
  P.Header.Mode = TraceMode::HeapOrder;
  P.Header.HasStrategy = true;
  P.Header.Strategy = Strategy;
  const std::vector<uint64_t> &Table = Ids.of(Strategy);
  P.Ids.reserve(EntryOrder.size());
  for (int32_t Entry : EntryOrder) {
    if (Entry < 0 || size_t(Entry) >= Table.size())
      continue;
    P.Ids.push_back(Table[size_t(Entry)]);
  }
  return P;
}
