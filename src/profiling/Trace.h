//===- Trace.h - Trace records, buffers, and dump modes ---------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-thread trace format of the tracing profiler (Sec. 6.1). A trace
/// is a sequence of 64-bit words:
///
///  - a *path record* carries the method and Ball-Larus path id; it is
///    followed by exactly as many operand words as the decoded path has
///    heap-access slots (heap-ordering traces only). An operand word is
///    `snapshotEntryIndex + 1`, or 0 when the accessed value was not an
///    image-heap object;
///  - a *CU-entry record* carries the root method of the entered
///    compilation unit (cu-ordering traces only).
///
/// Buffers have two dump modes (Sec. 6.1): FlushOnFull flushes full
/// buffers and at thread termination — an abnormal termination (the
/// SIGKILL the microservice harness sends, Sec. 7.1) loses the unflushed
/// tail; MemoryMapped models mmap-backed trace files where the kernel
/// persists every word, at a higher per-word cost.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_PROFILING_TRACE_H
#define NIMG_PROFILING_TRACE_H

#include "src/ir/Program.h"

#include <cstdint>
#include <vector>

namespace nimg {

/// What the instrumented binary traces; one per ordering strategy family.
enum class TraceMode : uint8_t {
  CuOrder,     ///< CU-entry events (Sec. 4.1).
  MethodOrder, ///< Method-entry events via path records (Sec. 4.2).
  HeapOrder,   ///< Object accesses via path records + operands (Sec. 5).
  Sampled,     ///< Periodic samples of the executing method/CU (BOLT-style).
};

enum class DumpMode : uint8_t { FlushOnFull, MemoryMapped };

/// On-"disk" representation of dumped buffers. Raw persists each word as
/// eight bytes; VarintDelta persists the zigzag of the delta to the
/// previous word as LEB128 (consecutive path records of one method differ
/// only in their low bits, so most deltas fit in two or three bytes).
enum class TraceEncoding : uint8_t { Raw, VarintDelta };

struct TraceOptions {
  TraceMode Mode = TraceMode::CuOrder;
  DumpMode Dump = DumpMode::FlushOnFull;
  TraceEncoding Encoding = TraceEncoding::Raw;
  uint32_t BufferWords = 16384;
  /// Sampled mode only: model-clock instructions between samples. The
  /// default is the sweet spot of paper_eval's sampled overhead row —
  /// coarse enough that capture cost vanishes, fine enough that the first
  /// AWFY startup phase still lands dozens of samples.
  uint64_t SamplePeriod = DefaultSamplePeriod;
  /// Sampled mode only: clock offset of the first sample. Fleet members
  /// stagger their phases so a merged set covers more of the period.
  uint64_t SamplePhase = 0;

  static constexpr uint64_t DefaultSamplePeriod = 2048;
  /// Periods above this are nonsense metadata (a whole run takes well
  /// under 2^20 modeled instructions times a few): the aggregator
  /// quarantines such members (`implausible_sample_period`).
  static constexpr uint64_t MaxSamplePeriod = 1 << 20;
};

/// LEB128/zigzag-delta coding of trace words (TraceEncoding::VarintDelta).
namespace varint {

/// Appends the zigzag-LEB128 encoding of \p Word (delta against \p Prev)
/// to \p Out; returns the number of bytes emitted and updates \p Prev.
inline size_t encodeWord(uint64_t Word, uint64_t &Prev,
                         std::vector<uint8_t> &Out) {
  uint64_t Delta = Word - Prev;
  Prev = Word;
  // Zigzag so small negative deltas stay short.
  uint64_t Zz = (Delta << 1) ^ (uint64_t)((int64_t)Delta >> 63);
  size_t N = 0;
  do {
    uint8_t B = Zz & 0x7f;
    Zz >>= 7;
    if (Zz)
      B |= 0x80;
    Out.push_back(B);
    ++N;
  } while (Zz);
  return N;
}

/// Decodes one word starting at \p At. Returns false when the buffer ends
/// mid-varint (a kill truncated the dump) — \p At is then left unchanged.
inline bool decodeWord(const std::vector<uint8_t> &In, size_t &At,
                       uint64_t &Prev, uint64_t &Word) {
  uint64_t Zz = 0;
  uint32_t Shift = 0;
  for (size_t I = At; I < In.size() && Shift < 64; ++I, Shift += 7) {
    Zz |= uint64_t(In[I] & 0x7f) << Shift;
    if (!(In[I] & 0x80)) {
      uint64_t Delta = (Zz >> 1) ^ (~(Zz & 1) + 1);
      Prev += Delta;
      Word = Prev;
      At = I + 1;
      return true;
    }
  }
  return false;
}

} // namespace varint

/// Trace-word encodings.
namespace tracerec {

inline constexpr uint64_t KindMask = 0x7;
inline constexpr uint64_t KindPath = 0x1;
inline constexpr uint64_t KindCuEnter = 0x2;
inline constexpr uint64_t KindSample = 0x3;

inline uint64_t makePath(MethodId M, uint64_t PathId) {
  return KindPath | (PathId << 3) | (uint64_t(uint32_t(M)) << 24);
}
inline uint64_t makeCuEnter(MethodId Root) {
  return KindCuEnter | (uint64_t(uint32_t(Root)) << 3);
}
/// A sample record carries both the executing method and its CU root, so
/// one sampled capture feeds cu- and method-granularity analyses alike:
/// method in bits [3,31), root in [31,59), bits [59,64) reserved zero.
inline uint64_t makeSample(MethodId M, MethodId Root) {
  return KindSample | ((uint64_t(uint32_t(M)) & 0xfffffff) << 3) |
         ((uint64_t(uint32_t(Root)) & 0xfffffff) << 31);
}
inline bool isPath(uint64_t W) { return (W & KindMask) == KindPath; }
inline bool isCuEnter(uint64_t W) { return (W & KindMask) == KindCuEnter; }
inline bool isSample(uint64_t W) { return (W & KindMask) == KindSample; }
inline uint64_t pathId(uint64_t W) { return (W >> 3) & 0x1fffff; }
inline MethodId pathMethod(uint64_t W) { return MethodId(W >> 24); }
inline MethodId cuRoot(uint64_t W) { return MethodId(W >> 3); }
inline MethodId sampleMethod(uint64_t W) {
  return MethodId((W >> 3) & 0xfffffff);
}
inline MethodId sampleRoot(uint64_t W) {
  return MethodId((W >> 31) & 0xfffffff);
}

} // namespace tracerec

/// One thread's persisted trace. Exactly one of the two forms is
/// populated: \c Words for Raw dumps, \c Bytes (with \c Encoded set) for
/// VarintDelta dumps.
struct ThreadTrace {
  std::vector<uint64_t> Words;
  std::vector<uint8_t> Bytes;
  bool Encoded = false;

  /// Materializes the word stream regardless of encoding. Returns false
  /// when an encoded stream ends mid-varint (dump truncated by a kill);
  /// the words decoded before the cut are still appended.
  bool decodeWords(std::vector<uint64_t> &Out) const {
    if (!Encoded) {
      Out.insert(Out.end(), Words.begin(), Words.end());
      return true;
    }
    uint64_t Prev = 0, W = 0;
    size_t At = 0;
    while (varint::decodeWord(Bytes, At, Prev, W))
      Out.push_back(W);
    return At == Bytes.size();
  }

  size_t numWords() const {
    if (!Encoded)
      return Words.size();
    size_t N = 0;
    for (uint8_t B : Bytes)
      if (!(B & 0x80))
        ++N;
    return N;
  }

  /// Persisted byte size of this trace (8 bytes per raw word).
  size_t numBytes() const { return Encoded ? Bytes.size() : Words.size() * 8; }
};

/// All traces of one profiling run, in thread-creation order — the order
/// multi-threaded profiles are concatenated in (Sec. 7.1).
struct TraceCapture {
  TraceOptions Options;
  std::vector<ThreadTrace> Threads;

  size_t totalWords() const {
    size_t N = 0;
    for (const ThreadTrace &T : Threads)
      N += T.numWords();
    return N;
  }

  size_t totalBytes() const {
    size_t N = 0;
    for (const ThreadTrace &T : Threads)
      N += T.numBytes();
    return N;
  }
};

/// Writes trace words with buffer/dump-mode semantics and accounts the
/// modeled probe cost.
class TraceWriter {
public:
  explicit TraceWriter(const TraceOptions &Options) : Options(Options) {}

  void ensureThread(uint32_t Tid) {
    if (Tid >= Pending.size()) {
      Pending.resize(Tid + 1);
      Persisted.resize(Tid + 1);
      PrevWord.resize(Tid + 1, 0);
      if (Options.Encoding == TraceEncoding::VarintDelta)
        for (size_t I = 0; I < Persisted.size(); ++I)
          Persisted[I].Encoded = true;
    }
  }

  /// Appends one word to \p Tid's buffer.
  void append(uint32_t Tid, uint64_t Word) {
    ensureThread(Tid);
    if (Options.Dump == DumpMode::MemoryMapped) {
      // The mmap-backed file persists every word; remapping on overflow is
      // folded into the per-word cost. Varint dumps write fewer bytes per
      // word, so their modeled cost scales with the emitted bytes.
      if (Options.Encoding == TraceEncoding::VarintDelta) {
        size_t N =
            varint::encodeWord(Word, PrevWord[Tid], Persisted[Tid].Bytes);
        ProbeUnits += (N + 3) / 4;
      } else {
        Persisted[Tid].Words.push_back(Word);
        ProbeUnits += MmapWordCost;
      }
      return;
    }
    Pending[Tid].push_back(Word);
    if (Pending[Tid].size() >= Options.BufferWords)
      flushThread(Tid);
  }

  void addProbeCost(uint64_t Units) { ProbeUnits += Units; }
  uint64_t probeUnits() const { return ProbeUnits; }

  /// Flushes one thread's pending buffer (buffer full / clean termination).
  void flushThread(uint32_t Tid) {
    ensureThread(Tid);
    auto &P = Pending[Tid];
    if (Options.Encoding == TraceEncoding::VarintDelta) {
      // The delta chain continues across flushes: one encoder state per
      // thread, exactly like an appended-to trace file.
      for (uint64_t W : P)
        varint::encodeWord(W, PrevWord[Tid], Persisted[Tid].Bytes);
    } else {
      auto &Out = Persisted[Tid].Words;
      Out.insert(Out.end(), P.begin(), P.end());
    }
    ProbeUnits += FlushCost;
    P.clear();
  }

  /// Clean shutdown: every thread runs its termination handler.
  void flushAll() {
    for (uint32_t Tid = 0; Tid < Pending.size(); ++Tid)
      if (!Pending[Tid].empty())
        flushThread(Tid);
  }

  /// Simulated SIGKILL: termination handlers do not run, so FlushOnFull
  /// buffers lose their unflushed tail (the reason microservices use the
  /// memory-mapped mode, Sec. 6.1).
  void killAll() {
    for (auto &P : Pending)
      P.clear();
  }

  TraceCapture take() {
    TraceCapture C;
    C.Options = Options;
    C.Threads = std::move(Persisted);
    Persisted.clear();
    Pending.clear();
    PrevWord.clear();
    return C;
  }

  /// Modeled cost constants (time-model units per operation).
  static constexpr uint64_t MmapWordCost = 2;
  static constexpr uint64_t FlushCost = 64;

private:
  TraceOptions Options;
  std::vector<std::vector<uint64_t>> Pending;
  std::vector<ThreadTrace> Persisted;
  std::vector<uint64_t> PrevWord;
  uint64_t ProbeUnits = 0;
};

} // namespace nimg

#endif // NIMG_PROFILING_TRACE_H
