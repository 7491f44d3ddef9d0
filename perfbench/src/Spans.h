//===- Spans.h - In-memory span log of the traced run -------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its own calls into the library's
/// public functions: a name, a start and end on the steady clock, the
/// enclosing span, and the id of the cell the work belongs to. Spans stay
/// in memory and are written out once, when the run ends. A disabled log
/// records nothing, so the untraced run pays one branch per call.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span in the log; -1 for a root.
  int32_t Parent = -1;
  /// Cell the span works for; 0 for work outside any cell.
  uint64_t CellId = 0;
};

struct SelfTime {
  int64_t Ns = 0;
  uint64_t Calls = 0;
};

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children count once). Indexed like
/// \p Spans.
std::vector<int64_t> selfTimes(const std::vector<Span> &Spans);

/// Self time and call count per span name.
std::map<std::string, SelfTime> selfTimesByName(const std::vector<Span> &Spans);

class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }
  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when the log is disabled.
  int32_t begin(const char *Name, uint64_t CellId);
  void end(int32_t Index);

  const std::vector<Span> &spans() const { return Spans; }
  /// Chrome trace-event JSON (one complete event per span, the parent and
  /// cell id in "args"), loadable by Perfetto.
  std::string toChromeJson() const;

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// RAII span; a no-op on a disabled log.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const char *Name, uint64_t CellId = 0)
      : Log(Log), Index(Log.begin(Name, CellId)) {}
  ~ScopedSpan() { Log.end(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &Log;
  int32_t Index;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
