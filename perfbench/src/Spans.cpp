//===- Spans.cpp - In-memory span log of the traced run ---------------------===//

#include "Spans.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <utility>

using namespace perfbench;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

std::vector<int64_t> perfbench::selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && size_t(S.Parent) < Spans.size())
      Children[size_t(S.Parent)].emplace_back(S.StartNs, S.EndNs);

  std::vector<int64_t> Self(Spans.size(), 0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    // Length of the union of the children's intervals, clipped to S.
    int64_t Covered = 0, RunStart = 0, RunEnd = 0;
    bool InRun = false;
    for (auto [Start, End] : Kids) {
      Start = std::max(Start, S.StartNs);
      End = std::min(End, S.EndNs);
      if (End <= Start)
        continue;
      if (InRun && Start <= RunEnd) {
        RunEnd = std::max(RunEnd, End);
        continue;
      }
      if (InRun)
        Covered += RunEnd - RunStart;
      RunStart = Start;
      RunEnd = End;
      InRun = true;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    Self[I] = (S.EndNs - S.StartNs) - Covered;
  }
  return Self;
}

std::map<std::string, SelfTime>
perfbench::selfTimesByName(const std::vector<Span> &Spans) {
  std::vector<int64_t> Self = selfTimes(Spans);
  std::map<std::string, SelfTime> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    SelfTime &T = Out[Spans[I].Name];
    T.Ns += Self[I];
    ++T.Calls;
  }
  return Out;
}

int32_t SpanLog::begin(const char *Name, uint64_t CellId) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.CellId = CellId;
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  int32_t Index = int32_t(Spans.size() - 1);
  Open.push_back(Index);
  return Index;
}

void SpanLog::end(int32_t Index) {
  if (Index < 0)
    return;
  assert(!Open.empty() && Open.back() == Index && "spans must nest");
  Spans[size_t(Index)].EndNs = nowNs();
  Open.pop_back();
}

std::string SpanLog::toChromeJson() const {
  int64_t Epoch = Spans.empty() ? 0 : Spans.front().StartNs;
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char Buf[512];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"cell\":%llu}}",
                  I ? "," : "", S.Name.c_str(),
                  double(S.StartNs - Epoch) / 1000.0,
                  double(S.EndNs - S.StartNs) / 1000.0, I, int(S.Parent),
                  static_cast<unsigned long long>(S.CellId));
    Out += Buf;
  }
  Out += "]}\n";
  return Out;
}
