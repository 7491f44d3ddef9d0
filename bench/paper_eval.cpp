//===- paper_eval.cpp - Reproduces the paper's Figures 2-5 and Sec. 7.2/7.4 ===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// One evaluation pass over the paper's Sec. 7.1 protocol. Each workload is
// compiled and profiled once; the AWFY suite is then evaluated in two
// series (plain, --split hotcold) and the microservices in the plain one. From those evaluations it prints:
//
// Figure 2: page-fault reduction on the 14 AWFY benchmarks, cold page
// cache, per-section fault counting. Paper reference (geomean): cu 1.58x,
// method 1.52x, incremental id 1.30x, structural hash 1.40x, heap path
// 1.41x, cu+heap path 1.65x; max cu 1.66x (Mandelbrot, Towers), max heap
// path 1.48x (Storage). Followed by Sec. 7.2: only a small percentage of
// heap-snapshot objects is accessed (paper: ~4 % on AWFY).
//
// Figure 3: page-fault reduction on the three microservice hello-world
// workloads (multi-threaded, killed after the first response; traces use
// the memory-mapped dump mode, Sec. 6.1). Paper reference (average): cu
// 2.55x, method 1.35x, incremental id 1.14x (0.99x on quarkus), structural
// hash 1.03x, heap path 1.22x, cu+heap path 1.46x; max cu 2.67x on
// micronaut, max heap path 1.26x on quarkus.
//
// Figure 4: execution-time speedup on the microservices, measured as the
// elapsed time until the first response (Sec. 7.1). Paper reference
// (average): cu 1.48x, method 1.17x, incremental id 1.02x, structural hash
// 1.01x, heap path 1.11x, cu+heap path 1.61x.
//
// Figure 5: execution-time speedup on the 14 AWFY benchmarks (end-to-end
// time, cold page cache). Paper reference (average): cu 1.26x, method
// 1.26x, incremental id 1.07x, structural hash 1.09x, heap path 1.11x,
// cu+heap path 1.59x; minor slowdowns (0.97-0.99x) are expected only for
// heap strategies on Havlak.
//
// Sec. 7.4: execution-time overhead of the tracing profiler, per
// instrumentation kind. Paper reference — AWFY (flush-on-full dump mode):
// cu 1.21x, method 1.83x, heap 1.36x; microservices (memory-mapped dump
// mode): cu 1.90x, method 3.68x, heap 2.16x. The heap overhead is a single
// number because the emitted instrumentation is the same for all three
// heap-ordering strategies.
//
// Writes BENCH_fig2.json, BENCH_fig5.json and BENCH_overhead.json. Set
// NIMAGE_EVAL_SEEDS to trade precision for wall time (default 3 builds per
// strategy; the paper uses 10). `--smoke` keeps two AWFY benchmarks, one
// microservice and one seed.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include <algorithm>

using namespace nimg;
using namespace nimg::benchutil;

namespace {

/// The AWFY series of Figs. 2 and 5. Every image of a series, the baseline
/// included, carries the series' split setting, so its factors isolate
/// what ordering adds on top of split images (the split-vs-unsplit axis
/// itself is abl_split's job). The name is the artifacts' key suffix.
const NamedLayout kSeries[] = {
    {"", {}},
    {"_split", {.Split = SplitMode::HotCold}},
};
constexpr size_t kNumSeries = sizeof(kSeries) / sizeof(kSeries[0]);

using Suite = std::vector<BenchmarkEval>;
using FactorFn = double (*)(const VariantEval &);

/// The figures' fault-factor convention: code strategies are scored on
/// .text faults, heap strategies on .svm_heap faults, the combined
/// strategy on both (Sec. 7.1).
double faultFactorOf(const VariantEval &V) {
  if (V.Name == "cu" || V.Name == "method")
    return V.TextFaultFactor;
  if (V.Name == "cu+heap path")
    return V.TotalFaultFactor;
  return V.HeapFaultFactor;
}

double speedupOf(const VariantEval &V) { return V.Speedup; }

void printColumns() {
  std::printf("%-12s", "benchmark");
  for (const NamedLayout &S : paperStrategies())
    std::printf(" %15s", S.Name.c_str());
  std::printf("\n");
}

void printFactorTable(const Suite &Evals, FactorFn Factor) {
  std::vector<std::vector<double>> PerStrategy(paperStrategies().size());
  for (const BenchmarkEval &E : Evals) {
    std::printf("%-12s", E.Benchmark.c_str());
    for (size_t S = 0; S < E.Variants.size(); ++S) {
      double F = Factor(E.Variants[S]);
      PerStrategy[S].push_back(F);
      std::printf(" %15.2f", F);
    }
    std::printf("\n");
  }
  std::printf("%-12s", "geomean");
  for (const std::vector<double> &Fs : PerStrategy)
    std::printf(" %15.2f", geomean(Fs));
  std::printf("\n");
}

/// One figure: the header, then one factor table per series; the tables
/// after the first are introduced by \p Captions.
void printFigure(const char *Title, const char *Metric, int Seeds,
                 const Suite *Series, size_t NumSeries,
                 const char *const *Captions, FactorFn Factor) {
  std::printf("%s\n", Title);
  std::printf("metric: %s; %d image builds per strategy; factors are "
              "M_baseline / M_optimized (higher is better)\n\n",
              Metric, Seeds);
  printColumns();
  printFactorTable(Series[0], Factor);
  for (size_t I = 1; I < NumSeries; ++I) {
    std::printf("\n%s\n\n", Captions[I - 1]);
    printColumns();
    printFactorTable(Series[I], Factor);
  }
}

void printBaselineTimes(const char *Caption, const Suite &Evals) {
  std::printf("\n%s\n", Caption);
  for (const BenchmarkEval &E : Evals)
    std::printf("  %-12s %8.2f ms  [%.2f, %.2f]\n", E.Benchmark.c_str(),
                E.Baseline.TimeNs.Mean / 1e6, E.Baseline.TimeNs.Lo / 1e6,
                E.Baseline.TimeNs.Hi / 1e6);
}

/// Space cost of the trace itself, per recorded event, for both stream
/// encodings (src/profiling/Trace.h): fixed 8-byte words vs. the
/// LEB128/zigzag delta coding. Sec. 7.4 discusses time overhead only; the
/// space axis decides whether traces from long startup windows fit their
/// buffers, and the delta coding is what makes the memory-mapped dump
/// mode affordable.
struct EncodingCost {
  std::string Mode;
  double RawBytesPerEvent = 0;
  double VarintBytesPerEvent = 0;
  /// Modeled run-time overhead of this capture against the uninstrumented
  /// base run (time / base - 1). The sampled row runs on the uninstrumented
  /// image itself (that is the point of the mode); the instrumented rows
  /// run on the instrumented build, as in production.
  double Overhead = 0;
};

std::vector<EncodingCost> measureEncodingCosts(Program &P,
                                               const RunConfig &Run) {
  std::vector<EncodingCost> Out;
  BuildConfig Cfg;
  Cfg.Seed = 404;
  Cfg.Instrumented = true;
  NativeImage Img = buildNativeImage(P, Cfg);
  if (Img.Built.Failed)
    return Out;
  BuildConfig BaseCfg;
  BaseCfg.Seed = 404;
  NativeImage BaseImg = buildNativeImage(P, BaseCfg);
  if (BaseImg.Built.Failed)
    return Out;
  double BaseNs = runImage(BaseImg, Run).TimeNs;
  const struct {
    TraceMode Mode;
    const char *Name;
  } Modes[] = {{TraceMode::CuOrder, "cu"},
               {TraceMode::MethodOrder, "method"},
               {TraceMode::HeapOrder, "heap"},
               {TraceMode::Sampled, "sampled"}};
  for (const auto &M : Modes) {
    EncodingCost C;
    C.Mode = M.Name;
    const NativeImage &RunImg =
        M.Mode == TraceMode::Sampled ? BaseImg : Img;
    for (TraceEncoding Enc :
         {TraceEncoding::Raw, TraceEncoding::VarintDelta}) {
      TraceOptions TOpts;
      TOpts.Mode = M.Mode;
      TOpts.Encoding = Enc;
      RunConfig RC = Run;
      RC.Trace = &TOpts;
      TraceCapture Capture;
      RunStats Stats = runImage(RunImg, RC, &Capture);
      double PerEvent =
          Capture.totalWords() == 0
              ? 0.0
              : double(Capture.totalBytes()) / double(Capture.totalWords());
      (Enc == TraceEncoding::Raw ? C.RawBytesPerEvent
                                 : C.VarintBytesPerEvent) = PerEvent;
      if (Enc == TraceEncoding::Raw && BaseNs > 0)
        C.Overhead = Stats.TimeNs / BaseNs - 1.0;
    }
    Out.push_back(C);
  }
  return Out;
}

void printOverheads(const char *Title, const Suite &Evals) {
  std::printf("%s\n", Title);
  std::printf("%-12s %10s %10s %10s\n", "benchmark", "cu", "method", "heap");
  std::vector<double> Cu, Method, Heap;
  for (const BenchmarkEval &E : Evals) {
    std::printf("%-12s %10.2f %10.2f %10.2f\n", E.Benchmark.c_str(),
                E.CuOverhead, E.MethodOverhead, E.HeapOverhead);
    Cu.push_back(E.CuOverhead);
    Method.push_back(E.MethodOverhead);
    Heap.push_back(E.HeapOverhead);
  }
  std::printf("%-12s %10.2f %10.2f %10.2f\n\n", "geomean", geomean(Cu),
              geomean(Method), geomean(Heap));
}

void writeOverheads(obs::JsonWriter &W, const Suite &Evals) {
  std::vector<double> Cu, Method, Heap;
  W.key("benchmarks");
  W.beginArray();
  for (const BenchmarkEval &E : Evals) {
    W.beginObject();
    W.member("name", E.Benchmark);
    W.member("cu", E.CuOverhead);
    W.member("method", E.MethodOverhead);
    W.member("heap", E.HeapOverhead);
    W.endObject();
    Cu.push_back(E.CuOverhead);
    Method.push_back(E.MethodOverhead);
    Heap.push_back(E.HeapOverhead);
  }
  W.endArray();
  W.key("geomean");
  W.beginObject();
  W.member("cu", geomean(Cu));
  W.member("method", geomean(Method));
  W.member("heap", geomean(Heap));
  W.endObject();
}

/// `Key: {strategy: factor, ...}` for one benchmark.
void writeFactors(obs::JsonWriter &W, const std::string &Key,
                  const BenchmarkEval &E, FactorFn Factor) {
  W.key(Key);
  W.beginObject();
  for (const VariantEval &V : E.Variants)
    W.member(V.Name, Factor(V));
  W.endObject();
}

/// `Key: {strategy: suite geomean, ...}`.
void writeGeomeans(obs::JsonWriter &W, const std::string &Key,
                   const Suite &Evals, FactorFn Factor) {
  W.key(Key);
  W.beginObject();
  for (size_t S = 0; S < paperStrategies().size(); ++S) {
    std::vector<double> Fs;
    for (const BenchmarkEval &E : Evals)
      Fs.push_back(Factor(E.Variants[S]));
    W.member(paperStrategies()[S].Name, geomean(Fs));
  }
  W.endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = smokeMode(Argc, Argv);
  EvalOptions Opts;
  Opts.Seeds = Smoke ? 1 : evalSeedsFromEnv(3);
  std::vector<std::string> AwfyNames = awfyBenchmarkNames();
  std::vector<std::string> MicroNames = microserviceNames();
  if (Smoke) {
    AwfyNames.resize(std::min<size_t>(AwfyNames.size(), 2));
    MicroNames.resize(std::min<size_t>(MicroNames.size(), 1));
  }

  Suite Awfy[kNumSeries];
  for (const std::string &Name : AwfyNames) {
    std::fprintf(stderr, "  evaluating %s...\n", Name.c_str());
    ProfiledWorkload W = profileWorkload(awfyBenchmark(Name));
    for (size_t S = 0; S < kNumSeries; ++S)
      Awfy[S].push_back(evaluateSeries(W, kSeries[S].Layout, Opts));
  }
  Suite Micro;
  for (const std::string &Name : MicroNames) {
    std::fprintf(stderr, "  evaluating %s...\n", Name.c_str());
    Micro.push_back(
        evaluateSeries(profileWorkload(microserviceBenchmark(Name)), {}, Opts));
  }

  //===--------------------------------------------------------------------===//
  // Figure 2 and Sec. 7.2.
  //===--------------------------------------------------------------------===//
  const char *const Fig2Captions[] = {
      "with --split hotcold (all images split, same factor convention):"};
  printFigure("Figure 2 — AWFY page-fault reduction",
              ".text faults for cu/method, .svm_heap faults for heap "
              "strategies, both for cu+heap path",
              Opts.Seeds, Awfy, kNumSeries, Fig2Captions, faultFactorOf);

  std::printf("\nSec. 7.2 — accessed heap-snapshot objects (paper: ~4%% "
              "average on AWFY):\n");
  double PctSum = 0;
  for (const BenchmarkEval &E : Awfy[0]) {
    std::printf("  %-12s %5.1f%% of %zu stored objects\n",
                E.Benchmark.c_str(), E.PctStoredObjectsTouched,
                E.SnapshotObjects);
    PctSum += E.PctStoredObjectsTouched;
  }
  std::printf("  %-12s %5.1f%%\n", "average",
              Awfy[0].empty() ? 0.0 : PctSum / double(Awfy[0].size()));

  //===--------------------------------------------------------------------===//
  // Figures 3 and 4 (microservices).
  //===--------------------------------------------------------------------===//
  std::printf("\n");
  printFigure("Figure 3 — microservice page-fault reduction",
              ".text faults for cu/method, .svm_heap faults for heap "
              "strategies, both for cu+heap path",
              Opts.Seeds, &Micro, 1, nullptr, faultFactorOf);
  std::printf("\naccessed heap-snapshot objects:\n");
  for (const BenchmarkEval &E : Micro)
    std::printf("  %-12s %5.1f%% of %zu stored objects (image %llu KiB)\n",
                E.Benchmark.c_str(), E.PctStoredObjectsTouched,
                E.SnapshotObjects,
                (unsigned long long)(E.ImageBytes / 1024));

  std::printf("\n");
  printFigure("Figure 4 — microservice execution-time speedup",
              "time to first response on a cold page cache", Opts.Seeds,
              &Micro, 1, nullptr, speedupOf);
  printBaselineTimes("baseline time to first response (model):", Micro);

  //===--------------------------------------------------------------------===//
  // Figure 5.
  //===--------------------------------------------------------------------===//
  const char *const Fig5Captions[] = {
      "with --split hotcold (all images split):"};
  std::printf("\n");
  printFigure("Figure 5 — AWFY execution-time speedup",
              "end-to-end execution time on a cold page cache", Opts.Seeds,
              Awfy, kNumSeries, Fig5Captions, speedupOf);
  printBaselineTimes("baseline end-to-end time (model):", Awfy[0]);

  //===--------------------------------------------------------------------===//
  // Sec. 7.4: time overhead per suite, then trace space per event.
  //===--------------------------------------------------------------------===//
  std::printf("\nSec. 7.4 — tracing-profiler execution-time overhead "
              "(instrumented / baseline)\n\n");
  printOverheads("AWFY (buffer dump mode: flush on full / at termination)",
                 Awfy[0]);
  printOverheads("microservices (buffer dump mode: memory-mapped trace "
                 "files)",
                 Micro);

  const char *CostBench = Smoke ? "Bounce" : "Richards";
  std::vector<std::string> Errors;
  std::unique_ptr<Program> CostP =
      compileBenchmark(awfyBenchmark(CostBench), Errors);
  std::vector<EncodingCost> Costs;
  if (CostP) {
    Costs = measureEncodingCosts(*CostP, RunConfig());
    std::printf("trace bytes per event (AWFY %s; raw = fixed 8-byte "
                "words, varint = LEB128 zigzag deltas; overhead = modeled "
                "run time / uninstrumented base - 1)\n",
                CostBench);
    std::printf("%-12s %10s %10s %10s %10s\n", "tracing", "raw", "varint",
                "ratio", "overhead");
    for (const EncodingCost &C : Costs)
      std::printf("%-12s %10.2f %10.2f %9.1fx %9.2f%%\n", C.Mode.c_str(),
                  C.RawBytesPerEvent, C.VarintBytesPerEvent,
                  C.VarintBytesPerEvent == 0
                      ? 1.0
                      : C.RawBytesPerEvent / C.VarintBytesPerEvent,
                  C.Overhead * 100.0);
    std::printf("\n");
  }

  //===--------------------------------------------------------------------===//
  // Artifacts.
  //===--------------------------------------------------------------------===//
  bool Ok = benchjson::writeBenchJson(
      "BENCH_fig2.json", "fig2", [&](obs::JsonWriter &W) {
        W.member("seeds", uint64_t(Opts.Seeds));
        W.member("smoke", Smoke);
        W.key("benchmarks");
        W.beginArray();
        for (size_t I = 0; I < Awfy[0].size(); ++I) {
          const BenchmarkEval &E = Awfy[0][I];
          W.beginObject();
          W.member("name", E.Benchmark);
          for (size_t S = 0; S < kNumSeries; ++S)
            writeFactors(W, "fault_factors" + kSeries[S].Name, Awfy[S][I],
                         faultFactorOf);
          W.member("pct_stored_objects_touched", E.PctStoredObjectsTouched);
          W.member("snapshot_objects", uint64_t(E.SnapshotObjects));
          W.endObject();
        }
        W.endArray();
        for (size_t S = 0; S < kNumSeries; ++S)
          writeGeomeans(W, "geomean_fault_factors" + kSeries[S].Name,
                        Awfy[S], faultFactorOf);
      });

  Ok &= benchjson::writeBenchJson(
      "BENCH_fig5.json", "fig5", [&](obs::JsonWriter &W) {
        W.member("seeds", uint64_t(Opts.Seeds));
        W.member("smoke", Smoke);
        W.key("benchmarks");
        W.beginArray();
        for (size_t I = 0; I < Awfy[0].size(); ++I) {
          const BenchmarkEval &E = Awfy[0][I];
          W.beginObject();
          W.member("name", E.Benchmark);
          W.member("baseline_time_ms", E.Baseline.TimeNs.Mean / 1e6);
          for (size_t S = 0; S < kNumSeries; ++S)
            writeFactors(W, "speedups" + kSeries[S].Name, Awfy[S][I],
                         speedupOf);
          W.endObject();
        }
        W.endArray();
        for (size_t S = 0; S < kNumSeries; ++S)
          writeGeomeans(W, "geomean_speedups" + kSeries[S].Name, Awfy[S],
                        speedupOf);
      });

  Ok &= benchjson::writeBenchJson(
      "BENCH_overhead.json", "tab_overhead", [&](obs::JsonWriter &W) {
        W.member("seeds", uint64_t(Opts.Seeds));
        W.member("smoke", Smoke);
        W.key("awfy");
        W.beginObject();
        writeOverheads(W, Awfy[0]);
        W.endObject();
        W.key("microservices");
        W.beginObject();
        writeOverheads(W, Micro);
        W.endObject();
        W.key("trace_bytes_per_event");
        W.beginArray();
        for (const EncodingCost &C : Costs) {
          W.beginObject();
          W.member("tracing", C.Mode);
          W.member("raw", C.RawBytesPerEvent);
          W.member("varint_delta", C.VarintBytesPerEvent);
          W.member("overhead", C.Overhead);
          W.endObject();
        }
        W.endArray();
      });
  return Ok ? 0 : 1;
}
