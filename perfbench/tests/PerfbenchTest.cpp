//===- PerfbenchTest.cpp - Tests of the benchmark's own arithmetic ---------===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
// Covers what the benchmark computes rather than what it measures:
// nearest-rank percentiles and geomeans, span self times, the cell
// checks that count a trapping or mismatching cell as failed, and the
// seed plan.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Stats.h"

#include "src/lang/Compile.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfbench;

TEST(Stats, NearestRankPercentile) {
  std::vector<double> V = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(percentile(V, 0.5), 5);
  EXPECT_EQ(percentile(V, 0.9), 9);
  EXPECT_EQ(percentile(V, 1.0), 10);
  EXPECT_EQ(percentile(V, 0.1), 1);
  EXPECT_EQ(percentile(V, 0.01), 1);
  EXPECT_EQ(percentile({3, 1, 2}, 0.5), 2);
  EXPECT_EQ(percentile({4, 1}, 0.5), 1);
  EXPECT_EQ(percentile({}, 0.5), 0);
  // p90 of 100 samples is the 90th; ten samples lie beyond it.
  EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(samplesBeyond(0, 0.9), 0u);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({1, 4}), 2);
  EXPECT_DOUBLE_EQ(geomean({2, 8, 4}), 4);
  EXPECT_DOUBLE_EQ(geomean({7}), 7);
  EXPECT_EQ(geomean({}), 0);
  EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3);
}

TEST(Spans, SelfTimeSubtractsChildrenOnce) {
  // root [0,100] has children A [10,40] and B [30,60], which overlap over
  // [30,40]; A has child G [15,20]; C [90,120] pokes out of the root.
  std::vector<Span> S = {{"root", 0, 100, -1, 1},  {"A", 10, 40, 0, 1},
                         {"B", 30, 60, 0, 1},      {"G", 15, 20, 1, 1},
                         {"C", 90, 120, 0, 1},     {"A", 200, 210, -1, 2}};
  std::vector<int64_t> Self = selfTimes(S);
  // Children cover [10,60] and [90,100] of the root: 60 ns.
  EXPECT_EQ(Self[0], 40);
  EXPECT_EQ(Self[1], 25);
  EXPECT_EQ(Self[2], 30);
  EXPECT_EQ(Self[3], 5);
  EXPECT_EQ(Self[4], 30);
  EXPECT_EQ(Self[5], 10);

  std::map<std::string, SelfTime> ByName = selfTimesByName(S);
  EXPECT_EQ(ByName["A"].Ns, 35);
  EXPECT_EQ(ByName["A"].Calls, 2u);
  EXPECT_EQ(ByName["root"].Ns, 40);
}

TEST(Spans, LogNestsAndDisabledLogRecordsNothing) {
  SpanLog Log(true);
  {
    ScopedSpan Outer(Log, "cell", 7);
    ScopedSpan Inner(Log, "core.build", 7);
  }
  ASSERT_EQ(Log.spans().size(), 2u);
  EXPECT_EQ(Log.spans()[0].Parent, -1);
  EXPECT_EQ(Log.spans()[1].Parent, 0);
  EXPECT_EQ(Log.spans()[1].CellId, 7u);
  EXPECT_LE(Log.spans()[0].StartNs, Log.spans()[1].StartNs);
  EXPECT_GE(Log.spans()[0].EndNs, Log.spans()[1].EndNs);
  EXPECT_NE(Log.toChromeJson().find("\"parent\":0"), std::string::npos);

  SpanLog Off(false);
  { ScopedSpan S(Off, "cell", 1); }
  EXPECT_TRUE(Off.spans().empty());
}

namespace {

LoadedProgram loadProgram(const std::string &Source) {
  LoadedProgram LP;
  LP.Spec.Name = "t";
  LP.Spec.Sources = {Source};
  std::vector<std::string> Errors;
  LP.P = nimg::compileBenchmark(LP.Spec, Errors);
  EXPECT_TRUE(LP.P) << (Errors.empty() ? "" : Errors.front());
  return LP;
}

const char *HelloSource = "class Main { static int main() {\n"
                          "  Sys.print(\"hello\");\n"
                          "  return 0; } }";

} // namespace

TEST(Cells, TrappingCellCountsAsFailed) {
  LoadedProgram LP = loadProgram("class Main { static int main() {\n"
                                 "  int[] a = new int[1];\n"
                                 "  return a[5]; } }");
  ASSERT_TRUE(LP.P);
  std::string Error;
  referenceOutput(*LP.P, false, Error);
  EXPECT_NE(Error.find("trapped"), std::string::npos);

  SpanLog Log(false);
  WorkloadPlan Plan;
  planWorkload("awfy-eval", 1, Plan);
  Runner R(Plan, 1, Log);
  RoundProfiles None;
  CellResult C = R.runCell(LP, Plan.Variants.front(), None, 1, 1, true);
  EXPECT_TRUE(C.Failed);
  EXPECT_NE(C.Why.find("trapped"), std::string::npos) << C.Why;
  EXPECT_EQ(R.attempted(), 1u);
  EXPECT_EQ(R.failed(), 1u);
}

TEST(Cells, MismatchingOutputCountsAsFailed) {
  LoadedProgram LP = loadProgram(HelloSource);
  ASSERT_TRUE(LP.P);
  std::string Error;
  LP.Reference = referenceOutput(*LP.P, false, Error);
  ASSERT_EQ(Error, "");
  EXPECT_EQ(LP.Reference, "hello\n");

  SpanLog Log(false);
  WorkloadPlan Plan;
  planWorkload("micro-fleet", 1, Plan);
  Plan.FleetInCell = false; // Not a microservice: no response to wait for.
  Runner R(Plan, 1, Log);
  RoundProfiles None;
  CellResult Good = R.runCell(LP, Plan.Variants.front(), None, 3, 1, true);
  EXPECT_FALSE(Good.Failed) << Good.Why;
  EXPECT_EQ(R.failed(), 0u);

  LP.Reference = "goodbye";
  CellResult Bad = R.runCell(LP, Plan.Variants.front(), None, 3, 1, true);
  EXPECT_TRUE(Bad.Failed);
  EXPECT_EQ(R.attempted(), 2u);
  EXPECT_EQ(R.failed(), 1u);

  nimg::RunStats Trapped = Good.Run;
  Trapped.Trapped = true;
  EXPECT_NE(checkRun(Trapped, "hello\n", false), "");
  nimg::RunStats Silent = Good.Run;
  EXPECT_NE(checkRun(Silent, "hello\n", true), ""); // Never responded.
  EXPECT_EQ(compareRuns(Good.Run, Good.Run), "");
  nimg::RunStats MoreFaults = Good.Run;
  ++MoreFaults.HeapFaults;
  EXPECT_NE(compareRuns(Good.Run, MoreFaults), "");
}

TEST(Seeds, SeedChangesBuildAndArrivalSeedsNotPrograms) {
  for (const std::string &Name : workloadNames()) {
    WorkloadPlan Plan;
    ASSERT_TRUE(planWorkload(Name, 4, Plan)) << Name;
    std::vector<std::string> Programs;
    for (const nimg::BenchmarkSpec &S : Plan.Programs)
      Programs.push_back(S.Name);
    EXPECT_FALSE(Programs.empty());
    // The runner takes the seed; the plan (and so the program set) does not.
    SpanLog Log(false);
    Runner A(Plan, 1, Log), B(Plan, 2, Log);
    EXPECT_EQ(A.plan().Programs.size(), B.plan().Programs.size());
    for (size_t I = 0; I < Programs.size(); ++I) {
      EXPECT_EQ(A.plan().Programs[I].Name, Programs[I]);
      EXPECT_EQ(B.plan().Programs[I].Name, Programs[I]);
      EXPECT_EQ(A.plan().Programs[I].Sources, B.plan().Programs[I].Sources);
    }
  }
  WorkloadPlan Unknown;
  EXPECT_FALSE(planWorkload("nope", 4, Unknown));

  RoundSeeds S1 = roundSeeds(1, 0, 3), S1Again = roundSeeds(1, 0, 3);
  RoundSeeds S2 = roundSeeds(2, 0, 3), S1Next = roundSeeds(1, 1, 3);
  EXPECT_EQ(S1.Build, S1Again.Build);
  EXPECT_EQ(S1.Arrival, S1Again.Arrival);
  EXPECT_EQ(S1.Capture, S1Again.Capture);
  EXPECT_NE(S1.Build, S2.Build);
  EXPECT_NE(S1.Arrival, S2.Arrival);
  EXPECT_NE(S1.Capture, S2.Capture);
  EXPECT_NE(S1.Build, S1Next.Build);
  std::set<uint64_t> Distinct(S1.Build.begin(), S1.Build.end());
  EXPECT_EQ(Distinct.size(), 3u);
}

TEST(Seeds, ScaledProgramIsNativeImageScale) {
  nimg::BenchmarkSpec Spec = scaledProgram();
  std::vector<std::string> Errors;
  auto P = nimg::compileBenchmark(Spec, Errors);
  ASSERT_TRUE(P) << (Errors.empty() ? "" : Errors.front());
  EXPECT_GT(P->numMethods(), 10000u);
  EXPECT_TRUE(Spec.Microservice);
  EXPECT_FALSE(Spec.Resources.empty());
}
