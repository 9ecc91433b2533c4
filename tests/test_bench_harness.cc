// The bench harness's guards: the cost baseline (drift and completeness on
// scenario rows, presence only on perf records) and TimingGate (a trip is
// recorded and the suite runs on; a disarmed gate never fails).
#include <climits>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/scenario.h"
#include "bench/suites.h"

namespace aigs::bench {
namespace {

/// A real cost row: greedy on the 7-node Fig. 2 hierarchy.
ScenarioResult Fig2Row(DatasetCache& cache, const std::string& label) {
  ScenarioSpec spec;
  spec.label = label;
  spec.dataset = "fig2";
  spec.distribution = "equal";
  spec.policy = "greedy";
  auto result = RunScenario(spec, cache);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

PerfRecord Perf(const std::string& metric, double value) {
  return {"harness", metric, "ms", value, "service", {"fig2", 7}};
}

/// Writes a baseline in the --json line shapes; returns its path.
std::string WriteBaseline(const std::string& name,
                          const std::vector<ScenarioResult>& rows,
                          const std::vector<PerfRecord>& perf) {
  const std::string path = ::testing::TempDir() + "/" + name + ".jsonl";
  std::ofstream out(path);
  for (const ScenarioResult& row : rows) {
    out << ScenarioResultToJson(row) << "\n";
  }
  for (const PerfRecord& record : perf) {
    out << PerfRecordToJson(record) << "\n";
  }
  return path;
}

TEST(BenchBaseline, MatchingRunPasses) {
  DatasetCache cache;
  const ScenarioResult row = Fig2Row(cache, "harness/a");
  const std::string path =
      WriteBaseline("matching", {row}, {Perf("latency", 1.0)});
  const Status status = CheckAgainstBaseline(
      {row}, {Perf("latency", 1.0)}, path, /*require_complete=*/true);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(BenchBaseline, CostDriftFails) {
  DatasetCache cache;
  const ScenarioResult row = Fig2Row(cache, "harness/a");
  const std::string path = WriteBaseline("drift", {row}, {});
  ScenarioResult drifted = row;
  drifted.expected_cost *= 1.01;
  for (const bool complete : {false, true}) {
    const Status status = CheckAgainstBaseline({drifted}, {}, path, complete);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("'harness/a' expected_cost"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(BenchBaseline, MissingCostLabelFailsOnlyWhenComplete) {
  DatasetCache cache;
  const ScenarioResult a = Fig2Row(cache, "harness/a");
  const ScenarioResult b = Fig2Row(cache, "harness/b");
  const std::string path = WriteBaseline("missing_cost", {a, b}, {});
  const Status complete = CheckAgainstBaseline({a}, {}, path, true);
  EXPECT_FALSE(complete.ok());
  EXPECT_NE(complete.message().find("'harness/b' was not run"),
            std::string::npos)
      << complete.ToString();
  EXPECT_TRUE(CheckAgainstBaseline({a}, {}, path, false).ok());
}

TEST(BenchBaseline, PerfValueIsNotCompared) {
  DatasetCache cache;
  const ScenarioResult row = Fig2Row(cache, "harness/a");
  const std::string path =
      WriteBaseline("perf_value", {row}, {Perf("latency", 1.0)});
  const Status status = CheckAgainstBaseline(
      {row}, {Perf("latency", 1000.0)}, path, /*require_complete=*/true);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(BenchBaseline, MissingPerfLabelFailsOnlyWhenComplete) {
  DatasetCache cache;
  const ScenarioResult row = Fig2Row(cache, "harness/a");
  const std::string path = WriteBaseline(
      "missing_perf", {row}, {Perf("latency", 1.0), Perf("rate", 2.0)});
  const Status complete =
      CheckAgainstBaseline({row}, {Perf("latency", 1.0)}, path, true);
  EXPECT_FALSE(complete.ok());
  EXPECT_NE(complete.message().find("'harness/rate' was not run"),
            std::string::npos)
      << complete.ToString();
  EXPECT_TRUE(
      CheckAgainstBaseline({row}, {Perf("latency", 1.0)}, path, false).ok());
}

TEST(BenchBaseline, NewPerfLabelFailsOnlyWhenComplete) {
  DatasetCache cache;
  const ScenarioResult row = Fig2Row(cache, "harness/a");
  const std::string path = WriteBaseline("new_perf", {row}, {});
  EXPECT_FALSE(
      CheckAgainstBaseline({row}, {Perf("latency", 1.0)}, path, true).ok());
  EXPECT_TRUE(
      CheckAgainstBaseline({row}, {Perf("latency", 1.0)}, path, false).ok());
}

/// A suite body: one gate that always trips, then a record after it.
Status GatedSuite(SuiteContext& ctx, const TimingGate::Arming& arming) {
  TimingGate gate(ctx, "forced", arming);
  gate.FailIf(true, "forced trip");
  gate.Finish("forced gate held");
  ctx.perf.push_back(Perf("after_gate", 1.0));
  return Status::OK();
}

TEST(TimingGate, TripIsRecordedAndLaterCodeRuns) {
  SuiteContext ctx;
  // Armed on every build, like the publish-latency gate.
  const Status status =
      GatedSuite(ctx, {.optimized = false, .unsanitized = false});
  EXPECT_TRUE(status.ok());
  ASSERT_EQ(ctx.timing_failures.size(), 1u);
  EXPECT_EQ(ctx.timing_failures[0], "forced: forced trip");
  ASSERT_EQ(ctx.perf.size(), 1u);
  EXPECT_EQ(ctx.perf[0].label(), "harness/after_gate");
}

TEST(TimingGate, DisarmedGateNeverFails) {
  SuiteContext smoke;
  smoke.smoke = true;
  EXPECT_FALSE(TimingGate(smoke, "full", {.full_scale = true}).armed());
  EXPECT_TRUE(GatedSuite(smoke, {.optimized = false,
                                 .unsanitized = false,
                                 .full_scale = true})
                  .ok());
  SuiteContext cores;
  EXPECT_TRUE(GatedSuite(cores, {.optimized = false,
                                 .unsanitized = false,
                                 .min_cores = UINT_MAX})
                  .ok());
  EXPECT_TRUE(smoke.timing_failures.empty());
  EXPECT_TRUE(cores.timing_failures.empty());
  EXPECT_EQ(smoke.perf.size(), 1u);
  EXPECT_EQ(cores.perf.size(), 1u);
}

}  // namespace
}  // namespace aigs::bench
