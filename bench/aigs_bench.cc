// aigs_bench — the unified, config-driven bench harness. Replaces the
// former per-experiment bench_* binaries: every experiment is a named suite
// built from ScenarioSpec rows (dataset × distribution × policy × cost
// model × threads). --json exports the scenario rows and the perf records
// (latencies, rates, sizes) as JSON lines, --csv the scenario rows.
//
// Exit status: 0 on success; 1 when a deterministic check failed (cost
// drift against --baseline, an identity or byte-equality check, a memory
// gate) or a run error; 3 when only wall-clock gates failed; 2 on usage.
//
//   aigs_bench --list                      # suites and registered policies
//   aigs_bench --suite table3,fig5        # run suites
//   aigs_bench --suite all --json out.jsonl --csv out.csv
//   aigs_bench --smoke                    # 1-rep run of every suite (CI)
//   aigs_bench --scenario "dataset=amazon;dist=zipf:2;policy=batched:k=8"
//
// Environment (same knobs as the former binaries): AIGS_FULL=1,
// AIGS_SCALE_PCT=n, AIGS_REPS=n, AIGS_THREADS=n, plus the suite-specific
// AIGS_OBJECTS / AIGS_TRACES / AIGS_FIG6_SAMPLES / AIGS_NOISE_TRIALS /
// AIGS_APPROX_ROUNDS.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/scenario.h"
#include "bench/suites.h"
#include "core/policy_registry.h"
#include "util/string_util.h"

namespace aigs::bench {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: aigs_bench [--list] [--suite NAME[,NAME...]|all] [--smoke]\n"
      "                  [--threads N] [--json FILE] [--csv FILE]\n"
      "                  [--baseline FILE] [--scenario \"key=val;key=val\"]\n"
      "--baseline compares the run's cost aggregates against a committed\n"
      "JSON-lines dump and fails on drift (CI regression guard).\n"
      "exit 1: a deterministic check failed; 3: only timing gates failed.\n"
      "run 'aigs_bench --list' for suites, policies, and scenario fields.\n");
  return 2;
}

int List() {
  std::printf("suites:\n");
  for (const Suite& suite : AllSuites()) {
    std::printf("  %-14s %s\n", suite.name.c_str(), suite.help.c_str());
  }
  std::printf("\nregistered policies (PolicyRegistry):\n");
  for (const auto& entry : PolicyRegistry::Global().List()) {
    std::printf("  %-16s %s\n", entry.name.c_str(), entry.help.c_str());
  }
  std::printf(
      "\nscenario fields: label=text; "
      "dataset=amazon|imagenet|vehicle|fig2|fig3; scale=frac;\n"
      "  dist=real|equal|uniform|exponential|zipf[:a]; "
      "policy=<registry spec>;\n"
      "  cost=unit|uniform:lo:hi|depth:lo:hi|prices:p0+p1+...|"
      "prices:hash:lo:hi[:seed]|fig3;\n"
      "  reach=auto|compressed; oracle=exact|noisy:p|persistent:p;\n"
      "  service=inprocess|engine; cache=on|off; reps=n; "
      "samples=n (0=exact);\n"
      "  threads=n; build_threads=n; seed=n\n");
  return 0;
}

int CheckBaseline(const std::vector<ScenarioResult>& results,
                  const std::vector<PerfRecord>& perf,
                  const std::string& baseline_path, bool require_complete) {
  if (baseline_path.empty()) {
    return 0;
  }
  const Status status =
      CheckAgainstBaseline(results, perf, baseline_path, require_complete);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("baseline: %s OK (%zu cost rows match, %zu perf records "
              "present)\n",
              baseline_path.c_str(), results.size(), perf.size());
  return 0;
}

int EmitResults(const std::vector<ScenarioResult>& results,
                const std::vector<PerfRecord>& perf,
                const std::string& json_path, const std::string& csv_path) {
  int code = 0;
  if (!json_path.empty()) {
    std::string doc;
    for (const ScenarioResult& r : results) {
      doc += ScenarioResultToJson(r) + "\n";
    }
    for (const PerfRecord& record : perf) {
      doc += PerfRecordToJson(record) + "\n";
    }
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      code = 1;
    } else {
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
      std::printf("json: %s (%zu scenarios, %zu perf records)\n",
                  json_path.c_str(), results.size(), perf.size());
    }
  }
  if (!csv_path.empty()) {
    CsvWriter csv(ScenarioCsvHeader());
    for (const ScenarioResult& r : results) {
      csv.AddRow(ScenarioCsvRow(r));
    }
    const Status status = csv.WriteToFile(csv_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      code = 1;
    } else {
      std::printf("csv: %s (%zu scenarios)\n", csv_path.c_str(),
                  results.size());
    }
  }
  return code;
}

int Main(int argc, char** argv) {
  std::vector<std::string> suite_names;
  std::string scenario_text;
  std::string json_path;
  std::string csv_path;
  std::string baseline_path;
  bool smoke = false;
  int threads =
      static_cast<int>(std::max<std::int64_t>(0, EnvInt("AIGS_THREADS", 0)));

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      return List();
    }
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--suite") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      for (const auto part : Split(value, ',')) {
        suite_names.emplace_back(Trim(part));
      }
    } else if (arg == "--threads") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      threads = std::atoi(value);
      if (threads < 0) {
        return Usage();
      }
    } else if (arg == "--json") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      json_path = value;
    } else if (arg == "--csv") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      csv_path = value;
    } else if (arg == "--baseline") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      baseline_path = value;
    } else if (arg == "--scenario") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      scenario_text = value;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
  }

  DatasetCache cache;

  if (!scenario_text.empty()) {
    auto spec = ParseScenarioSpec(scenario_text);
    if (!spec.ok()) {
      std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    if (spec->threads == 0) {
      spec->threads = threads;
    }
    auto result = RunScenario(*spec, cache);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", ScenarioResultToJson(*result).c_str());
    const std::vector<ScenarioResult> results = {*result};
    const int emit_code = EmitResults(results, {}, json_path, csv_path);
    // Ad-hoc cells spot-check only the labels they ran.
    const int baseline_code = CheckBaseline(results, {}, baseline_path,
                                            /*require_complete=*/false);
    return emit_code != 0 ? emit_code : baseline_code;
  }

  if (suite_names.empty()) {
    if (!smoke) {
      return Usage();
    }
    suite_names = {"all"};
  }
  if (suite_names.size() == 1 && suite_names[0] == "all") {
    suite_names.clear();
    for (const Suite& suite : AllSuites()) {
      suite_names.push_back(suite.name);
    }
  }

  SuiteContext ctx;
  ctx.scale = smoke ? std::min(DatasetScale(), 0.02) : DatasetScale();
  ctx.reps = smoke ? 1 : Reps();
  ctx.threads = threads;
  ctx.smoke = smoke;
  ctx.cache = &cache;

  bool suite_failed = false;
  for (const std::string& name : suite_names) {
    const Suite* suite = FindSuite(name);
    if (suite == nullptr) {
      std::fprintf(stderr, "unknown suite '%s'; try --list\n", name.c_str());
      return 2;
    }
    const Status status = suite->fn(ctx);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      suite_failed = true;
    }
    std::printf("\n");
  }
  const int emit_code = EmitResults(ctx.results, ctx.perf, json_path,
                                    csv_path);
  // Timing gates never stop a suite, so only a failed deterministic check
  // leaves rows unrun; the guard then checks the rows that ran, without
  // "was not run" noise.
  const int baseline_code = CheckBaseline(ctx.results, ctx.perf,
                                          baseline_path,
                                          /*require_complete=*/!suite_failed);
  if (!ctx.timing_failures.empty()) {
    std::string summary;
    for (const std::string& failure : ctx.timing_failures) {
      summary += (summary.empty() ? "" : "; ") + failure;
    }
    std::fprintf(stderr, "timing gates failed: %s\n", summary.c_str());
  }
  if (suite_failed || emit_code != 0 || baseline_code != 0) {
    return 1;
  }
  return ctx.timing_failures.empty() ? 0 : 3;
}

}  // namespace
}  // namespace aigs::bench

int main(int argc, char** argv) { return aigs::bench::Main(argc, argv); }
