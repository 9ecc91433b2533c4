// aigs_bench — the unified, config-driven bench harness. Replaces the
// former per-experiment bench_* binaries: every experiment is a named suite
// built from ScenarioSpec rows (dataset × distribution × policy × cost
// model × threads) and all scenario results can be exported as JSON lines
// or CSV with one schema.
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
      "\nscenario fields: dataset=amazon|imagenet|vehicle|fig2|fig3; "
      "scale=frac;\n  dist=real|equal|uniform|exponential|zipf[:a]; "
      "policy=<registry spec>;\n  cost=unit|uniform:lo:hi|depth:lo:hi|fig3; "
      "oracle=exact|noisy:p|persistent:p;\n  reps=n; "
      "samples=n (0=exact); threads=n; seed=n\n");
  return 0;
}

int CheckBaseline(const std::vector<ScenarioResult>& results,
                  const std::string& baseline_path, bool require_complete) {
  if (baseline_path.empty()) {
    return 0;
  }
  const Status status =
      CheckAgainstBaseline(results, baseline_path, require_complete);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("baseline: %s OK (%zu scenarios, cost aggregates match)\n",
              baseline_path.c_str(), results.size());
  return 0;
}

int EmitResults(const std::vector<ScenarioResult>& results,
                const std::string& json_path, const std::string& csv_path) {
  int code = 0;
  if (!json_path.empty()) {
    std::string doc;
    for (const ScenarioResult& r : results) {
      doc += ScenarioResultToJson(r) + "\n";
    }
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      code = 1;
    } else {
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
      std::printf("json: %s (%zu scenarios)\n", json_path.c_str(),
                  results.size());
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
  std::vector<ScenarioResult> results;

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
    results.push_back(*result);
    const int emit_code = EmitResults(results, json_path, csv_path);
    // Ad-hoc cells spot-check only the labels they ran.
    const int baseline_code =
        CheckBaseline(results, baseline_path, /*require_complete=*/false);
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
  ctx.results = &results;

  int code = 0;
  for (const std::string& name : suite_names) {
    const Suite* suite = FindSuite(name);
    if (suite == nullptr) {
      std::fprintf(stderr, "unknown suite '%s'; try --list\n", name.c_str());
      return 2;
    }
    const int suite_code = suite->fn(ctx);
    code = code == 0 ? suite_code : code;
    std::printf("\n");
  }
  const int emit_code = EmitResults(results, json_path, csv_path);
  // The cost guard runs even when a suite failed (a wall-clock gate must
  // not hide a cost regression); it then checks only the rows that ran,
  // so the partial set adds no "was not run" noise.
  const int baseline_code =
      CheckBaseline(results, baseline_path, /*require_complete=*/code == 0);
  if (code != 0) {
    return code;
  }
  return emit_code != 0 ? emit_code : baseline_code;
}

}  // namespace
}  // namespace aigs::bench

int main(int argc, char** argv) { return aigs::bench::Main(argc, argv); }
