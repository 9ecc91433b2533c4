// The unified bench harness's scenario layer: one struct describes a
// (dataset × distribution × policy × cost model × threads) evaluation cell,
// one function runs it through the registry + the sharded Evaluator, and
// JSON/CSV emitters make every suite's output machine-readable. Numbers
// that are not cost aggregates (latencies, rates, sizes) are PerfRecords.
//
// Spec string syntax (ad-hoc scenarios, `aigs_bench --scenario`):
//   "dataset=amazon;scale=0.25;dist=zipf:2;policy=batched:k=8;
//    cost=uniform:1:10;reps=3;samples=0;threads=4;seed=7"
#ifndef AIGS_BENCH_SCENARIO_H_
#define AIGS_BENCH_SCENARIO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "data/datasets.h"
#include "eval/evaluator.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/status.h"

namespace aigs::bench {

/// One evaluation cell. Every former bench_* table row is one of these.
struct ScenarioSpec {
  /// Display label; empty = the policy spec.
  std::string label;
  /// amazon | imagenet | vehicle | fig2 | fig3 (builtins ignore `scale`).
  std::string dataset = "amazon";
  /// Fraction of the paper-scale dataset (1.0 = Table II size).
  double scale = 0.25;
  /// real | equal | uniform | exponential | zipf[:a]
  std::string distribution = "real";
  /// PolicyRegistry spec, e.g. "greedy" or "migs:choices=0".
  std::string policy = "greedy";
  /// unit | uniform:lo:hi (random integer prices in [lo, hi]) |
  /// depth:lo:hi (deterministic per-node prices growing with node depth —
  /// the Szyfelbein cost-generalized setting) |
  /// prices:p0+p1+... (explicit per-node price vector, one entry per node) |
  /// prices:hash:lo:hi[:seed] (deterministic pseudo-random per-node prices
  /// in [lo, hi] — arbitrary-price CAIGS, guardable in the baseline).
  std::string cost_model = "unit";
  /// auto | compressed — reachability storage for the dataset's hierarchy.
  /// auto keeps the defaults (Euler on trees, compressed closure rows on
  /// DAGs); compressed forces closure rows on every shape, trees included,
  /// so the backend=compressed policy option has storage to run on.
  std::string reach = "auto";
  /// exact | noisy:p | persistent:p — the oracle answering the questions.
  /// noisy flips each answer independently with probability p; persistent
  /// freezes each node's (possibly flipped) answer for the whole search
  /// (Dereniowski-style noise that majority voting cannot fix). Non-exact
  /// oracles report accuracy instead of fatally requiring correctness.
  std::string oracle = "exact";
  /// Repetitions for randomized distributions / cost models (averaged).
  std::size_t reps = 1;
  /// Base seed; rep r derives its own stream.
  std::uint64_t seed = 1000;
  /// 0 = exact evaluation over all targets; else Monte-Carlo sample count.
  std::size_t samples = 0;
  /// Evaluator worker count (0 = shared default pool, 1 = serial).
  int threads = 0;
  /// Reachability-index build worker count (0 = hardware concurrency,
  /// 1 = serial). The built index is bit-identical either way, so this is
  /// purely a build-latency knob — it is excluded from the dataset cache
  /// key and not emitted in result rows.
  int build_threads = 0;
  /// Drive every search through Engine sessions (Open/Ask/Answer/Close on a
  /// published snapshot) instead of in-process Policy::NewSession calls.
  /// Cost aggregates are bit-identical to the in-process path by
  /// construction; this knob exists so the bench exercises the service
  /// stack — including the plan cache — under the regression guard.
  bool service = false;
  /// Engine plan cache on/off (service path only). With the cache on, the
  /// run reports the measured hit rate in `ScenarioResult::cache_hit_rate`.
  bool plan_cache = true;
};

/// Averaged-over-reps outcome of one scenario.
struct ScenarioResult {
  ScenarioSpec spec;
  std::string policy_name;  // resolved Policy::name()
  std::size_t nodes = 0;
  double expected_cost = 0;
  double expected_priced_cost = 0;
  double expected_reach_queries = 0;
  double expected_rounds = 0;
  std::uint64_t max_cost = 0;  // max over reps
  /// Fraction of searches identifying the true target (1.0 under the exact
  /// oracle; the headline metric of noisy scenarios). Averaged over reps.
  double accuracy = 1.0;
  // Weighted quantiles from the last rep (exact mode only; 0 otherwise).
  std::uint32_t median = 0;
  std::uint32_t p90 = 0;
  std::uint32_t p99 = 0;
  double wall_ms = 0;  // total evaluation wall time across reps
  /// Plan-cache hit rate over the run (service path with the cache on;
  /// 0 otherwise). Averaged over reps; informational, never guarded —
  /// concurrent sessions race their misses, so the exact split is not
  /// deterministic under threads > 1.
  double cache_hit_rate = 0;
};

/// One measured number that is not a cost aggregate: a latency, rate, size
/// or ratio. Suites report every such number this way. Its value varies
/// with the hardware, so the baseline guard checks only that it is present.
struct PerfRecord {
  /// The suite that measured it; `suite + "/" + metric` is its label.
  std::string suite;
  std::string metric;
  /// ms | krps | ns | MB | bytes | x (a ratio).
  std::string unit;
  double value = 0;
  /// The layer the number belongs to, in servebench's names: net | service
  /// | core | graph | util.kernels.
  std::string layer;
  /// The input it was measured on.
  struct Config {
    std::string dataset;
    std::size_t nodes = 0;
  } config;

  std::string label() const { return suite + "/" + metric; }
};

/// Builds each (dataset, scale) pair at most once per process.
class DatasetCache {
 public:
  /// Returns a cached dataset; builds it on first use. The pointer stays
  /// valid for the cache's lifetime. `reach` = auto|compressed (a
  /// ScenarioSpec::reach value; distinct storages cache separately).
  /// `build_threads` shards the closure build (0 = hardware); the built
  /// index is bit-identical regardless, so it does not key the cache.
  StatusOr<const Dataset*> Get(const std::string& name, double scale,
                               const std::string& reach = "auto",
                               int build_threads = 0);

 private:
  std::map<std::tuple<std::string, int, std::string>,
           std::unique_ptr<Dataset>>
      cache_;
};

/// Materializes a distribution spec ("real" reads the dataset's own).
StatusOr<Distribution> MakeScenarioDistribution(const std::string& spec,
                                                const Dataset& dataset,
                                                Rng& rng);

/// Materializes a cost-model spec; returns nullptr (unit prices) for "unit".
/// "depth:lo:hi" prices a question by its node's depth — c(v) = lo +
/// min(Depth(v), hi − lo), deterministic and per-node: the cost-generalized
/// setting of Szyfelbein (arXiv:2603.17916), where deeper (more specific)
/// questions cost more to verify.
StatusOr<std::unique_ptr<CostModel>> MakeScenarioCostModel(
    const std::string& spec, const Hierarchy& hierarchy, Rng& rng);

/// Runs one scenario end to end (registry lookup, reps, aggregation).
StatusOr<ScenarioResult> RunScenario(const ScenarioSpec& spec,
                                     DatasetCache& cache);

/// Parses the `key=value;key=value` ad-hoc scenario syntax.
StatusOr<ScenarioSpec> ParseScenarioSpec(const std::string& text);

/// One JSON object per result (JSON-lines friendly).
std::string ScenarioResultToJson(const ScenarioResult& result);

/// One JSON object per perf record, in its own line shape:
/// {"suite","metric","unit","value","layer","config":{"dataset","nodes"}}.
std::string PerfRecordToJson(const PerfRecord& record);

/// CSV schema of the scenario rows (perf records are JSON only).
std::vector<std::string> ScenarioCsvHeader();
std::vector<std::string> ScenarioCsvRow(const ScenarioResult& result);

/// Regression guard: compares a fresh run against a committed JSON-lines
/// baseline (a previous `--json` dump). Scenario lines are compared on the
/// deterministic cost aggregates only — expected_cost, expected_priced_cost,
/// expected_reach_queries, expected_rounds, accuracy, max_cost — never wall
/// time, so the guard is stable across hardware. Perf-record lines are
/// checked for presence only. Fails listing every drifted, missing, or
/// stale label; regenerate the baseline with the same run that produced it
/// (e.g. `aigs_bench --smoke --json <baseline>`). `require_complete`
/// additionally fails on baseline labels the run never produced — set it
/// when the run covers the same suite set as the baseline (CI smoke), clear
/// it to spot-check a subset (`--scenario`).
Status CheckAgainstBaseline(const std::vector<ScenarioResult>& results,
                            const std::vector<PerfRecord>& perf,
                            const std::string& baseline_path,
                            bool require_complete);

}  // namespace aigs::bench

#endif  // AIGS_BENCH_SCENARIO_H_
