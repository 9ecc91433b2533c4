#include "bench/suites.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/policy_registry.h"
#include "core/split_weight_index.h"
#include "data/builtin.h"
#include "eval/decision_tree.h"
#include "eval/online.h"
#include "eval/optimal_dp.h"
#include "eval/runner.h"
#include "eval/runtime_bench.h"
#include "graph/generators.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "oracle/noisy_oracle.h"
#include "oracle/oracle.h"
#include "prob/alias_table.h"
#include "service/engine.h"
#include "util/ascii_table.h"
#include "util/env.h"
#include "util/kernels.h"
#include "util/percentile.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace aigs::bench {
namespace {

// ---- shared plumbing -------------------------------------------------------

/// Runs one scenario with the context's thread setting applied; smoke mode
/// clamps repetitions and sample counts.
StatusOr<ScenarioResult> Run(SuiteContext& ctx, ScenarioSpec spec) {
  spec.threads = ctx.threads;
  if (ctx.smoke) {
    spec.reps = 1;
    if (spec.samples > 0) {
      spec.samples = std::min<std::size_t>(spec.samples, 1000);
    }
  }
  AIGS_ASSIGN_OR_RETURN(ScenarioResult result, RunScenario(spec, *ctx.cache));
  ctx.results.push_back(result);
  return result;
}

/// Creates a policy from a registry spec bound to a dataset's hierarchy and
/// an explicit distribution (for the custom, non-scenario measurements).
StatusOr<std::unique_ptr<Policy>> MakePolicyFor(const std::string& spec,
                                                const Hierarchy& h,
                                                const Distribution& dist,
                                                const CostModel* costs =
                                                    nullptr) {
  PolicyContext context;
  context.hierarchy = &h;
  context.distribution = &dist;
  context.cost_model = costs;
  return PolicyRegistry::Global().Create(spec, context);
}

/// Publishes one epoch of `h` under `dist` serving `specs`. A nonzero
/// `max_price` prices questions at random in [1, max_price], drawn from
/// Rng(7) on every call, so catalogs built from the same graph share a
/// fingerprint and their Save blobs stay comparable; 0 keeps unit prices.
Status PublishEpoch(Engine& engine, const Hierarchy& h,
                    const Distribution& dist, std::vector<std::string> specs,
                    std::uint32_t max_price = 0) {
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(h);
  config.distribution = dist;
  if (max_price > 0) {
    Rng rng(7);
    config.cost_model = std::make_shared<const CostModel>(
        CostModel::UniformRandom(h.NumNodes(), 1, max_price, rng));
  }
  config.policy_specs = std::move(specs);
  return engine.Publish(std::move(config)).status();
}

/// Average per-search wall time over targets sampled from the distribution.
double AvgSearchMillis(const Policy& policy, const Hierarchy& h,
                       const Distribution& dist, std::size_t samples) {
  const AliasTable sampler(dist);
  Rng rng(17);
  WallTimer timer;
  for (std::size_t i = 0; i < samples; ++i) {
    const NodeId target = sampler.Sample(rng);
    ExactOracle oracle(h.reach(), target);
    auto session = policy.NewSession();
    const SearchResult r = RunSearch(*session, oracle);
    AIGS_CHECK(r.target == target);
  }
  return timer.ElapsedMillis() / static_cast<double>(samples);
}

/// The paper's four competitors, each evaluated as its own scenario.
struct CompetitorCosts {
  double top_down = 0;
  double migs = 0;
  double wigs = 0;
  double greedy = 0;
};

StatusOr<CompetitorCosts> RunCompetitors(SuiteContext& ctx,
                                         const std::string& dataset,
                                         double scale,
                                         const std::string& distribution,
                                         std::size_t reps, std::uint64_t seed,
                                         const std::string& label) {
  CompetitorCosts costs;
  const struct {
    const char* policy;
    double* out;
  } rows[] = {{"top_down", &costs.top_down},
              {"migs", &costs.migs},
              {"wigs", &costs.wigs},
              {"greedy", &costs.greedy}};
  for (const auto& row : rows) {
    ScenarioSpec spec;
    spec.label = label + "/" + row.policy;
    spec.dataset = dataset;
    spec.scale = scale;
    spec.distribution = distribution;
    spec.policy = row.policy;
    spec.reps = reps;
    spec.seed = seed;
    AIGS_ASSIGN_OR_RETURN(const ScenarioResult result, Run(ctx, spec));
    *row.out = result.expected_cost;
  }
  return costs;
}

void PrintConfig(const SuiteContext& ctx, const char* title) {
  std::printf("== %s ==\n", title);
  std::printf("config: scale=%.0f%%, reps=%zu, threads=%s%s\n\n",
              ctx.scale * 100.0, ctx.reps,
              ctx.threads == 0 ? "auto" : std::to_string(ctx.threads).c_str(),
              ctx.smoke ? ", smoke" : "");
}

// ---- table2: dataset statistics -------------------------------------------

Status SuiteTable2(SuiteContext& ctx) {
  PrintConfig(ctx, "Table II: statistics of datasets");
  AsciiTable table(
      {"Dataset", "#nodes", "Height", "Max Deg.", "Type", "#objects"});
  for (const char* name : {"amazon", "imagenet"}) {
    AIGS_ASSIGN_OR_RETURN(const Dataset* d, ctx.cache->Get(name, ctx.scale));
    table.AddRow({d->name, FormatWithCommas(d->hierarchy.NumNodes()),
                  std::to_string(d->hierarchy.Height()),
                  std::to_string(d->hierarchy.MaxOutDegree()),
                  d->hierarchy.is_tree() ? "Tree" : "DAG",
                  FormatWithCommas(d->num_objects)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("paper (full scale): Amazon 29,240/10/225/Tree/13,886,889 ; "
              "ImageNet 27,714/13/402/DAG/12,656,970\n");
  return Status::OK();
}

// ---- table3: real data distribution ---------------------------------------

Status SuiteTable3(SuiteContext& ctx) {
  PrintConfig(ctx, "Table III: cost under real data distribution");
  AsciiTable table(
      {"Dataset", "TopDown", "MIGS", "WIGS", "GreedyTree/GreedyDAG"});
  for (const char* name : {"amazon", "imagenet"}) {
    AIGS_ASSIGN_OR_RETURN(
        const CompetitorCosts c,
        RunCompetitors(ctx, name, ctx.scale, "real", 1, 1000,
                       std::string("table3/") + name));
    table.AddRow({name, FormatDouble(c.top_down), FormatDouble(c.migs),
                  FormatDouble(c.wigs), FormatDouble(c.greedy)});
    std::printf("%s: greedy saves %s%% vs TopDown, %s%% vs MIGS, %s%% vs "
                "WIGS\n",
                name,
                FormatDouble((1 - c.greedy / c.top_down) * 100, 1).c_str(),
                FormatDouble((1 - c.greedy / c.migs) * 100, 1).c_str(),
                FormatDouble((1 - c.greedy / c.wigs) * 100, 1).c_str());
  }
  std::printf("\n%s\n", table.ToString().c_str());
  std::printf("paper: Amazon 92.23/89.19/37.35/21.02 ; "
              "ImageNet 101.18/96.28/30.18/22.29\n");
  return Status::OK();
}

// ---- table4 / table5: synthetic probability settings ----------------------

Status RunSettingsTable(SuiteContext& ctx, const char* dataset,
                        std::uint64_t seed, const char* title,
                        const char* paper_reference) {
  PrintConfig(ctx, title);
  AIGS_ASSIGN_OR_RETURN(const Dataset* d, ctx.cache->Get(dataset, ctx.scale));
  AsciiTable table({"Distribution", "TopDown", "MIGS", "WIGS",
                    d->hierarchy.is_tree() ? "GreedyTree" : "GreedyDAG"});
  const char* settings[] = {"equal", "uniform", "exponential", "zipf:2"};
  for (const char* setting : settings) {
    const std::size_t reps =
        std::string_view(setting) == "equal" ? 1 : ctx.reps;
    AIGS_ASSIGN_OR_RETURN(
        const CompetitorCosts c,
        RunCompetitors(ctx, dataset, ctx.scale, setting, reps, seed,
                       std::string(dataset) + "/" + setting));
    table.AddRow({setting, FormatDouble(c.top_down), FormatDouble(c.migs),
                  FormatDouble(c.wigs), FormatDouble(c.greedy)});
  }
  std::printf("%s\n%s\n", table.ToString().c_str(), paper_reference);
  return Status::OK();
}

Status SuiteTable4(SuiteContext& ctx) {
  return RunSettingsTable(
      ctx, "amazon", 1000, "Table IV: cost under probability settings (Amazon)",
      "paper: Equal 81.17/80.81/27.42/25.35 ; Uniform 81.28/81.19/27.47/23.68 "
      ";\n       Exponential 82.42/81.65/27.37/22.70 ; Zipf "
      "82.09/81.94/27.55/14.03");
}

Status SuiteTable5(SuiteContext& ctx) {
  return RunSettingsTable(
      ctx, "imagenet", 2000,
      "Table V: cost under probability settings (ImageNet)",
      "paper: Equal 123.31/126.12/34.56/31.48 ; Uniform "
      "125.82/124.66/34.55/28.66 ;\n       Exponential "
      "125.41/127.39/34.57/27.00 ; Zipf 125.24/133.48/34.74/14.41");
}

// ---- fig4: online learning -------------------------------------------------

Status SuiteFig4(SuiteContext& ctx) {
  PrintConfig(ctx, "Fig. 4: average cost vs. number of categorized objects");
  for (const char* name : {"amazon", "imagenet"}) {
    AIGS_ASSIGN_OR_RETURN(const Dataset* d, ctx.cache->Get(name, ctx.scale));
    const Hierarchy& h = d->hierarchy;

    OnlineOptions options;
    options.num_objects = static_cast<std::size_t>(std::max<std::int64_t>(
        1, EnvInt("AIGS_OBJECTS", ctx.smoke ? 5'000 : 50'000)));
    // RunOnlineLearning requires num_objects to be an exact multiple of
    // block_size; round odd AIGS_OBJECTS values down to fit.
    options.block_size =
        std::max<std::size_t>(1, options.num_objects / 10);
    options.num_objects -= options.num_objects % options.block_size;
    options.num_traces = static_cast<std::size_t>(
        EnvInt("AIGS_TRACES", ctx.smoke ? 1 : 3));
    options.seed = 42;
    AIGS_ASSIGN_OR_RETURN(const OnlineSeries series,
                          RunOnlineLearning(h, d->real_distribution, options));

    ScenarioSpec offline_spec;
    offline_spec.label = std::string("fig4/") + name + "/offline";
    offline_spec.dataset = name;
    offline_spec.scale = ctx.scale;
    AIGS_ASSIGN_OR_RETURN(const ScenarioResult offline,
                          Run(ctx, offline_spec));
    ScenarioSpec wigs_spec = offline_spec;
    wigs_spec.label = std::string("fig4/") + name + "/wigs";
    wigs_spec.policy = "wigs";
    AIGS_ASSIGN_OR_RETURN(const ScenarioResult wigs, Run(ctx, wigs_spec));

    std::printf("%s (%zu objects per trace, %zu traces)\n", name,
                options.num_objects, options.num_traces);
    std::printf("  %-14s %-18s %-18s %s\n", "#objects", "GreedyOnline",
                "GivenRealDist", "WIGS");
    for (std::size_t b = 0; b < series.avg_cost_per_block.size(); ++b) {
      std::printf("  %-14zu %-18s %-18s %s\n", (b + 1) * options.block_size,
                  FormatDouble(series.avg_cost_per_block[b]).c_str(),
                  FormatDouble(offline.expected_cost).c_str(),
                  FormatDouble(wigs.expected_cost).c_str());
    }
    const double last = series.avg_cost_per_block.back();
    std::printf("  final gap to offline greedy: %s%%\n\n",
                FormatDouble((last / offline.expected_cost - 1) * 100, 1)
                    .c_str());
  }
  std::printf("paper shape: online curve decreasing, converging to the "
              "offline greedy line;\nWIGS flat above both.\n");
  return Status::OK();
}

// ---- fig5: Zipf parameter sweep -------------------------------------------

Status SuiteFig5(SuiteContext& ctx) {
  PrintConfig(ctx, "Fig. 5: cost vs. parameter of Zipf distribution");
  const std::vector<double> params =
      ctx.smoke ? std::vector<double>{2.0}
                : std::vector<double>{1.5, 2.0, 2.5, 3.0, 3.5, 4.0};
  for (const char* name : {"amazon", "imagenet"}) {
    ScenarioSpec equal_spec;
    equal_spec.label = std::string("fig5/") + name + "/equal";
    equal_spec.dataset = name;
    equal_spec.scale = ctx.scale;
    equal_spec.distribution = "equal";
    AIGS_ASSIGN_OR_RETURN(const ScenarioResult equal, Run(ctx, equal_spec));

    AsciiTable table({"Zipf a", "Greedy", "Equal Pr. (ref)"});
    for (const double a : params) {
      ScenarioSpec spec;
      spec.label = std::string("fig5/") + name + "/zipf_" + FormatDouble(a, 1);
      spec.dataset = name;
      spec.scale = ctx.scale;
      spec.distribution = "zipf:" + FormatDouble(a, 1);
      spec.reps = ctx.reps;
      spec.seed = 3000 + static_cast<std::uint64_t>(a * 10);
      AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
      table.AddRow({FormatDouble(a, 1), FormatDouble(r.expected_cost),
                    FormatDouble(equal.expected_cost)});
    }
    std::printf("%s\n%s\n", name, table.ToString().c_str());
  }
  std::printf("paper shape: greedy cost grows with a and approaches the "
              "equal-probability line.\n");
  return Status::OK();
}

// ---- fig6: running time by target depth -----------------------------------

Status SuiteFig6(SuiteContext& ctx) {
  PrintConfig(ctx, "Fig. 6: running time by target depth");
  const double scale =
      std::min(ctx.scale, ctx.smoke ? 0.02 : 0.15);  // naive is O(n^2 m)
  for (const char* name : {"amazon", "imagenet"}) {
    AIGS_ASSIGN_OR_RETURN(const Dataset* d, ctx.cache->Get(name, scale));
    const Hierarchy& h = d->hierarchy;
    const Distribution& dist = d->real_distribution;

    RuntimeByDepthOptions options;
    options.samples_per_depth = static_cast<std::size_t>(
        EnvInt("AIGS_FIG6_SAMPLES", ctx.smoke ? 2 : 5));
    options.seed = 7;

    // Three tiers: the BFS-rescan reference (the paper's naive baseline),
    // the same definitional greedy on the incremental SplitWeightIndex, and
    // the specialized GreedyTree/GreedyDAG — so the figure measures
    // algorithms, not redundant BFS.
    AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> naive,
                          MakePolicyFor("greedy_naive:backend=bfs", h, dist));
    const RuntimeByDepthResult naive_times =
        MeasureRuntimeByDepth(*naive, h, options);
    AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> indexed,
                          MakePolicyFor("greedy_naive", h, dist));
    const RuntimeByDepthResult indexed_times =
        MeasureRuntimeByDepth(*indexed, h, options);
    AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> fast,
                          MakePolicyFor("greedy", h, dist));
    const RuntimeByDepthResult fast_times =
        MeasureRuntimeByDepth(*fast, h, options);

    AsciiTable table({"depth", "#nodes", "NaiveBfs (ms)", "SplitIndex (ms)",
                      h.is_tree() ? "GreedyTree (ms)" : "GreedyDAG (ms)",
                      "idx speedup", "speedup"});
    for (std::size_t depth = 0; depth < naive_times.avg_millis.size();
         ++depth) {
      if (naive_times.nodes_at_depth[depth] == 0) {
        continue;
      }
      const double naive_ms = naive_times.avg_millis[depth];
      const double indexed_ms = indexed_times.avg_millis[depth];
      const double fast_ms = fast_times.avg_millis[depth];
      table.AddRow({std::to_string(depth),
                    std::to_string(naive_times.nodes_at_depth[depth]),
                    FormatDouble(naive_ms, 3), FormatDouble(indexed_ms, 4),
                    FormatDouble(fast_ms, 4),
                    indexed_ms > 0
                        ? FormatDouble(naive_ms / indexed_ms, 0) + "x"
                        : ">10000x",
                    fast_ms > 0 ? FormatDouble(naive_ms / fast_ms, 0) + "x"
                                : ">10000x"});
    }
    std::printf("%s (n=%zu, %zu samples/depth)\n%s\n", name, h.NumNodes(),
                options.samples_per_depth, table.ToString().c_str());
  }
  std::printf("paper shape: GreedyTree ~3 orders of magnitude faster than "
              "GreedyNaive on the tree;\nGreedyDAG noticeably faster on the "
              "DAG. SplitIndex closes most of the gap while asking\nthe "
              "identical question sequence as NaiveBfs.\n");
  return Status::OK();
}

// ---- caigs: cost-sensitive greedy -----------------------------------------

Status SuiteCaigs(SuiteContext& ctx) {
  PrintConfig(ctx, "CAIGS: cost-sensitive greedy (Definition 9 / Theorem 4)");
  // Example 4 (Fig. 3, c(3)=5): blind 6 vs aware 4.25.
  {
    double costs[2] = {0, 0};
    const char* policies[2] = {"greedy_tree", "cost_sensitive"};
    for (int i = 0; i < 2; ++i) {
      ScenarioSpec spec;
      spec.label = std::string("caigs/example4/") + policies[i];
      spec.dataset = "fig3";
      spec.distribution = "equal";
      spec.policy = policies[i];
      spec.cost_model = "fig3";
      AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
      costs[i] = r.expected_priced_cost;
    }
    std::printf("Example 4 (Fig. 3, c(3)=5): cost-blind greedy %s vs "
                "cost-sensitive greedy %s  (paper: 6 vs 4.25)\n\n",
                FormatDouble(costs[0]).c_str(),
                FormatDouble(costs[1]).c_str());
  }

  // Selection scans all alive candidates per query; cap the scale.
  const double scale = std::min(ctx.scale, ctx.smoke ? 0.03 : 0.12);
  const std::vector<std::uint32_t> ranges =
      ctx.smoke ? std::vector<std::uint32_t>{5}
                : std::vector<std::uint32_t>{2, 5, 10, 20};
  for (const char* name : {"amazon", "imagenet"}) {
    AsciiTable table({"Price range", "Cost-blind greedy",
                      "Cost-sensitive greedy", "Savings"});
    for (const std::uint32_t hi : ranges) {
      const std::string cost_model = "uniform:1:" + std::to_string(hi);
      double blind = 0, aware = 0;
      const struct {
        const char* policy;
        double* out;
      } rows[] = {{"greedy", &blind}, {"cost_sensitive", &aware}};
      for (const auto& row : rows) {
        ScenarioSpec spec;
        spec.label = std::string("caigs/") + name + "/hi" +
                     std::to_string(hi) + "/" + row.policy;
        spec.dataset = name;
        spec.scale = scale;
        spec.policy = row.policy;
        spec.cost_model = cost_model;
        spec.seed = 500 + hi;
        AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
        *row.out = r.expected_priced_cost;
      }
      table.AddRow({"$1-$" + std::to_string(hi), FormatDouble(blind),
                    FormatDouble(aware),
                    FormatDouble((1 - aware / blind) * 100, 1) + "%"});
    }
    std::printf("%s (real distribution, random prices)\n%s\n", name,
                table.ToString().c_str());
  }

  // Arbitrary per-node price vectors (cost=prices:<spec>, the generalized
  // setting of arXiv:2511.06564): one explicit vector reproducing Example 4
  // and one hashed vector at catalog scale. Both are deterministic, so the
  // rows are guarded in the baseline.
  {
    ScenarioSpec spec;
    spec.label = "caigs/prices/example4";
    spec.dataset = "fig3";
    spec.distribution = "equal";
    spec.policy = "cost_sensitive";
    spec.cost_model = "prices:1+1+1+5";
    AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
    std::printf("Explicit price vector 1+1+1+5 reproduces Example 4: "
                "E[price] = %s (expected 4.25)\n",
                FormatDouble(r.expected_priced_cost).c_str());
  }
  {
    ScenarioSpec spec;
    spec.label = "caigs/prices/amazon";
    spec.dataset = "amazon";
    spec.scale = scale;
    spec.policy = "cost_sensitive";
    spec.cost_model = "prices:hash:1:9";
    spec.seed = 600;
    AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
    std::printf("Hashed per-node prices $1-$9 on amazon: cost-sensitive "
                "E[price] = %s\n\n",
                FormatDouble(r.expected_priced_cost).c_str());
  }
  return Status::OK();
}

// ---- batched: questions per round -----------------------------------------

Status SuiteBatched(SuiteContext& ctx) {
  PrintConfig(ctx, "Extension: batched questions (§III-E)");
  const double scale = std::min(ctx.scale, ctx.smoke ? 0.02 : 0.05);
  AsciiTable table({"k (questions/round)", "E[questions]", "E[rounds]",
                    "latency saving", "question overhead"});
  double base_questions = 0, base_rounds = 0;
  const std::vector<int> ks =
      ctx.smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  for (const int k : ks) {
    ScenarioSpec spec;
    spec.label = "batched/k" + std::to_string(k);
    spec.dataset = "amazon";
    spec.scale = scale;
    spec.policy = "batched:k=" + std::to_string(k);
    AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
    if (k == ks.front()) {
      base_questions = r.expected_reach_queries;
      base_rounds = r.expected_rounds;
    }
    table.AddRow(
        {std::to_string(k), FormatDouble(r.expected_reach_queries),
         FormatDouble(r.expected_rounds),
         FormatDouble((1 - r.expected_rounds / base_rounds) * 100, 1) + "%",
         FormatDouble((r.expected_reach_queries / base_questions - 1) * 100,
                      1) +
             "%"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("shape: latency (rounds) keeps improving with k but saturates "
              "while the question bill grows.\n");
  return Status::OK();
}

// ---- noise: noisy crowd answers -------------------------------------------

struct NoiseOutcome {
  double accuracy = 0;
  double avg_crowd_answers = 0;
};

NoiseOutcome MeasureNoise(const Policy& policy, const Hierarchy& h,
                          const Distribution& dist, double flip_prob,
                          int votes, bool persistent, std::size_t trials,
                          Rng& rng) {
  const AliasTable sampler(dist);
  std::size_t correct = 0;
  std::uint64_t crowd_answers = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    const NodeId target = sampler.Sample(rng);
    ExactOracle exact(h.reach(), target);
    NoisyOracle transient(exact, flip_prob, rng.Fork());
    PersistentNoisyOracle sticky(exact, flip_prob, rng.Fork());
    Oracle& noisy = persistent ? static_cast<Oracle&>(sticky)
                               : static_cast<Oracle&>(transient);
    MajorityVoteOracle voted(noisy, votes);
    auto session = policy.NewSession();
    RunOptions options;
    options.max_questions = 1 << 20;
    const SearchResult r = RunSearch(*session, voted, options);
    correct += r.target == target ? 1 : 0;
    crowd_answers += r.reach_queries * static_cast<std::uint64_t>(votes);
  }
  return {static_cast<double>(correct) / static_cast<double>(trials),
          static_cast<double>(crowd_answers) / static_cast<double>(trials)};
}

Status SuiteNoise(SuiteContext& ctx) {
  PrintConfig(ctx, "Extension: noisy crowd answers (§VII future work)");
  AIGS_ASSIGN_OR_RETURN(
      const Dataset* d,
      ctx.cache->Get("amazon", std::min(ctx.scale, ctx.smoke ? 0.03 : 0.15)));
  const Hierarchy& h = d->hierarchy;
  const Distribution& dist = d->real_distribution;
  AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> greedy,
                        MakePolicyFor("greedy", h, dist));
  const std::size_t trials = static_cast<std::size_t>(
      EnvInt("AIGS_NOISE_TRIALS", ctx.smoke ? 50 : 300));

  AsciiTable table({"Flip prob", "Acc (1 vote)", "Acc (5 votes)",
                    "Acc (5 votes, persistent)", "Answers (5 votes)"});
  Rng rng(77);
  const std::vector<double> flips =
      ctx.smoke ? std::vector<double>{0.0, 0.10}
                : std::vector<double>{0.0, 0.02, 0.05, 0.10, 0.20};
  for (const double flip : flips) {
    const NoiseOutcome single =
        MeasureNoise(*greedy, h, dist, flip, 1, false, trials, rng);
    const NoiseOutcome voted =
        MeasureNoise(*greedy, h, dist, flip, 5, false, trials, rng);
    const NoiseOutcome sticky =
        MeasureNoise(*greedy, h, dist, flip, 5, true, trials, rng);
    table.AddRow({FormatDouble(flip, 2),
                  FormatDouble(single.accuracy * 100, 1) + "%",
                  FormatDouble(voted.accuracy * 100, 1) + "%",
                  FormatDouble(sticky.accuracy * 100, 1) + "%",
                  FormatDouble(voted.avg_crowd_answers, 1)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("takeaway: majority voting buys back accuracy under transient "
              "noise but is powerless\nagainst persistent noise — the §VII "
              "future-work challenge.\n");

  // Scenario rows for the perf trajectory: persistent-noise oracle vs the
  // exact reference on the same greedy policy. These flow into the JSON/CSV
  // sink and the baseline guard (cost and accuracy are deterministic: the
  // per-search noise streams derive from the scenario seed).
  AsciiTable scenario_table(
      {"Oracle", "E[questions]", "Accuracy", "Max cost"});
  const struct {
    const char* label;
    const char* oracle;
  } scenario_rows[] = {{"noise/exact", "exact"},
                       {"noise/persistent-0.05", "persistent:0.05"},
                       {"noise/persistent-0.10", "persistent:0.1"}};
  for (const auto& row : scenario_rows) {
    ScenarioSpec spec;
    spec.label = row.label;
    spec.dataset = "amazon";
    spec.scale = std::min(ctx.scale, ctx.smoke ? 0.03 : 0.15);
    spec.policy = "greedy";
    spec.oracle = row.oracle;
    spec.seed = 1234;
    AIGS_ASSIGN_OR_RETURN(const ScenarioResult result, Run(ctx, spec));
    scenario_table.AddRow({row.oracle, FormatDouble(result.expected_cost),
                           FormatDouble(result.accuracy * 100, 1) + "%",
                           std::to_string(result.max_cost)});
  }
  std::printf("%s\n", scenario_table.ToString().c_str());
  return Status::OK();
}

// ---- worstcase: average vs worst objectives --------------------------------

Status SuiteWorstcase(SuiteContext& ctx) {
  PrintConfig(ctx, "Average-case vs worst-case objectives (Example 2 at "
                   "scale)");
  for (const char* name : {"amazon", "imagenet"}) {
    AsciiTable table({"Algorithm", "E[questions]", "median", "p90", "p99",
                      "max (WIGS objective)"});
    for (const char* policy : {"top_down", "wigs", "greedy"}) {
      ScenarioSpec spec;
      spec.label = std::string("worstcase/") + name + "/" + policy;
      spec.dataset = name;
      spec.scale = ctx.scale;
      spec.policy = policy;
      AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
      table.AddRow({r.policy_name, FormatDouble(r.expected_cost),
                    std::to_string(r.median), std::to_string(r.p90),
                    std::to_string(r.p99), std::to_string(r.max_cost)});
    }
    std::printf("%s\n%s\n", name, table.ToString().c_str());
  }
  std::printf("shape: greedy wins the expectation by a wide margin while "
              "WIGS stays competitive on the worst case.\n");
  return Status::OK();
}

// ---- scaling: cost vs hierarchy size --------------------------------------

Status SuiteScaling(SuiteContext& ctx) {
  PrintConfig(ctx, "Scaling study: expected cost vs hierarchy size");
  const std::vector<double> scales =
      ctx.smoke ? std::vector<double>{0.05}
                : std::vector<double>{0.05, 0.10, 0.20, 0.40};
  for (const char* name : {"amazon", "imagenet"}) {
    AsciiTable table({"#nodes", "TopDown", "MIGS", "WIGS", "Greedy",
                      "Greedy/TopDown"});
    for (const double scale : scales) {
      AIGS_ASSIGN_OR_RETURN(const Dataset* d, ctx.cache->Get(name, scale));
      AIGS_ASSIGN_OR_RETURN(
          const CompetitorCosts c,
          RunCompetitors(ctx, name, scale, "real", 1, 1000,
                         std::string("scaling/") + name + "/" +
                             FormatDouble(scale, 2)));
      table.AddRow({FormatWithCommas(d->hierarchy.NumNodes()),
                    FormatDouble(c.top_down), FormatDouble(c.migs),
                    FormatDouble(c.wigs), FormatDouble(c.greedy),
                    FormatDouble(c.greedy / c.top_down * 100, 1) + "%"});
    }
    std::printf("%s (real distribution)\n%s\n", name,
                table.ToString().c_str());
  }
  std::printf("shape: greedy's share of the TopDown cost shrinks as the "
              "hierarchy grows.\n");
  return Status::OK();
}

// ---- ablation: greedy design choices --------------------------------------

Status SuiteAblation(SuiteContext& ctx) {
  PrintConfig(ctx, "Ablations: greedy design choices (§IV)");
  const double scale = std::min(ctx.scale, ctx.smoke ? 0.03 : 0.1);

  // Rounding (Eq. 1) on/off.
  {
    AsciiTable table({"Policy", "Raw weights", "Rounded weights (Eq. 1)"});
    const struct {
      const char* dataset;
      const char* raw;
      const char* rounded;
      const char* label;
    } rows[] = {
        {"amazon", "greedy_tree", "greedy_tree:rounded=true", "GreedyTree"},
        {"imagenet", "greedy_dag:rounded=false", "greedy_dag", "GreedyDAG"}};
    for (const auto& row : rows) {
      double costs[2] = {0, 0};
      const char* policies[2] = {row.raw, row.rounded};
      for (int i = 0; i < 2; ++i) {
        ScenarioSpec spec;
        spec.label = std::string("ablation/rounding/") + row.dataset + "/" +
                     (i == 0 ? "raw" : "rounded");
        spec.dataset = row.dataset;
        spec.scale = scale;
        spec.policy = policies[i];
        AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
        costs[i] = r.expected_cost;
      }
      table.AddRow({row.label, FormatDouble(costs[0]),
                    FormatDouble(costs[1])});
    }
    std::printf("[rounding]\n%s\n", table.ToString().c_str());
  }

  // Selection-time ablations (child scan, dominance pruning, overlays).
  AIGS_ASSIGN_OR_RETURN(const Dataset* amazon,
                        ctx.cache->Get("amazon", scale));
  AIGS_ASSIGN_OR_RETURN(const Dataset* imagenet,
                        ctx.cache->Get("imagenet", scale));
  const std::size_t fast_samples = ctx.smoke ? 100 : 2000;
  const std::size_t naive_samples = ctx.smoke ? 3 : 10;
  {
    const Hierarchy& h = amazon->hierarchy;
    const Distribution& dist = amazon->real_distribution;
    AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> linear,
                          MakePolicyFor("greedy_tree", h, dist));
    AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> heap,
                          MakePolicyFor("greedy_tree:scan=heap", h, dist));
    AsciiTable table({"Child scan", "Avg search (ms)"});
    table.AddRow({"linear  O(nhd)",
                  FormatDouble(AvgSearchMillis(*linear, h, dist, fast_samples),
                               4)});
    table.AddRow({"lazy heap O(nh log d)",
                  FormatDouble(AvgSearchMillis(*heap, h, dist, fast_samples),
                               4)});
    std::printf("[child scan, amazon]\n%s\n", table.ToString().c_str());
  }
  {
    const Hierarchy& h = imagenet->hierarchy;
    const Distribution& dist = imagenet->real_distribution;
    AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> pruned,
                          MakePolicyFor("greedy_dag", h, dist));
    AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> exhaustive,
                          MakePolicyFor("greedy_dag:prune=false", h, dist));
    AsciiTable table({"Selection BFS", "Avg search (ms)"});
    const std::size_t samples = ctx.smoke ? 50 : 500;
    table.AddRow({"dominance-pruned (Alg. 6)",
                  FormatDouble(AvgSearchMillis(*pruned, h, dist, samples),
                               4)});
    table.AddRow({"exhaustive",
                  FormatDouble(AvgSearchMillis(*exhaustive, h, dist, samples),
                               4)});
    std::printf("[dominance pruning, imagenet]\n%s\n",
                table.ToString().c_str());
  }
  for (const Dataset* d : {amazon, imagenet}) {
    const Hierarchy& h = d->hierarchy;
    const Distribution& dist = d->real_distribution;
    AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> fast,
                          MakePolicyFor("greedy", h, dist));
    AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> indexed,
                          MakePolicyFor("greedy_naive", h, dist));
    AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> naive,
                          MakePolicyFor("greedy_naive:backend=bfs", h, dist));
    AsciiTable table({"Implementation", "Avg search (ms)"});
    table.AddRow(
        {fast->name() + " (incremental index + session overlay)",
         FormatDouble(AvgSearchMillis(*fast, h, dist,
                                      std::min<std::size_t>(fast_samples,
                                                            1000)),
                      4)});
    table.AddRow(
        {"GreedyNaive (SplitWeightIndex selection)",
         FormatDouble(AvgSearchMillis(*indexed, h, dist,
                                      std::min<std::size_t>(fast_samples,
                                                            1000)),
                      4)});
    table.AddRow({"GreedyNaive[bfs] (Algorithm 2, full rescans)",
                  FormatDouble(AvgSearchMillis(*naive, h, dist,
                                               naive_samples),
                               3)});
    std::printf("[overlay vs naive, %s]\n%s\n", d->name.c_str(),
                table.ToString().c_str());
  }
  return Status::OK();
}

// ---- approx_ratio: empirical ratios vs brute-force optimum ----------------

struct RatioStats {
  double worst = 0;
  double sum = 0;
  std::size_t count = 0;

  void Add(double ratio) {
    worst = std::max(worst, ratio);
    sum += ratio;
    ++count;
  }
  double Mean() const {
    return count == 0 ? 0 : sum / static_cast<double>(count);
  }
};

Status SuiteApproxRatio(SuiteContext& ctx) {
  PrintConfig(ctx, "Empirical approximation ratios vs brute-force optimum");
  const std::size_t rounds = static_cast<std::size_t>(
      EnvInt("AIGS_APPROX_ROUNDS", ctx.smoke ? 20 : 120));

  Rng rng(2022);
  RatioStats tree_stats, dag_stats, equal_stats, caigs_stats;
  EvalOptions eval_options;
  eval_options.threads = 1;  // instances are tiny; skip pool overhead

  for (std::size_t round = 0; round < rounds; ++round) {
    const std::size_t n = 2 + rng.UniformInt(13);

    {  // Tree family: GreedyTree vs optimum.
      Rng g(rng.Next());
      auto h = Hierarchy::Build(RandomTree(n, g));
      AIGS_RETURN_NOT_OK(h.status());
      std::vector<Weight> weights(h->NumNodes());
      for (auto& x : weights) {
        x = 1 + g.UniformInt(99);
      }
      AIGS_ASSIGN_OR_RETURN(const Distribution dist,
                            Distribution::FromWeights(weights));
      AIGS_ASSIGN_OR_RETURN(const double opt, OptimalExpectedCost(*h, dist));
      AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> greedy,
                            MakePolicyFor("greedy_tree", *h, dist));
      if (opt > 0) {
        tree_stats.Add(
            EvaluateExact(*greedy, *h, dist, eval_options).expected_cost /
            opt);
      }
    }
    {  // DAG family: GreedyDAG (rounded) vs optimum.
      Rng g(rng.Next());
      auto h = Hierarchy::Build(RandomDag(std::max<std::size_t>(n, 3), g, 0.5));
      AIGS_RETURN_NOT_OK(h.status());
      std::vector<Weight> weights(h->NumNodes());
      for (auto& x : weights) {
        x = 1 + g.UniformInt(99);
      }
      AIGS_ASSIGN_OR_RETURN(const Distribution dist,
                            Distribution::FromWeights(weights));
      AIGS_ASSIGN_OR_RETURN(const double opt, OptimalExpectedCost(*h, dist));
      AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> greedy,
                            MakePolicyFor("greedy_dag", *h, dist));
      if (opt > 0) {
        dag_stats.Add(
            EvaluateExact(*greedy, *h, dist, eval_options).expected_cost /
            opt);
      }
    }
    {  // Equal-probability family (Theorem 3's setting).
      Rng g(rng.Next());
      auto h = Hierarchy::Build(RandomDag(std::max<std::size_t>(n, 3), g, 0.4));
      AIGS_RETURN_NOT_OK(h.status());
      const Distribution dist = EqualDistribution(h->NumNodes());
      AIGS_ASSIGN_OR_RETURN(const double opt, OptimalExpectedCost(*h, dist));
      AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> greedy,
                            MakePolicyFor("greedy_dag", *h, dist));
      if (opt > 0) {
        equal_stats.Add(
            EvaluateExact(*greedy, *h, dist, eval_options).expected_cost /
            opt);
      }
    }
    {  // CAIGS family: cost-sensitive greedy vs priced optimum.
      Rng g(rng.Next());
      auto h = Hierarchy::Build(RandomTree(n, g));
      AIGS_RETURN_NOT_OK(h.status());
      std::vector<Weight> weights(h->NumNodes());
      for (auto& x : weights) {
        x = 1 + g.UniformInt(30);
      }
      AIGS_ASSIGN_OR_RETURN(const Distribution dist,
                            Distribution::FromWeights(weights));
      const CostModel costs = CostModel::UniformRandom(h->NumNodes(), 1, 8, g);
      AIGS_ASSIGN_OR_RETURN(const double opt,
                            OptimalExpectedCost(*h, dist, &costs));
      AIGS_ASSIGN_OR_RETURN(
          const std::unique_ptr<Policy> greedy,
          MakePolicyFor("cost_sensitive", *h, dist, &costs));
      EvalOptions priced_options = eval_options;
      priced_options.cost_model = &costs;
      if (opt > 0) {
        caigs_stats.Add(EvaluateExact(*greedy, *h, dist, priced_options)
                            .expected_priced_cost /
                        opt);
      }
    }
  }

  AsciiTable table({"Family", "Mean ratio", "Worst ratio", "Theorem bound"});
  table.AddRow({"GreedyTree on trees (Thm 2)",
                FormatDouble(tree_stats.Mean(), 4),
                FormatDouble(tree_stats.worst, 4), "1.618 ((1+sqrt(5))/2)"});
  table.AddRow({"GreedyDAG on DAGs (Thm 1)", FormatDouble(dag_stats.Mean(), 4),
                FormatDouble(dag_stats.worst, 4), "2(1+3 ln n)"});
  table.AddRow({"GreedyDAG, equal probs (Thm 3)",
                FormatDouble(equal_stats.Mean(), 4),
                FormatDouble(equal_stats.worst, 4), "O(log n / log log n)"});
  table.AddRow({"Cost-sensitive on CAIGS (Thm 4)",
                FormatDouble(caigs_stats.Mean(), 4),
                FormatDouble(caigs_stats.worst, 4), "2(1+3 ln n)"});
  std::printf("%s\n", table.ToString().c_str());
  if (tree_stats.worst > 1.6180339887498949 + 1e-9) {
    return Status::Internal("tree worst ratio exceeds the golden-ratio bound");
  }
  std::printf("tree worst ratio within the golden-ratio bound: OK\n");
  return Status::OK();
}

// ---- example2: vehicle hierarchy ------------------------------------------

Status SuiteExample2(SuiteContext& ctx) {
  PrintConfig(ctx, "Example 2: vehicle hierarchy, 100 objects");
  VehicleNodes nodes;
  (void)BuildVehicleHierarchy(&nodes);  // only to learn the node ids

  const auto order_spec = [](std::initializer_list<NodeId> order) {
    std::string joined;
    for (const NodeId v : order) {
      if (!joined.empty()) {
        joined += '+';
      }
      joined += std::to_string(v);
    }
    return joined;
  };
  const std::string wigs_order =
      order_spec({nodes.nissan, nodes.maxima, nodes.sentra, nodes.car,
                  nodes.honda, nodes.mercedes});
  const std::string average_order =
      order_spec({nodes.maxima, nodes.sentra, nodes.nissan, nodes.car,
                  nodes.honda, nodes.mercedes});

  AsciiTable table({"Policy", "Total cost (100 objects)", "Average cost",
                    "Worst case"});
  const struct {
    std::string policy;
    const char* label;
  } rows[] = {
      {"scripted:order=" + wigs_order + ",label=WIGS-optimal",
       "example2/wigs_optimal"},
      {"scripted:order=" + average_order + ",label=average-aware",
       "example2/average_aware"},
      {"greedy_tree", "example2/greedy"}};
  for (const auto& row : rows) {
    ScenarioSpec spec;
    spec.label = row.label;
    spec.dataset = "vehicle";
    spec.policy = row.policy;
    AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
    table.AddRow({r.policy_name, FormatDouble(r.expected_cost * 100, 0),
                  FormatDouble(r.expected_cost),
                  std::to_string(r.max_cost)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("paper: WIGS-optimal total 260 (worst case 4); average-aware "
              "total 204 (worst case 6).\n\n");

  if (!ctx.smoke) {
    AIGS_ASSIGN_OR_RETURN(const Dataset* d, ctx.cache->Get("vehicle", 1.0));
    AIGS_ASSIGN_OR_RETURN(
        const std::unique_ptr<Policy> greedy,
        MakePolicyFor("greedy_tree", d->hierarchy, d->real_distribution));
    AIGS_ASSIGN_OR_RETURN(const DecisionTree tree,
                          DecisionTree::Build(*greedy, d->hierarchy));
    std::printf("greedy decision tree (Definition 6):\n%s\n",
                tree.ToDot(d->hierarchy).c_str());
  }
  return Status::OK();
}

// ---- plan_cache: warm-prefix question-plan throughput ----------------------

/// Replays one engine session to `depth` answers for `target` (exact
/// oracle) and leaves it idle (answered, no resolved pending), so a
/// migration sweep may pick it up; returns the id, or kInvalidSession when
/// the search finished early (session closed).
constexpr SessionId kInvalidSession = 0;

StatusOr<SessionId> OpenAtPrefix(Engine& engine, const std::string& spec,
                                 const Hierarchy& h, NodeId target,
                                 std::size_t depth) {
  AIGS_ASSIGN_OR_RETURN(const SessionId id, engine.Open(spec));
  ExactOracle oracle(h.reach(), target);
  for (std::size_t d = 0; d < depth; ++d) {
    AIGS_ASSIGN_OR_RETURN(const Query q, engine.Ask(id));
    if (q.kind == Query::Kind::kDone) {
      AIGS_RETURN_NOT_OK(engine.Close(id));
      return kInvalidSession;
    }
    AIGS_RETURN_NOT_OK(engine.Answer(id, AnswerFromOracle(q, oracle)));
  }
  return id;
}

/// Mean nanoseconds of one Engine::Ask at shared transcript prefixes of
/// depth 0..depths−1: `per_depth` sessions are replayed to each depth
/// (untimed — this is also what warms the trie), then exactly one Ask per
/// session is timed. On an uncached engine that Ask runs the pure planner;
/// on a warm engine it is one trie lookup.
StatusOr<double> TimedAskNanos(Engine& engine, const std::string& spec,
                               const Hierarchy& h, NodeId target,
                               std::size_t depths, std::size_t per_depth) {
  double total_ms = 0;
  std::size_t timed = 0;
  for (std::size_t depth = 0; depth < depths; ++depth) {
    std::vector<SessionId> ids;
    ids.reserve(per_depth);
    for (std::size_t s = 0; s < per_depth; ++s) {
      AIGS_ASSIGN_OR_RETURN(const SessionId id,
                            OpenAtPrefix(engine, spec, h, target, depth));
      if (id != kInvalidSession) {
        ids.push_back(id);
      }
    }
    // Replaying stops one Ask short of `depth`, so the question AT the
    // timed depth has never been planned; issue one untimed Ask so a warm
    // engine's timed loop measures pure hits (a cold engine plans every
    // time regardless — its one extra plan here is untimed too).
    if (!ids.empty()) {
      AIGS_RETURN_NOT_OK(engine.Ask(ids.front()).status());
      AIGS_RETURN_NOT_OK(engine.Close(ids.front()));
      ids.erase(ids.begin());
    }
    WallTimer timer;
    for (const SessionId id : ids) {
      AIGS_RETURN_NOT_OK(engine.Ask(id).status());
    }
    total_ms += timer.ElapsedMillis();
    timed += ids.size();
    for (const SessionId id : ids) {
      AIGS_RETURN_NOT_OK(engine.Close(id));
    }
  }
  if (timed == 0) {
    return 0.0;
  }
  return total_ms * 1e6 / static_cast<double>(timed);
}

/// The PR-4 hot path: a million sessions answering the same first few
/// questions should run the planner once per distinct prefix, not once per
/// session. Two measurements:
///  * guarded scenario rows — service-path exact evaluation with the plan
///    cache on and off; cost aggregates are pinned by the baseline to the
///    bit-identical values of both rows (cached == uncached == in-process),
///    and the cached row reports its measured hit rate in the JSON sink;
///  * the warm-prefix table — mean wall time of exactly one Engine::Ask at
///    shared prefixes (depths 0–3), uncached planner vs warm trie hit.
Status SuitePlanCache(SuiteContext& ctx) {
  PrintConfig(ctx, "plan_cache: warm-prefix question plans (PR 4)");

  const struct {
    const char* dataset;
    const char* policy;
    const char* cost;
  } rows[] = {{"amazon", "greedy", "unit"},
              {"amazon", "greedy_naive", "unit"},
              {"amazon", "batched:k=4", "unit"},
              {"amazon", "cost_sensitive", "uniform:1:10"},
              {"imagenet", "greedy", "unit"},
              {"imagenet", "greedy_naive", "unit"}};

  AsciiTable eval_table({"Scenario", "E[questions]", "Cache", "Hit rate",
                         "Wall ms"});
  for (const auto& row : rows) {
    for (const bool cached : {false, true}) {
      ScenarioSpec spec;
      spec.label = std::string("plan_cache/") + row.dataset + "/" +
                   row.policy + (cached ? "/cached" : "/uncached");
      spec.dataset = row.dataset;
      spec.scale = ctx.scale;
      spec.policy = row.policy;
      spec.cost_model = row.cost;
      spec.service = true;
      spec.plan_cache = cached;
      AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
      eval_table.AddRow({r.spec.label, FormatDouble(r.expected_cost),
                         cached ? "on" : "off",
                         cached ? FormatDouble(100.0 * r.cache_hit_rate, 1) + "%"
                                : "-",
                         FormatDouble(r.wall_ms, 2)});
    }
  }
  std::printf("%s\n", eval_table.ToString().c_str());
  std::printf("cached and uncached rows are bit-identical in every cost "
              "aggregate (policies are pure planners; the baseline guard "
              "pins both).\n\n");

  // Warm-prefix Ask latency. The deepest-weighted target keeps every
  // session alive through the measured prefix depths.
  const std::size_t depths = 4;
  const std::size_t per_depth = ctx.smoke ? 64 : 256;
  AsciiTable ask_table({"Dataset", "Policy", "Uncached Ask (ns)",
                        "Warm Ask (ns)", "Speedup", "Hit rate"});
  for (const auto& row : rows) {
    AIGS_ASSIGN_OR_RETURN(const Dataset* d,
                          ctx.cache->Get(row.dataset, ctx.scale));
    const NodeId target =
        static_cast<NodeId>(d->hierarchy.NumNodes() - 1);
    // Cost-aware specs get random prices 1..10.
    const std::uint32_t max_price =
        std::string_view(row.policy).starts_with("cost_sensitive") ? 10 : 0;
    double ask_ns[2] = {0, 0};
    PlanCacheStats stats;
    for (const bool cached : {false, true}) {
      EngineOptions options;
      options.plan_cache.enabled = cached;
      Engine engine(options);
      AIGS_RETURN_NOT_OK(PublishEpoch(engine, d->hierarchy,
                                      d->real_distribution, {row.policy},
                                      max_price));
      AIGS_ASSIGN_OR_RETURN(ask_ns[cached ? 1 : 0],
                            TimedAskNanos(engine, row.policy, d->hierarchy,
                                          target, depths, per_depth));
      stats = engine.Stats().plan_cache;
    }
    const double cold_ns = ask_ns[0];
    const double warm_ns = ask_ns[1];
    ask_table.AddRow(
        {row.dataset, row.policy, FormatDouble(cold_ns, 0),
         FormatDouble(warm_ns, 0),
         warm_ns > 0 ? FormatDouble(cold_ns / warm_ns, 1) + "x" : "-",
         FormatDouble(100.0 * stats.hit_rate(), 1) + "%"});
  }
  std::printf("%s\n", ask_table.ToString().c_str());
  std::printf("timed: exactly one Ask per session at shared prefixes "
              "(depths 0-%zu, %zu sessions/depth). Uncached runs the "
              "planner; warm is one lock-striped trie lookup.\n",
              depths - 1, per_depth);
  return Status::OK();
}

// ---- epoch_lifecycle: migration + rolling keys ----------------------------

/// (a) Migration sweep throughput: idle sessions parked at shared prefixes
/// on epoch 1, weights shift, the publish's drain replays everyone onto
/// epoch 2. Timed from Publish to a settled drain, so the time is the
/// snapshot build plus the sweep.
Status LifecycleMigrationThroughput(SuiteContext& ctx, const Dataset& d) {
  const Hierarchy& h = d.hierarchy;
  const std::size_t kSessions = ctx.smoke ? 128 : 1024;
  const std::size_t kDepth = 4;

  const auto engine = std::make_unique<Engine>();
  AIGS_RETURN_NOT_OK(
      PublishEpoch(*engine, h, d.real_distribution, {"greedy"}));
  const AliasTable sampler(d.real_distribution);
  Rng rng(5005);
  std::size_t parked = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    AIGS_ASSIGN_OR_RETURN(
        const SessionId id,
        OpenAtPrefix(*engine, "greedy", h, sampler.Sample(rng), kDepth));
    parked += id != kInvalidSession ? 1 : 0;
  }

  // Shift the weights (an online-learning style update); the publish's
  // drain sweeps everyone over.
  Rng shift_rng(6006);
  const Distribution shifted =
      ZipfRandomDistribution(h.NumNodes(), 2.0, shift_rng);
  const DrainStats before = engine->DrainProgress();
  WallTimer timer;
  AIGS_RETURN_NOT_OK(PublishEpoch(*engine, h, shifted, {"greedy"}));
  engine->WaitForDrain();
  const double millis = timer.ElapsedMillis();
  const DrainStats after = engine->DrainProgress();
  const std::uint64_t migrated = after.migrated - before.migrated;

  AsciiTable table({"Idle sessions", "Migrated", "Failed", "Divergent steps",
                    "Publish+drain ms", "Sessions/s"});
  table.AddRow({std::to_string(parked), std::to_string(migrated),
                std::to_string(after.failed - before.failed),
                std::to_string(after.divergent_steps -
                               before.divergent_steps),
                FormatDouble(millis, 2),
                millis > 0 ? FormatWithCommas(static_cast<std::uint64_t>(
                                 migrated * 1000.0 / millis))
                           : "-"});
  std::printf("[migration sweep: %s, depth-%zu prefixes, real -> zipf:2 "
              "weights]\n%s\n",
              d.name.c_str(), kDepth, table.ToString().c_str());
  return Status::OK();
}

/// Faithful re-creation of the PR-4 string-key cache stripe (lock + flat
/// hash map + LRU splice), so the micro row below isolates the one thing
/// that changed: hashing an O(depth) concatenated key vs one interned id.
struct LegacyStringStripe {
  struct Entry {
    Query query;
    std::list<const std::string*>::iterator lru_it;
  };
  std::mutex mutex;
  std::unordered_map<std::string, Entry> entries;
  std::list<const std::string*> lru;
  std::atomic<std::uint64_t> hits{0};

  void Insert(const std::string& key, const Query& query) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto [it, inserted] = entries.try_emplace(key);
    it->second.query = query;
    lru.push_front(&it->first);
    it->second.lru_it = lru.begin();
  }
  std::optional<Query> Lookup(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = entries.find(key);
    if (it == entries.end()) {
      return std::nullopt;
    }
    hits.fetch_add(1, std::memory_order_relaxed);
    lru.splice(lru.begin(), lru, it->second.lru_it);
    return it->second.query;
  }
};

/// (b) Rolling plan keys: per-Ask key cost of the interned PlanPrefixId
/// trie vs the PR-4 O(depth) string key, across transcript depths.
Status LifecycleRollingKeys(SuiteContext& ctx) {
  const std::size_t kLookups = ctx.smoke ? 200'000 : 2'000'000;
  AsciiTable table({"Depth", "String key bytes", "Re-encoded key (ns)",
                    "Interned id (ns)", "Speedup"});
  for (const std::size_t depth : {4u, 16u, 64u, 256u}) {
    // The PR-4 scheme: the session carries the concatenated step lines and
    // every Ask hashes all O(depth) bytes of it under the stripe lock.
    LegacyStringStripe flat;
    std::string string_key = "greedy\n";
    PlanCache cache(PlanCacheOptions{});
    PlanPrefixId id = cache.RootFor("greedy");
    for (std::size_t i = 0; i < depth; ++i) {
      TranscriptStep step;
      step.kind = Query::Kind::kReach;
      step.nodes = {static_cast<NodeId>(i)};
      step.yes = (i & 1) != 0;
      SessionCodec::AppendStepKey(step, &string_key);
      id = cache.Advance(id, *PlanCache::EdgeOf(step));
    }
    flat.Insert(string_key, Query::ReachQuery(1));
    cache.Insert(id, Query::ReachQuery(1));

    WallTimer old_timer;
    std::size_t sink = 0;
    for (std::size_t i = 0; i < kLookups; ++i) {
      sink += flat.Lookup(string_key).has_value() ? 1 : 0;
    }
    const double old_ns = old_timer.ElapsedMillis() * 1e6 /
                          static_cast<double>(kLookups);
    WallTimer new_timer;
    for (std::size_t i = 0; i < kLookups; ++i) {
      sink += cache.Lookup(id).has_value() ? 1 : 0;
    }
    const double new_ns = new_timer.ElapsedMillis() * 1e6 /
                          static_cast<double>(kLookups);
    AIGS_CHECK(sink == 2 * kLookups);
    table.AddRow({std::to_string(depth), std::to_string(string_key.size()),
                  FormatDouble(old_ns, 1), FormatDouble(new_ns, 1),
                  new_ns > 0 ? FormatDouble(old_ns / new_ns, 1) + "x"
                             : "-"});
  }
  std::printf("[rolling plan keys: one key probe per Ask, %zu probes "
              "per row]\n%s\n",
              kLookups, table.ToString().c_str());
  std::printf("shape: the re-encoded string key scales with depth; the "
              "interned id stays flat (hash of one u64 + stripe lock).\n");
  return Status::OK();
}

/// (c) The publish-latency SLO: Publish is the snapshot build plus
/// an O(1) swap, the sweep runs on the drain worker — so its latency must
/// stay FLAT as the live-session count grows. A timing gate, never a
/// baseline value.
Status LifecyclePublishLatency(SuiteContext& ctx, const Dataset& d) {
  const std::vector<std::size_t> counts =
      ctx.smoke ? std::vector<std::size_t>{1'000, 8'000}
                : std::vector<std::size_t>{1'000, 100'000, 1'000'000};
  const std::size_t kReps = 9;

  AsciiTable table({"Sessions", "Publish p50 ms", "Publish p99 ms",
                    "Fully drained ms"});
  std::map<std::size_t, double> p50s;  // by session count, for the gate
  for (const std::size_t count : counts) {
    Engine engine;
    AIGS_RETURN_NOT_OK(
        PublishEpoch(engine, d.hierarchy, d.real_distribution, {"greedy"}));
    for (std::size_t i = 0; i < count; ++i) {
      AIGS_RETURN_NOT_OK(engine.Open("greedy").status());
    }
    std::vector<double> publish_ms, drained_ms;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      // Every rep re-migrates the full session population one epoch
      // forward, so each timed Publish faces identical drain work.
      WallTimer timer;
      AIGS_RETURN_NOT_OK(
          PublishEpoch(engine, d.hierarchy, d.real_distribution, {"greedy"}));
      publish_ms.push_back(timer.ElapsedMillis());
      engine.WaitForDrain();
      drained_ms.push_back(timer.ElapsedMillis());
    }
    const double p50 = NearestRank(publish_ms, 0.50);
    const double p99 = NearestRank(publish_ms, 0.99);
    const double drained = NearestRank(drained_ms, 0.50);
    p50s[count] = p50;
    table.AddRow({FormatWithCommas(count), FormatDouble(p50, 3),
                  FormatDouble(p99, 3), FormatDouble(drained, 3)});
    // The "background" segment keeps the label of earlier baselines.
    ctx.perf.push_back({"epoch_lifecycle",
                        "publish_latency/background/" + d.name + "/" +
                            std::to_string(count),
                        "ms", p50, "service",
                        {d.name, d.hierarchy.NumNodes()}});
  }
  std::printf("[publish latency: %s, %zu timed publishes per cell, idle "
              "sessions at depth 0]\n%s\n",
              d.name.c_str(), kReps, table.ToString().c_str());

  // The SLO gate, armed on every build: the publish at the largest session
  // count must stay within 2x of the smallest (plus 1ms absolute slack —
  // the swap is microseconds, timer noise is not).
  const double p50_min = p50s[counts.front()];
  const double p50_max = p50s[counts.back()];
  TimingGate gate(ctx, "publish_latency",
                  {.optimized = false, .unsanitized = false});
  gate.FailIf(p50_max > 2.0 * p50_min + 1.0,
              "publish latency SLO violated: p50 grew from " +
                  FormatDouble(p50_min, 3) + "ms at " +
                  std::to_string(counts.front()) + " sessions to " +
                  FormatDouble(p50_max, 3) + "ms at " +
                  std::to_string(counts.back()) +
                  " — the swap is no longer O(1) in the session count");
  gate.Finish("publish p50 flat in the session count (within 2x " +
              std::to_string(counts.front()) + " -> " +
              std::to_string(counts.back()) + ")");
  return Status::OK();
}

Status SuiteEpochLifecycle(SuiteContext& ctx) {
  PrintConfig(ctx,
              "epoch_lifecycle: cross-epoch migration, "
              "O(1) rolling plan keys, publish-latency SLO (PR 5/6)");
  const double scale = std::min(ctx.scale, ctx.smoke ? 0.02 : 0.1);
  AIGS_ASSIGN_OR_RETURN(const Dataset* amazon,
                        ctx.cache->Get("amazon", scale));
  AIGS_ASSIGN_OR_RETURN(const Dataset* imagenet,
                        ctx.cache->Get("imagenet", scale));
  AIGS_RETURN_NOT_OK(LifecycleMigrationThroughput(ctx, *amazon));
  AIGS_RETURN_NOT_OK(LifecycleMigrationThroughput(ctx, *imagenet));
  AIGS_RETURN_NOT_OK(LifecycleRollingKeys(ctx));
  AIGS_RETURN_NOT_OK(LifecyclePublishLatency(ctx, *amazon));

  // Guarded scenario rows: the service path under the non-uniform
  // depth-based cost model (per-node prices; Szyfelbein's cost-generalized
  // setting, arXiv:2603.17916) — closes the PR-1 open item. Cost
  // aggregates land in the JSON sink and the baseline guard.
  AsciiTable eval_table({"Scenario", "E[questions]", "E[priced cost]",
                         "Hit rate"});
  const struct {
    const char* dataset;
    const char* policy;
  } rows[] = {{"amazon", "greedy"},
              {"amazon", "cost_sensitive"},
              {"imagenet", "greedy"},
              {"imagenet", "cost_sensitive"}};
  for (const auto& row : rows) {
    ScenarioSpec spec;
    spec.label = std::string("epoch_lifecycle/") + row.dataset +
                 "/depthcost/" + row.policy;
    spec.dataset = row.dataset;
    spec.scale = scale;
    spec.policy = row.policy;
    spec.cost_model = "depth:1:8";
    spec.service = true;
    AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
    eval_table.AddRow({r.spec.label, FormatDouble(r.expected_cost),
                       FormatDouble(r.expected_priced_cost),
                       FormatDouble(100.0 * r.cache_hit_rate, 1) + "%"});
  }
  std::printf("[non-uniform per-node costs, cost=depth:1:8 "
              "(Szyfelbein, arXiv:2603.17916)]\n%s\n",
              eval_table.ToString().c_str());
  std::printf("depth-based prices are adversarial for cost-aware "
              "selection: every informative split sits mid-depth at a "
              "similar price, so cost-blind and cost-aware greedy land "
              "within a few percent (contrast the caigs suite's random "
              "prices, where savings reach 20%%+). All four rows are "
              "pinned by the baseline guard.\n");
  return Status::OK();
}

// ---- durability: WAL overhead, recovery throughput, identity (PR 7) --------

/// Self-cleaning scratch directory for one durable-store measurement.
class BenchDir {
 public:
  explicit BenchDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("aigs_bench_durability_" + tag + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~BenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StatusOr<std::unique_ptr<Engine>> MakeDurableEngine(
    const Dataset& d, const std::string& dir, const WalSyncOptions* sync) {
  auto engine = std::make_unique<Engine>();
  AIGS_RETURN_NOT_OK(
      PublishEpoch(*engine, d.hierarchy, d.real_distribution, {"greedy"}));
  if (sync != nullptr) {
    DurabilityOptions dopts;
    dopts.dir = dir;
    dopts.sync = *sync;
    dopts.checkpoint_every = 0;  // measure the WAL, not checkpoint cadence
    AIGS_RETURN_NOT_OK(engine->EnableDurability(dopts));
  }
  return engine;
}

/// (a) Hot-path overhead: per-operation Ask+Answer latency with the WAL off
/// vs on under each fsync policy. The SLO the acceptance pins: with
/// fsync=interval (the serving default) the per-op p50 stays within 1.5x
/// of the WAL-off p50 (plus 2us absolute slack — both sides are a few
/// microseconds, timer noise is not).
Status DurabilityAnswerOverhead(SuiteContext& ctx, const Dataset& d) {
  struct Mode {
    const char* name;
    bool durable;
    WalSyncOptions sync;
    std::size_t sessions;
  };
  const std::size_t kSessions = ctx.smoke ? 300 : 2'000;
  // fsync=always pays a real disk flush per op; sample fewer sessions.
  const std::vector<Mode> modes = {
      {"off", false, {}, kSessions},
      {"wal:none", true, {FsyncPolicy::kNone, 1}, kSessions},
      {"wal:interval:64", true, {FsyncPolicy::kInterval, 64}, kSessions},
      {"wal:always", true, {FsyncPolicy::kAlways, 1}, kSessions / 10},
  };
  const AliasTable sampler(d.real_distribution);

  AsciiTable table({"WAL", "Ops", "Ask+Answer p50 (us)", "p99 (us)",
                    "Overhead vs off"});
  std::map<std::string, double> p50s;
  for (const Mode& mode : modes) {
    BenchDir dir(std::string("overhead_") +
                 (mode.durable ? FormatFsyncPolicy(mode.sync) : "off"));
    AIGS_ASSIGN_OR_RETURN(
        std::unique_ptr<Engine> engine,
        MakeDurableEngine(d, dir.path(), mode.durable ? &mode.sync : nullptr));
    Rng rng(8008);
    std::vector<double> op_ms;
    op_ms.reserve(mode.sessions * 8);
    for (std::size_t i = 0; i < mode.sessions; ++i) {
      const NodeId target = sampler.Sample(rng);
      ExactOracle oracle(d.hierarchy.reach(), target);
      AIGS_ASSIGN_OR_RETURN(const SessionId id, engine->Open("greedy"));
      for (;;) {
        WallTimer timer;
        AIGS_ASSIGN_OR_RETURN(const Query q, engine->Ask(id));
        if (q.kind == Query::Kind::kDone) {
          break;
        }
        AIGS_RETURN_NOT_OK(engine->Answer(id, AnswerFromOracle(q, oracle)));
        op_ms.push_back(timer.ElapsedMillis());
      }
      AIGS_RETURN_NOT_OK(engine->Close(id));
    }
    const double p50_us = NearestRank(op_ms, 0.50) * 1000.0;
    const double p99_us = NearestRank(op_ms, 0.99) * 1000.0;
    p50s[mode.name] = p50_us;
    table.AddRow({mode.name, FormatWithCommas(op_ms.size()),
                  FormatDouble(p50_us, 2), FormatDouble(p99_us, 2),
                  p50s.count("off") != 0 && p50s["off"] > 0
                      ? FormatDouble(p50_us / p50s["off"], 2) + "x"
                      : "-"});
    ctx.perf.push_back({"durability", std::string("answer_p50/") + mode.name,
                        "ms", p50_us / 1000.0, "service",
                        {d.name, d.hierarchy.NumNodes()}});
  }
  std::printf("[hot-path WAL overhead: %s, greedy, per-op Ask+Answer "
              "latency]\n%s\n",
              d.name.c_str(), table.ToString().c_str());

  // The absolute slack is tuned for uninstrumented builds; under ASan/TSan
  // every WAL-path allocation and syscall is instrumented, so the gate is
  // meaningless there. Unlike most gates it also arms on debug builds.
  const double off = p50s["off"];
  const double interval = p50s["wal:interval:64"];
  TimingGate gate(ctx, "durability", {.optimized = false});
  gate.FailIf(interval > 1.5 * off + 0.002 * 1000.0,
              "durability SLO violated: fsync=interval Ask+Answer p50 (" +
                  FormatDouble(interval, 2) +
                  "us) exceeds 1.5x the WAL-off p50 (" +
                  FormatDouble(off, 2) + "us) + 2us slack");
  gate.Finish("fsync=interval p50 within 1.5x of WAL off (+2us slack)");
  return Status::OK();
}

/// (b) Recovery throughput: sessions parked at depth 4 on one shared
/// target (the plan trie amortizes the planner, so the measurement is the
/// durable-store scan + replay, not planning), recovered by a fresh engine.
Status DurabilityRecoveryThroughput(SuiteContext& ctx, const Dataset& d) {
  const std::vector<std::size_t> counts =
      ctx.smoke ? std::vector<std::size_t>{200, 1'000}
                : std::vector<std::size_t>{1'000, 100'000};
  const std::size_t kDepth = 4;
  // One deep-ish target shared by every session: replay becomes pure trie
  // hits after the first session, mirroring a warm serving fleet.
  const AliasTable sampler(d.real_distribution);
  Rng target_rng(9009);
  const NodeId target = sampler.Sample(target_rng);

  AsciiTable table({"Sessions", "WAL records", "Recover ms", "Sessions/s"});
  for (const std::size_t count : counts) {
    BenchDir dir("recovery_" + std::to_string(count));
    const WalSyncOptions sync{FsyncPolicy::kNone, 1};  // build fast; the
                                                       // timed side reads
    {
      AIGS_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                            MakeDurableEngine(d, dir.path(), &sync));
      for (std::size_t i = 0; i < count; ++i) {
        AIGS_ASSIGN_OR_RETURN(
            const SessionId id,
            OpenAtPrefix(*engine, "greedy", d.hierarchy, target, kDepth));
        if (id == kInvalidSession) {
          return Status::Internal("bench target finished before depth 4");
        }
      }
      AIGS_RETURN_NOT_OK(engine->FlushDurable());
    }

    Engine engine;
    AIGS_RETURN_NOT_OK(
        PublishEpoch(engine, d.hierarchy, d.real_distribution, {"greedy"}));
    DurabilityOptions dopts;
    dopts.dir = dir.path();
    dopts.sync = sync;
    WallTimer timer;
    AIGS_ASSIGN_OR_RETURN(const RecoveryStats recovery,
                          engine.Recover(dopts));
    const double millis = timer.ElapsedMillis();
    if (recovery.recovered != count) {
      return Status::Internal(
          "recovery dropped sessions: " + std::to_string(recovery.recovered) +
          " of " + std::to_string(count));
    }
    table.AddRow({FormatWithCommas(count),
                  FormatWithCommas(recovery.wal_records),
                  FormatDouble(millis, 1),
                  millis > 0 ? FormatWithCommas(static_cast<std::uint64_t>(
                                   static_cast<double>(count) * 1000.0 /
                                   millis))
                             : "-"});
    ctx.perf.push_back({"durability", "recovery/" + std::to_string(count),
                        "ms", millis, "service",
                        {d.name, d.hierarchy.NumNodes()}});
  }
  std::printf("[recovery throughput: %s, sessions parked at depth %zu, "
              "checkpoint + WAL-tail replay]\n%s\n",
              d.name.c_str(), kDepth, table.ToString().c_str());
  return Status::OK();
}

/// (c) Behavior identity: the WAL is bookkeeping, never behavior — a
/// durable engine and a plain one must emit bit-identical Save blobs for
/// the same answer stream. Guarded suite-internally.
Status DurabilityBehaviorIdentity(SuiteContext& ctx, const Dataset& d) {
  const std::size_t kSessions = ctx.smoke ? 16 : 64;
  const std::size_t kDepth = 5;
  const AliasTable sampler(d.real_distribution);

  BenchDir dir("identity");
  const WalSyncOptions sync{FsyncPolicy::kInterval, 8};
  AIGS_ASSIGN_OR_RETURN(std::unique_ptr<Engine> plain,
                        MakeDurableEngine(d, "", nullptr));
  AIGS_ASSIGN_OR_RETURN(std::unique_ptr<Engine> durable,
                        MakeDurableEngine(d, dir.path(), &sync));
  Rng rng(1001);
  std::size_t compared = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const NodeId target = sampler.Sample(rng);
    AIGS_ASSIGN_OR_RETURN(
        const SessionId a,
        OpenAtPrefix(*plain, "greedy", d.hierarchy, target, kDepth));
    AIGS_ASSIGN_OR_RETURN(
        const SessionId b,
        OpenAtPrefix(*durable, "greedy", d.hierarchy, target, kDepth));
    if ((a == kInvalidSession) != (b == kInvalidSession)) {
      return Status::Internal("durable engine diverged on session length");
    }
    if (a == kInvalidSession) {
      continue;
    }
    AIGS_ASSIGN_OR_RETURN(const std::string blob_a, plain->Save(a));
    AIGS_ASSIGN_OR_RETURN(const std::string blob_b, durable->Save(b));
    if (blob_a != blob_b) {
      return Status::Internal(
          "durable engine produced a different transcript for target " +
          std::to_string(target));
    }
    ++compared;
  }
  std::printf("[behavior identity: %zu/%zu transcripts bit-identical with "
              "the WAL on vs off: OK]\n\n",
              compared, kSessions);
  return Status::OK();
}

Status SuiteDurability(SuiteContext& ctx) {
  PrintConfig(ctx,
              "durability: WAL hot-path overhead, recovery throughput, "
              "behavior identity (PR 7)");
  const double scale = std::min(ctx.scale, ctx.smoke ? 0.02 : 0.1);
  AIGS_ASSIGN_OR_RETURN(const Dataset* amazon,
                        ctx.cache->Get("amazon", scale));
  AIGS_RETURN_NOT_OK(DurabilityBehaviorIdentity(ctx, *amazon));
  AIGS_RETURN_NOT_OK(DurabilityAnswerOverhead(ctx, *amazon));
  AIGS_RETURN_NOT_OK(DurabilityRecoveryThroughput(ctx, *amazon));
  return Status::OK();
}

// ---- network: wire front end, shard router, loadgen SLOs (PR 8) -----------

/// Every registry policy spec the hierarchy supports (mirrors
/// test_epoch_migration.cc; the scripted policy gets a complete question
/// order so it can finish any target).
std::vector<std::string> NetworkSpecsFor(const Hierarchy& h) {
  std::string full_order = "scripted:order=";
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    if (v == h.root()) {
      continue;
    }
    if (full_order.back() != '=') {
      full_order += '+';
    }
    full_order += std::to_string(v);
  }
  std::vector<std::string> specs = {
      "greedy",         "greedy_dag",     "greedy_naive",
      "naive",          "batched:k=3",    "cost_sensitive",
      "migs",           "migs:ordered=true",
      "wigs",           "top_down",       "topdown",
      full_order,
  };
  if (h.is_tree()) {
    specs.push_back("greedy_tree");
    specs.push_back("greedy_tree:scan=heap");
  }
  return specs;
}

/// One engine with its TCP server, for in-process loopback measurements.
/// It serves every registry policy, priced 1..9.
struct NetBackend {
  explicit NetBackend(const Dataset& d) : server(engine, {}) {
    AIGS_CHECK(PublishEpoch(engine, d.hierarchy, d.real_distribution,
                            NetworkSpecsFor(d.hierarchy), 9)
                   .ok());
    AIGS_CHECK(server.Start().ok());
  }
  Engine engine;
  net::AigsServer server;
};

/// Opens a session for `spec`, answers toward `target`, saves the
/// transcript after `save_at` answers (or at completion if the search ends
/// earlier), finishes, closes. Works against anything with the Engine
/// session verbs — the Engine itself or a ShardRouter.
template <typename Api>
StatusOr<std::pair<std::string, NodeId>> DriveSaveFinish(
    Api& api, const Hierarchy& h, const std::string& spec, NodeId target,
    std::size_t save_at) {
  ExactOracle oracle(h.reach(), target);
  AIGS_ASSIGN_OR_RETURN(const SessionId id, api.Open(spec));
  std::string blob;
  NodeId found = kInvalidNode;
  for (std::size_t step = 0;; ++step) {
    if (step == save_at) {
      AIGS_ASSIGN_OR_RETURN(blob, api.Save(id));
    }
    AIGS_ASSIGN_OR_RETURN(const Query q, api.Ask(id));
    if (q.kind == Query::Kind::kDone) {
      if (step < save_at) {
        AIGS_ASSIGN_OR_RETURN(blob, api.Save(id));
      }
      found = q.node;
      break;
    }
    AIGS_RETURN_NOT_OK(api.Answer(id, AnswerFromOracle(q, oracle)));
  }
  AIGS_RETURN_NOT_OK(api.Close(id));
  return std::make_pair(std::move(blob), found);
}

/// (a) Transcript bit-identity across the wire: for EVERY registry policy,
/// a session routed through the ShardRouter (consistent-hash placement,
/// binary frames, a real epoll server) must produce byte-identical Save
/// blobs — and the same answer — as an in-process Engine fed the same
/// oracle. The network layer is transport, never behavior. Guarded
/// suite-internally.
Status NetworkTranscriptIdentity(SuiteContext& ctx, const Dataset& d) {
  const std::size_t kTargets = ctx.smoke ? 2 : 6;
  Engine local;
  AIGS_RETURN_NOT_OK(PublishEpoch(local, d.hierarchy, d.real_distribution,
                                  NetworkSpecsFor(d.hierarchy), 9));
  NetBackend s0(d), s1(d), s2(d);
  net::ShardRouter router({s0.server.endpoint(), s1.server.endpoint(),
                           s2.server.endpoint()});

  const AliasTable sampler(d.real_distribution);
  Rng rng(4242);
  std::size_t compared = 0;
  for (const std::string& spec : NetworkSpecsFor(d.hierarchy)) {
    for (std::size_t i = 0; i < kTargets; ++i) {
      const NodeId target = sampler.Sample(rng);
      AIGS_ASSIGN_OR_RETURN(
          const auto in_process,
          DriveSaveFinish(local, d.hierarchy, spec, target, 3));
      AIGS_ASSIGN_OR_RETURN(
          const auto routed,
          DriveSaveFinish(router, d.hierarchy, spec, target, 3));
      if (in_process.first != routed.first) {
        return Status::Internal(
            "network transcript identity violated: policy '" + spec +
            "', target " + std::to_string(target) +
            " — the routed Save blob differs from the in-process one");
      }
      if (in_process.second != routed.second) {
        return Status::Internal(
            "network answer identity violated: policy '" + spec +
            "' found " + std::to_string(routed.second) + " over the wire vs " +
            std::to_string(in_process.second) + " in process");
      }
      ++compared;
    }
  }
  std::printf("[transcript identity: %zu sessions (%zu policies x %zu "
              "targets) bit-identical through router + wire vs in-process: "
              "OK]\n\n",
              compared, NetworkSpecsFor(d.hierarchy).size(), kTargets);
  return Status::OK();
}

/// (b) Loadgen SLOs: closed-loop traffic against one loopback server and a
/// 3-shard fleet, 64 connections, real greedy sessions end to end. The
/// absolute gates (>=100k req/s, p99 <= 1ms single-server; 3-shard
/// aggregate >= 2x single) hold on an optimized build with enough cores for
/// the loadgen and the servers to run concurrently; elsewhere the numbers
/// are measured and reported but not gated.
Status NetworkLoadgenSlo(SuiteContext& ctx, const Dataset& d) {
  const std::uint64_t kRequests = ctx.smoke ? 30'000 : 200'000;
  const std::size_t kConnections = 64;

  const auto run = [&](const std::vector<net::Endpoint>& targets) {
    net::LoadgenOptions options;
    options.targets = targets;
    options.connections = kConnections;
    options.max_requests = kRequests;
    options.hierarchy = &d.hierarchy;
    return net::RunLoadgen(options);
  };

  NetBackend single(d);
  AIGS_ASSIGN_OR_RETURN(const net::LoadgenResult one,
                        run({single.server.endpoint()}));
  if (one.errors != 0 || one.wrong_targets != 0) {
    return Status::Internal("single-server loadgen saw " +
                            std::to_string(one.errors) + " errors and " +
                            std::to_string(one.wrong_targets) +
                            " wrong targets");
  }
  single.server.Stop();  // free the core(s) before the sharded run

  NetBackend s0(d), s1(d), s2(d);
  AIGS_ASSIGN_OR_RETURN(
      const net::LoadgenResult three,
      run({s0.server.endpoint(), s1.server.endpoint(),
           s2.server.endpoint()}));
  if (three.errors != 0 || three.wrong_targets != 0) {
    return Status::Internal("3-shard loadgen saw " +
                            std::to_string(three.errors) + " errors and " +
                            std::to_string(three.wrong_targets) +
                            " wrong targets");
  }

  AsciiTable table({"Config", "Requests", "Throughput req/s", "p50 us",
                    "p99 us", "Sessions"});
  const auto add = [&](const char* name, const net::LoadgenResult& r) {
    table.AddRow({name, FormatWithCommas(r.requests),
                  FormatWithCommas(static_cast<std::uint64_t>(
                      r.throughput_rps)),
                  FormatDouble(r.p50_us, 1), FormatDouble(r.p99_us, 1),
                  FormatWithCommas(r.sessions_completed)});
    const struct {
      const char* metric;
      const char* unit;
      double value;
    } rows[] = {{"p50_ms", "ms", r.p50_us / 1000.0},
                {"p99_ms", "ms", r.p99_us / 1000.0},
                {"krps", "krps", r.throughput_rps / 1000.0}};
    for (const auto& row : rows) {
      ctx.perf.push_back({"network",
                          std::string("loadgen/") + name + "/" + row.metric,
                          row.unit, row.value, "net",
                          {d.name, d.hierarchy.NumNodes()}});
    }
  };
  add("single", one);
  add("shard3", three);
  std::printf("[closed-loop loadgen: loopback, %zu connections, full "
              "open/ask/answer/close sessions, greedy on %s]\n%s\n",
              kConnections, d.name.c_str(), table.ToString().c_str());

  // The targets assume >= 4 cores, so the loadgen does not timeshare with
  // the servers.
  TimingGate gate(ctx, "network", {.min_cores = 4});
  gate.FailIf(one.throughput_rps < 100'000.0,
              "network SLO violated: single-server throughput " +
                  FormatDouble(one.throughput_rps, 0) +
                  " req/s is under 100k");
  gate.FailIf(one.p99_us > 1000.0, "network SLO violated: single-server p99 " +
                                       FormatDouble(one.p99_us, 1) +
                                       "us exceeds 1ms at 64 connections");
  gate.FailIf(three.throughput_rps < 2.0 * one.throughput_rps,
              "network SLO violated: 3-shard aggregate " +
                  FormatDouble(three.throughput_rps, 0) +
                  " req/s is under 2x the single-server " +
                  FormatDouble(one.throughput_rps, 0) + " req/s");
  gate.Finish("single server >=100k req/s, p99 <=1ms, 3-shard >=2x");
  return Status::OK();
}

Status SuiteNetwork(SuiteContext& ctx) {
  PrintConfig(ctx,
              "network: aigs-wire/1 transcript identity, loopback loadgen "
              "SLOs, shard scaling (PR 8)");
  const double scale = std::min(ctx.scale, ctx.smoke ? 0.02 : 0.1);
  AIGS_ASSIGN_OR_RETURN(const Dataset* amazon,
                        ctx.cache->Get("amazon", scale));
  net::IgnoreSigpipe();  // a loadgen peer may drop a connection mid-write
  AIGS_RETURN_NOT_OK(NetworkTranscriptIdentity(ctx, *amazon));
  AIGS_RETURN_NOT_OK(NetworkLoadgenSlo(ctx, *amazon));
  return Status::OK();
}

// ---- bigcatalog: compressed reachability at catalog scale (PR 9) ----------

/// Peak resident set size (VmHWM) in MiB from /proc/self/status; 0 when the
/// file is unavailable. Informational only — it covers the whole process
/// (every suite run so far), so the memory gate compares index MemoryBytes
/// instead.
double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    unsigned long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lu", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0;
}

/// Per-Ask latency through real Engine sessions (greedy policy): opens
/// `sessions` searches against targets drawn from `dist`, times every Ask,
/// verifies each search finds its target, returns the p50/p99 in ms.
struct AskLatency {
  double publish_ms = 0;  // the one Publish the sessions run on
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t asks = 0;
};

StatusOr<AskLatency> MeasureAskLatency(const Hierarchy& h,
                                       const Distribution& dist,
                                       std::size_t sessions,
                                       std::uint64_t seed) {
  Engine engine;
  WallTimer publish_timer;
  AIGS_RETURN_NOT_OK(PublishEpoch(engine, h, dist, {"greedy"}));
  const double publish_ms = publish_timer.ElapsedMillis();

  const AliasTable sampler(dist);
  Rng rng(seed);
  std::vector<double> op_ms;
  for (std::size_t i = 0; i < sessions; ++i) {
    const NodeId target = sampler.Sample(rng);
    ExactOracle oracle(h.reach(), target);
    AIGS_ASSIGN_OR_RETURN(const SessionId id, engine.Open("greedy"));
    for (;;) {
      WallTimer timer;
      AIGS_ASSIGN_OR_RETURN(const Query q, engine.Ask(id));
      op_ms.push_back(timer.ElapsedMillis());
      if (q.kind == Query::Kind::kDone) {
        if (q.node != target) {
          return Status::Internal("bigcatalog session found " +
                                  std::to_string(q.node) + ", expected " +
                                  std::to_string(target));
        }
        break;
      }
      AIGS_RETURN_NOT_OK(engine.Answer(id, AnswerFromOracle(q, oracle)));
    }
    AIGS_RETURN_NOT_OK(engine.Close(id));
  }
  AskLatency r;
  r.publish_ms = publish_ms;
  r.p50_ms = NearestRank(op_ms, 0.50);
  r.p99_ms = NearestRank(op_ms, 0.99);
  r.asks = op_ms.size();
  return r;
}

/// (a) Selection backends on one ImageNet-shaped DAG: guarded scenario rows
/// for greedy and the pinned naive-greedy backends (bfs rescans and
/// compressed rows must agree exactly), then the compressed rows' build
/// time, bytes per row and Ask latency.
Status BigcatalogCompare(SuiteContext& ctx) {
  // The bfs row rescans O(n·m) per question, so identity runs at a capped
  // scale, like the network suite.
  const double iscale = std::min(ctx.scale, ctx.smoke ? 0.03 : 0.1);
  {
    struct IdentRow {
      const char* suffix;
      const char* policy;
      double expected_cost;
      std::uint64_t max_cost;
    } rows[] = {
        {"greedy/compressed", "greedy", 0, 0},
        {"naive/bfs", "greedy_naive:backend=bfs", 0, 0},
        {"naive/compressed", "greedy_naive:backend=compressed", 0, 0},
    };
    for (auto& row : rows) {
      ScenarioSpec spec;
      spec.label = std::string("bigcatalog/ident/") + row.suffix;
      spec.dataset = "imagenet";
      spec.scale = iscale;
      spec.policy = row.policy;
      spec.reach = "compressed";
      spec.samples = 256;
      spec.seed = 4040;
      AIGS_ASSIGN_OR_RETURN(const ScenarioResult r, Run(ctx, spec));
      row.expected_cost = r.expected_cost;
      row.max_cost = r.max_cost;
    }
    if (rows[1].expected_cost != rows[2].expected_cost ||
        rows[1].max_cost != rows[2].max_cost) {
      return Status::Internal(
          "naive-greedy backends diverged: bfs E[cost] " +
          FormatDouble(rows[1].expected_cost, 6) + ", compressed " +
          FormatDouble(rows[2].expected_cost, 6));
    }
    std::printf("[backend aggregate identity: naive-greedy agrees exactly "
                "across bfs/compressed: OK]\n\n");
  }

  // Build time, footprint and Ask latency at the paper's DAG scale (smoke
  // shrinks the catalog).
  const double lscale = ctx.smoke ? std::min(ctx.scale, 0.1) : 1.0;
  AIGS_ASSIGN_OR_RETURN(const Dataset* d,
                        ctx.cache->Get("imagenet", lscale, "compressed"));
  const std::size_t n = d->hierarchy.NumNodes();
  double build_ms = 0;
  {
    WallTimer timer;
    const ReachabilityIndex rebuilt(d->hierarchy.graph());
    build_ms = timer.ElapsedMillis();
  }
  const std::size_t kSessions = ctx.smoke ? 8 : 48;
  AIGS_ASSIGN_OR_RETURN(
      const AskLatency lat,
      MeasureAskLatency(d->hierarchy, d->real_distribution, kSessions, 321));
  const double mb = static_cast<double>(d->hierarchy.reach().MemoryBytes()) /
                    (1024.0 * 1024.0);
  const double bytes_per_row = mb * 1024.0 * 1024.0 / static_cast<double>(n);
  const auto record = [&](const char* metric, const char* unit, double value,
                          const char* layer) {
    ctx.perf.push_back({"bigcatalog",
                        std::string("compare/compressed/") + metric, unit,
                        value, layer, {"imagenet", n}});
  };
  record("build_ms", "ms", build_ms, "graph");
  record("index_mb", "MB", mb, "graph");
  record("bytes_per_row", "bytes", bytes_per_row, "graph");
  record("ask_p50_ms", "ms", lat.p50_ms, "service");
  std::printf("[compressed closure rows at %s nodes: build %s ms, index %s MB "
              "(%s bytes/row); greedy Engine Ask p50 %s us, p99 %s us over "
              "%zu searches]\n\n",
              FormatWithCommas(n).c_str(), FormatDouble(build_ms, 1).c_str(),
              FormatDouble(mb, 2).c_str(),
              FormatDouble(bytes_per_row, 1).c_str(),
              FormatDouble(lat.p50_ms * 1000.0, 2).c_str(),
              FormatDouble(lat.p99_ms * 1000.0, 2).c_str(), kSessions);
  return Status::OK();
}

/// Heap bytes per greedy session after 1 and after 10 truthful answers, over
/// `sessions` sessions on targets drawn from `dist`. The thread's planner
/// scratch — memoized candidate views included — belongs to the thread, so
/// it is warmed first; mallinfo2 counts every arena.
struct SessionHeap {
  double one_answer = 0;
  double ten_answers = 0;
};

StatusOr<SessionHeap> MeasureSessionHeap(const Hierarchy& h,
                                         const Distribution& dist,
                                         std::size_t sessions,
                                         std::uint64_t seed) {
  const PolicyContext context{&h, &dist, nullptr};
  AIGS_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> policy,
                        PolicyRegistry::Global().Create("greedy", context));
  const AliasTable sampler(dist);
  Rng rng(seed);
  const auto answer = [&](SearchSession& session, NodeId target) {
    const Query q = session.Next();
    if (q.kind == Query::Kind::kReach) {
      session.OnReach(q.node, h.reach().Reaches(q.node, target));
    }
  };
  for (std::size_t i = 0; i < PlannerScratch::kMaxViews; ++i) {
    answer(*policy->NewSession(), sampler.Sample(rng));
  }
  const auto heap = [] {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
  };
  std::vector<std::unique_ptr<SearchSession>> open;
  std::vector<NodeId> targets;
  open.reserve(sessions);
  const double before = heap();
  for (std::size_t i = 0; i < sessions; ++i) {
    targets.push_back(sampler.Sample(rng));
    open.push_back(policy->NewSession());
    answer(*open.back(), targets.back());
  }
  SessionHeap r;
  r.one_answer = (heap() - before) / static_cast<double>(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    for (int a = 1; a < 10; ++a) {
      answer(*open[i], targets[i]);
    }
  }
  r.ten_answers = (heap() - before) / static_cast<double>(sessions);
  return r;
}

/// (b) The headline ROADMAP gate: a million-node DAG catalog (100k in
/// smoke, so CI runners pass) must build, publish, and serve greedy
/// sessions with the closure index holding at most 10% of the dense
/// O(n²/8) footprint. Dense rows are never allocated at this scale — the
/// dense side of the comparison is arithmetic.
Status BigcatalogMillion(SuiteContext& ctx) {
  const std::size_t n = ctx.smoke ? 100'000 : 1'000'000;

  WallTimer gen_timer;
  Digraph g = GenerateCatalogDag(BigCatalogParams(n));
  const double gen_ms = gen_timer.ElapsedMillis();

  WallTimer build_timer;
  auto built = Hierarchy::Build(std::move(g));  // default: compressed rows
  AIGS_RETURN_NOT_OK(built.status());
  const Hierarchy h = *std::move(built);
  const double build_ms = build_timer.ElapsedMillis();

  const std::size_t index_bytes = h.reach().MemoryBytes();
  const U128 dense_bytes = ReachabilityIndex::DenseClosureBytes(n);
  const double dense_gb =
      static_cast<double>(dense_bytes) / (1024.0 * 1024.0 * 1024.0);
  const CompressedClosure::Stats stats = h.reach().compressed().stats();

  const Distribution dist =
      AssignZipfObjectCounts(n, 4 * static_cast<std::uint64_t>(n),
                             /*s=*/1.0, /*seed=*/77);
  const std::size_t kSessions = ctx.smoke ? 4 : 16;
  AIGS_ASSIGN_OR_RETURN(const AskLatency lat,
                        MeasureAskLatency(h, dist, kSessions, 888));

  const double index_mb = static_cast<double>(index_bytes) /
                          (1024.0 * 1024.0);
  const double pct = 100.0 * static_cast<double>(index_bytes) /
                     static_cast<double>(dense_bytes);
  std::printf(
      "[%s-node DAG catalog: generate %s ms, hierarchy+index build %s ms]\n"
      "  closure index: %s MB (%s%% of the %s GB dense footprint), "
      "%s interval rows / %s chunked (%s dense, %s delta, %s run chunks)\n"
      "  greedy publish %s ms; sessions: %zu searches, %zu Asks, p50 %s us, "
      "p99 %s us\n"
      "  process peak RSS (all suites so far): %s MiB\n",
      FormatWithCommas(n).c_str(), FormatDouble(gen_ms, 0).c_str(),
      FormatDouble(build_ms, 0).c_str(), FormatDouble(index_mb, 1).c_str(),
      FormatDouble(pct, 2).c_str(), FormatDouble(dense_gb, 1).c_str(),
      FormatWithCommas(stats.interval_rows).c_str(),
      FormatWithCommas(stats.chunked_rows).c_str(),
      FormatWithCommas(stats.dense_chunks).c_str(),
      FormatWithCommas(stats.delta_chunks).c_str(),
      FormatWithCommas(stats.run_chunks).c_str(),
      FormatDouble(lat.publish_ms, 1).c_str(), kSessions, lat.asks,
      FormatDouble(lat.p50_ms * 1000.0, 1).c_str(),
      FormatDouble(lat.p99_ms * 1000.0, 1).c_str(),
      FormatDouble(PeakRssMib(), 0).c_str());

  const auto record = [&](const char* metric, const char* unit,
                          double value, const char* layer) {
    ctx.perf.push_back({"bigcatalog", std::string("million/") + metric, unit,
                        value, layer, {"bigdag", n}});
  };
  record("build_ms", "ms", build_ms, "graph");
  record("index_mb", "MB", index_mb, "graph");
  record("bytes_per_row", "bytes",
         static_cast<double>(index_bytes) / static_cast<double>(n), "graph");
  record("publish_ms", "ms", lat.publish_ms, "service");
  record("ask_p50_ms", "ms", lat.p50_ms, "service");
  record("peak_rss_mb", "MB", PeakRssMib(), "graph");

  // Per-session heap is deterministic enough to gate on every unsanitized
  // build (sanitizer allocators do not report through mallinfo2): a DAG
  // session keeps O(answers) words, never O(n).
  AIGS_ASSIGN_OR_RETURN(const SessionHeap session_heap,
                        MeasureSessionHeap(h, dist, 64, 889));
  std::printf("  greedy session heap: %s B after 1 answer, %s B after 10\n",
              FormatDouble(session_heap.one_answer, 0).c_str(),
              FormatDouble(session_heap.ten_answers, 0).c_str());
  record("session_bytes/1_answer", "bytes", session_heap.one_answer, "core");
  record("session_bytes/10_answers", "bytes", session_heap.ten_answers,
         "core");
  if (!SanitizedBuild()) {
    constexpr double kSessionBytes = 1024;
    if (session_heap.one_answer > kSessionBytes ||
        session_heap.ten_answers > kSessionBytes) {
      return Status::Internal(
          "bigcatalog session memory gate violated: a greedy session holds " +
          FormatDouble(std::max(session_heap.one_answer,
                                session_heap.ten_answers),
                       0) +
          " B (> 1 KB) at " + FormatWithCommas(n) + " nodes");
    }
    std::printf("greedy session <= 1 KB after 1 and after 10 answers: OK\n");
  }

  // The memory gate is deterministic (no timing involved), so it arms on
  // every build — including the CI smoke at 100k nodes.
  if (static_cast<U128>(index_bytes) * 10 > dense_bytes) {
    return Status::Internal(
        "bigcatalog memory gate violated: compressed index " +
        FormatDouble(index_mb, 1) + " MB exceeds 10% of the dense " +
        FormatDouble(dense_gb, 1) + " GB footprint at " +
        FormatWithCommas(n) + " nodes");
  }
  std::printf("compressed index <= 10%% of the dense closure footprint: "
              "OK\n");

  TimingGate gate(ctx, "bigcatalog_million", {.full_scale = true});
  gate.FailIf(lat.p50_ms > 50.0, "bigcatalog SLO violated: Ask p50 " +
                                     FormatDouble(lat.p50_ms, 2) +
                                     "ms exceeds 50ms at " +
                                     FormatWithCommas(n) + " nodes");
  gate.Finish("million-node Ask p50 <= 50ms");
  return Status::OK();
}

Status SuiteBigcatalog(SuiteContext& ctx) {
  PrintConfig(ctx,
              "bigcatalog: compressed closure rows — backend identity, "
              "latency, million-node gate (PR 9)");
  AIGS_RETURN_NOT_OK(BigcatalogCompare(ctx));
  AIGS_RETURN_NOT_OK(BigcatalogMillion(ctx));
  return Status::OK();
}

// ---- kernels: SIMD dispatch + parallel closure build (PR 10) ---------------

/// Word-array shapes the micro rows sweep: dense random bits, ~1 bit/word
/// sparse, and interval-heavy (long all-ones / all-zeros stretches — what
/// compressed interval/run rows decay to).
enum class KernelFill { kDense, kSparse, kInterval };

const char* KernelFillName(KernelFill fill) {
  switch (fill) {
    case KernelFill::kDense:
      return "dense";
    case KernelFill::kSparse:
      return "sparse";
    case KernelFill::kInterval:
      return "interval";
  }
  return "?";
}

std::vector<std::uint64_t> KernelWords(std::size_t n, KernelFill fill,
                                       Rng& rng) {
  std::vector<std::uint64_t> words(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (fill) {
      case KernelFill::kDense:
        words[i] = rng.Next();
        break;
      case KernelFill::kSparse:
        words[i] = std::uint64_t{1} << rng.UniformInt(64);
        break;
      case KernelFill::kInterval:
        // 64-word stretches of all-ones alternating with all-zeros.
        words[i] = ((i / 64) % 2 == 0) ? ~std::uint64_t{0} : 0;
        break;
    }
  }
  return words;
}

/// Times `body` (already warmed once) over `iters` calls; returns ns/call.
template <typename Body>
double TimePerCallNs(std::size_t iters, Body&& body) {
  body();  // warm: page in the arrays, prime the branch predictors
  WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    body();
  }
  return timer.ElapsedNanos() / static_cast<double>(iters);
}

/// (a) Per-kernel scalar-vs-dispatched micro rows. Every kernel × data
/// shape gets a pair of perf records; the fused count+weight kernel on
/// dense rows carries the PR-10 speedup gate. Both tables compute on the
/// same arrays, and their results are cross-checked — a dispatch bug fails
/// the suite before it can mis-benchmark.
Status KernelsMicro(SuiteContext& ctx) {
  const kernels::Ops& scalar = kernels::OpsFor(kernels::Mode::kScalar);
  const kernels::Ops& active = kernels::Active();
  // 2048-word operands (128k bits) match the hot-index regime: a closure
  // row of a ~128k-node catalog, with the 1 MB weight block cache-resident
  // across calls — at paper scale the weights ARE hot, so sizing the
  // operands to stream from memory would measure bandwidth, not kernels.
  constexpr std::size_t kWords = 1 << 11;
  const std::size_t kIters = ctx.smoke ? 160 : 640;

  std::printf("[kernels micro: %zu-word operands, %zu iterations/row, "
              "dispatched = %s]\n",
              kWords, kIters, active.name);
  AsciiTable table({"Kernel", "Shape", "Scalar ns/call",
                    std::string(active.name) + " ns/call", "Speedup"});

  double fused_dense_speedup = 0;
  Rng rng(515);
  for (const KernelFill fill :
       {KernelFill::kDense, KernelFill::kSparse, KernelFill::kInterval}) {
    const std::vector<std::uint64_t> a = KernelWords(kWords, fill, rng);
    const std::vector<std::uint64_t> b =
        KernelWords(kWords, KernelFill::kDense, rng);
    std::vector<Weight> weights(kWords * 64);
    for (Weight& w : weights) {
      w = 1 + rng.UniformInt(1000);
    }
    std::vector<Weight> block_sums(kWords, 0);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      block_sums[i / 64] += weights[i];
    }

    struct Row {
      const char* kernel;
      double scalar_ns;
      double simd_ns;
    };
    std::vector<Row> rows;

    // Counting kernels: identical results are asserted, not assumed.
    std::size_t scalar_count = 0;
    std::size_t simd_count = 0;
    rows.push_back({"popcount",
                    TimePerCallNs(kIters,
                                  [&] {
                                    scalar_count = scalar.popcount_words(
                                        a.data(), kWords);
                                  }),
                    TimePerCallNs(kIters, [&] {
                      simd_count = active.popcount_words(a.data(), kWords);
                    })});
    if (scalar_count != simd_count) {
      return Status::Internal("kernel dispatch mismatch: popcount");
    }
    rows.push_back({"and_popcount",
                    TimePerCallNs(kIters,
                                  [&] {
                                    scalar_count = scalar.and_popcount_words(
                                        a.data(), b.data(), kWords);
                                  }),
                    TimePerCallNs(kIters, [&] {
                      simd_count = active.and_popcount_words(
                          a.data(), b.data(), kWords);
                    })});
    if (scalar_count != simd_count) {
      return Status::Internal("kernel dispatch mismatch: and_popcount");
    }

    kernels::CountAndWeight sw;
    kernels::CountAndWeight vw;
    rows.push_back({"masked_count_weight",
                    TimePerCallNs(kIters,
                                  [&] {
                                    sw = scalar.masked_count_weight(
                                        a.data(), b.data(), kWords,
                                        weights.data(), block_sums.data());
                                  }),
                    TimePerCallNs(kIters, [&] {
                      vw = active.masked_count_weight(a.data(), b.data(),
                                                      kWords, weights.data(),
                                                      block_sums.data());
                    })});
    if (sw.count != vw.count || sw.weight != vw.weight) {
      return Status::Internal("kernel dispatch mismatch: masked_count_weight");
    }
    if (fill == KernelFill::kDense) {
      fused_dense_speedup = rows.back().scalar_ns / rows.back().simd_ns;
    }
    rows.push_back({"count_weight",
                    TimePerCallNs(kIters,
                                  [&] {
                                    sw = scalar.count_weight(
                                        a.data(), kWords, weights.data(),
                                        block_sums.data());
                                  }),
                    TimePerCallNs(kIters, [&] {
                      vw = active.count_weight(a.data(), kWords,
                                               weights.data(),
                                               block_sums.data());
                    })});
    if (sw.count != vw.count || sw.weight != vw.weight) {
      return Status::Internal("kernel dispatch mismatch: count_weight");
    }

    // Mutating kernels: dst op= src is idempotent after the warm call for
    // AND/OR, so repeated application times the kernel, not fresh copies.
    std::vector<std::uint64_t> dst = b;
    rows.push_back({"and_words",
                    TimePerCallNs(kIters,
                                  [&] {
                                    scalar.and_words(dst.data(), a.data(),
                                                     kWords);
                                  }),
                    TimePerCallNs(kIters, [&] {
                      active.and_words(dst.data(), a.data(), kWords);
                    })});
    rows.push_back({"or_words",
                    TimePerCallNs(kIters,
                                  [&] {
                                    scalar.or_words(dst.data(), a.data(),
                                                    kWords);
                                  }),
                    TimePerCallNs(kIters, [&] {
                      active.or_words(dst.data(), a.data(), kWords);
                    })});

    for (const Row& row : rows) {
      table.AddRow({row.kernel, KernelFillName(fill),
                    FormatDouble(row.scalar_ns, 0),
                    FormatDouble(row.simd_ns, 0),
                    FormatDouble(row.scalar_ns / row.simd_ns, 2) + "x"});
      const std::string prefix = std::string("micro/") + row.kernel + "/" +
                                 KernelFillName(fill);
      ctx.perf.push_back({"kernels", prefix + "/scalar_ns", "ns",
                          row.scalar_ns, "util.kernels",
                          {"synthetic", kWords}});
      ctx.perf.push_back({"kernels", prefix + "/dispatched_ns", "ns",
                          row.simd_ns, "util.kernels",
                          {"synthetic", kWords}});
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  TimingGate gate(ctx, "kernel_speedup", {.simd = true});
  gate.FailIf(fused_dense_speedup < 1.5,
              "kernel SLO violated: fused masked_count_weight on dense rows "
              "is " + FormatDouble(fused_dense_speedup, 2) +
                  "x scalar, below the 1.5x target");
  gate.Finish("fused masked_count_weight >=1.5x scalar on dense rows (" +
              FormatDouble(fused_dense_speedup, 2) + "x)");
  return Status::OK();
}

/// (b) Parallel closure build at catalog scale: a serial and an 8-way
/// build of the same DAG must produce byte-identical compressed encodings
/// (always asserted), and the parallel build must be >=3x faster when the
/// machine can actually show it (optimized, unsanitized, full scale, >=8
/// cores).
Status KernelsParallelBuild(SuiteContext& ctx) {
  const std::size_t n = ctx.smoke ? 100'000 : 1'000'000;
  Digraph g = GenerateCatalogDag(BigCatalogParams(n));

  WallTimer serial_timer;
  CompressedClosure::BuildOptions serial_options;
  serial_options.threads = 1;
  const CompressedClosure serial(g, serial_options);
  const double serial_ms = serial_timer.ElapsedMillis();

  WallTimer parallel_timer;
  CompressedClosure::BuildOptions parallel_options;
  parallel_options.threads = 8;
  const CompressedClosure parallel(g, parallel_options);
  const double parallel_ms = parallel_timer.ElapsedMillis();

  if (!serial.IdenticalEncoding(parallel)) {
    return Status::Internal(
        "parallel compressed build is not byte-identical to the serial "
        "build at " + FormatWithCommas(n) + " nodes");
  }
  const double speedup = serial_ms / parallel_ms;
  const auto record = [&ctx](const char* metric, const char* unit,
                             double value, std::size_t nodes) {
    ctx.perf.push_back({"kernels", std::string("build/") + metric, unit,
                        value, "graph", {"synthetic", nodes}});
  };
  record("compressed/serial_ms", "ms", serial_ms, n);
  record("compressed/parallel8_ms", "ms", parallel_ms, n);
  record("compressed/speedup", "x", speedup, n);

  AsciiTable table({"Build", "#nodes", "Serial ms", "8-thread ms",
                    "Speedup"});
  table.AddRow({"compressed", FormatWithCommas(n),
                FormatDouble(serial_ms, 0), FormatDouble(parallel_ms, 0),
                FormatDouble(speedup, 2) + "x"});
  std::printf("[parallel closure builds: byte-identical encodings "
              "verified]\n%s\n",
              table.ToString().c_str());

  // The 3x target is defined at 1M nodes on >= 8 cores.
  TimingGate gate(ctx, "parallel_build", {.full_scale = true, .min_cores = 8});
  gate.FailIf(speedup < 3.0,
              "parallel build SLO violated: 8-thread compressed build is " +
                  FormatDouble(speedup, 2) + "x serial at " +
                  FormatWithCommas(n) + " nodes, below the 3x target");
  gate.Finish("8-thread compressed build >=3x serial at " +
              FormatWithCommas(n) + " nodes (" + FormatDouble(speedup, 2) +
              "x)");
  return Status::OK();
}

Status SuiteKernels(SuiteContext& ctx) {
  PrintConfig(ctx,
              "kernels: SIMD dispatch micro rows, parallel closure builds "
              "(PR 10)");
  AIGS_RETURN_NOT_OK(KernelsMicro(ctx));
  AIGS_RETURN_NOT_OK(KernelsParallelBuild(ctx));
  return Status::OK();
}

}  // namespace

// ---- registry --------------------------------------------------------------

const std::vector<Suite>& AllSuites() {
  static const std::vector<Suite>* suites = new std::vector<Suite>{
      {"table2", "dataset statistics (Table II)", SuiteTable2},
      {"table3", "cost under the real distribution (Table III)", SuiteTable3},
      {"table4", "probability settings on Amazon (Table IV)", SuiteTable4},
      {"table5", "probability settings on ImageNet (Table V)", SuiteTable5},
      {"fig4", "online distribution learning (Fig. 4)", SuiteFig4},
      {"fig5", "cost vs Zipf parameter (Fig. 5)", SuiteFig5},
      {"fig6", "running time by target depth (Fig. 6)", SuiteFig6},
      {"caigs", "cost-sensitive greedy under priced questions", SuiteCaigs},
      {"batched", "batched questions trade-off (§III-E)", SuiteBatched},
      {"noise", "noisy answers and majority voting", SuiteNoise},
      {"worstcase", "average vs worst-case objectives", SuiteWorstcase},
      {"scaling", "cost growth with hierarchy size", SuiteScaling},
      {"ablation", "greedy design-choice ablations (§IV)", SuiteAblation},
      {"approx_ratio", "empirical approximation ratios vs the DP optimum",
       SuiteApproxRatio},
      {"example2", "vehicle hierarchy worked example", SuiteExample2},
      {"plan_cache", "warm-prefix plan-cache throughput (PR 4)",
       SuitePlanCache},
      {"epoch_lifecycle",
       "cross-epoch migration, rolling plan keys",
       SuiteEpochLifecycle},
      {"durability",
       "durable session store: WAL overhead, crash recovery (PR 7)",
       SuiteDurability},
      {"network",
       "TCP front end: wire identity, loadgen SLOs, shard scaling (PR 8)",
       SuiteNetwork},
      {"bigcatalog",
       "compressed reachability: storage identity, million-node gate (PR 9)",
       SuiteBigcatalog},
      {"kernels",
       "SIMD kernel dispatch micro rows, parallel closure builds (PR 10)",
       SuiteKernels},
  };
  return *suites;
}

const Suite* FindSuite(const std::string& name) {
  for (const Suite& suite : AllSuites()) {
    if (suite.name == name) {
      return &suite;
    }
  }
  return nullptr;
}

}  // namespace aigs::bench
