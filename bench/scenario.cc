#include "bench/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <utility>

#include "core/policy_registry.h"
#include "data/builtin.h"
#include "eval/cost_profile.h"
#include "oracle/noisy_oracle.h"
#include "service/catalog_snapshot.h"
#include "service/engine.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace aigs::bench {
namespace {

/// Quantized scale so the cache key is hashable without float-equality
/// surprises (0.01% resolution is far below dataset-generation granularity).
int QuantizeScale(double scale) {
  return static_cast<int>(std::lround(scale * 10000.0));
}

StatusOr<Dataset> BuildBuiltinDataset(const std::string& name,
                                      const ReachabilityOptions& reach) {
  if (name == "vehicle") {
    auto h = Hierarchy::Build(BuildVehicleHierarchy(), reach);
    AIGS_RETURN_NOT_OK(h.status());
    return Dataset{"vehicle", *std::move(h), VehicleDistribution(), 100};
  }
  if (name == "fig2") {
    auto h = Hierarchy::Build(BuildFig2Hierarchy(), reach);
    AIGS_RETURN_NOT_OK(h.status());
    const std::size_t n = h->NumNodes();
    return Dataset{"fig2", *std::move(h), EqualDistribution(n), n};
  }
  if (name == "fig3") {
    auto h = Hierarchy::Build(BuildFig3Hierarchy(), reach);
    AIGS_RETURN_NOT_OK(h.status());
    const std::size_t n = h->NumNodes();
    return Dataset{"fig3", *std::move(h), EqualDistribution(n), n};
  }
  return Status::NotFound("unknown dataset '" + name +
                          "' (amazon, imagenet, vehicle, fig2, fig3)");
}

/// Maps a ScenarioSpec::reach value onto ReachabilityOptions. dense and
/// compressed force closure storage on trees too — otherwise tree datasets
/// would silently fall back to Euler mode and the scenario would not
/// exercise the storage it names.
StatusOr<ReachabilityOptions> ParseReachMode(const std::string& reach) {
  ReachabilityOptions options;
  if (reach.empty() || reach == "auto") {
    return options;
  }
  options.force_closure_on_trees = true;
  if (reach == "dense") {
    options.closure = ReachabilityOptions::Closure::kDense;
    return options;
  }
  if (reach == "compressed") {
    options.closure = ReachabilityOptions::Closure::kCompressed;
    return options;
  }
  return Status::NotFound("unknown reach mode '" + reach +
                          "' (auto, dense, compressed)");
}

/// Self-contained noisy oracle for one search: owns the truthful inner
/// oracle and the chosen noise wrapper (NoisyOracle/PersistentNoisyOracle
/// only borrow their inner oracle).
class ScenarioNoisyOracle final : public Oracle {
 public:
  ScenarioNoisyOracle(const ReachabilityIndex& reach, NodeId target,
                      double flip_prob, bool persistent, std::uint64_t seed)
      : exact_(reach, target),
        transient_(exact_, flip_prob, Rng(seed)),
        persistent_(exact_, flip_prob, Rng(seed)),
        use_persistent_(persistent) {}

  bool Reach(NodeId q) override {
    return use_persistent_ ? persistent_.Reach(q) : transient_.Reach(q);
  }
  int Choice(std::span<const NodeId> choices) override {
    return use_persistent_ ? persistent_.Choice(choices)
                           : transient_.Choice(choices);
  }

 private:
  ExactOracle exact_;
  NoisyOracle transient_;
  PersistentNoisyOracle persistent_;
  bool use_persistent_;
};

struct OracleSpec {
  bool exact = true;
  bool persistent = false;
  double flip_prob = 0;
};

StatusOr<OracleSpec> ParseOracleSpec(const std::string& spec) {
  const std::vector<std::string_view> parts = Split(spec, ':');
  const std::string kind(Trim(parts[0]));
  OracleSpec parsed;
  if (kind == "exact") {
    if (parts.size() != 1) {
      return Status::InvalidArgument("oracle 'exact' takes no parameter");
    }
    return parsed;
  }
  if (kind != "noisy" && kind != "persistent") {
    return Status::NotFound("unknown oracle '" + spec +
                            "' (exact, noisy:p, persistent:p)");
  }
  if (parts.size() != 2) {
    return Status::InvalidArgument("oracle '" + kind + "' needs " + kind +
                                   ":p (flip probability)");
  }
  parsed.exact = false;
  parsed.persistent = kind == "persistent";
  AIGS_ASSIGN_OR_RETURN(parsed.flip_prob, ParseDouble(parts[1]));
  if (parsed.flip_prob < 0 || parsed.flip_prob >= 0.5) {
    return Status::InvalidArgument("flip probability must be in [0, 0.5)");
  }
  return parsed;
}

}  // namespace

StatusOr<const Dataset*> DatasetCache::Get(const std::string& name,
                                           double scale,
                                           const std::string& reach,
                                           int build_threads) {
  AIGS_ASSIGN_OR_RETURN(ReachabilityOptions reach_options,
                        ParseReachMode(reach));
  reach_options.build_threads = build_threads;
  const bool scaled = name == "amazon" || name == "imagenet";
  const auto key =
      std::make_tuple(name, scaled ? QuantizeScale(scale) : 0, reach);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    return const_cast<const Dataset*>(it->second.get());
  }
  StatusOr<Dataset> built = [&]() -> StatusOr<Dataset> {
    if (name == "amazon") {
      return MakeAmazonDataset(scale, reach_options);
    }
    if (name == "imagenet") {
      return MakeImageNetDataset(scale, reach_options);
    }
    return BuildBuiltinDataset(name, reach_options);
  }();
  AIGS_RETURN_NOT_OK(built.status());
  auto owned = std::make_unique<Dataset>(*std::move(built));
  const Dataset* raw = owned.get();
  cache_.emplace(key, std::move(owned));
  return raw;
}

StatusOr<Distribution> MakeScenarioDistribution(const std::string& spec,
                                                const Dataset& dataset,
                                                Rng& rng) {
  const std::vector<std::string_view> parts = Split(spec, ':');
  const std::string kind(Trim(parts[0]));
  const std::size_t n = dataset.hierarchy.NumNodes();
  if (kind == "real") {
    return dataset.real_distribution;
  }
  if (kind == "equal") {
    return EqualDistribution(n);
  }
  if (kind == "uniform") {
    return UniformRandomDistribution(n, rng);
  }
  if (kind == "exponential") {
    return ExponentialRandomDistribution(n, rng);
  }
  if (kind == "zipf") {
    double a = 2.0;
    if (parts.size() > 1) {
      AIGS_ASSIGN_OR_RETURN(a, ParseDouble(parts[1]));
    }
    if (a <= 1.0) {
      return Status::InvalidArgument("zipf parameter must be > 1");
    }
    return ZipfRandomDistribution(n, a, rng);
  }
  return Status::NotFound("unknown distribution '" + spec +
                          "' (real, equal, uniform, exponential, zipf[:a])");
}

StatusOr<std::unique_ptr<CostModel>> MakeScenarioCostModel(
    const std::string& spec, const Hierarchy& hierarchy, Rng& rng) {
  const std::size_t n = hierarchy.NumNodes();
  const std::vector<std::string_view> parts = Split(spec, ':');
  const std::string kind(Trim(parts[0]));
  if (kind == "unit") {
    return std::unique_ptr<CostModel>();  // null = unit prices
  }
  if (kind == "depth") {
    // Non-uniform per-node prices tied to the hierarchy's shape (Szyfelbein,
    // arXiv:2603.17916): deeper questions are more specific and cost more,
    // clamped to [lo, hi]. Deterministic, so the baseline guard can pin the
    // resulting priced-cost aggregates.
    if (parts.size() != 3) {
      return Status::InvalidArgument("cost model 'depth' needs depth:lo:hi");
    }
    AIGS_ASSIGN_OR_RETURN(const std::uint64_t lo, ParseUint64(parts[1]));
    AIGS_ASSIGN_OR_RETURN(const std::uint64_t hi, ParseUint64(parts[2]));
    if (lo < 1 || hi < lo) {
      return Status::InvalidArgument("cost range must satisfy 1 <= lo <= hi");
    }
    std::vector<std::uint32_t> costs(n);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t depth =
          static_cast<std::uint64_t>(hierarchy.graph().Depth(v));
      costs[v] = static_cast<std::uint32_t>(lo + std::min(depth, hi - lo));
    }
    return std::make_unique<CostModel>(std::move(costs));
  }
  if (kind == "fig3") {
    if (n != 4) {
      return Status::InvalidArgument(
          "cost model 'fig3' only fits the 4-node fig3 dataset");
    }
    return std::make_unique<CostModel>(Fig3CostModel());
  }
  if (kind == "uniform") {
    if (parts.size() != 3) {
      return Status::InvalidArgument(
          "cost model 'uniform' needs uniform:lo:hi");
    }
    AIGS_ASSIGN_OR_RETURN(const std::uint64_t lo, ParseUint64(parts[1]));
    AIGS_ASSIGN_OR_RETURN(const std::uint64_t hi, ParseUint64(parts[2]));
    if (lo < 1 || hi < lo) {
      return Status::InvalidArgument("cost range must satisfy 1 <= lo <= hi");
    }
    return std::make_unique<CostModel>(
        CostModel::UniformRandom(n, static_cast<std::uint32_t>(lo),
                                 static_cast<std::uint32_t>(hi), rng));
  }
  if (kind == "prices") {
    // Arbitrary per-node prices (cost-sensitive AIGS with no structural
    // assumption on the price vector; cf. arXiv:2511.06564). Two shapes:
    //   prices:p0+p1+...        explicit vector, one entry per node
    //   prices:hash:lo:hi[:seed] deterministic pseudo-random in [lo, hi]
    // Both are rep-independent (no rng draw), so priced-cost aggregates are
    // guardable in the baseline.
    if (parts.size() >= 2 && Trim(parts[1]) == "hash") {
      if (parts.size() != 4 && parts.size() != 5) {
        return Status::InvalidArgument(
            "cost model 'prices:hash' needs prices:hash:lo:hi[:seed]");
      }
      AIGS_ASSIGN_OR_RETURN(const std::uint64_t lo, ParseUint64(parts[2]));
      AIGS_ASSIGN_OR_RETURN(const std::uint64_t hi, ParseUint64(parts[3]));
      if (lo < 1 || hi < lo) {
        return Status::InvalidArgument(
            "cost range must satisfy 1 <= lo <= hi");
      }
      std::uint64_t seed = 2022;
      if (parts.size() == 5) {
        AIGS_ASSIGN_OR_RETURN(seed, ParseUint64(parts[4]));
      }
      const std::uint64_t span = hi - lo + 1;
      std::vector<std::uint32_t> costs(n);
      for (NodeId v = 0; v < n; ++v) {
        // splitmix64 finalizer: independent of Rng so the vector never
        // shifts under unrelated generator changes.
        std::uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (v + 1);
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        x ^= x >> 31;
        costs[v] = static_cast<std::uint32_t>(lo + x % span);
      }
      return std::make_unique<CostModel>(std::move(costs));
    }
    if (parts.size() != 2) {
      return Status::InvalidArgument(
          "cost model 'prices' needs prices:p0+p1+... or "
          "prices:hash:lo:hi[:seed]");
    }
    const std::vector<std::string_view> entries = Split(parts[1], '+');
    if (entries.size() != n) {
      return Status::InvalidArgument(
          "cost model 'prices' got " + std::to_string(entries.size()) +
          " entries for " + std::to_string(n) + " nodes");
    }
    std::vector<std::uint32_t> costs(n);
    for (NodeId v = 0; v < n; ++v) {
      AIGS_ASSIGN_OR_RETURN(const std::uint64_t p, ParseUint64(entries[v]));
      if (p < 1 || p > std::numeric_limits<std::uint32_t>::max()) {
        return Status::InvalidArgument("prices must be >= 1 (and fit u32)");
      }
      costs[v] = static_cast<std::uint32_t>(p);
    }
    return std::make_unique<CostModel>(std::move(costs));
  }
  return Status::NotFound(
      "unknown cost model '" + spec +
      "' (unit, uniform:lo:hi, depth:lo:hi, prices:p0+p1+..., "
      "prices:hash:lo:hi[:seed], fig3)");
}

StatusOr<ScenarioResult> RunScenario(const ScenarioSpec& spec,
                                     DatasetCache& cache) {
  if (spec.reps == 0) {
    return Status::InvalidArgument("scenario reps must be >= 1");
  }
  AIGS_ASSIGN_OR_RETURN(const OracleSpec oracle_spec,
                        ParseOracleSpec(spec.oracle));
  AIGS_ASSIGN_OR_RETURN(
      const Dataset* dataset,
      cache.Get(spec.dataset, spec.scale, spec.reach, spec.build_threads));
  const Hierarchy& h = dataset->hierarchy;

  ScenarioResult result;
  result.spec = spec;
  if (result.spec.label.empty()) {
    result.spec.label = spec.policy;
  }
  result.nodes = h.NumNodes();

  // One pool for every rep: the cost model changes per rep (so EvalOptions
  // must be rebuilt), but thread spawn/join should not be paid per rep.
  std::unique_ptr<ThreadPool> pool;
  if (spec.threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(spec.threads));
  }

  WallTimer timer;
  for (std::size_t rep = 0; rep < spec.reps; ++rep) {
    // One deterministic stream per rep: the distribution draw and the cost
    // draw consume from the same rep RNG, in that order.
    Rng rng(spec.seed + 31 * rep);
    AIGS_ASSIGN_OR_RETURN(
        const Distribution dist,
        MakeScenarioDistribution(spec.distribution, *dataset, rng));
    AIGS_ASSIGN_OR_RETURN(
        std::unique_ptr<CostModel> owned_costs,
        MakeScenarioCostModel(spec.cost_model, h, rng));
    // Shared so the service path can pin the cost model in its snapshot.
    const std::shared_ptr<const CostModel> costs = std::move(owned_costs);

    // The service branch lets Engine::Publish build the policy (with its
    // full shared-base precompute) exactly once; only the in-process branch
    // needs a locally owned instance.
    std::unique_ptr<Policy> policy;
    if (!spec.service) {
      PolicyContext context;
      context.hierarchy = &h;
      context.distribution = &dist;
      context.cost_model = costs.get();
      AIGS_ASSIGN_OR_RETURN(
          policy, PolicyRegistry::Global().Create(spec.policy, context));
      result.policy_name = policy->name();
    }

    EvalOptions eval_options;
    eval_options.cost_model = costs.get();
    if (pool != nullptr) {
      eval_options.pool = pool.get();
    } else {
      eval_options.threads = spec.threads;
    }
    if (!oracle_spec.exact) {
      eval_options.require_correct = false;
      eval_options.oracle_seed = spec.seed + 131 * rep;
      eval_options.oracle_factory =
          [&oracle_spec](const Hierarchy& hierarchy, NodeId target,
                         std::uint64_t seed) -> std::unique_ptr<Oracle> {
        return std::make_unique<ScenarioNoisyOracle>(
            hierarchy.reach(), target, oracle_spec.flip_prob,
            oracle_spec.persistent, seed);
      };
    }
    const Evaluator evaluator(eval_options);
    EvalStats stats;
    if (spec.service) {
      // Service path: every sharded search runs through Engine sessions on
      // a freshly published snapshot — Ask goes through the plan cache when
      // enabled. Bit-identical cost aggregates to the in-process branch.
      EngineOptions engine_options;
      engine_options.plan_cache.enabled = spec.plan_cache;
      Engine engine(engine_options);
      CatalogConfig config;
      config.hierarchy = UnownedHierarchy(h);
      config.distribution = dist;
      config.cost_model = costs;
      config.policy_specs = {spec.policy};
      // Snapshot policy builds shard on the scenario's own pool (when it
      // has one) instead of Publish's default.
      config.build_pool = pool.get();
      AIGS_RETURN_NOT_OK(engine.Publish(std::move(config)).status());
      AIGS_ASSIGN_OR_RETURN(const Policy* published,
                            engine.snapshot()->PolicyFor(spec.policy));
      result.policy_name = published->name();
      if (spec.samples == 0) {
        AIGS_ASSIGN_OR_RETURN(stats, evaluator.Exact(engine, spec.policy));
      } else {
        AIGS_ASSIGN_OR_RETURN(
            stats, evaluator.Sampled(engine, spec.policy, spec.samples,
                                     spec.seed + 97 * rep));
      }
      if (spec.plan_cache) {
        result.cache_hit_rate += engine.Stats().plan_cache.hit_rate();
      }
    } else {
      stats = spec.samples == 0
                  ? evaluator.Exact(*policy, h, dist)
                  : evaluator.Sampled(*policy, h, dist, spec.samples,
                                      spec.seed + 97 * rep);
    }

    result.expected_cost += stats.expected_cost;
    result.expected_priced_cost += stats.expected_priced_cost;
    result.expected_reach_queries += stats.expected_reach_queries;
    result.expected_rounds += stats.expected_rounds;
    result.max_cost = std::max(result.max_cost, stats.max_cost);
    if (rep == 0) {
      result.accuracy = 0;
    }
    result.accuracy += stats.accuracy;
    if (spec.samples == 0) {
      const CostProfile profile(stats.per_target_cost, dist);
      result.median = profile.Median();
      result.p90 = profile.P90();
      result.p99 = profile.P99();
    }
  }
  result.wall_ms = timer.ElapsedMillis();

  const auto denom = static_cast<double>(spec.reps);
  result.expected_cost /= denom;
  result.expected_priced_cost /= denom;
  result.expected_reach_queries /= denom;
  result.expected_rounds /= denom;
  result.accuracy /= denom;
  result.cache_hit_rate /= denom;
  return result;
}

StatusOr<ScenarioSpec> ParseScenarioSpec(const std::string& text) {
  ScenarioSpec spec;
  for (const std::string_view item : Split(text, ';')) {
    if (Trim(item).empty()) {
      continue;
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("scenario field '" + std::string(item) +
                                     "' is not key=value");
    }
    const std::string key(Trim(item.substr(0, eq)));
    const std::string value(Trim(item.substr(eq + 1)));
    if (key == "label") {
      spec.label = value;
    } else if (key == "dataset") {
      spec.dataset = value;
    } else if (key == "scale") {
      AIGS_ASSIGN_OR_RETURN(spec.scale, ParseDouble(value));
    } else if (key == "dist" || key == "distribution") {
      spec.distribution = value;
    } else if (key == "policy") {
      spec.policy = value;
    } else if (key == "cost" || key == "cost_model") {
      spec.cost_model = value;
    } else if (key == "reach") {
      spec.reach = value;
    } else if (key == "oracle") {
      spec.oracle = value;
    } else if (key == "reps") {
      AIGS_ASSIGN_OR_RETURN(const std::uint64_t reps, ParseUint64(value));
      spec.reps = static_cast<std::size_t>(reps);
    } else if (key == "seed") {
      AIGS_ASSIGN_OR_RETURN(spec.seed, ParseUint64(value));
    } else if (key == "samples") {
      AIGS_ASSIGN_OR_RETURN(const std::uint64_t samples, ParseUint64(value));
      spec.samples = static_cast<std::size_t>(samples);
    } else if (key == "threads") {
      AIGS_ASSIGN_OR_RETURN(const std::int64_t threads, ParseInt64(value));
      if (threads < 0) {
        return Status::InvalidArgument("threads must be >= 0");
      }
      spec.threads = static_cast<int>(threads);
    } else if (key == "build_threads") {
      AIGS_ASSIGN_OR_RETURN(const std::int64_t threads, ParseInt64(value));
      if (threads < 0) {
        return Status::InvalidArgument("build_threads must be >= 0");
      }
      spec.build_threads = static_cast<int>(threads);
    } else if (key == "service") {
      if (value == "engine") {
        spec.service = true;
      } else if (value == "inprocess") {
        spec.service = false;
      } else {
        return Status::InvalidArgument(
            "service must be engine|inprocess, got '" + value + "'");
      }
    } else if (key == "cache") {
      if (value == "on") {
        spec.plan_cache = true;
      } else if (value == "off") {
        spec.plan_cache = false;
      } else {
        return Status::InvalidArgument("cache must be on|off, got '" +
                                       value + "'");
      }
    } else {
      return Status::InvalidArgument("unknown scenario field '" + key + "'");
    }
  }
  return spec;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // RFC 8259: all control characters must be escaped.
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string ScenarioResultToJson(const ScenarioResult& r) {
  std::string json = "{";
  const auto str = [&](const char* key, const std::string& value) {
    json += std::string("\"") + key + "\":\"" + JsonEscape(value) + "\",";
  };
  const auto num = [&](const char* key, const std::string& value) {
    json += std::string("\"") + key + "\":" + value + ",";
  };
  str("label", r.spec.label);
  str("dataset", r.spec.dataset);
  num("nodes", std::to_string(r.nodes));
  num("scale", FormatDouble(r.spec.scale, 4));
  str("distribution", r.spec.distribution);
  str("policy", r.spec.policy);
  str("policy_name", r.policy_name);
  str("cost_model", r.spec.cost_model);
  str("reach", r.spec.reach);
  str("oracle", r.spec.oracle);
  num("reps", std::to_string(r.spec.reps));
  num("samples", std::to_string(r.spec.samples));
  num("threads", std::to_string(r.spec.threads));
  num("seed", std::to_string(r.spec.seed));
  str("service", r.spec.service ? "engine" : "inprocess");
  str("cache", r.spec.service && r.spec.plan_cache ? "on" : "off");
  num("cache_hit_rate", FormatDouble(r.cache_hit_rate, 6));
  num("expected_cost", FormatDouble(r.expected_cost, 6));
  num("expected_priced_cost", FormatDouble(r.expected_priced_cost, 6));
  num("expected_reach_queries", FormatDouble(r.expected_reach_queries, 6));
  num("expected_rounds", FormatDouble(r.expected_rounds, 6));
  num("accuracy", FormatDouble(r.accuracy, 6));
  num("max_cost", std::to_string(r.max_cost));
  num("median", std::to_string(r.median));
  num("p90", std::to_string(r.p90));
  num("p99", std::to_string(r.p99));
  json += "\"wall_ms\":" + FormatDouble(r.wall_ms, 3) + "}";
  return json;
}

std::string PerfRecordToJson(const PerfRecord& r) {
  const auto quoted = [](const std::string& s) {
    return std::string("\"") + JsonEscape(s) + "\"";
  };
  return "{\"suite\":" + quoted(r.suite) + ",\"metric\":" + quoted(r.metric) +
         ",\"unit\":" + quoted(r.unit) +
         ",\"value\":" + FormatDouble(r.value, 6) +
         ",\"layer\":" + quoted(r.layer) +
         ",\"config\":{\"dataset\":" + quoted(r.config.dataset) +
         ",\"nodes\":" + std::to_string(r.config.nodes) + "}}";
}

std::vector<std::string> ScenarioCsvHeader() {
  return {"label",         "dataset",       "nodes",
          "scale",         "distribution",  "policy",
          "policy_name",   "cost_model",    "reach",
          "oracle",
          "reps",          "samples",       "threads",
          "seed",          "service",       "cache",
          "cache_hit_rate",
          "expected_cost", "expected_priced_cost",
          "expected_reach_queries",         "expected_rounds",
          "accuracy",      "max_cost",      "median",
          "p90",           "p99",           "wall_ms"};
}

std::vector<std::string> ScenarioCsvRow(const ScenarioResult& r) {
  return {r.spec.label,
          r.spec.dataset,
          std::to_string(r.nodes),
          FormatDouble(r.spec.scale, 4),
          r.spec.distribution,
          r.spec.policy,
          r.policy_name,
          r.spec.cost_model,
          r.spec.reach,
          r.spec.oracle,
          std::to_string(r.spec.reps),
          std::to_string(r.spec.samples),
          std::to_string(r.spec.threads),
          std::to_string(r.spec.seed),
          r.spec.service ? "engine" : "inprocess",
          r.spec.service && r.spec.plan_cache ? "on" : "off",
          FormatDouble(r.cache_hit_rate, 6),
          FormatDouble(r.expected_cost, 6),
          FormatDouble(r.expected_priced_cost, 6),
          FormatDouble(r.expected_reach_queries, 6),
          FormatDouble(r.expected_rounds, 6),
          FormatDouble(r.accuracy, 6),
          std::to_string(r.max_cost),
          std::to_string(r.median),
          std::to_string(r.p90),
          std::to_string(r.p99),
          FormatDouble(r.wall_ms, 3)};
}

namespace {

/// Extracts the string value of `key` from one emitted JSON line. The lines
/// come from ScenarioResultToJson / PerfRecordToJson, so a flat scan for the
/// quoted key is enough (labels never contain escaped quotes).
StatusOr<std::string> JsonField(const std::string& line,
                                const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return Status::InvalidArgument("baseline line lacks key '" + key + "'");
  }
  std::size_t begin = at + needle.size();
  std::size_t end;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  if (end == std::string::npos) {
    return Status::InvalidArgument("malformed baseline line: " + line);
  }
  return line.substr(begin, end - begin);
}

StatusOr<double> JsonNumber(const std::string& line, const std::string& key) {
  AIGS_ASSIGN_OR_RETURN(const std::string text, JsonField(line, key));
  return ParseDouble(text);
}

/// The deterministic cost aggregates the guard compares (wall time and
/// quantile fields are excluded on purpose).
constexpr const char* kGuardedMetrics[] = {
    "expected_cost", "expected_priced_cost", "expected_reach_queries",
    "expected_rounds", "accuracy", "max_cost"};

double MetricOf(const ScenarioResult& r, const std::string& metric) {
  if (metric == "expected_cost") return r.expected_cost;
  if (metric == "expected_priced_cost") return r.expected_priced_cost;
  if (metric == "expected_reach_queries") return r.expected_reach_queries;
  if (metric == "expected_rounds") return r.expected_rounds;
  if (metric == "accuracy") return r.accuracy;
  return static_cast<double>(r.max_cost);
}

bool MetricsClose(double fresh, double baseline) {
  // Policy arithmetic is exact-integer, but synthetic weight generation
  // goes through libm (pow/exp), which may differ in the last ulp across
  // hosts. 0.01% relative slack absorbs that; a changed question sequence
  // moves expected cost by ≥ ~0.1% at smoke scale, so real drift still
  // trips the guard.
  const double tolerance = 1e-4 * std::max({1.0, std::fabs(fresh),
                                            std::fabs(baseline)});
  return std::fabs(fresh - baseline) <= tolerance;
}

}  // namespace

Status CheckAgainstBaseline(const std::vector<ScenarioResult>& results,
                            const std::vector<PerfRecord>& perf,
                            const std::string& baseline_path,
                            bool require_complete) {
  std::ifstream in(baseline_path);
  if (!in) {
    return Status::NotFound("cannot read baseline file " + baseline_path);
  }
  std::map<std::string, std::string> cost_lines;  // label -> JSON line
  std::set<std::string> perf_labels;
  std::string line;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) {
      continue;
    }
    if (line.find("\"metric\":") != std::string::npos) {
      AIGS_ASSIGN_OR_RETURN(const std::string suite, JsonField(line, "suite"));
      AIGS_ASSIGN_OR_RETURN(const std::string metric,
                            JsonField(line, "metric"));
      perf_labels.insert(suite + "/" + metric);
    } else {
      AIGS_ASSIGN_OR_RETURN(const std::string label, JsonField(line, "label"));
      cost_lines[label] = line;
    }
  }

  std::string failures;
  const auto add_failure = [&failures](const std::string& what) {
    failures += (failures.empty() ? "" : "\n  ") + what;
  };
  // A label the baseline has never seen: in a complete run that means the
  // baseline needs regenerating; a spot check just skips it.
  const auto unknown = [&](const std::string& label) {
    if (require_complete) {
      add_failure("'" + label + "' missing from baseline (new scenario?)");
    }
  };
  std::set<std::string> seen;
  std::size_t checked = 0;
  for (const ScenarioResult& r : results) {
    const std::string& label = r.spec.label;
    seen.insert(label);
    const auto it = cost_lines.find(label);
    if (it == cost_lines.end()) {
      unknown(label);
      continue;
    }
    ++checked;
    for (const char* metric : kGuardedMetrics) {
      AIGS_ASSIGN_OR_RETURN(const double expected,
                            JsonNumber(it->second, metric));
      const double fresh = MetricOf(r, metric);
      if (!MetricsClose(fresh, expected)) {
        add_failure("'" + label + "' " + metric + ": got " +
                    FormatDouble(fresh, 6) + ", baseline " +
                    FormatDouble(expected, 6));
      }
    }
  }
  for (const PerfRecord& record : perf) {
    const std::string label = record.label();
    seen.insert(label);
    if (perf_labels.count(label) == 0) {
      unknown(label);
      continue;
    }
    ++checked;
  }
  if (require_complete) {
    const auto stale = [&](const std::string& label) {
      if (seen.count(label) == 0) {
        add_failure("baseline label '" + label + "' was not run");
      }
    };
    for (const auto& [label, unused] : cost_lines) {
      stale(label);
    }
    for (const std::string& label : perf_labels) {
      stale(label);
    }
  }
  if (!failures.empty()) {
    return Status::Internal("baseline drift vs " + baseline_path + ":\n  " +
                            failures);
  }
  if (checked == 0) {
    return Status::InvalidArgument(
        "no run label appears in baseline " + baseline_path +
        " — nothing was compared");
  }
  return Status::OK();
}

}  // namespace aigs::bench
