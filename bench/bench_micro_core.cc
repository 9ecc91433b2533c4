// Micro-benchmarks (google-benchmark) for the hot building blocks:
// transitive-closure construction, subtree-weight initialization, middle
// point selection, oracle answering and session overlays.
#include <benchmark/benchmark.h>

#include "core/aigs.h"
#include "core/batched_greedy.h"
#include "core/middle_point.h"
#include "core/split_weight_index.h"
#include "core/tree_weight_index.h"
#include "data/synthetic_catalog.h"
#include "eval/runner.h"
#include "graph/candidate_set.h"
#include "service/engine.h"
#include "util/rng.h"

namespace aigs {
namespace {

CatalogParams SmallTreeParams() {
  CatalogParams p;
  p.num_nodes = 4000;
  p.height = 10;
  p.max_out_degree = 64;
  p.seed = 5;
  return p;
}

CatalogParams SmallDagParams() {
  CatalogParams p = SmallTreeParams();
  p.extra_parent_frac = 0.05;
  p.seed = 6;
  return p;
}

const Hierarchy& TreeHierarchy() {
  static const Hierarchy* h = [] {
    auto built = Hierarchy::Build(GenerateCatalogTree(SmallTreeParams()));
    AIGS_CHECK(built.ok());
    return new Hierarchy(*std::move(built));
  }();
  return *h;
}

const Hierarchy& DagHierarchy() {
  static const Hierarchy* h = [] {
    auto built = Hierarchy::Build(GenerateCatalogDag(SmallDagParams()));
    AIGS_CHECK(built.ok());
    return new Hierarchy(*std::move(built));
  }();
  return *h;
}

const Distribution& TreeDist() {
  static const Distribution* d = new Distribution(
      AssignZipfObjectCounts(TreeHierarchy().NumNodes(), 1'000'000, 1.0, 9));
  return *d;
}

const Distribution& DagDist() {
  static const Distribution* d = new Distribution(
      AssignZipfObjectCounts(DagHierarchy().NumNodes(), 1'000'000, 1.0, 9));
  return *d;
}

void BM_ClosureConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  CatalogParams p = SmallDagParams();
  p.num_nodes = n;
  const Digraph g = GenerateCatalogDag(p);
  for (auto _ : state) {
    ReachabilityIndex index(g);
    benchmark::DoNotOptimize(index.ReachableCount(g.root()));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ClosureConstruction)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Complexity();

void BM_SubtreeWeightInit(benchmark::State& state) {
  const Hierarchy& h = TreeHierarchy();
  for (auto _ : state) {
    TreeWeightBase base(h.tree(), TreeDist().weights());
    benchmark::DoNotOptimize(base.Total());
  }
}
BENCHMARK(BM_SubtreeWeightInit);

void BM_MiddlePointNaiveScan(benchmark::State& state) {
  const Hierarchy& h = DagHierarchy();
  const auto& weights = DagDist().weights();
  CandidateSet candidates(h.graph());
  BfsScratch scratch(h.NumNodes());
  Weight total = 0;
  for (const Weight w : weights) {
    total += w;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindMiddlePointNaive(
        h.graph(), candidates, h.root(), weights, total, scratch));
  }
}
BENCHMARK(BM_MiddlePointNaiveScan);

void BM_MiddlePointNaiveScanTree(benchmark::State& state) {
  const Hierarchy& h = TreeHierarchy();
  const auto& weights = TreeDist().weights();
  CandidateSet candidates(h.graph());
  BfsScratch scratch(h.NumNodes());
  Weight total = 0;
  for (const Weight w : weights) {
    total += w;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindMiddlePointNaive(
        h.graph(), candidates, h.root(), weights, total, scratch));
  }
}
BENCHMARK(BM_MiddlePointNaiveScanTree);

// Old-vs-new middle-point selection: the SplitWeightIndex rows below pair
// with the naive BFS scans above on the same 4k-node synthetic catalogs.
void BM_MiddlePointIndexTree(benchmark::State& state) {
  const Hierarchy& h = TreeHierarchy();
  const SplitWeightBase base(h, TreeDist().weights());
  const SplitWeightIndex index(base);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.FindMiddlePoint());
  }
}
BENCHMARK(BM_MiddlePointIndexTree);

void BM_MiddlePointIndexDag(benchmark::State& state) {
  const Hierarchy& h = DagHierarchy();
  const SplitWeightBase base(h, DagDist().weights());
  const SplitWeightIndex index(base);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.FindMiddlePoint());
  }
}
BENCHMARK(BM_MiddlePointIndexDag);

// One full batched round selection (k picks on a simulated candidate set),
// old per-pick BFS scans vs the incremental index. Session construction is
// excluded from the timed region so the row compares selection only.
template <SelectionBackend kBackend>
void BM_BatchedRoundSelection(benchmark::State& state) {
  const Hierarchy& h = TreeHierarchy();
  BatchedGreedyOptions options;
  options.questions_per_round = static_cast<std::size_t>(state.range(0));
  options.backend = kBackend;
  const BatchedGreedyPolicy policy(h, TreeDist(), options);
  for (auto _ : state) {
    state.PauseTiming();
    auto session = policy.NewSession();
    state.ResumeTiming();
    benchmark::DoNotOptimize(session->Next());  // selects the first batch
  }
}
BENCHMARK_TEMPLATE(BM_BatchedRoundSelection, SelectionBackend::kBfsRescan)
    ->Arg(4)->Name("BM_BatchedRoundSelectBfs");
BENCHMARK_TEMPLATE(BM_BatchedRoundSelection, SelectionBackend::kSplitIndex)
    ->Arg(4)->Name("BM_BatchedRoundSelectIndex");

void BM_OracleReach(benchmark::State& state) {
  const Hierarchy& h = DagHierarchy();
  ExactOracle oracle(h.reach(), static_cast<NodeId>(h.NumNodes() - 1));
  NodeId q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Reach(q));
    q = (q + 1) % static_cast<NodeId>(h.NumNodes());
  }
}
BENCHMARK(BM_OracleReach);

void BM_GreedyTreeSearch(benchmark::State& state) {
  const Hierarchy& h = TreeHierarchy();
  GreedyTreePolicy policy(h, TreeDist());
  Rng rng(3);
  for (auto _ : state) {
    const NodeId target =
        static_cast<NodeId>(rng.UniformInt(h.NumNodes()));
    ExactOracle oracle(h.reach(), target);
    auto session = policy.NewSession();
    benchmark::DoNotOptimize(RunSearch(*session, oracle).target);
  }
}
BENCHMARK(BM_GreedyTreeSearch);

// Full GreedyDAG searches to random targets on compressed closure rows.
void BM_GreedyDagSearch(benchmark::State& state) {
  const Hierarchy& h = DagHierarchy();
  GreedyDagPolicy policy(h, DagDist());
  Rng rng(4);
  for (auto _ : state) {
    const NodeId target =
        static_cast<NodeId>(rng.UniformInt(h.NumNodes()));
    ExactOracle oracle(h.reach(), target);
    auto session = policy.NewSession();
    benchmark::DoNotOptimize(RunSearch(*session, oracle).target);
  }
}
BENCHMARK(BM_GreedyDagSearch)->Name("BM_GreedyDagSearchCompressed");

void BM_TreeSessionCreation(benchmark::State& state) {
  const Hierarchy& h = TreeHierarchy();
  GreedyTreePolicy policy(h, TreeDist());
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.NewSession());
  }
}
BENCHMARK(BM_TreeSessionCreation);

// Sessions/sec on the split-weight selection layer: the old design rebuilt
// the whole index per session (BM_SplitBaseBuild* is exactly that cost —
// Fenwick/prefix construction over all n nodes); the new design opens a
// session as an O(1) overlay over the prebuilt base (BM_SplitSessionCreate*).
template <const Hierarchy& (*GetHierarchy)(), const Distribution& (*GetDist)()>
void BM_SplitBaseBuild(benchmark::State& state) {
  const Hierarchy& h = GetHierarchy();
  const auto& weights = GetDist().weights();
  for (auto _ : state) {
    const SplitWeightBase base(h, weights);
    benchmark::DoNotOptimize(base.Total());
  }
}
BENCHMARK_TEMPLATE(BM_SplitBaseBuild, TreeHierarchy, TreeDist)
    ->Name("BM_SplitBaseBuildTree");
BENCHMARK_TEMPLATE(BM_SplitBaseBuild, DagHierarchy, DagDist)
    ->Name("BM_SplitBaseBuildDag");

template <const Hierarchy& (*GetHierarchy)(), const Distribution& (*GetDist)()>
void BM_SplitSessionCreate(benchmark::State& state) {
  const Hierarchy& h = GetHierarchy();
  const auto& weights = GetDist().weights();
  const SplitWeightBase base(h, weights);
  for (auto _ : state) {
    const SplitWeightIndex session(base);
    benchmark::DoNotOptimize(session.AliveCount());
  }
}
BENCHMARK_TEMPLATE(BM_SplitSessionCreate, TreeHierarchy, TreeDist)
    ->Name("BM_SplitSessionCreateTree");
BENCHMARK_TEMPLATE(BM_SplitSessionCreate, DagHierarchy, DagDist)
    ->Name("BM_SplitSessionCreateDag");

// Service-path sessions/sec: Open+Close of an engine session (ID
// assignment, sharded-map insert/erase, O(1) policy overlay) on a prebuilt
// snapshot.
void BM_EngineOpenClose(benchmark::State& state) {
  const Hierarchy& h = TreeHierarchy();
  Engine engine;
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(h);
  config.distribution = TreeDist();
  config.policy_specs = {"greedy_naive"};
  AIGS_CHECK(engine.Publish(std::move(config)).ok());
  for (auto _ : state) {
    const auto id = engine.Open("greedy_naive");
    benchmark::DoNotOptimize(id);
    (void)engine.Close(*id);
  }
}
BENCHMARK(BM_EngineOpenClose);

void BM_OnlineWeightUpdate(benchmark::State& state) {
  const Hierarchy& h = TreeHierarchy();
  GreedyTreePolicy policy(h, TreeDist());
  Rng rng(5);
  for (auto _ : state) {
    policy.mutable_base()->AddWeight(
        static_cast<NodeId>(rng.UniformInt(h.NumNodes())), 1);
  }
}
BENCHMARK(BM_OnlineWeightUpdate);

}  // namespace
}  // namespace aigs

BENCHMARK_MAIN();
