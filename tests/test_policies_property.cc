// Property-based sweeps: every policy must identify every possible target on
// every hierarchy shape under every distribution family, and the efficient
// greedy instantiations must pick queries achieving the definitional
// middle-point objective (Theorem 5 for GreedyTree; the dominance-pruning
// argument for GreedyDAG).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "baselines/migs.h"
#include "baselines/top_down.h"
#include "baselines/wigs.h"
#include "core/aigs.h"
#include "core/middle_point.h"
#include "core/policy_registry.h"
#include "graph/candidate_set.h"
#include "graph/generators.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

using testing::MustBuild;
using testing::MustDist;
using testing::RunAllTargets;

enum class GraphKind { kTree, kDag, kPath, kStar, kBinary, kDiamond };
enum class DistKind { kEqual, kUniform, kExponential, kZipf, kWithZeros,
                      kPointMass };

std::string GraphKindName(GraphKind k) {
  switch (k) {
    case GraphKind::kTree: return "Tree";
    case GraphKind::kDag: return "Dag";
    case GraphKind::kPath: return "Path";
    case GraphKind::kStar: return "Star";
    case GraphKind::kBinary: return "Binary";
    case GraphKind::kDiamond: return "Diamond";
  }
  return "?";
}

std::string DistKindName(DistKind k) {
  switch (k) {
    case DistKind::kEqual: return "Equal";
    case DistKind::kUniform: return "Uniform";
    case DistKind::kExponential: return "Exponential";
    case DistKind::kZipf: return "Zipf";
    case DistKind::kWithZeros: return "WithZeros";
    case DistKind::kPointMass: return "PointMass";
  }
  return "?";
}

Digraph MakeGraph(GraphKind kind, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  switch (kind) {
    case GraphKind::kTree:
      return RandomTree(n, rng);
    case GraphKind::kDag:
      return RandomDag(n, rng, 0.4);
    case GraphKind::kPath:
      return PathGraph(n);
    case GraphKind::kStar:
      return StarGraph(n);
    case GraphKind::kBinary:
      return CompleteBinaryTree(n);
    case GraphKind::kDiamond:
      return DiamondChain(std::max<std::size_t>(1, n / 3));
  }
  AIGS_CHECK(false);
  return Digraph();
}

Distribution MakeDist(DistKind kind, std::size_t n, std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  switch (kind) {
    case DistKind::kEqual:
      return EqualDistribution(n);
    case DistKind::kUniform:
      return UniformRandomDistribution(n, rng);
    case DistKind::kExponential:
      return ExponentialRandomDistribution(n, rng);
    case DistKind::kZipf:
      return ZipfRandomDistribution(n, 2.0, rng);
    case DistKind::kWithZeros: {
      std::vector<Weight> w(n);
      bool any = false;
      for (auto& x : w) {
        x = rng.Bernoulli(0.4) ? 0 : rng.UniformInt(50) + 1;
        any |= x > 0;
      }
      if (!any) {
        w[0] = 1;
      }
      return MustDist(std::move(w));
    }
    case DistKind::kPointMass:
      return PointMassDistribution(
          n, static_cast<NodeId>(rng.UniformInt(n)));
  }
  AIGS_CHECK(false);
  return EqualDistribution(1);
}

using SweepParam = std::tuple<GraphKind, std::size_t, DistKind, std::uint64_t>;

class PolicyCorrectnessSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PolicyCorrectnessSweep, EveryPolicyIdentifiesEveryTarget) {
  const auto [graph_kind, n, dist_kind, seed] = GetParam();
  const Hierarchy h = MustBuild(MakeGraph(graph_kind, n, seed));
  const Distribution dist = MakeDist(dist_kind, h.NumNodes(), seed);
  const CostModel unit = CostModel::Unit(h.NumNodes());
  Rng cost_rng(seed + 99);
  const CostModel priced =
      CostModel::UniformRandom(h.NumNodes(), 1, 9, cost_rng);

  std::vector<std::unique_ptr<Policy>> policies;
  policies.push_back(std::make_unique<GreedyNaivePolicy>(h, dist));
  GreedyNaiveOptions rounded_naive;
  rounded_naive.use_rounded_weights = true;
  policies.push_back(std::make_unique<GreedyNaivePolicy>(h, dist, rounded_naive));
  policies.push_back(std::make_unique<GreedyDagPolicy>(h, dist));
  GreedyDagOptions raw_exhaustive;
  raw_exhaustive.use_rounded_weights = false;
  raw_exhaustive.disable_dominance_pruning = true;
  policies.push_back(std::make_unique<GreedyDagPolicy>(h, dist, raw_exhaustive));
  policies.push_back(std::make_unique<TopDownPolicy>(h));
  policies.push_back(std::make_unique<MigsPolicy>(h));
  policies.push_back(std::make_unique<MigsPolicy>(
      h, MigsOptions{.max_choices_per_question = 3}));
  policies.push_back(MakeWigsPolicy(h));
  policies.push_back(
      std::make_unique<CostSensitiveGreedyPolicy>(h, dist, unit));
  policies.push_back(
      std::make_unique<CostSensitiveGreedyPolicy>(h, dist, priced));
  if (h.is_tree()) {
    policies.push_back(std::make_unique<GreedyTreePolicy>(h, dist));
    GreedyTreeOptions heap;
    heap.child_scan = GreedyTreeOptions::ChildScan::kLazyHeap;
    policies.push_back(std::make_unique<GreedyTreePolicy>(h, dist, heap));
    GreedyTreeOptions rounded;
    rounded.use_rounded_weights = true;
    policies.push_back(std::make_unique<GreedyTreePolicy>(h, dist, rounded));
    policies.push_back(std::make_unique<WigsDagPolicy>(h));  // also valid
  }

  for (const auto& policy : policies) {
    SCOPED_TRACE(policy->name());
    // RunAllTargets fatally checks target identification.
    const auto costs = RunAllTargets(*policy, h);
    // Sanity: a search never needs more unit cost than ~n·max_degree.
    for (const auto c : costs) {
      EXPECT_LE(c, 4 * h.NumNodes() * (h.MaxOutDegree() + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyCorrectnessSweep,
    ::testing::Combine(
        ::testing::Values(GraphKind::kTree, GraphKind::kDag, GraphKind::kPath,
                          GraphKind::kStar, GraphKind::kBinary,
                          GraphKind::kDiamond),
        ::testing::Values(std::size_t{2}, std::size_t{3}, std::size_t{9},
                          std::size_t{33}),
        ::testing::Values(DistKind::kEqual, DistKind::kUniform,
                          DistKind::kExponential, DistKind::kZipf,
                          DistKind::kWithZeros, DistKind::kPointMass),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{2})),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return GraphKindName(std::get<0>(info.param)) +
             std::to_string(std::get<1>(info.param)) +
             DistKindName(std::get<2>(info.param)) + "S" +
             std::to_string(std::get<3>(info.param));
    });

// ---- Step-level optimality of the efficient instantiations -----------------

/// Drives a session against an oracle while mirroring the candidate set, and
/// checks every emitted query achieves the definitional minimum of
/// |2·w(G_q ∩ C) − w(C)| over non-root candidates.
void CheckGreedyOptimality(const Policy& policy, const Hierarchy& h,
                           const std::vector<Weight>& weights) {
  for (NodeId target = 0; target < h.NumNodes(); ++target) {
    ExactOracle oracle(h.reach(), target);
    auto session = policy.NewSession();
    CandidateSet candidates(h.graph());
    NodeId root = h.root();
    Weight total = 0;
    for (const Weight w : weights) {
      total += w;
    }
    BfsScratch scratch(h.NumNodes());
    for (;;) {
      const Query q = session->Next();
      if (q.kind == Query::Kind::kDone) {
        ASSERT_EQ(q.node, target);
        break;
      }
      ASSERT_EQ(q.kind, Query::Kind::kReach);
      ASSERT_TRUE(candidates.IsAlive(q.node));
      ASSERT_NE(q.node, root) << "policy queried the known-yes root";

      const MiddlePoint best = FindMiddlePointNaive(
          h.graph(), candidates, root, weights, total, scratch);
      const Weight reach_q = GetReachableSetWeight(h.graph(), candidates,
                                                   q.node, weights, scratch);
      const Weight twice = 2 * reach_q;
      const Weight diff_q = twice > total ? twice - total : total - twice;
      if (total > 0) {
        ASSERT_EQ(diff_q, best.split_diff)
            << "query " << q.node << " is not a middle point (target "
            << target << ")";
      }

      const bool yes = oracle.Reach(q.node);
      session->OnReach(q.node, yes);
      if (yes) {
        candidates.RestrictToReachable(q.node);
        root = q.node;
        total = reach_q;
      } else {
        candidates.RemoveReachable(q.node);
        total -= reach_q;
      }
    }
  }
}

TEST(GreedyTreeOptimality, Theorem5HeavyPathContainsMiddlePoint) {
  Rng rng(11);
  for (int round = 0; round < 15; ++round) {
    const Hierarchy h = MustBuild(RandomTree(2 + rng.UniformInt(40), rng));
    // Positive weights keep middle points well-defined everywhere.
    std::vector<Weight> w(h.NumNodes());
    for (auto& x : w) {
      x = 1 + rng.UniformInt(999);
    }
    const Distribution dist = MustDist(w);
    const GreedyTreePolicy policy(h, dist);
    CheckGreedyOptimality(policy, h, dist.weights());
  }
}

TEST(GreedyTreeOptimality, LazyHeapVariantAlsoOptimal) {
  Rng rng(12);
  for (int round = 0; round < 10; ++round) {
    const Hierarchy h = MustBuild(RandomTree(2 + rng.UniformInt(30), rng));
    std::vector<Weight> w(h.NumNodes());
    for (auto& x : w) {
      x = 1 + rng.UniformInt(999);
    }
    const Distribution dist = MustDist(w);
    GreedyTreeOptions options;
    options.child_scan = GreedyTreeOptions::ChildScan::kLazyHeap;
    const GreedyTreePolicy policy(h, dist, options);
    CheckGreedyOptimality(policy, h, dist.weights());
  }
}

TEST(GreedyDagOptimality, PrunedBfsFindsGlobalMiddlePoint) {
  Rng rng(13);
  for (int round = 0; round < 15; ++round) {
    const Hierarchy h =
        MustBuild(RandomDag(2 + rng.UniformInt(35), rng, 0.5));
    std::vector<Weight> w(h.NumNodes());
    for (auto& x : w) {
      x = 1 + rng.UniformInt(999);
    }
    const Distribution dist = MustDist(w);
    // Raw weights so the mirror arithmetic matches exactly.
    GreedyDagOptions options;
    options.use_rounded_weights = false;
    const GreedyDagPolicy policy(h, dist, options);
    CheckGreedyOptimality(policy, h, dist.weights());
  }
}

TEST(GreedyDagOptimality, PruningNeverChangesSelectionQuality) {
  Rng rng(14);
  for (int round = 0; round < 10; ++round) {
    const Hierarchy h =
        MustBuild(RandomDag(2 + rng.UniformInt(30), rng, 0.5));
    const Distribution dist =
        UniformRandomDistribution(h.NumNodes(), rng);
    GreedyDagOptions pruned;
    GreedyDagOptions exhaustive;
    exhaustive.disable_dominance_pruning = true;
    const GreedyDagPolicy a(h, dist, pruned);
    const GreedyDagPolicy b(h, dist, exhaustive);
    // Identical traversal order (BFS) + identical tie-breaking => identical
    // query sequences, hence identical per-target costs.
    EXPECT_EQ(RunAllTargets(a, h), RunAllTargets(b, h));
  }
}

/// Every reach question a session asks on its way to `target`, in order.
std::vector<NodeId> ReachTranscript(const Policy& policy, const Hierarchy& h,
                                    NodeId target) {
  ExactOracle oracle(h.reach(), target);
  auto session = policy.NewSession();
  std::vector<NodeId> asked;
  for (;;) {
    const Query q = session->Next();
    if (q.kind == Query::Kind::kDone) {
      EXPECT_EQ(q.node, target);
      return asked;
    }
    AIGS_CHECK(q.kind == Query::Kind::kReach);
    asked.push_back(q.node);
    session->OnReach(q.node, oracle.Reach(q.node));
  }
}

// The bounded selection (pristine w(R(v)) bounds w(R(v) ∩ C)) against the
// exhaustive exact-weight scan, on a DAG big and skewed enough that the
// bound must often be refused because it exceeds the alive total.
TEST(GreedyDagOptimality, BoundedSelectionMatchesExhaustiveOnCatalogDag) {
  const Hierarchy h = testing::CatalogScaleDag();
  ASSERT_EQ(h.reach().storage(),
            ReachabilityIndex::Storage::kCompressedClosure);
  const Distribution dist = testing::CatalogZipfCounts(h.NumNodes());
  const PolicyContext ctx{&h, &dist, nullptr};
  const auto make = [&](const std::string& spec) {
    auto policy = PolicyRegistry::Global().Create(spec, ctx);
    AIGS_CHECK(policy.ok());
    return *std::move(policy);
  };
  for (const std::string weights : {"rounded=true", "rounded=false"}) {
    SCOPED_TRACE(weights);
    const auto bounded = make("greedy_dag:" + weights);
    const auto exhaustive = make("greedy_dag:" + weights + ",prune=false");
    // Every 8th target keeps the exhaustive reference affordable under
    // sanitizers.
    for (NodeId target = 0; target < h.NumNodes(); target += 8) {
      ASSERT_EQ(ReachTranscript(*bounded, h, target),
                ReachTranscript(*exhaustive, h, target))
          << "target " << target;
    }
  }
}

TEST(GreedyNaive, MatchesDefinitionalGreedyEverywhere) {
  Rng rng(15);
  for (int round = 0; round < 10; ++round) {
    const bool dag = rng.Bernoulli(0.5);
    const Hierarchy h = MustBuild(
        dag ? RandomDag(2 + rng.UniformInt(25), rng, 0.4)
            : RandomTree(2 + rng.UniformInt(25), rng));
    std::vector<Weight> w(h.NumNodes());
    for (auto& x : w) {
      x = 1 + rng.UniformInt(99);
    }
    const Distribution dist = MustDist(w);
    const GreedyNaivePolicy policy(h, dist);
    CheckGreedyOptimality(policy, h, dist.weights());
  }
}

// ---- Information-theoretic lower bound --------------------------------------

TEST(LowerBound, ExpectedCostAtLeastEntropy) {
  Rng rng(16);
  for (int round = 0; round < 8; ++round) {
    const Hierarchy h = MustBuild(RandomTree(2 + rng.UniformInt(60), rng));
    const Distribution dist = UniformRandomDistribution(h.NumNodes(), rng);
    const GreedyTreePolicy policy(h, dist);
    const double cost =
        testing::WeightedAverage(RunAllTargets(policy, h), dist);
    // Any deterministic boolean-question strategy needs at least H bits.
    EXPECT_GE(cost + 1e-9, dist.EntropyBits());
  }
}

}  // namespace
}  // namespace aigs
