#include "graph/reachability.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace aigs {
namespace {

/// Reference reachability by BFS.
bool ReachesBrute(const Digraph& g, NodeId u, NodeId v) {
  for (const NodeId x : CollectReachable(g, u)) {
    if (x == v) {
      return true;
    }
  }
  return false;
}

TEST(Reachability, TreeModeUsesEuler) {
  Rng rng(1);
  const Digraph g = RandomTree(40, rng);
  const ReachabilityIndex index(g);
  EXPECT_TRUE(index.euler_mode());
}

TEST(Reachability, DagModeUsesClosure) {
  Rng rng(2);
  const Digraph g = RandomDag(40, rng, 0.5);
  const ReachabilityIndex index(g);
  EXPECT_FALSE(index.euler_mode());
}

TEST(Reachability, DefaultDagBuildPicksCompressedRows) {
  Rng rng(2);
  const Digraph g = RandomDag(40, rng, 0.5);
  EXPECT_EQ(ReachabilityIndex(g).storage(),
            ReachabilityIndex::Storage::kCompressedClosure);
  ReachabilityOptions dense;
  dense.closure = ReachabilityOptions::Closure::kDense;
  EXPECT_EQ(ReachabilityIndex(g, dense).storage(),
            ReachabilityIndex::Storage::kDenseClosure);
}

TEST(Reachability, MatchesBruteForceOnTrees) {
  Rng rng(3);
  const Digraph g = RandomTree(60, rng);
  const ReachabilityIndex index(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(index.Reaches(u, v), ReachesBrute(g, u, v))
          << u << " -> " << v;
    }
  }
}

TEST(Reachability, MatchesBruteForceOnDags) {
  Rng rng(4);
  const Digraph g = RandomDag(60, rng, 0.6);
  const ReachabilityIndex index(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(index.Reaches(u, v), ReachesBrute(g, u, v))
          << u << " -> " << v;
    }
  }
}

TEST(Reachability, SelfReachability) {
  Rng rng(5);
  for (const bool dag : {false, true}) {
    const Digraph g =
        dag ? RandomDag(30, rng, 0.4) : RandomTree(30, rng);
    const ReachabilityIndex index(g);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_TRUE(index.Reaches(v, v));
    }
  }
}

TEST(Reachability, RootReachesEverything) {
  Rng rng(6);
  const Digraph g = RandomDag(50, rng, 0.3);
  const ReachabilityIndex index(g);
  EXPECT_EQ(index.ReachableCount(g.root()), g.NumNodes());
}

TEST(Reachability, ReachableCountMatchesForEach) {
  Rng rng(7);
  const Digraph g = RandomDag(45, rng, 0.5);
  const ReachabilityIndex index(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    std::size_t count = 0;
    index.ForEachReachable(v, [&count](NodeId) { ++count; });
    EXPECT_EQ(count, index.ReachableCount(v));
  }
}

TEST(Reachability, WeightOfReachableSetMatchesBrute) {
  Rng rng(8);
  for (const bool dag : {false, true}) {
    const Digraph g = dag ? RandomDag(50, rng, 0.5) : RandomTree(50, rng);
    const ReachabilityIndex index(g);
    std::vector<Weight> weights(g.NumNodes());
    for (auto& w : weights) {
      w = rng.UniformInt(1000);
    }
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      Weight expected = 0;
      for (const NodeId x : CollectReachable(g, v)) {
        expected += weights[x];
      }
      EXPECT_EQ(index.WeightOfReachableSet(v, weights), expected);
    }
  }
}

TEST(Reachability, AllReachableSetWeightsMatchesPerNode) {
  Rng rng(9);
  for (const bool dag : {false, true}) {
    const Digraph g = dag ? RandomDag(55, rng, 0.4) : RandomTree(55, rng);
    const ReachabilityIndex index(g);
    std::vector<Weight> weights(g.NumNodes());
    for (auto& w : weights) {
      w = rng.UniformInt(100) + 1;
    }
    const std::vector<Weight> all = index.AllReachableSetWeights(weights);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(all[v], index.WeightOfReachableSet(v, weights));
    }
  }
}

TEST(Traversal, CollectReachableIncludesStart) {
  Rng rng(10);
  const Digraph g = RandomTree(20, rng);
  const auto reachable = CollectReachable(g, 5);
  EXPECT_NE(std::find(reachable.begin(), reachable.end(), 5),
            reachable.end());
}

TEST(Traversal, AncestorsInverseOfReachability) {
  Rng rng(11);
  const Digraph g = RandomDag(40, rng, 0.5);
  const ReachabilityIndex index(g);
  for (NodeId v = 0; v < g.NumNodes(); v += 7) {
    const auto ancestors = CollectAncestors(g, v);
    for (NodeId a = 0; a < g.NumNodes(); ++a) {
      const bool is_ancestor =
          std::find(ancestors.begin(), ancestors.end(), a) != ancestors.end();
      EXPECT_EQ(is_ancestor, index.Reaches(a, v));
    }
  }
}

TEST(Traversal, FilteredBfsRespectsFilter) {
  // Chain 0 -> 1 -> 2 -> 3; blocking node 2 hides node 3.
  Digraph g;
  g.AddNodes(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  ASSERT_TRUE(g.Finalize().ok());
  BfsScratch scratch(g.NumNodes());
  std::vector<NodeId> visited;
  scratch.ForwardBfs(
      g, 0, [](NodeId v) { return v != 2; },
      [&visited](NodeId v) { visited.push_back(v); });
  EXPECT_EQ(visited, (std::vector<NodeId>{0, 1}));
}

}  // namespace
}  // namespace aigs
