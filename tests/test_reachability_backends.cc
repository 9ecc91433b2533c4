// Reachability backend equivalence: the two ReachabilityIndex storages
// (Euler intervals, compressed closure rows) must answer every query the
// way a brute-force BFS does, and every registered policy must emit
// bit-identical transcripts no matter which storage — or which
// greedy_naive/batched selection backend — it runs on. Transcript identity
// is the repo's core invariant: compression is allowed to change memory
// and latency, never a single question.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/policy_registry.h"
#include "eval/runner.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "graph/traversal.h"
#include "oracle/cost_model.h"
#include "oracle/oracle.h"
#include "prob/distribution.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

ReachabilityOptions CompressedOpts() {
  ReachabilityOptions options;
  options.force_closure_on_trees = true;
  return options;
}

Hierarchy BuildWith(const Digraph& g, const ReachabilityOptions& options) {
  Digraph copy = g;
  auto h = Hierarchy::Build(std::move(copy), options);
  AIGS_CHECK(h.ok());
  return *std::move(h);
}

/// Drives one full search and serializes every question and answer. Two
/// policies are bit-identical iff these strings match for every target.
std::string TranscriptOf(const Policy& policy, const ReachabilityIndex& reach,
                         NodeId target) {
  ExactOracle oracle(reach, target);
  auto session = policy.NewSession();
  std::string out;
  for (int step = 0; step < 100'000; ++step) {
    const Query q = session->Next();
    switch (q.kind) {
      case Query::Kind::kDone:
        EXPECT_EQ(q.node, target);
        return out + "D" + std::to_string(q.node);
      case Query::Kind::kReach: {
        const bool yes = oracle.Reach(q.node);
        out += "R";
        out += std::to_string(q.node);
        out += yes ? "+;" : "-;";
        session->OnReach(q.node, yes);
        break;
      }
      case Query::Kind::kReachBatch: {
        out += "B";
        std::vector<bool> answers(q.choices.size());
        for (std::size_t i = 0; i < q.choices.size(); ++i) {
          answers[i] = oracle.Reach(q.choices[i]);
          out += std::to_string(q.choices[i]);
          out += answers[i] ? "+" : "-";
        }
        out += ";";
        AIGS_CHECK(session->TryOnReachBatch(q.choices, answers).ok());
        break;
      }
      case Query::Kind::kChoice: {
        const int answer = oracle.Choice(q.choices);
        out += "C";
        for (const NodeId v : q.choices) {
          out += std::to_string(v) + "|";
        }
        out += "=";
        out += std::to_string(answer);
        out += ";";
        session->OnChoice(q.choices, answer);
        break;
      }
    }
  }
  ADD_FAILURE() << "search did not terminate";
  return out;
}

/// All-target transcript, one string per target, concatenated.
std::string AllTranscripts(const Policy& policy,
                           const ReachabilityIndex& reach, std::size_t n) {
  std::string out;
  for (NodeId target = 0; target < n; ++target) {
    out += TranscriptOf(policy, reach, target) + "\n";
  }
  return out;
}

/// A constructible spec for every registered name on this hierarchy
/// (scripted needs an explicit order: ask every node, ids ascending).
std::string WorkingSpec(const std::string& name, std::size_t n) {
  if (name != "scripted") {
    return name;
  }
  std::string order;
  for (NodeId v = 0; v < n; ++v) {
    if (!order.empty()) {
      order += '+';
    }
    order += std::to_string(v);
  }
  return "scripted:order=" + order;
}

// ---- storage equivalence on raw reachability queries ----------------------

void ExpectIndexesAgree(const Digraph& g, const ReachabilityIndex& index,
                        const ReachabilityIndex::Storage want_storage) {
  ASSERT_EQ(index.storage(), want_storage);
  const std::size_t n = g.NumNodes();
  Rng rng(404);
  std::vector<Weight> weights(n);
  for (std::size_t v = 0; v < n; ++v) {
    weights[v] = 1 + rng.UniformInt(50);
  }
  const std::vector<Weight> all_weights = index.AllReachableSetWeights(weights);
  for (NodeId u = 0; u < n; ++u) {
    const std::vector<NodeId> reachable = CollectReachable(g, u);
    std::vector<bool> in_set(n, false);
    Weight want_weight = 0;
    for (const NodeId v : reachable) {
      in_set[v] = true;
      want_weight += weights[v];
    }
    EXPECT_EQ(index.ReachableCount(u), reachable.size()) << "u=" << u;
    EXPECT_EQ(index.WeightOfReachableSet(u, weights), want_weight) << "u=" << u;
    EXPECT_EQ(all_weights[u], want_weight) << "u=" << u;
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(index.Reaches(u, v), in_set[v]) << u << " -> " << v;
    }
    std::vector<bool> visited(n, false);
    index.ForEachReachable(u, [&](NodeId v) {
      ASSERT_LT(v, n);
      ASSERT_FALSE(visited[v]);
      visited[v] = true;
    });
    EXPECT_EQ(visited, in_set) << "u=" << u;
  }
}

TEST(ReachabilityStorages, AgreeOnTrees) {
  Rng rng(21);
  const Digraph g = RandomTree(80, rng);
  ExpectIndexesAgree(g, ReachabilityIndex(g),
                     ReachabilityIndex::Storage::kEuler);
  ExpectIndexesAgree(g, ReachabilityIndex(g, CompressedOpts()),
                     ReachabilityIndex::Storage::kCompressedClosure);
}

TEST(ReachabilityStorages, AgreeOnDags) {
  Rng rng(22);
  for (const double density : {0.15, 0.5}) {
    const Digraph g = RandomDag(60, rng, density);
    ExpectIndexesAgree(g, ReachabilityIndex(g),
                       ReachabilityIndex::Storage::kCompressedClosure);
  }
}

// ---- transcript identity for every registered policy ----------------------

/// The all-target transcripts of `spec` on `h`; a spec the hierarchy shape
/// rejects (greedy_tree on a DAG) yields its status code instead.
std::string TranscriptsOrCode(const std::string& spec, const Hierarchy& h,
                              const PolicyContext& ctx) {
  auto policy = PolicyRegistry::Global().Create(spec, ctx);
  if (!policy.ok()) {
    return "rejected: " + std::to_string(static_cast<int>(
                              policy.status().code()));
  }
  return AllTranscripts(**policy, h.reach(), h.NumNodes());
}

/// Runs every registered policy on a tree's Euler intervals and on
/// compressed rows forced onto the same tree, and requires identical
/// all-target transcripts (or identical rejections).
TEST(BackendTranscripts, EveryPolicyIdenticalOnTree) {
  Rng rng(31);
  const Digraph g = RandomTree(40, rng);
  const Hierarchy euler = BuildWith(g, {});
  const Hierarchy compressed = BuildWith(g, CompressedOpts());
  ASSERT_EQ(euler.reach().storage(), ReachabilityIndex::Storage::kEuler);
  ASSERT_EQ(compressed.reach().storage(),
            ReachabilityIndex::Storage::kCompressedClosure);

  const std::size_t n = g.NumNodes();
  Rng weight_rng(77);
  std::vector<Weight> weights(n);
  for (std::size_t v = 0; v < n; ++v) {
    weights[v] = 1 + weight_rng.UniformInt(9);
  }
  const Distribution dist = testing::MustDist(weights);
  std::vector<std::uint32_t> costs(n);
  for (std::size_t v = 0; v < n; ++v) {
    costs[v] = 1 + weight_rng.UniformInt(5);
  }
  const CostModel cost_model(costs);
  const PolicyContext euler_ctx{&euler, &dist, &cost_model};
  const PolicyContext comp_ctx{&compressed, &dist, &cost_model};

  for (const auto& entry : PolicyRegistry::Global().List()) {
    SCOPED_TRACE(entry.name);
    const std::string spec = WorkingSpec(entry.name, n);
    EXPECT_EQ(TranscriptsOrCode(spec, euler, euler_ctx),
              TranscriptsOrCode(spec, compressed, comp_ctx));
  }
}

/// On a DAG the compressed-row planners must match their references: the
/// split-weight index against backend=bfs rescans, and GreedyDAG's
/// bound-pruned BFS against its unpruned ablation.
TEST(BackendTranscripts, EveryPolicyIdenticalOnDag) {
  Rng rng(32);
  const Hierarchy h = BuildWith(RandomDag(36, rng, 0.3), {});
  ASSERT_EQ(h.reach().storage(),
            ReachabilityIndex::Storage::kCompressedClosure);
  Rng weight_rng(77);
  std::vector<Weight> weights(h.NumNodes());
  for (Weight& w : weights) {
    w = 1 + weight_rng.UniformInt(9);
  }
  const Distribution dist = testing::MustDist(weights);
  const PolicyContext ctx{&h, &dist, nullptr};
  const std::pair<const char*, const char*> pairs[] = {
      {"greedy_naive", "greedy_naive:backend=bfs"},
      {"batched:k=4", "batched:k=4,backend=bfs"},
      {"greedy_dag", "greedy_dag:prune=false"},
  };
  for (const auto& [spec, reference] : pairs) {
    SCOPED_TRACE(spec);
    const std::string want = TranscriptsOrCode(reference, h, ctx);
    ASSERT_EQ(want.find("rejected"), std::string::npos);
    EXPECT_EQ(TranscriptsOrCode(spec, h, ctx), want);
  }
}

/// The explicit backend= pins: bfs rescans and compressed (compressed
/// rows) must reproduce the index backend's transcripts exactly, for both
/// selection-backed policies, on each hierarchy's own storage and on
/// compressed rows forced onto it.
TEST(BackendTranscripts, PinnedBackendsIdenticalAcrossStorages) {
  Rng rng(33);
  const Digraph graphs[] = {RandomTree(40, rng), RandomDag(36, rng, 0.35)};
  for (const Digraph& g : graphs) {
    const Hierarchy own = BuildWith(g, {});
    const Hierarchy compressed = BuildWith(g, CompressedOpts());
    const std::size_t n = g.NumNodes();
    const Distribution dist = EqualDistribution(n);
    PolicyContext own_ctx{&own, &dist, nullptr};
    PolicyContext comp_ctx{&compressed, &dist, nullptr};

    for (const std::string& base :
         {std::string("greedy_naive"), std::string("batched:k=3")}) {
      SCOPED_TRACE(base);
      const char sep = base.find(':') == std::string::npos ? ':' : ',';
      auto make = [&](const PolicyContext& ctx, const std::string& backend) {
        auto policy = PolicyRegistry::Global().Create(
            base + sep + "backend=" + backend, ctx);
        AIGS_CHECK(policy.ok());
        return *std::move(policy);
      };
      const std::string reference =
          AllTranscripts(*make(own_ctx, "index"), own.reach(), n);
      EXPECT_EQ(reference,
                AllTranscripts(*make(own_ctx, "bfs"), own.reach(), n));
      EXPECT_EQ(reference, AllTranscripts(*make(comp_ctx, "compressed"),
                                          compressed.reach(), n));
      EXPECT_EQ(reference,
                AllTranscripts(*make(comp_ctx, "bfs"), compressed.reach(), n));
    }
  }
}

// ---- backend option validation --------------------------------------------

TEST(BackendOption, PinsRejectMismatchedStorage) {
  Rng rng(41);
  const Digraph tree = RandomTree(24, rng);
  const Digraph dag = RandomDag(24, rng, 0.4);
  const Hierarchy euler = testing::MustBuild(Digraph(tree));
  const Hierarchy compressed = BuildWith(dag, {});
  ASSERT_EQ(euler.reach().storage(), ReachabilityIndex::Storage::kEuler);
  const Distribution tree_dist = EqualDistribution(tree.NumNodes());
  const Distribution dag_dist = EqualDistribution(dag.NumNodes());

  const auto expect_invalid = [](const PolicyContext& ctx,
                                 const std::string& spec,
                                 const std::string& want_substring) {
    const auto result = PolicyRegistry::Global().Create(spec, ctx);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_NE(result.status().message().find(want_substring),
              std::string::npos)
        << spec << ": " << result.status().ToString();
  };

  PolicyContext euler_ctx{&euler, &tree_dist, nullptr};
  PolicyContext comp_ctx{&compressed, &dag_dist, nullptr};

  // Euler trees carry no closure rows.
  expect_invalid(euler_ctx, "greedy_naive:backend=compressed", "Euler");
  expect_invalid(euler_ctx, "batched:k=2,backend=compressed", "Euler");
  // Unknown backend values fail regardless of storage.
  expect_invalid(comp_ctx, "greedy_naive:backend=magic", "backend");

  // The pin succeeds when the storage matches.
  EXPECT_TRUE(PolicyRegistry::Global()
                  .Create("greedy_naive:backend=compressed", comp_ctx)
                  .ok());
}

}  // namespace
}  // namespace aigs
