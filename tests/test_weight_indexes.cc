// Consistency of the incremental weight indexes (session overlays) against
// from-scratch recomputation — the key engineering invariant behind the
// efficient policies.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <set>

#include "core/hierarchy.h"
#include "core/middle_point.h"
#include "core/policy_registry.h"
#include "core/split_weight_index.h"
#include "core/tree_weight_index.h"
#include "data/synthetic_catalog.h"
#include "eval/runner.h"
#include "graph/generators.h"
#include "oracle/cost_model.h"
#include "oracle/oracle.h"
#include "service/engine.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

using testing::MustBuild;

std::vector<Weight> RandomWeights(std::size_t n, Rng& rng,
                                  Weight max_value = 1000) {
  std::vector<Weight> w(n);
  for (auto& x : w) {
    x = rng.UniformInt(max_value + 1);
  }
  return w;
}

// ---- TreeWeightBase ---------------------------------------------------------

TEST(TreeWeightBase, SubtreeWeightsMatchDefinition) {
  Rng rng(1);
  const Hierarchy h = MustBuild(RandomTree(50, rng));
  const auto weights = RandomWeights(50, rng);
  const TreeWeightBase base(h.tree(), weights);
  EXPECT_EQ(base.Total(), h.reach().WeightOfReachableSet(h.root(), weights));
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(base.SubtreeWeight(v),
              h.reach().WeightOfReachableSet(v, weights));
    EXPECT_EQ(base.SubtreeSize(v), h.tree().SubtreeSize(v));
  }
}

TEST(TreeWeightBase, AddWeightUpdatesAncestorsOnly) {
  Rng rng(2);
  const Hierarchy h = MustBuild(RandomTree(40, rng));
  auto weights = RandomWeights(40, rng);
  TreeWeightBase base(h.tree(), weights);
  const NodeId v = 23;
  base.AddWeight(v, 7);
  weights[v] += 7;
  const TreeWeightBase fresh(h.tree(), weights);
  for (NodeId x = 0; x < 40; ++x) {
    EXPECT_EQ(base.SubtreeWeight(x), fresh.SubtreeWeight(x)) << x;
    EXPECT_EQ(base.NodeWeight(x), fresh.NodeWeight(x)) << x;
  }
}

TEST(TreeSearchState, OverlayMatchesScratchRecomputation) {
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    const Hierarchy h = MustBuild(RandomTree(30, rng));
    const auto weights = RandomWeights(30, rng);
    const TreeWeightBase base(h.tree(), weights);
    TreeSearchState state(base);

    // Mirror of candidate membership.
    std::set<NodeId> alive;
    for (NodeId v = 0; v < 30; ++v) {
      alive.insert(v);
    }
    std::set<NodeId> answered_no;
    Rng steps(rng.Next());
    while (alive.size() > 1) {
      // Pick a random alive descendant of the current root, not the root.
      std::vector<NodeId> options;
      for (const NodeId v : alive) {
        if (v != state.root()) {
          options.push_back(v);
        }
      }
      const NodeId q =
          options[static_cast<std::size_t>(steps.UniformInt(options.size()))];
      if (steps.Bernoulli(0.5)) {
        state.ApplyYes(q);
        std::set<NodeId> next;
        for (const NodeId v : alive) {
          if (h.tree().InSubtree(q, v)) {
            next.insert(v);
          }
        }
        alive = std::move(next);
      } else {
        state.ApplyNo(q);
        answered_no.insert(q);
        for (auto it = alive.begin(); it != alive.end();) {
          it = h.tree().InSubtree(q, *it) ? alive.erase(it) : std::next(it);
        }
      }
      // Session subtree weight/size must equal the sum over alive nodes,
      // for every node in the current root's alive subtree; a child of an
      // alive node (what the descent probes) is a removed top iff dead.
      for (const NodeId v : alive) {
        Weight expected_w = 0;
        std::uint32_t expected_s = 0;
        for (const NodeId x : alive) {
          if (h.tree().InSubtree(v, x)) {
            expected_w += weights[x];
            ++expected_s;
          }
        }
        ASSERT_EQ(state.SubtreeWeight(v), expected_w) << "node " << v;
        ASSERT_EQ(state.SubtreeSize(v), expected_s) << "node " << v;
        ASSERT_EQ(state.AliveSubtreeWeight(v), expected_w) << "node " << v;
        for (const NodeId c : h.tree().Children(v)) {
          ASSERT_EQ(state.IsRemovedTop(c), !alive.contains(c)) << "child " << c;
          ASSERT_EQ(state.AliveSubtreeWeight(c).has_value(), alive.contains(c))
              << "child " << c;
        }
      }
      for (const NodeId q_no : answered_no) {
        ASSERT_TRUE(state.IsRemovedTop(q_no)) << "no-answered node " << q_no;
      }
      ASSERT_EQ(state.CandidateCount(), alive.size());
    }
    EXPECT_EQ(state.Target(), *alive.begin());
  }
}

// ---- Differential: tree state vs closure-mode split index on trees ---------

TEST(SessionDifferential, TreeAndDagStatesAgreeOnTrees) {
  // A tree is a DAG: for identical operation sequences, TreeSearchState's
  // subtree weights and the DAG session state — SplitWeightIndex on
  // compressed closure rows, forced onto the tree — must match exactly.
  ReachabilityOptions closure_on_trees;
  closure_on_trees.force_closure_on_trees = true;
  Rng rng(21);
  for (int round = 0; round < 15; ++round) {
    const Hierarchy h = *Hierarchy::Build(
        RandomTree(2 + rng.UniformInt(40), rng), closure_on_trees);
    ASSERT_EQ(h.reach().storage(),
              ReachabilityIndex::Storage::kCompressedClosure);
    const std::size_t n = h.NumNodes();
    const auto weights = RandomWeights(n, rng);
    const TreeWeightBase tree_base(h.tree(), weights);
    const SplitWeightBase dag_base(h, weights);
    TreeSearchState tree_state(tree_base);
    SplitWeightIndex dag_state(dag_base);

    Rng steps(rng.Next());
    while (dag_state.AliveCount() > 1) {
      // Pick any alive non-root node; both states see the same candidates.
      std::vector<NodeId> options;
      dag_state.ForEachAlive([&](NodeId v) {
        if (v != dag_state.root()) {
          options.push_back(v);
        }
      });
      std::sort(options.begin(), options.end());
      const NodeId q =
          options[static_cast<std::size_t>(steps.UniformInt(options.size()))];
      if (steps.Bernoulli(0.5)) {
        tree_state.ApplyYes(q);
        dag_state.ApplyYes(q);
      } else {
        tree_state.ApplyNo(q);
        dag_state.ApplyNo(q);
      }
      ASSERT_EQ(tree_state.root(), dag_state.root());
      ASSERT_EQ(tree_state.CandidateCount(), dag_state.AliveCount());
      ASSERT_EQ(tree_state.SubtreeWeight(tree_state.root()),
                dag_state.TotalAlive());
      dag_state.ForEachAlive([&](NodeId v) {
        ASSERT_EQ(tree_state.SubtreeWeight(v), dag_state.ReachWeight(v))
            << "node " << v;
      });
      if (steps.UniformInt(4) == 0) {
        break;  // vary sequence lengths
      }
    }
  }
}

// ---- Naive middle point -------------------------------------------------------

TEST(MiddlePoint, NaiveScanFindsDefinitionalArgmin) {
  Rng rng(7);
  const Hierarchy h = MustBuild(RandomDag(30, rng, 0.4));
  const auto weights = RandomWeights(30, rng, 100);
  CandidateSet candidates(h.graph());
  Weight total = 0;
  for (const Weight w : weights) {
    total += w;
  }
  BfsScratch scratch(h.NumNodes());
  const MiddlePoint mp = FindMiddlePointNaive(h.graph(), candidates, h.root(),
                                              weights, total, scratch);
  ASSERT_NE(mp.node, kInvalidNode);
  // No other non-root candidate does strictly better.
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    if (v == h.root()) {
      continue;
    }
    const Weight reach = h.reach().WeightOfReachableSet(v, weights);
    const Weight twice = 2 * reach;
    const Weight diff = twice > total ? twice - total : total - twice;
    EXPECT_GE(diff, mp.split_diff);
  }
}

TEST(MiddlePoint, GetReachableSetWeightHonorsCandidates) {
  // Chain 0 -> 1 -> 2; removing node 2 shrinks node 1's reach weight.
  const Hierarchy h = MustBuild(PathGraph(3));
  const std::vector<Weight> weights{1, 2, 4};
  CandidateSet candidates(h.graph());
  BfsScratch scratch(3);
  EXPECT_EQ(
      GetReachableSetWeight(h.graph(), candidates, 1, weights, scratch), 6u);
  candidates.RemoveReachable(2);
  EXPECT_EQ(
      GetReachableSetWeight(h.graph(), candidates, 1, weights, scratch), 2u);
}

// ---- Session memory -----------------------------------------------------------

std::size_t HeapBytesInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// Plans and answers the session's next question truthfully for `target`
// (nothing once the search is done).
void AnswerOnce(SearchSession& session, const ReachabilityIndex& reach,
                NodeId target) {
  ExactOracle oracle(reach, target);
  const Query q = session.Next();
  if (q.kind == Query::Kind::kDone) {
    return;
  }
  const SessionAnswer answer = AnswerFromOracle(q, oracle);
  if (q.kind == Query::Kind::kReach) {
    session.OnReach(q.node, answer.yes);
  } else {
    ASSERT_EQ(q.kind, Query::Kind::kReachBatch);
    session.OnReachBatch(q.choices, answer.batch);
  }
}

TEST(SessionMemory, DagSessionsHoldAConstantFewHundredBytes) {
#ifdef AIGS_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#endif
  // A session keeps its root, a few yes nodes and its no nodes; the O(n/64)
  // candidate view lives in the planning thread's scratch. So the bound is
  // one constant, independent of n, after 1 answer and after 10.
  const Hierarchy h =
      *Hierarchy::Build(GenerateCatalogDag(BigCatalogParams(100'000)));
  ASSERT_EQ(h.reach().storage(),
            ReachabilityIndex::Storage::kCompressedClosure);
  const std::size_t n = h.NumNodes();
  const Distribution dist = AssignZipfObjectCounts(n, 4 * n, 1.0, 7);
  Rng rng(8);
  const CostModel costs = CostModel::UniformRandom(n, 1, 9, rng);
  const PolicyContext context{&h, &dist, &costs};
  constexpr std::size_t kBudget = 1024;
  constexpr std::size_t kSessions = 32;

  for (const char* spec : {"greedy", "greedy_dag", "wigs", "greedy_naive",
                           "batched:k=4", "cost_sensitive"}) {
    SCOPED_TRACE(spec);
    auto policy = PolicyRegistry::Global().Create(spec, context);
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    // Warm-up: the thread's planner scratch (every memoized view slot
    // included) is allocated once per thread, not per session, so fill it
    // first.
    for (std::size_t i = 0; i < PlannerScratch::kMaxViews; ++i) {
      AnswerOnce(*(*policy)->NewSession(), h.reach(),
                 static_cast<NodeId>((i * 104729) % n));
    }

    std::vector<std::unique_ptr<SearchSession>> sessions;
    sessions.reserve(kSessions);
    std::size_t before = HeapBytesInUse();
    for (std::size_t i = 0; i < kSessions; ++i) {
      sessions.push_back((*policy)->NewSession());
      AnswerOnce(*sessions.back(), h.reach(),
                 static_cast<NodeId>((i * 7919) % n));
    }
    std::size_t after = HeapBytesInUse();
    EXPECT_LE(after > before ? (after - before) / kSessions : 0, kBudget)
        << n << " nodes, 1 answer";

    for (std::size_t i = 0; i < kSessions; ++i) {
      for (int a = 1; a < 10; ++a) {
        AnswerOnce(*sessions[i], h.reach(),
                   static_cast<NodeId>((i * 7919) % n));
      }
    }
    after = HeapBytesInUse();
    EXPECT_LE(after > before ? (after - before) / kSessions : 0, kBudget)
        << n << " nodes, 10 answers";
  }
}

TEST(SessionMemory, TreeSessionsHoldOnlyTheirRemovals) {
#ifdef AIGS_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#endif
  // A tree session keeps its root and one removal entry per ancestor of
  // each no-answered node; a yes-only descent allocates no overlay at all.
  // Most of what remains is the transcript.
  const Hierarchy h =
      *Hierarchy::Build(GenerateCatalogTree(BigCatalogParams(100'000)));
  ASSERT_TRUE(h.is_tree());
  const std::size_t n = h.NumNodes();
  const Distribution dist = AssignZipfObjectCounts(n, 4 * n, 1.0, 7);
  const PolicyContext context{&h, &dist, nullptr};
  constexpr std::size_t kSessions = 32;
  auto policy = PolicyRegistry::Global().Create("greedy", context);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  AnswerOnce(*(*policy)->NewSession(), h.reach(), 0);  // warm-up

  std::vector<std::unique_ptr<SearchSession>> sessions;
  sessions.reserve(kSessions);
  std::size_t before = HeapBytesInUse();
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions.push_back((*policy)->NewSession());
    AnswerOnce(*sessions.back(), h.reach(),
               static_cast<NodeId>((i * 7919) % n));
  }
  std::size_t after = HeapBytesInUse();
  EXPECT_LE(after > before ? (after - before) / kSessions : 0, 512u)
      << n << " nodes, 1 answer";

  for (std::size_t i = 0; i < kSessions; ++i) {
    for (int a = 1; a < 10; ++a) {
      AnswerOnce(*sessions[i], h.reach(),
                 static_cast<NodeId>((i * 7919) % n));
    }
  }
  after = HeapBytesInUse();
  EXPECT_LE(after > before ? (after - before) / kSessions : 0, 1024u)
      << n << " nodes, 10 answers";
}

// Runs an Engine session to Done, answering truthfully for `target`;
// returns the number of questions answered.
std::size_t SearchToDone(Engine& engine, SessionId id,
                         const ReachabilityIndex& reach, NodeId target) {
  ExactOracle oracle(reach, target);
  std::size_t answered = 0;
  for (;;) {
    const StatusOr<Query> q = engine.Ask(id);
    AIGS_CHECK(q.ok());
    if (q->kind == Query::Kind::kDone) {
      AIGS_CHECK(q->node == target);
      return answered;
    }
    AIGS_CHECK(engine.Answer(id, AnswerFromOracle(*q, oracle)).ok());
    ++answered;
  }
}

TEST(SessionMemory, EngineSessionsAtFullDepth) {
#ifdef AIGS_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#endif
  // Everything a live Engine session holds once its search is done: the
  // policy session, the service session and its transcript, and its entry
  // in the session map. The plan cache is off, so no trie node is charged.
  constexpr std::size_t kSessions = 64;
  for (const bool dag : {true, false}) {
    SCOPED_TRACE(dag ? "dag" : "tree");
    const CatalogParams params = BigCatalogParams(100'000);
    const Hierarchy h = *Hierarchy::Build(
        dag ? GenerateCatalogDag(params) : GenerateCatalogTree(params));
    const std::size_t n = h.NumNodes();
    EngineOptions options;
    options.plan_cache.enabled = false;
    options.sessions.ttl_millis = 0;
    options.migration.sweep_on_publish = false;
    Engine engine(options);
    CatalogConfig config;
    config.hierarchy = UnownedHierarchy(h);
    config.distribution = AssignZipfObjectCounts(n, 4 * n, 1.0, 7);
    config.policy_specs = {"greedy"};
    ASSERT_TRUE(engine.Publish(std::move(config)).ok());

    // Warm-up: the planning thread's memo of candidate views (up to
    // kMaxViews, at most 2 MiB) is allocated once per thread, not per
    // session, so fill it before the baseline reading.
    for (std::size_t i = 0; i < PlannerScratch::kMaxViews; ++i) {
      const StatusOr<SessionId> id = engine.Open("greedy");
      ASSERT_TRUE(id.ok());
      SearchToDone(engine, *id, h.reach(),
                   static_cast<NodeId>((i * 104729) % n));
      ASSERT_TRUE(engine.Close(*id).ok());
    }

    std::vector<SessionId> ids;
    ids.reserve(kSessions);
    std::size_t questions = 0;
    const std::size_t before = HeapBytesInUse();
    for (std::size_t i = 0; i < kSessions; ++i) {
      const StatusOr<SessionId> id = engine.Open("greedy");
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
      questions += SearchToDone(engine, *id, h.reach(),
                                static_cast<NodeId>((i * 7919) % n));
    }
    const std::size_t after = HeapBytesInUse();
    const std::size_t per_session =
        after > before ? (after - before) / kSessions : 0;
    EXPECT_LE(per_session, dag ? 1536u : 4096u)
        << n << " nodes, " << questions / kSessions
        << " answers per session on average";
  }
}

}  // namespace
}  // namespace aigs
