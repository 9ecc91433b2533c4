// The SplitWeightIndex selection layer: (1) the equivalence suite — the
// incremental backends must ask bit-identical question sequences to the
// naive BFS-rescan references across tree/DAG hierarchies and distribution
// families, which is what keeps Evaluator results bit-identical after the
// rewiring; (2) property tests for the index state after
// ApplyYes/ApplyNo/ApplyBatch against brute-force recomputation.
#include "core/split_weight_index.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/batched_greedy.h"
#include "core/cost_sensitive.h"
#include "core/greedy_naive.h"
#include "core/middle_point.h"
#include "core/policy_registry.h"
#include "data/builtin.h"
#include "data/synthetic_catalog.h"
#include "graph/candidate_set.h"
#include "graph/generators.h"
#include "oracle/oracle.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

using testing::MustBuild;
using testing::MustDist;

std::vector<Weight> RandomWeights(std::size_t n, Rng& rng, Weight max_value,
                                  double zero_frac) {
  std::vector<Weight> w(n);
  bool any = false;
  for (auto& x : w) {
    x = rng.Bernoulli(zero_frac) ? 0 : rng.UniformInt(max_value) + 1;
    any |= x > 0;
  }
  if (!any) {
    w[0] = 1;
  }
  return w;
}

// ---- index state vs brute force -------------------------------------------

// Mirrors an index through random yes/no answers (possibly referencing dead
// nodes, as batched rounds do) and checks every incremental quantity against
// recomputation over the mirrored alive set, on both the extended and the
// rebuilt closure-mode view.
void CheckStateAgainstBruteForce(const Hierarchy& h,
                                 const std::vector<Weight>& weights,
                                 Rng& steps) {
  const SplitWeightBase base(h, weights);
  SplitWeightIndex index(base);
  std::set<NodeId> alive;
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    alive.insert(v);
  }
  for (int step = 0; step < 12 && alive.size() > 1; ++step) {
    // Any node may be asked about — including an already-dead one when
    // simulating a batched round's later answers.
    const NodeId q =
        static_cast<NodeId>(steps.UniformInt(h.NumNodes()));
    const bool yes = steps.Bernoulli(0.5);
    if (yes) {
      index.ApplyYes(q);
      for (auto it = alive.begin(); it != alive.end();) {
        it = h.reach().Reaches(q, *it) ? std::next(it) : alive.erase(it);
      }
    } else {
      index.ApplyNo(q);
      for (auto it = alive.begin(); it != alive.end();) {
        it = h.reach().Reaches(q, *it) ? alive.erase(it) : std::next(it);
      }
    }
    // On this thread the memoized view extends by the answer's row; a fresh
    // thread has no memo and rebuilds the view from the stored answers.
    const auto verify = [&] {
      Weight expected_total = 0;
      for (const NodeId x : alive) {
        expected_total += weights[x];
      }
      ASSERT_EQ(index.AliveCount(), alive.size());
      ASSERT_EQ(index.TotalAlive(), expected_total);
      std::size_t enumerated = 0;
      index.ForEachAlive([&](NodeId v) {
        ++enumerated;
        ASSERT_TRUE(alive.count(v) > 0) << "node " << v;
      });
      ASSERT_EQ(enumerated, alive.size());
      for (NodeId v = 0; v < h.NumNodes(); ++v) {
        ASSERT_EQ(index.IsAlive(v), alive.count(v) > 0) << "node " << v;
        Weight expected_w = 0;
        std::size_t expected_c = 0;
        for (const NodeId x : alive) {
          if (h.reach().Reaches(v, x)) {
            expected_w += weights[x];
            ++expected_c;
          }
        }
        ASSERT_EQ(index.ReachWeight(v), expected_w) << "node " << v;
        ASSERT_EQ(index.ReachCount(v), expected_c) << "node " << v;
      }
    };
    verify();
    std::thread(verify).join();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    if (alive.empty()) {
      break;
    }
  }
}

TEST(SplitWeightIndex, EulerStateMatchesBruteForce) {
  Rng rng(2);
  for (int round = 0; round < 15; ++round) {
    const Hierarchy h = MustBuild(RandomTree(2 + rng.UniformInt(40), rng));
    const auto weights = RandomWeights(h.NumNodes(), rng, 1000, 0.3);
    Rng steps(rng.Next());
    CheckStateAgainstBruteForce(h, weights, steps);
  }
}

TEST(SplitWeightIndex, ClosureStateMatchesBruteForce) {
  Rng rng(3);
  for (int round = 0; round < 15; ++round) {
    const Hierarchy h =
        MustBuild(RandomDag(2 + rng.UniformInt(35), rng, 0.5));
    const auto weights = RandomWeights(h.NumNodes(), rng, 1000, 0.3);
    Rng steps(rng.Next());
    CheckStateAgainstBruteForce(h, weights, steps);
  }
}

TEST(SplitWeightIndex, ApplyBatchIntersectsAllAnswers) {
  Rng rng(4);
  for (int round = 0; round < 15; ++round) {
    const bool dag = rng.Bernoulli(0.5);
    const Hierarchy h = MustBuild(dag ? RandomDag(20, rng, 0.5)
                                      : RandomTree(20, rng));
    const auto weights = RandomWeights(h.NumNodes(), rng, 100, 0.2);
    const SplitWeightBase base(h, weights);
    SplitWeightIndex index(base);
    std::vector<NodeId> nodes;
    std::vector<bool> answers;
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(static_cast<NodeId>(rng.UniformInt(h.NumNodes())));
      answers.push_back(rng.Bernoulli(0.5));
    }
    index.ApplyBatch(nodes, answers);
    std::size_t expected_count = 0;
    Weight expected_total = 0;
    for (NodeId t = 0; t < h.NumNodes(); ++t) {
      bool survives = true;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        survives &= h.reach().Reaches(nodes[i], t) == answers[i];
      }
      ASSERT_EQ(index.IsAlive(t), survives) << "node " << t;
      expected_count += survives ? 1 : 0;
      expected_total += survives ? weights[t] : 0;
    }
    ASSERT_EQ(index.AliveCount(), expected_count);
    ASSERT_EQ(index.TotalAlive(), expected_total);
  }
}

TEST(SplitWeightIndex, ResetFromCopiesSessionState) {
  Rng rng(5);
  const Hierarchy h = MustBuild(RandomTree(30, rng));
  const auto weights = RandomWeights(h.NumNodes(), rng, 100, 0.0);
  const SplitWeightBase base(h, weights);
  SplitWeightIndex a(base);
  SplitWeightIndex b(base);
  a.ApplyNo(static_cast<NodeId>(h.NumNodes() - 1));
  b.ResetFrom(a);
  ASSERT_EQ(b.AliveCount(), a.AliveCount());
  ASSERT_EQ(b.TotalAlive(), a.TotalAlive());
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    ASSERT_EQ(b.IsAlive(v), a.IsAlive(v));
    ASSERT_EQ(b.ReachWeight(v), a.ReachWeight(v));
  }
  // Mutating the copy must not leak back.
  b.ApplyNo(b.FindSplittingMiddlePoint().node);
  ASSERT_LT(b.AliveCount(), a.AliveCount());
}

TEST(CandidateSet, ResetFromReusesStorage) {
  Rng rng(6);
  const Hierarchy h = MustBuild(RandomDag(25, rng, 0.4));
  CandidateSet a(h.graph());
  a.RemoveReachable(5);
  CandidateSet b(h.graph());
  b.ResetFrom(a);
  ASSERT_EQ(b.alive_count(), a.alive_count());
  for (NodeId v = 0; v < h.NumNodes(); ++v) {
    ASSERT_EQ(b.IsAlive(v), a.IsAlive(v));
  }
}

// ---- observed reachability folds --------------------------------------------

Hierarchy BuildCompressed(Digraph g) {
  ReachabilityOptions options;
  options.force_closure_on_trees = true;
  auto h = Hierarchy::Build(std::move(g), options);
  AIGS_CHECK(h.ok());
  AIGS_CHECK(!h->reach().euler_mode());
  return *std::move(h);
}

// 0 → {1, 2}; 1 → {3, 5}; 2 → {3, 6}; 3 → 4. Node 3 has two parents, so
// R(1) ∩ R(2) = {3, 4} and neither of 1, 2 reaches the other.
Digraph SharedChildDag() {
  Digraph g;
  g.AddNodes(7);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {0, 2}, {1, 3}, {1, 5}, {2, 3}, {2, 6}, {3, 4}}) {
    g.AddEdge(u, v);
  }
  return g;
}

// A split-weight index plus the backend=bfs reference session and a
// brute-force candidate set, driven through the same observed folds. The
// reference takes single questions only, so after a batched round the
// outcomes are checked against brute force alone.
class ObservedFoldHarness {
 public:
  ObservedFoldHarness(const Hierarchy& h, const Distribution& dist)
      : h_(&h),
        weights_(dist.weights()),
        base_(h, weights_),
        index_(base_),
        alive_(h.NumNodes(), true) {
    GreedyNaiveOptions bfs;
    bfs.backend = SelectionBackend::kBfsRescan;
    reference_policy_ = std::make_unique<GreedyNaivePolicy>(h, dist, bfs);
    reference_ = reference_policy_->NewSession();
  }

  // Folds (q, yes) into all three; the index's outcome must equal the
  // reference session's, and the candidates must match brute force after.
  StatusCode Fold(NodeId q, bool yes) {
    TranscriptStep step;
    step.nodes = {q};
    step.yes = yes;
    const StatusCode expected =
        reference_ != nullptr ? reference_->TryApplyObserved(step).code()
                              : ExpectedOutcome(q, yes);
    const NodeId root_before = index_.root();
    const Status status = index_.TryApplyObservedReach(q, yes);
    EXPECT_EQ(status.code(), expected)
        << "q=" << q << " yes=" << yes << ": " << status.ToString();
    if (status.ok()) {
      const bool was_alive = q < alive_.size() && alive_[q];
      for (NodeId t = 0; t < h_->NumNodes(); ++t) {
        alive_[t] = alive_[t] && h_->reach().Reaches(q, t) == yes;
      }
      // The root moves down on an alive yes and nowhere else.
      EXPECT_EQ(index_.root(), yes && was_alive ? q : root_before);
    } else {
      EXPECT_EQ(index_.root(), root_before);
    }
    ExpectMatchesMirror();
    return status.code();
  }

  void ApplyBatch(const std::vector<NodeId>& nodes,
                  const std::vector<bool>& answers) {
    index_.ApplyBatch(nodes, answers);
    reference_.reset();
    for (NodeId t = 0; t < h_->NumNodes(); ++t) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        alive_[t] = alive_[t] && h_->reach().Reaches(nodes[i], t) == answers[i];
      }
    }
    ExpectMatchesMirror();
  }

  void ExpectMatchesMirror() const {
    std::size_t count = 0;
    Weight total = 0;
    for (NodeId t = 0; t < h_->NumNodes(); ++t) {
      ASSERT_EQ(index_.IsAlive(t), alive_[t]) << "node " << t;
      count += alive_[t] ? 1 : 0;
      total += alive_[t] ? weights_[t] : 0;
    }
    ASSERT_EQ(index_.AliveCount(), count);
    ASSERT_EQ(index_.TotalAlive(), total);
    for (NodeId v = 0; v < h_->NumNodes(); ++v) {
      std::size_t inside = 0;
      for (NodeId t = 0; t < h_->NumNodes(); ++t) {
        inside += alive_[t] && h_->reach().Reaches(v, t) ? 1 : 0;
      }
      ASSERT_EQ(index_.ReachCount(v), inside) << "node " << v;
    }
  }

  const SplitWeightIndex& index() const { return index_; }

 private:
  // TryApplyObservedReach's contract, by brute force over the mirror.
  StatusCode ExpectedOutcome(NodeId q, bool yes) const {
    if (q >= h_->NumNodes()) {
      return StatusCode::kOutOfRange;
    }
    std::size_t alive = 0;
    std::size_t inside = 0;
    for (NodeId t = 0; t < h_->NumNodes(); ++t) {
      alive += alive_[t] ? 1 : 0;
      inside += alive_[t] && h_->reach().Reaches(q, t) ? 1 : 0;
    }
    if (yes) {
      if (inside == 0) {
        return StatusCode::kInvalidArgument;
      }
      return alive_[q] || inside == alive ? StatusCode::kOk
                                          : StatusCode::kUnimplemented;
    }
    return inside == alive && inside > 0 ? StatusCode::kInvalidArgument
                                         : StatusCode::kOk;
  }

  const Hierarchy* h_;
  std::vector<Weight> weights_;
  SplitWeightBase base_;
  SplitWeightIndex index_;
  std::vector<bool> alive_;
  std::unique_ptr<GreedyNaivePolicy> reference_policy_;
  std::unique_ptr<SearchSession> reference_;
};

TEST(ObservedReach, ClosureOutcomesMatchBfsReference) {
  const Hierarchy h = BuildCompressed(SharedChildDag());
  const Distribution dist =
      MustDist(std::vector<Weight>{1, 2, 3, 4, 5, 6, 7});
  ObservedFoldHarness fold(h, dist);
  EXPECT_EQ(fold.Fold(7, true), StatusCode::kOutOfRange);
  EXPECT_EQ(fold.Fold(0, false), StatusCode::kInvalidArgument);
  EXPECT_EQ(fold.Fold(1, true), StatusCode::kOk);  // C = {1, 3, 4, 5}
  EXPECT_EQ(fold.index().root(), 1u);
  // R(6) misses C; R(2) meets it in {3, 4} though 2 itself is dead.
  EXPECT_EQ(fold.Fold(6, true), StatusCode::kInvalidArgument);
  EXPECT_EQ(fold.Fold(2, true), StatusCode::kUnimplemented);
  EXPECT_EQ(fold.Fold(5, false), StatusCode::kOk);  // C = {1, 3, 4}
  EXPECT_EQ(fold.Fold(6, false), StatusCode::kOk);  // already known
  EXPECT_EQ(fold.Fold(3, true), StatusCode::kOk);   // C = {3, 4}
  EXPECT_EQ(fold.index().root(), 3u);
  // Dead nodes whose rows cover C: a yes carries no information and must
  // not move the root up to them.
  EXPECT_EQ(fold.Fold(2, true), StatusCode::kOk);
  EXPECT_EQ(fold.Fold(1, true), StatusCode::kOk);
  EXPECT_EQ(fold.index().root(), 3u);
  EXPECT_EQ(fold.Fold(3, false), StatusCode::kInvalidArgument);
  EXPECT_EQ(fold.Fold(4, false), StatusCode::kOk);  // C = {3}
  EXPECT_EQ(fold.index().AliveCount(), 1u);
}

TEST(ObservedReach, YesTheRootDoesNotReachBesideABatchedYes) {
  // A batched round answering yes for both 1 and 2 moves the root to 1 and
  // keeps 2 as a yes the root does not reach: C = R(1) ∩ R(2) = {3, 4}.
  // Observed folds on top of that state must still see exactly C.
  const Hierarchy h = BuildCompressed(SharedChildDag());
  const Distribution dist =
      MustDist(std::vector<Weight>{1, 1, 1, 1, 1, 1, 1});
  ObservedFoldHarness fold(h, dist);
  fold.ApplyBatch({1, 2}, {true, true});
  EXPECT_EQ(fold.index().root(), 1u);
  EXPECT_EQ(fold.index().AliveCount(), 2u);
  // 2 is dead, the root does not reach it, and its row covers C.
  EXPECT_EQ(fold.Fold(2, true), StatusCode::kOk);
  EXPECT_EQ(fold.index().root(), 1u);
  EXPECT_EQ(fold.Fold(6, true), StatusCode::kInvalidArgument);
  EXPECT_EQ(fold.Fold(5, true), StatusCode::kInvalidArgument);
  EXPECT_EQ(fold.Fold(2, false), StatusCode::kInvalidArgument);
  EXPECT_EQ(fold.Fold(3, true), StatusCode::kOk);
  EXPECT_EQ(fold.index().root(), 3u);
  EXPECT_EQ(fold.Fold(4, false), StatusCode::kOk);  // C = {3}
  EXPECT_EQ(fold.index().AliveCount(), 1u);
}

TEST(ObservedReach, RandomClosureFoldsMatchBfsReference) {
  // Random observed steps — truthful ones, arbitrary ones that hit every
  // rejection, and out-of-range nodes — on compressed rows over random DAGs
  // and on Euler intervals over random trees.
  Rng rng(41);
  for (int round = 0; round < 24; ++round) {
    const bool dag = round % 2 == 0;
    Rng graph_rng(rng.Next());
    const std::size_t n = 3 + rng.UniformInt(30);
    const Hierarchy h = dag ? BuildCompressed(RandomDag(n, graph_rng, 0.5))
                            : MustBuild(RandomTree(n, graph_rng));
    const Distribution dist =
        MustDist(RandomWeights(h.NumNodes(), rng, 50, 0.2));
    ObservedFoldHarness fold(h, dist);
    const NodeId target = static_cast<NodeId>(rng.UniformInt(h.NumNodes()));
    for (int step = 0; step < 20; ++step) {
      const NodeId q = static_cast<NodeId>(rng.UniformInt(h.NumNodes() + 1));
      const bool yes = q < h.NumNodes() && rng.Bernoulli(0.7)
                           ? h.reach().Reaches(q, target)
                           : rng.Bernoulli(0.5);
      fold.Fold(q, yes);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// ---- middle-point selection vs the naive reference -------------------------

TEST(SplitWeightIndex, FindMiddlePointMatchesNaiveScanMidSearch) {
  // Random partially-consumed search states: the pruned descent must return
  // exactly the naive scan's argmin node (same value, same smallest-id
  // tie-break), including under zero-weight ties.
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    const bool dag = rng.Bernoulli(0.5);
    const Hierarchy h = MustBuild(dag ? RandomDag(2 + rng.UniformInt(35),
                                                  rng, 0.5)
                                      : RandomTree(2 + rng.UniformInt(35),
                                                   rng));
    const auto weights = RandomWeights(h.NumNodes(), rng, 20, 0.5);
    const SplitWeightBase base(h, weights);
    SplitWeightIndex index(base);
    CandidateSet mirror(h.graph());
    NodeId root = h.root();
    BfsScratch scratch(h.NumNodes());
    Rng steps(rng.Next());
    while (index.AliveCount() > 1) {
      Weight total = 0;
      mirror.bits().ForEachSetBit(
          [&](std::size_t v) { total += weights[v]; });
      ASSERT_EQ(index.TotalAlive(), total);
      const MiddlePoint naive = FindMiddlePointNaive(
          h.graph(), mirror, root, weights, total, scratch);
      const MiddlePoint fast = index.FindMiddlePoint();
      ASSERT_EQ(fast.node, naive.node);
      ASSERT_EQ(fast.split_diff, naive.split_diff);
      ASSERT_EQ(fast.reach_weight, naive.reach_weight);
      // Advance both states along a random answer.
      const NodeId q = naive.node;
      if (steps.Bernoulli(0.5)) {
        index.ApplyYes(q);
        mirror.RestrictToReachable(q);
        root = q;
      } else {
        index.ApplyNo(q);
        mirror.RemoveReachable(q);
      }
      if (mirror.alive_count() == 0) {
        break;
      }
    }
  }
}

TEST(SplitWeightIndex, FindSplittingMiddlePointMatchesFlatScan) {
  // The Euler-mode pruned/rooted descent (PR-2 follow-up, landed in PR 4)
  // must return exactly the flat scan's (diff, id) argmin over splitting
  // candidates — including on post-yes intersection states reached through
  // whole batched rounds, where a round may answer yes for an ancestor of
  // another yes of the same round.
  const auto flat_reference = [](const SplitWeightIndex& index) {
    const Weight total = index.TotalAlive();
    const std::size_t count = index.AliveCount();
    MiddlePoint best;
    index.ForEachAlive([&](NodeId v) {
      if (index.ReachCount(v) == count) {
        return;
      }
      const Weight w = index.ReachWeight(v);
      const Weight rest = total - w;
      const Weight diff = w > rest ? w - rest : rest - w;
      if (best.node == kInvalidNode || diff < best.split_diff ||
          (diff == best.split_diff && v < best.node)) {
        best.node = v;
        best.split_diff = diff;
        best.reach_weight = w;
      }
    });
    return best;
  };

  Rng rng(29);
  for (int round = 0; round < 60; ++round) {
    const bool dag = rng.Bernoulli(0.3);
    const Hierarchy h = MustBuild(dag ? RandomDag(2 + rng.UniformInt(40),
                                                  rng, 0.4)
                                      : RandomTree(2 + rng.UniformInt(40),
                                                   rng));
    const auto weights = RandomWeights(h.NumNodes(), rng, 20, 0.5);
    const SplitWeightBase base(h, weights);
    const NodeId target =
        static_cast<NodeId>(rng.UniformInt(h.NumNodes()));
    SplitWeightIndex state(base);
    SplitWeightIndex simulated(base);
    int guard = 0;
    while (state.AliveCount() > 1 && ++guard < 300) {
      // One batched round of up to 3 questions, checking the descent
      // against the flat scan at every pick of the round simulation.
      std::vector<NodeId> batch;
      simulated.ResetFrom(state);
      while (batch.size() < 3 && simulated.AliveCount() > 1) {
        const MiddlePoint fast = simulated.FindSplittingMiddlePoint();
        const MiddlePoint reference = flat_reference(simulated);
        ASSERT_EQ(fast.node, reference.node);
        ASSERT_EQ(fast.split_diff, reference.split_diff);
        ASSERT_EQ(fast.reach_weight, reference.reach_weight);
        if (fast.node == kInvalidNode) {
          break;
        }
        batch.push_back(fast.node);
        simulated.ApplyNo(fast.node);
      }
      ASSERT_FALSE(batch.empty());
      std::vector<bool> answers(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        answers[i] = h.reach().Reaches(batch[i], target);
      }
      state.ApplyBatch(batch, answers);
      ASSERT_GT(state.AliveCount(), 0u);
    }
  }
}

// ---- full question-sequence equivalence ------------------------------------

/// Records the full interaction transcript of a session: sequential queries
/// as single-element rounds, batch queries as their node lists.
std::vector<std::vector<NodeId>> RecordTranscript(SearchSession& session,
                                                  Oracle& oracle,
                                                  NodeId expected_target) {
  std::vector<std::vector<NodeId>> rounds;
  for (;;) {
    const Query q = session.Next();
    if (q.kind == Query::Kind::kDone) {
      EXPECT_EQ(q.node, expected_target);
      return rounds;
    }
    if (q.kind == Query::Kind::kReach) {
      rounds.push_back({q.node});
      session.OnReach(q.node, oracle.Reach(q.node));
      continue;
    }
    AIGS_CHECK(q.kind == Query::Kind::kReachBatch);
    rounds.push_back(q.choices);
    std::vector<bool> answers;
    answers.reserve(q.choices.size());
    for (const NodeId v : q.choices) {
      answers.push_back(oracle.Reach(v));
    }
    session.OnReachBatch(q.choices, answers);
  }
}

void ExpectIdenticalTranscripts(const Policy& fast, const Policy& reference,
                                const Hierarchy& h, const char* what,
                                NodeId target_stride = 1) {
  for (NodeId target = 0; target < h.NumNodes(); target += target_stride) {
    ExactOracle oracle(h.reach(), target);
    auto fast_session = fast.NewSession();
    auto ref_session = reference.NewSession();
    const auto fast_rounds = RecordTranscript(*fast_session, oracle, target);
    const auto ref_rounds = RecordTranscript(*ref_session, oracle, target);
    ASSERT_EQ(fast_rounds, ref_rounds)
        << what << ": transcripts diverge for target " << target;
  }
}

struct EquivalenceCase {
  std::string name;
  Hierarchy hierarchy;
  Distribution distribution;
};

std::vector<EquivalenceCase> EquivalenceCases() {
  std::vector<EquivalenceCase> cases;
  Rng rng(2022);

  // Tree and DAG hierarchies × uniform / Zipf / with-zeros distributions.
  for (const bool dag : {false, true}) {
    for (const char* dist_kind : {"uniform", "zipf", "zeros"}) {
      Rng g(rng.Next());
      Hierarchy h = MustBuild(dag ? RandomDag(40, g, 0.4)
                                  : RandomTree(40, g));
      Distribution dist =
          std::string_view(dist_kind) == "uniform"
              ? UniformRandomDistribution(h.NumNodes(), g)
          : std::string_view(dist_kind) == "zipf"
              ? ZipfRandomDistribution(h.NumNodes(), 2.0, g)
              : MustDist(RandomWeights(h.NumNodes(), g, 50, 0.5));
      cases.push_back({std::string(dag ? "dag/" : "tree/") + dist_kind,
                       std::move(h), std::move(dist)});
    }
  }

  // Real data: the paper's vehicle hierarchy with its published counts, and
  // catalog-shaped synthetics with empirical (Zipf object-count) weights.
  cases.push_back({"vehicle/real", MustBuild(BuildVehicleHierarchy()),
                   VehicleDistribution()});
  CatalogParams tree_params;
  tree_params.num_nodes = 220;
  tree_params.height = 7;
  tree_params.max_out_degree = 8;
  tree_params.seed = 11;
  cases.push_back(
      {"catalog_tree/real", MustBuild(GenerateCatalogTree(tree_params)),
       AssignZipfObjectCounts(220, 100'000, 1.0, 12)});
  CatalogParams dag_params = tree_params;
  dag_params.extra_parent_frac = 0.08;
  dag_params.seed = 13;
  Hierarchy catalog_dag = MustBuild(GenerateCatalogDag(dag_params));
  Distribution catalog_dist =
      AssignZipfObjectCounts(catalog_dag.NumNodes(), 100'000, 1.0, 14);
  cases.push_back({"catalog_dag/real", std::move(catalog_dag),
                   std::move(catalog_dist)});
  return cases;
}

TEST(SelectionEquivalence, GreedyNaiveIndexMatchesBfsReference) {
  for (const EquivalenceCase& c : EquivalenceCases()) {
    SCOPED_TRACE(c.name);
    GreedyNaiveOptions bfs;
    bfs.backend = SelectionBackend::kBfsRescan;
    const GreedyNaivePolicy fast(c.hierarchy, c.distribution);
    const GreedyNaivePolicy reference(c.hierarchy, c.distribution, bfs);
    ExpectIdenticalTranscripts(fast, reference, c.hierarchy, c.name.c_str());
  }
}

TEST(SelectionEquivalence, BatchedIndexMatchesBfsReference) {
  for (const EquivalenceCase& c : EquivalenceCases()) {
    SCOPED_TRACE(c.name);
    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                std::size_t{8}}) {
      BatchedGreedyOptions fast_options;
      fast_options.questions_per_round = k;
      BatchedGreedyOptions ref_options = fast_options;
      ref_options.backend = SelectionBackend::kBfsRescan;
      const BatchedGreedyPolicy fast(c.hierarchy, c.distribution,
                                     fast_options);
      const BatchedGreedyPolicy reference(c.hierarchy, c.distribution,
                                          ref_options);
      ExpectIdenticalTranscripts(fast, reference, c.hierarchy,
                                 c.name.c_str());
    }
  }
}

TEST(SelectionEquivalence, CatalogScaleDagIndexMatchesBfsReference) {
  // Closure-mode selection skips candidates on their pristine reach weight;
  // this DAG is where that bound often exceeds the alive total and must be
  // refused. Every 16th target keeps the BFS reference affordable.
  const Hierarchy h = testing::CatalogScaleDag();
  const Distribution dist = testing::CatalogZipfCounts(h.NumNodes());
  GreedyNaiveOptions naive_bfs;
  naive_bfs.backend = SelectionBackend::kBfsRescan;
  ExpectIdenticalTranscripts(GreedyNaivePolicy(h, dist),
                             GreedyNaivePolicy(h, dist, naive_bfs), h,
                             "greedy_naive", /*target_stride=*/16);
  BatchedGreedyOptions batched;
  batched.questions_per_round = 4;
  BatchedGreedyOptions batched_bfs = batched;
  batched_bfs.backend = SelectionBackend::kBfsRescan;
  ExpectIdenticalTranscripts(BatchedGreedyPolicy(h, dist, batched),
                             BatchedGreedyPolicy(h, dist, batched_bfs), h,
                             "batched:k=4", /*target_stride=*/16);
}

TEST(SelectionEquivalence, CostSensitiveMatchesBfsReferenceScan) {
  // The index-backed cost-sensitive session must pick the same argmax of
  // p(G_v∩C)·p(C\G_v)/c(v) as a from-scratch BFS scan in ascending node-id
  // order (first-wins tie-break), step by step.
  Rng rng(8);
  for (const EquivalenceCase& c : EquivalenceCases()) {
    SCOPED_TRACE(c.name);
    const Hierarchy& h = c.hierarchy;
    Rng cost_rng(rng.Next());
    const CostModel costs =
        CostModel::UniformRandom(h.NumNodes(), 1, 9, cost_rng);
    CostSensitiveOptions options;  // rounded weights, Theorem 4's setting
    const CostSensitiveGreedyPolicy policy(h, c.distribution, costs, options);
    const std::vector<Weight> weights =
        RoundWeights(c.distribution, options.rounding);

    for (NodeId target = 0; target < h.NumNodes(); ++target) {
      ExactOracle oracle(h.reach(), target);
      auto session = policy.NewSession();
      CandidateSet mirror(h.graph());
      NodeId root = h.root();
      BfsScratch scratch(h.NumNodes());
      for (;;) {
        const Query q = session->Next();
        if (q.kind == Query::Kind::kDone) {
          ASSERT_EQ(q.node, target);
          break;
        }
        Weight total = 0;
        mirror.bits().ForEachSetBit(
            [&](std::size_t v) { total += weights[v]; });
        NodeId expected = kInvalidNode;
        U128 best_product = 0;
        std::uint32_t best_cost = 1;
        mirror.bits().ForEachSetBit([&](std::size_t raw) {
          const NodeId v = static_cast<NodeId>(raw);
          if (v == root) {
            return;
          }
          Weight inside = 0;
          scratch.ForwardBfs(
              h.graph(), v,
              [&mirror](NodeId x) { return mirror.IsAlive(x); },
              [&](NodeId x) { inside += weights[x]; });
          const U128 product =
              static_cast<U128>(inside) * static_cast<U128>(total - inside);
          const std::uint32_t cost = costs.CostOf(v);
          if (expected == kInvalidNode ||
              product * best_cost > best_product * cost) {
            expected = v;
            best_product = product;
            best_cost = cost;
          }
        });
        ASSERT_EQ(q.node, expected) << "target " << target;
        const bool yes = oracle.Reach(q.node);
        session->OnReach(q.node, yes);
        if (yes) {
          mirror.RestrictToReachable(q.node);
          root = q.node;
        } else {
          mirror.RemoveReachable(q.node);
        }
      }
    }
  }
}

// ---- concurrent planning ---------------------------------------------------

TEST(ConcurrentPlanning, InterleavedSessionsOnFourThreadsMatchSerial) {
  // Four threads step sessions of three closure-mode policies from one
  // shared queue, one question at a time, so every thread's view memo sees
  // sessions interleave, hop threads, finish and be freed while new ones
  // reuse their memory. Every transcript must equal the serial run's.
  CatalogParams params;
  params.num_nodes = 400;
  params.height = 7;
  params.max_out_degree = 12;
  params.extra_parent_frac = 0.1;
  params.seed = 5;
  const Hierarchy h = MustBuild(GenerateCatalogDag(params));
  const Distribution dist = AssignZipfObjectCounts(h.NumNodes(), 50'000, 1.0, 6);
  const PolicyContext context{&h, &dist, nullptr};
  const std::vector<std::string> specs = {"greedy", "batched:k=4", "wigs"};
  std::vector<std::unique_ptr<Policy>> policies;
  for (const std::string& spec : specs) {
    auto policy = PolicyRegistry::Global().Create(spec, context);
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    policies.push_back(*std::move(policy));
  }

  struct Job {
    std::size_t policy;
    NodeId target;
    std::unique_ptr<SearchSession> session;
    std::vector<std::vector<NodeId>> rounds;
  };
  std::vector<Job> jobs;
  for (NodeId target = 0; target < h.NumNodes(); target += 5) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      jobs.push_back(Job{p, target, nullptr, {}});
    }
  }
  std::vector<std::vector<std::vector<NodeId>>> serial(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ExactOracle oracle(h.reach(), jobs[j].target);
    auto session = policies[jobs[j].policy]->NewSession();
    serial[j] = RecordTranscript(*session, oracle, jobs[j].target);
  }

  // Steps job j by one question; false once its search is done.
  const auto step = [&](Job& job) {
    if (job.session == nullptr) {
      job.session = policies[job.policy]->NewSession();
    }
    const Query q = job.session->Next();
    if (q.kind == Query::Kind::kDone) {
      EXPECT_EQ(q.node, job.target);
      job.session.reset();
      return false;
    }
    ExactOracle oracle(h.reach(), job.target);
    if (q.kind == Query::Kind::kReach) {
      job.rounds.push_back({q.node});
      job.session->OnReach(q.node, oracle.Reach(q.node));
      return true;
    }
    job.rounds.push_back(q.choices);
    std::vector<bool> answers;
    for (const NodeId v : q.choices) {
      answers.push_back(oracle.Reach(v));
    }
    job.session->OnReachBatch(q.choices, answers);
    return true;
  };

  // At most 24 sessions are live at once; a thread pops the front one,
  // steps it, and pushes it back unless it finished.
  std::mutex mu;
  std::deque<std::size_t> live;
  std::size_t next_job = 0;
  const auto refill = [&] {
    while (live.size() < 24 && next_job < jobs.size()) {
      live.push_back(next_job++);
    }
  };
  refill();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        std::size_t j;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (live.empty()) {
            return;
          }
          j = live.front();
          live.pop_front();
        }
        const bool more = step(jobs[j]);
        std::lock_guard<std::mutex> lock(mu);
        if (more) {
          live.push_back(j);
        } else {
          refill();
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ASSERT_EQ(jobs[j].rounds, serial[j])
        << specs[jobs[j].policy] << " target " << jobs[j].target;
  }
}

}  // namespace
}  // namespace aigs
