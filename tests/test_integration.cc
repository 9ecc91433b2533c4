// End-to-end integration on medium synthetic datasets: every algorithm runs
// the full pipeline (generation → policy → oracle → evaluation) and the
// paper's qualitative orderings hold.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "baselines/migs.h"
#include "baselines/top_down.h"
#include "baselines/wigs.h"
#include "core/aigs.h"
#include "data/datasets.h"
#include "eval/evaluator.h"
#include "oracle/noisy_oracle.h"
#include "prob/alias_table.h"
#include "eval/runner.h"
#include "tests/test_support.h"

namespace aigs {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    amazon_ = new Dataset(MakeAmazonDataset(0.06));
    imagenet_ = new Dataset(MakeImageNetDataset(0.06));
  }
  static void TearDownTestSuite() {
    delete amazon_;
    delete imagenet_;
    amazon_ = nullptr;
    imagenet_ = nullptr;
  }

  static Dataset* amazon_;
  static Dataset* imagenet_;
};

Dataset* IntegrationTest::amazon_ = nullptr;
Dataset* IntegrationTest::imagenet_ = nullptr;

TEST_F(IntegrationTest, AllPoliciesCorrectOnAmazonScaledDown) {
  const Hierarchy& h = amazon_->hierarchy;
  const Distribution& dist = amazon_->real_distribution;
  GreedyTreePolicy greedy(h, dist);
  TopDownPolicy top_down(h);
  MigsPolicy migs(h);
  WigsTreePolicy wigs(h);
  // EvaluateExact fatally verifies target identification for all targets.
  const double c_greedy = EvaluateExact(greedy, h, dist).expected_cost;
  const double c_topdown = EvaluateExact(top_down, h, dist).expected_cost;
  const double c_migs = EvaluateExact(migs, h, dist).expected_cost;
  const double c_wigs = EvaluateExact(wigs, h, dist).expected_cost;
  // Paper's Table III ordering: Greedy < WIGS < {TopDown, MIGS}.
  EXPECT_LT(c_greedy, c_wigs);
  EXPECT_LT(c_wigs, c_topdown);
  EXPECT_LT(c_wigs, c_migs);
}

TEST_F(IntegrationTest, AllPoliciesCorrectOnImageNetScaledDown) {
  const Hierarchy& h = imagenet_->hierarchy;
  const Distribution& dist = imagenet_->real_distribution;
  GreedyDagPolicy greedy(h, dist);
  TopDownPolicy top_down(h);
  MigsPolicy migs(h);
  WigsDagPolicy wigs(h);
  const double c_greedy = EvaluateExact(greedy, h, dist).expected_cost;
  const double c_topdown = EvaluateExact(top_down, h, dist).expected_cost;
  const double c_migs = EvaluateExact(migs, h, dist).expected_cost;
  const double c_wigs = EvaluateExact(wigs, h, dist).expected_cost;
  EXPECT_LT(c_greedy, c_wigs);
  EXPECT_LT(c_wigs, c_topdown);
  EXPECT_LT(c_wigs, c_migs);
}

TEST_F(IntegrationTest, SkewHelpsGreedyButNotBaselines) {
  // Tables IV/V: greedy improves under Zipf vs Equal; TopDown/WIGS barely
  // move because they ignore the distribution.
  const Hierarchy& h = amazon_->hierarchy;
  const std::size_t n = h.NumNodes();
  const Distribution equal = EqualDistribution(n);
  Rng rng(123);
  const Distribution zipf = ZipfRandomDistribution(n, 2.0, rng);
  Rng rng2(124);
  const Distribution uniform = UniformRandomDistribution(n, rng2);

  GreedyTreePolicy greedy_equal(h, equal);
  GreedyTreePolicy greedy_zipf(h, zipf);
  const double g_equal = EvaluateExact(greedy_equal, h, equal).expected_cost;
  const double g_zipf = EvaluateExact(greedy_zipf, h, zipf).expected_cost;
  EXPECT_LT(g_zipf, g_equal);

  WigsTreePolicy wigs(h);
  const double w_equal = EvaluateExact(wigs, h, equal).expected_cost;
  // WIGS ignores weights; under i.i.d. uniform reweighting its expected
  // cost stays put (law of large numbers over ~2k categories).
  const double w_uniform = EvaluateExact(wigs, h, uniform).expected_cost;
  EXPECT_NEAR(w_equal, w_uniform, 0.10 * w_equal);
}

TEST_F(IntegrationTest, GreedyTreeAndHeapVariantAgreeOnCost) {
  const Hierarchy& h = amazon_->hierarchy;
  const Distribution& dist = amazon_->real_distribution;
  GreedyTreePolicy linear(h, dist);
  GreedyTreeOptions heap_options;
  heap_options.child_scan = GreedyTreeOptions::ChildScan::kLazyHeap;
  GreedyTreePolicy heap(h, dist, heap_options);
  const double c_linear = EvaluateExact(linear, h, dist).expected_cost;
  const double c_heap = EvaluateExact(heap, h, dist).expected_cost;
  // Both scans break ties the same way, so they ask the same questions.
  EXPECT_EQ(c_linear, c_heap);
}

/// The (question, answer) pairs a session asks on its way to `target`.
std::vector<std::pair<NodeId, bool>> ReachTranscript(const Policy& policy,
                                                     const Hierarchy& h,
                                                     NodeId target) {
  const std::unique_ptr<SearchSession> session = policy.NewSession();
  ExactOracle oracle(h.reach(), target);
  std::vector<std::pair<NodeId, bool>> steps;
  for (Query q = session->Next(); q.kind != Query::Kind::kDone;
       q = session->Next()) {
    EXPECT_EQ(q.kind, Query::Kind::kReach);
    const bool yes = oracle.Reach(q.node);
    steps.emplace_back(q.node, yes);
    session->OnReach(q.node, yes);
  }
  EXPECT_EQ(session->Next().node, target);
  return steps;
}

TEST_F(IntegrationTest, GreedyTreeAndHeapVariantAskTheSameQuestions) {
  // Per target, not just in expectation: the heap returns the heaviest
  // child, earliest in child order among ties, exactly like the linear
  // scan. Under the equal distribution every pair of same-sized sibling
  // subtrees ties.
  const Hierarchy& h = amazon_->hierarchy;
  const Distribution equal = EqualDistribution(h.NumNodes());
  const Distribution* dists[] = {&amazon_->real_distribution, &equal};
  for (const Distribution* dist : dists) {
    GreedyTreePolicy linear(h, *dist);
    GreedyTreeOptions heap_options;
    heap_options.child_scan = GreedyTreeOptions::ChildScan::kLazyHeap;
    GreedyTreePolicy heap(h, *dist, heap_options);
    for (NodeId target = 0; target < h.NumNodes(); ++target) {
      ASSERT_EQ(ReachTranscript(linear, h, target),
                ReachTranscript(heap, h, target))
          << "target " << target;
    }
  }
}

TEST_F(IntegrationTest, GreedyDagMatchesGreedyTreeOnTrees) {
  // GreedyDAG run on a tree hierarchy realizes the same objective values as
  // GreedyTree (Theorem 5): expected costs agree up to tie-breaking.
  const Hierarchy& h = amazon_->hierarchy;
  const Distribution& dist = amazon_->real_distribution;
  GreedyTreeOptions tree_options;
  tree_options.use_rounded_weights = true;
  GreedyTreePolicy tree_policy(h, dist, tree_options);
  GreedyDagPolicy dag_policy(h, dist);  // rounded default
  const double c_tree = EvaluateExact(tree_policy, h, dist).expected_cost;
  const double c_dag = EvaluateExact(dag_policy, h, dist).expected_cost;
  EXPECT_NEAR(c_tree, c_dag, 0.05 * c_tree + 0.1);
}

TEST_F(IntegrationTest, NoisyOracleWithMajorityVotingStillAccurate) {
  const Hierarchy& h = amazon_->hierarchy;
  const Distribution& dist = amazon_->real_distribution;
  GreedyTreePolicy greedy(h, dist);
  Rng rng(9);
  int correct_noisy = 0;
  int correct_voted = 0;
  const int kTrials = 60;
  const AliasTable sampler(dist);
  Rng target_rng(10);
  for (int i = 0; i < kTrials; ++i) {
    const NodeId target = sampler.Sample(target_rng);
    ExactOracle exact(h.reach(), target);
    {
      NoisyOracle noisy(exact, 0.10, rng.Fork());
      auto session = greedy.NewSession();
      RunOptions options;
      options.max_questions = 100000;
      const SearchResult r = RunSearch(*session, noisy, options);
      correct_noisy += r.target == target ? 1 : 0;
    }
    {
      NoisyOracle noisy(exact, 0.10, rng.Fork());
      MajorityVoteOracle voted(noisy, 7);
      auto session = greedy.NewSession();
      RunOptions options;
      options.max_questions = 100000;
      const SearchResult r = RunSearch(*session, voted, options);
      correct_voted += r.target == target ? 1 : 0;
    }
  }
  // Majority voting must recover most of the accuracy the noise destroys.
  EXPECT_GT(correct_voted, correct_noisy);
  EXPECT_GE(correct_voted, kTrials * 3 / 4);
}

TEST_F(IntegrationTest, CostSensitiveGreedySavesUnderHeterogeneousPrices) {
  const Hierarchy& h = imagenet_->hierarchy;
  const Distribution& dist = imagenet_->real_distribution;
  Rng rng(11);
  const CostModel costs = CostModel::UniformRandom(h.NumNodes(), 1, 10, rng);
  CostSensitiveGreedyPolicy aware(h, dist, costs);
  GreedyDagPolicy blind(h, dist);
  EvalOptions options;
  options.cost_model = &costs;
  const double aware_cost =
      EvaluateExact(aware, h, dist, options).expected_priced_cost;
  const double blind_cost =
      EvaluateExact(blind, h, dist, options).expected_priced_cost;
  EXPECT_LT(aware_cost, blind_cost);
}

}  // namespace
}  // namespace aigs
