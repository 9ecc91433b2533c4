// Epoch lifecycle: cross-epoch session migration and the
// post-publish idle-session sweep.
//  (1) migration equivalence, the hard guarantee: for every registry policy
//      on trees and DAGs, a session saved on epoch E and migrated to epoch
//      E' produces a transcript bit-identical to a fresh E' session
//      replayed on the same answers (zero-divergence case) — for both the
//      saved-blob and the live-in-place migration paths;
//  (2) real divergence: shifted weights change the planner's questions;
//      divergent steps are folded via the observed-step appliers, surfaced
//      with exact counts, flagged in a subsequent Save, and the migrated
//      session still identifies the correct target;
//  (3) the divergence budget: exceeding it fails with FailedPrecondition
//      and (for live sessions) leaves the session untouched on its epoch;
//  (4) adversarial/malformed migration inputs — truncated blobs,
//      wrong-hierarchy blobs, out-of-range node ids, v1 blobs, divergence
//      on phase-automaton policies — all return Status, never abort;
//  (5) the publish sweep: idle old-epoch sessions migrate automatically
//      and their replays refill the fresh epoch's plan trie, sessions
//      mid-question stay pinned, and an explicitly migrated session must
//      re-Ask before answering.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aigs.h"
#include "core/policy_registry.h"
#include "eval/runner.h"
#include "graph/generators.h"
#include "oracle/oracle.h"
#include "service/engine.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

using testing::MustBuild;

using RecordedQuery = std::pair<Query::Kind, std::vector<NodeId>>;

std::vector<NodeId> QueryNodes(const Query& q) {
  return q.kind == Query::Kind::kReach ? std::vector<NodeId>{q.node}
                                       : q.choices;
}

/// Drives `id` for up to `max_steps` answered questions (SIZE_MAX = to the
/// end), recording the questions; returns the target when done was
/// reached, kInvalidNode otherwise.
NodeId Drive(Engine& engine, SessionId id, Oracle& oracle,
             std::size_t max_steps,
             std::vector<RecordedQuery>* recorded = nullptr) {
  for (std::size_t step = 0; step < max_steps; ++step) {
    const auto q = engine.Ask(id);
    AIGS_CHECK(q.ok());
    if (q->kind == Query::Kind::kDone) {
      return q->node;
    }
    if (recorded != nullptr) {
      recorded->emplace_back(q->kind, QueryNodes(*q));
    }
    AIGS_CHECK(engine.Answer(id, AnswerFromOracle(*q, oracle)).ok());
  }
  const auto q = engine.Ask(id);
  AIGS_CHECK(q.ok());
  return q->kind == Query::Kind::kDone ? q->node : kInvalidNode;
}

struct MigrationCase {
  std::string name;
  Hierarchy hierarchy;
  Distribution distribution;
  Distribution shifted;  // same node space, different weights
};

std::vector<MigrationCase> Cases() {
  std::vector<MigrationCase> cases;
  Rng rng(515151);
  {
    Hierarchy tree = MustBuild(RandomTree(48, rng));
    Distribution a = ZipfRandomDistribution(tree.NumNodes(), 2.0, rng);
    Distribution b = ZipfRandomDistribution(tree.NumNodes(), 2.0, rng);
    cases.push_back({"tree", std::move(tree), std::move(a), std::move(b)});
  }
  {
    Hierarchy dag = MustBuild(RandomDag(48, rng, 0.4));
    Distribution a = ZipfRandomDistribution(dag.NumNodes(), 2.0, rng);
    Distribution b = ZipfRandomDistribution(dag.NumNodes(), 2.0, rng);
    cases.push_back({"dag", std::move(dag), std::move(a), std::move(b)});
  }
  return cases;
}

/// Every registry policy spec the hierarchy supports (mirrors
/// test_plan_cache.cc; the scripted policy gets a complete question order).
std::vector<std::string> SpecsFor(const Hierarchy& h) {
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

std::shared_ptr<const CostModel> SomeCosts(std::size_t n) {
  Rng rng(7);
  return std::make_shared<const CostModel>(
      CostModel::UniformRandom(n, 1, 9, rng));
}

CatalogConfig ConfigFor(const MigrationCase& c, bool shifted = false) {
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(c.hierarchy);
  config.distribution = shifted ? c.shifted : c.distribution;
  config.cost_model = SomeCosts(c.hierarchy.NumNodes());
  config.policy_specs = SpecsFor(c.hierarchy);
  return config;
}

// ---- (1) zero-divergence migration equivalence -----------------------------

TEST(EpochMigration, SavedSessionMigratesBitIdenticalEveryPolicy) {
  for (const MigrationCase& c : Cases()) {
    Engine engine;
    ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
    for (const std::string& spec : SpecsFor(c.hierarchy)) {
      SCOPED_TRACE(c.name + "/" + spec);
      for (NodeId target = 0; target < c.hierarchy.NumNodes();
           target += 3) {
        // Record a partial session on epoch E and save it.
        ExactOracle oracle(c.hierarchy.reach(), target);
        auto id = engine.Open(spec);
        ASSERT_TRUE(id.ok());
        std::vector<RecordedQuery> prefix_questions;
        Drive(engine, *id, oracle, 2, &prefix_questions);
        auto blob = engine.Save(*id);
        ASSERT_TRUE(blob.ok());
        ASSERT_TRUE(engine.Close(*id).ok());

        // Publish E' with IDENTICAL weights: the planners reproduce every
        // recorded question, so migration must report zero divergence...
        ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
        auto migrated = engine.Migrate(*blob);
        ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
        EXPECT_EQ(migrated->divergent_steps, 0u);
        EXPECT_EQ(migrated->to_epoch, engine.epoch());

        // ...and the migrated session's full transcript must be
        // bit-identical to a fresh E' session replayed on the same
        // answers.
        ExactOracle oracle_migrated(c.hierarchy.reach(), target);
        ExactOracle oracle_fresh(c.hierarchy.reach(), target);
        std::vector<RecordedQuery> rest_migrated, fresh_questions;
        const NodeId found = Drive(engine, migrated->id, oracle_migrated,
                                   SIZE_MAX, &rest_migrated);
        auto fresh = engine.Open(spec);
        ASSERT_TRUE(fresh.ok());
        const NodeId found_fresh = Drive(engine, *fresh, oracle_fresh,
                                         SIZE_MAX, &fresh_questions);
        EXPECT_EQ(found, target);
        EXPECT_EQ(found_fresh, target);
        std::vector<RecordedQuery> migrated_all = prefix_questions;
        migrated_all.insert(migrated_all.end(), rest_migrated.begin(),
                            rest_migrated.end());
        EXPECT_EQ(migrated_all, fresh_questions);
        EXPECT_TRUE(engine.Close(migrated->id).ok());
        EXPECT_TRUE(engine.Close(*fresh).ok());
      }
    }
  }
}

TEST(EpochMigration, LiveSessionMigratesInPlaceKeepingItsId) {
  for (const MigrationCase& c : Cases()) {
    EngineOptions options;
    options.migration.sweep_on_publish = false;  // migrate explicitly below
    Engine engine(options);
    ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
    for (const std::string& spec : SpecsFor(c.hierarchy)) {
      SCOPED_TRACE(c.name + "/" + spec);
      const NodeId target = static_cast<NodeId>(c.hierarchy.NumNodes() - 1);
      ExactOracle oracle(c.hierarchy.reach(), target);
      auto id = engine.Open(spec);
      ASSERT_TRUE(id.ok());
      std::vector<RecordedQuery> prefix_questions;
      Drive(engine, *id, oracle, 2, &prefix_questions);

      ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
      auto result = engine.Migrate(*id);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->id, *id);
      EXPECT_EQ(result->divergent_steps, 0u);
      EXPECT_EQ(result->to_epoch, engine.epoch());

      ExactOracle oracle_rest(c.hierarchy.reach(), target);
      EXPECT_EQ(Drive(engine, *id, oracle_rest, SIZE_MAX), target);
      EXPECT_TRUE(engine.Close(*id).ok());
    }
  }
}

// ---- (2) real divergence under shifted weights -----------------------------

/// Independent divergence reference: replay `blob`'s steps through a
/// bare registry policy session built on (hierarchy, dist), counting steps
/// the planner does not reproduce. Exercises none of the engine's replay
/// code.
std::size_t ReferenceDivergence(const SerializedSession& saved,
                                const Hierarchy& h, const Distribution& dist,
                                const CostModel* costs) {
  PolicyContext context;
  context.hierarchy = &h;
  context.distribution = &dist;
  context.cost_model = costs;
  auto policy = PolicyRegistry::Global().Create(saved.policy_spec, context);
  AIGS_CHECK(policy.ok());
  auto session = (*policy)->NewSession();
  std::size_t divergent = 0;
  for (const TranscriptStep& step : saved.steps) {
    const Query planned = session->Next();
    const bool matches =
        planned.kind == step.kind &&
        (planned.kind == Query::Kind::kReach
             ? (step.nodes.size() == 1 && planned.node == step.nodes[0])
             : planned.choices == step.nodes);
    if (matches) {
      switch (step.kind) {
        case Query::Kind::kReach:
          session->OnReach(step.nodes[0], step.yes);
          break;
        case Query::Kind::kReachBatch:
          AIGS_CHECK(
              session->TryOnReachBatch(step.nodes, step.batch_answers).ok());
          break;
        case Query::Kind::kChoice:
          session->OnChoice(step.nodes, step.choice);
          break;
        case Query::Kind::kDone:
          AIGS_CHECK(false);
      }
    } else {
      ++divergent;
      AIGS_CHECK(session->TryApplyObserved(step).ok());
    }
  }
  return divergent;
}

TEST(EpochMigration, ShiftedWeightsDivergeWithExactCountsAndFlags) {
  // Candidate-state policies: these support divergent folds.
  const std::vector<std::string> specs = {"greedy", "greedy_naive", "naive",
                                          "batched:k=3", "cost_sensitive"};
  for (const MigrationCase& c : Cases()) {
    Engine engine;
    std::size_t diverged_sessions = 0;
    for (const std::string& spec : specs) {
      SCOPED_TRACE(c.name + "/" + spec);
      ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
      for (NodeId target = 0; target < c.hierarchy.NumNodes();
           target += 5) {
        ExactOracle oracle(c.hierarchy.reach(), target);
        auto id = engine.Open(spec);
        ASSERT_TRUE(id.ok());
        Drive(engine, *id, oracle, 3);
        auto blob = engine.Save(*id);
        ASSERT_TRUE(blob.ok());
        ASSERT_TRUE(engine.Close(*id).ok());

        // Shifted weights: the new epoch's planner asks different
        // questions at some prefixes.
        ASSERT_TRUE(engine.Publish(ConfigFor(c, /*shifted=*/true)).ok());
        auto migrated = engine.Migrate(*blob);
        ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();

        // The reported count matches an independent policy-level replay...
        auto saved = SessionCodec::Decode(*blob);
        ASSERT_TRUE(saved.ok());
        const std::shared_ptr<const CostModel> costs =
            SomeCosts(c.hierarchy.NumNodes());
        EXPECT_EQ(migrated->divergent_steps,
                  ReferenceDivergence(*saved, c.hierarchy, c.shifted,
                                      costs.get()));

        // ...and a re-Save carries exactly that many 'd' flags.
        auto resaved = engine.Save(migrated->id);
        ASSERT_TRUE(resaved.ok());
        auto decoded = SessionCodec::Decode(*resaved);
        ASSERT_TRUE(decoded.ok());
        std::size_t flagged = 0;
        for (const TranscriptStep& step : decoded->steps) {
          flagged += step.diverged ? 1 : 0;
        }
        EXPECT_EQ(flagged, migrated->divergent_steps);
        diverged_sessions += migrated->divergent_steps > 0 ? 1 : 0;

        // The migrated session still identifies the true target under the
        // new epoch's planner.
        ExactOracle oracle_rest(c.hierarchy.reach(), target);
        EXPECT_EQ(Drive(engine, migrated->id, oracle_rest, SIZE_MAX),
                  target);
        EXPECT_TRUE(engine.Close(migrated->id).ok());

        // Restore the unshifted epoch for the next target's recording.
        ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
      }
    }
    // Shifted Zipf weights must actually have moved some middle points —
    // otherwise this test pins nothing.
    EXPECT_GT(diverged_sessions, 0u) << c.name;
  }
}

// Trie edges are keyed by answer alone, which is sound only while each step
// answers the question planned at its parent. A diverged replay step does
// not, so the session must leave the trie: on a trie warmed by every
// target's search, a diverged session that stayed in it would read other
// sessions' questions. Cached and uncached engines must ask the same
// questions after the migration, a diverged session's later Asks all miss,
// and an undiverged one's all hit.
TEST(EpochMigration, DivergedSessionsLeaveTheTrieAndMatchAnUncachedEngine) {
  const std::vector<std::string> specs = {"greedy", "greedy_naive", "naive",
                                          "batched:k=3", "cost_sensitive"};
  EngineOptions uncached_options;
  uncached_options.plan_cache.enabled = false;
  for (const MigrationCase& c : Cases()) {
    Engine cached;
    Engine uncached(uncached_options);
    std::size_t diverged_sessions = 0;
    for (const std::string& spec : specs) {
      SCOPED_TRACE(c.name + "/" + spec);
      ASSERT_TRUE(cached.Publish(ConfigFor(c)).ok());
      std::vector<std::pair<NodeId, std::string>> blobs;
      for (NodeId target = 0; target < c.hierarchy.NumNodes(); target += 3) {
        ExactOracle oracle(c.hierarchy.reach(), target);
        auto id = cached.Open(spec);
        ASSERT_TRUE(id.ok());
        Drive(cached, *id, oracle, 3);
        auto blob = cached.Save(*id);
        ASSERT_TRUE(blob.ok());
        ASSERT_TRUE(cached.Close(*id).ok());
        blobs.emplace_back(target, *std::move(blob));
      }

      ASSERT_TRUE(cached.Publish(ConfigFor(c, /*shifted=*/true)).ok());
      ASSERT_TRUE(uncached.Publish(ConfigFor(c, /*shifted=*/true)).ok());
      for (NodeId target = 0; target < c.hierarchy.NumNodes(); ++target) {
        ExactOracle oracle(c.hierarchy.reach(), target);
        auto id = cached.Open(spec);
        ASSERT_TRUE(id.ok());
        ASSERT_EQ(Drive(cached, *id, oracle, SIZE_MAX), target);
        ASSERT_TRUE(cached.Close(*id).ok());
      }

      for (const auto& [target, blob] : blobs) {
        auto on_cached = cached.Migrate(blob);
        auto on_uncached = uncached.Migrate(blob);
        ASSERT_TRUE(on_cached.ok()) << on_cached.status().ToString();
        ASSERT_TRUE(on_uncached.ok()) << on_uncached.status().ToString();
        ASSERT_EQ(on_cached->divergent_steps, on_uncached->divergent_steps);
        const PlanCacheStats before = cached.plan_cache()->stats();
        ExactOracle oracle_cached(c.hierarchy.reach(), target);
        ExactOracle oracle_uncached(c.hierarchy.reach(), target);
        std::vector<RecordedQuery> asked_cached, asked_uncached;
        EXPECT_EQ(Drive(cached, on_cached->id, oracle_cached, SIZE_MAX,
                        &asked_cached),
                  target);
        EXPECT_EQ(Drive(uncached, on_uncached->id, oracle_uncached, SIZE_MAX,
                        &asked_uncached),
                  target);
        EXPECT_EQ(asked_cached, asked_uncached) << "target " << target;
        const PlanCacheStats after = cached.plan_cache()->stats();
        const std::uint64_t asks = asked_cached.size() + 1;
        if (on_cached->divergent_steps > 0) {
          ++diverged_sessions;
          EXPECT_EQ(after.misses - before.misses, asks);
          EXPECT_EQ(after.hits, before.hits);
        } else {
          EXPECT_EQ(after.hits - before.hits, asks);
          EXPECT_EQ(after.misses, before.misses);
        }
        EXPECT_TRUE(cached.Close(on_cached->id).ok());
        EXPECT_TRUE(uncached.Close(on_uncached->id).ok());
      }
    }
    EXPECT_GT(diverged_sessions, 0u) << c.name;
  }
}

TEST(EpochMigration, MigratedDivergentSessionResumesExactlyOnItsEpoch) {
  // A saved MIGRATED session (with 'd' flags) must round-trip through the
  // exact Resume path on the epoch it was migrated to.
  const MigrationCase c = std::move(Cases().front());
  Engine engine;
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  const NodeId target = static_cast<NodeId>(c.hierarchy.NumNodes() - 1);
  std::string diverged_blob;
  for (NodeId probe = 0; probe < c.hierarchy.NumNodes(); ++probe) {
    ExactOracle oracle(c.hierarchy.reach(), probe);
    auto id = engine.Open("greedy_naive");
    ASSERT_TRUE(id.ok());
    Drive(engine, *id, oracle, 3);
    auto blob = engine.Save(*id);
    ASSERT_TRUE(blob.ok());
    ASSERT_TRUE(engine.Close(*id).ok());
    ASSERT_TRUE(engine.Publish(ConfigFor(c, /*shifted=*/true)).ok());
    auto migrated = engine.Migrate(*blob);
    ASSERT_TRUE(migrated.ok());
    auto resaved = engine.Save(migrated->id);
    ASSERT_TRUE(resaved.ok());
    ASSERT_TRUE(engine.Close(migrated->id).ok());
    if (migrated->divergent_steps > 0) {
      diverged_blob = *resaved;
      break;
    }
    ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  }
  ASSERT_FALSE(diverged_blob.empty()) << "no probe diverged; widen the scan";
  // Resume on the CURRENT (shifted) epoch: flagged steps replay through the
  // observed fold, unflagged ones must match the planner exactly.
  auto resumed = engine.Resume(diverged_blob);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExactOracle oracle(c.hierarchy.reach(), target);
  (void)target;
  EXPECT_TRUE(engine.Close(*resumed).ok());
}

// ---- (3) divergence budget --------------------------------------------------

/// A two-branch weighted tree where the greedy first question follows the
/// heavy side: flipping the weights guarantees divergence at step 0.
struct BudgetFixture {
  Hierarchy hierarchy;
  Distribution heavy_left;
  Distribution heavy_right;

  static BudgetFixture Make() {
    Digraph g;
    g.AddNodes(7);
    g.AddEdge(0, 1);
    g.AddEdge(0, 2);
    g.AddEdge(1, 3);
    g.AddEdge(1, 4);
    g.AddEdge(2, 5);
    g.AddEdge(2, 6);
    Hierarchy h = MustBuild(std::move(g));
    auto left = Distribution::FromWeights({1, 50, 1, 40, 30, 1, 1});
    auto right = Distribution::FromWeights({1, 1, 50, 1, 1, 40, 30});
    AIGS_CHECK(left.ok() && right.ok());
    return {std::move(h), *std::move(left), *std::move(right)};
  }

  CatalogConfig Config(bool right) const {
    CatalogConfig config;
    config.hierarchy = UnownedHierarchy(hierarchy);
    config.distribution = right ? heavy_right : heavy_left;
    config.policy_specs = {"greedy", "wigs"};
    return config;
  }
};

TEST(EpochMigration, BudgetZeroRefusesDivergentReplayAndKeepsTheSession) {
  const BudgetFixture f = BudgetFixture::Make();
  EngineOptions options;
  options.migration.max_divergence = 0;
  options.migration.sweep_on_publish = false;
  Engine engine(options);
  ASSERT_TRUE(engine.Publish(f.Config(false)).ok());

  // Target 6 lives right of the root; under heavy-left weights the first
  // greedy question probes the left side, so the transcript's first step
  // cannot match the heavy-right planner.
  ExactOracle oracle(f.hierarchy.reach(), 6);
  auto id = engine.Open("greedy");
  ASSERT_TRUE(id.ok());
  std::vector<RecordedQuery> asked;
  Drive(engine, *id, oracle, 1, &asked);
  ASSERT_EQ(asked.size(), 1u);
  auto blob = engine.Save(*id);
  ASSERT_TRUE(blob.ok());

  ASSERT_TRUE(engine.Publish(f.Config(true)).ok());
  {
    // Sanity: the new epoch really asks a different first question.
    auto fresh = engine.Open("greedy");
    ASSERT_TRUE(fresh.ok());
    auto q = engine.Ask(*fresh);
    ASSERT_TRUE(q.ok());
    ASSERT_NE(QueryNodes(*q), asked[0].second);
    ASSERT_TRUE(engine.Close(*fresh).ok());
  }

  // Blob migration: budget 0 → FailedPrecondition.
  const auto from_blob = engine.Migrate(*blob);
  ASSERT_FALSE(from_blob.ok());
  EXPECT_EQ(from_blob.status().code(), StatusCode::kFailedPrecondition);

  // Live migration: same refusal, and the session stays usable on its old
  // epoch (the failed attempt must not have touched it).
  const std::uint64_t old_epoch = 1;
  const auto in_place = engine.Migrate(*id);
  ASSERT_FALSE(in_place.ok());
  EXPECT_EQ(in_place.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Stats().sessions_by_epoch.at(old_epoch), 1u);
  ExactOracle oracle_rest(f.hierarchy.reach(), 6);
  EXPECT_EQ(Drive(engine, *id, oracle_rest, SIZE_MAX), 6u);
  EXPECT_TRUE(engine.Close(*id).ok());

  // With budget 1 the same blob migrates.
  EngineOptions lenient;
  lenient.migration.max_divergence = 1;
  Engine engine2(lenient);
  ASSERT_TRUE(engine2.Publish(f.Config(true)).ok());
  auto migrated = engine2.Migrate(*blob);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  EXPECT_EQ(migrated->divergent_steps, 1u);
}

// ---- (4) adversarial and malformed inputs ----------------------------------

TEST(EpochMigration, MalformedInputsReturnStatusNeverAbort) {
  const BudgetFixture f = BudgetFixture::Make();
  Engine engine;
  ASSERT_TRUE(engine.Publish(f.Config(false)).ok());
  ExactOracle oracle(f.hierarchy.reach(), 6);
  auto id = engine.Open("greedy");
  ASSERT_TRUE(id.ok());
  Drive(engine, *id, oracle, 2);
  auto blob = engine.Save(*id);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(engine.Close(*id).ok());

  {  // Truncated blob: decoding fails cleanly.
    const std::string truncated = blob->substr(0, blob->size() / 2);
    const auto result = engine.Migrate(truncated);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Garbage: not a session at all.
    ASSERT_FALSE(engine.Migrate("not a session").ok());
  }
  {  // Wrong hierarchy: recorded node ids do not transfer.
    Rng rng(99);
    Hierarchy other = MustBuild(RandomTree(31, rng));
    CatalogConfig config;
    config.hierarchy = UnownedHierarchy(other);
    config.distribution = EqualDistribution(other.NumNodes());
    config.policy_specs = {"greedy"};
    Engine other_engine;
    ASSERT_TRUE(other_engine.Publish(std::move(config)).ok());
    const auto result = other_engine.Migrate(*blob);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // Out-of-range node id with a forged-but-matching hierarchy digest:
     // rejected by per-step shape validation, not by a crash.
    auto saved = SessionCodec::Decode(*blob);
    ASSERT_TRUE(saved.ok());
    ASSERT_FALSE(saved->steps.empty());
    saved->steps[0].nodes[0] = 4000000;
    const auto result = engine.Migrate(SessionCodec::Encode(*saved));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  }
  {  // v1 blob (no hierarchy digest): only the exact-fingerprint case
     // qualifies for migration; after a weight shift it must refuse.
    auto saved = SessionCodec::Decode(*blob);
    ASSERT_TRUE(saved.ok());
    saved->hierarchy_fingerprint = 0;
    const std::string v1ish = SessionCodec::Encode(*saved);
    ASSERT_TRUE(engine.Migrate(v1ish).ok());  // fingerprint still current
    ASSERT_TRUE(engine.Publish(f.Config(true)).ok());
    const auto result = engine.Migrate(v1ish);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(EpochMigration, LikelihoodOrderedMigsAbsorbsShiftedWeightDivergence) {
  // migs:ordered batches categories by reach weight, so shifted weights
  // genuinely reorder its questions. PR 6 gives the phase automata
  // observed-step folds: migration must now SUCCEED across the shift, with
  // exact divergence counts, and still identify the true target.
  for (const MigrationCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    Engine engine;
    std::size_t diverged_sessions = 0;
    for (NodeId target = 0; target < c.hierarchy.NumNodes(); target += 5) {
      ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
      ExactOracle oracle(c.hierarchy.reach(), target);
      auto id = engine.Open("migs:ordered=true");
      ASSERT_TRUE(id.ok());
      Drive(engine, *id, oracle, 3);
      auto blob = engine.Save(*id);
      ASSERT_TRUE(blob.ok());
      ASSERT_TRUE(engine.Close(*id).ok());

      ASSERT_TRUE(engine.Publish(ConfigFor(c, /*shifted=*/true)).ok());
      auto migrated = engine.Migrate(*blob);
      ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
      auto saved = SessionCodec::Decode(*blob);
      ASSERT_TRUE(saved.ok());
      const std::shared_ptr<const CostModel> costs =
          SomeCosts(c.hierarchy.NumNodes());
      EXPECT_EQ(migrated->divergent_steps,
                ReferenceDivergence(*saved, c.hierarchy, c.shifted,
                                    costs.get()));
      diverged_sessions += migrated->divergent_steps > 0 ? 1 : 0;

      ExactOracle rest(c.hierarchy.reach(), target);
      EXPECT_EQ(Drive(engine, migrated->id, rest, SIZE_MAX), target);
      EXPECT_TRUE(engine.Close(migrated->id).ok());
    }
    // The shift must actually have reordered some batches — otherwise this
    // test pins nothing.
    EXPECT_GT(diverged_sessions, 0u);
  }
}

TEST(EpochMigration, ObliviousPhaseAutomataFoldInjectedObservedSteps) {
  // wigs and top_down ignore the distribution, so weight shifts alone
  // never diverge them. Synthesize divergence instead: prepend a
  // consistent fact their planner would not ask — "reach 4 no" (node 4 is
  // a leaf off the heavy path, and the target 6 is not under it). The
  // fold must absorb it (divergent_steps == 1) and the rest of the
  // transcript must still replay exactly to the true target.
  const BudgetFixture f = BudgetFixture::Make();
  for (const std::string& spec : {std::string("wigs"),
                                  std::string("top_down")}) {
    SCOPED_TRACE(spec);
    CatalogConfig config = f.Config(false);
    config.policy_specs = {"greedy", "wigs", "top_down"};
    Engine engine;
    ASSERT_TRUE(engine.Publish(std::move(config)).ok());
    ExactOracle oracle(f.hierarchy.reach(), 6);
    auto id = engine.Open(spec);
    ASSERT_TRUE(id.ok());
    Drive(engine, *id, oracle, 2);
    auto blob = engine.Save(*id);
    ASSERT_TRUE(blob.ok());
    ASSERT_TRUE(engine.Close(*id).ok());

    auto saved = SessionCodec::Decode(*blob);
    ASSERT_TRUE(saved.ok());
    TranscriptStep injected;
    injected.kind = Query::Kind::kReach;
    injected.nodes = {4};
    injected.yes = false;
    saved->steps.insert(saved->steps.begin(), injected);

    auto migrated = engine.Migrate(SessionCodec::Encode(*saved));
    ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
    EXPECT_EQ(migrated->divergent_steps, 1u);
    ExactOracle rest(f.hierarchy.reach(), 6);
    EXPECT_EQ(Drive(engine, migrated->id, rest, SIZE_MAX), 6u);
    EXPECT_TRUE(engine.Close(migrated->id).ok());
  }
}

TEST(EpochMigration, ContradictoryObservedStepsStillRefuseGracefully) {
  // A crafted blob whose observed step contradicts the transcript (a
  // "none of these"/no that rules out the path the picks descended) must
  // fail with a Status, never the fatal in-process path, and leave no
  // session behind.
  const BudgetFixture f = BudgetFixture::Make();
  Engine engine;
  ASSERT_TRUE(engine.Publish(f.Config(false)).ok());
  ExactOracle oracle(f.hierarchy.reach(), 6);
  auto id = engine.Open("wigs");
  ASSERT_TRUE(id.ok());
  Drive(engine, *id, oracle, 2);
  auto blob = engine.Save(*id);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(engine.Close(*id).ok());

  auto saved = SessionCodec::Decode(*blob);
  ASSERT_TRUE(saved.ok());
  // "Target not under the root" contradicts everything.
  TranscriptStep poison;
  poison.kind = Query::Kind::kReach;
  poison.nodes = {0};
  poison.yes = false;
  saved->steps.insert(saved->steps.begin(), poison);
  const auto result = engine.Migrate(SessionCodec::Encode(*saved));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---- (5) the publish sweep --------------------------------------------------

/// Opens a `greedy` session for `target` and answers its first `depth`
/// questions without asking the next one, so the session is idle (the
/// sweep migrates it). Returns nullopt, after closing the session, when
/// the search identifies the target sooner.
std::optional<SessionId> ParkIdleAtDepth(Engine& engine, const Hierarchy& h,
                                         NodeId target, std::size_t depth) {
  const auto id = engine.Open("greedy");
  AIGS_CHECK(id.ok());
  ExactOracle oracle(h.reach(), target);
  for (std::size_t step = 0; step < depth; ++step) {
    const auto q = engine.Ask(*id);
    AIGS_CHECK(q.ok());
    if (q->kind == Query::Kind::kDone) {
      AIGS_CHECK(engine.Close(*id).ok());
      return std::nullopt;
    }
    AIGS_CHECK(engine.Answer(*id, AnswerFromOracle(*q, oracle)).ok());
  }
  return *id;
}

// The sweep's replays are the only thing that refills a new epoch's trie
// before live traffic does: with unchanged weights every parked session's
// prefix is re-planned, so a fresh session asks through it on hits alone.
TEST(EpochMigration, PublishSweepFillsTheFreshTrie) {
  constexpr std::size_t kDepth = 4;
  for (const MigrationCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    Engine engine;  // sweep_on_publish defaults on
    ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
    std::vector<NodeId> parked;
    for (NodeId target = 0; target < c.hierarchy.NumNodes(); ++target) {
      if (ParkIdleAtDepth(engine, c.hierarchy, target, kDepth)) {
        parked.push_back(target);
      }
    }
    ASSERT_FALSE(parked.empty());

    ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
    engine.WaitForDrain();
    const EngineStats stats = engine.Stats();
    EXPECT_EQ(stats.sessions_by_epoch.count(1), 0u);
    EXPECT_EQ(stats.drain.migrated, parked.size());
    const std::shared_ptr<PlanCache> trie = engine.plan_cache();
    ASSERT_NE(trie, nullptr);
    const PlanCacheStats filled = trie->stats();
    EXPECT_EQ(filled.hits + filled.misses, 0u)
        << "no Ask reached epoch 2 yet; every insert is a sweep replay";
    EXPECT_GE(filled.inserts, kDepth);

    const NodeId target = parked.front();
    ExactOracle oracle(c.hierarchy.reach(), target);
    const auto id = engine.Open("greedy");
    ASSERT_TRUE(id.ok());
    for (std::size_t step = 0; step < kDepth; ++step) {
      const auto q = engine.Ask(*id);
      ASSERT_TRUE(q.ok());
      ASSERT_NE(q->kind, Query::Kind::kDone);
      ASSERT_TRUE(engine.Answer(*id, AnswerFromOracle(*q, oracle)).ok());
    }
    const PlanCacheStats after = trie->stats();
    EXPECT_EQ(after.hits - filled.hits, kDepth);
    EXPECT_EQ(after.misses, filled.misses);
  }
}

TEST(EpochMigration, PublishSweepMigratesIdleSessionsAndSkipsMidQuestion) {
  const MigrationCase c = std::move(Cases().front());
  Engine engine;  // sweep_on_publish defaults on
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());

  // An idle session: answered its last shown question (no pending).
  const NodeId target = static_cast<NodeId>(c.hierarchy.NumNodes() - 1);
  ExactOracle idle_oracle(c.hierarchy.reach(), target);
  auto idle = engine.Open("greedy_naive");
  ASSERT_TRUE(idle.ok());
  Drive(engine, *idle, idle_oracle, 2);
  {
    // Drain the resolved pending question so the session sits between an
    // answer and its next Ask — the sweep's definition of migratable.
    auto q = engine.Ask(*idle);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.Answer(*idle, AnswerFromOracle(*q, idle_oracle))
                    .ok());
  }
  // A mid-question session: the client was shown a question and owes the
  // answer; migrating would change it under them.
  auto waiting = engine.Open("greedy_naive");
  ASSERT_TRUE(waiting.ok());
  ASSERT_TRUE(engine.Ask(*waiting).ok());

  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  engine.WaitForDrain();  // the sweep runs on the background worker
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.epoch, 2u);
  ASSERT_EQ(stats.sessions_by_epoch.count(1), 1u);
  EXPECT_EQ(stats.sessions_by_epoch.at(1), 1u);  // the mid-question one
  EXPECT_EQ(stats.sessions_by_epoch.at(2), 1u);  // the idle one migrated
  EXPECT_GE(stats.sessions_migrated, 1u);

  // Both still finish correctly on their respective epochs.
  ExactOracle rest_idle(c.hierarchy.reach(), target);
  ExactOracle rest_waiting(c.hierarchy.reach(), target);
  EXPECT_EQ(Drive(engine, *idle, rest_idle, SIZE_MAX), target);
  EXPECT_EQ(Drive(engine, *waiting, rest_waiting, SIZE_MAX), target);
  EXPECT_TRUE(engine.Close(*idle).ok());
  EXPECT_TRUE(engine.Close(*waiting).ok());
}

TEST(EpochMigration, ExplicitMigrateForcesReAskBeforeAnswering) {
  const MigrationCase c = std::move(Cases().front());
  EngineOptions options;
  options.migration.sweep_on_publish = false;
  Engine engine(options);
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  const NodeId target = static_cast<NodeId>(c.hierarchy.NumNodes() - 1);
  ExactOracle oracle(c.hierarchy.reach(), target);
  auto id = engine.Open("greedy_naive");
  ASSERT_TRUE(id.ok());
  auto shown = engine.Ask(*id);
  ASSERT_TRUE(shown.ok());

  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  auto migrated = engine.Migrate(*id);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();

  // Answering the stale question must be rejected until a fresh Ask.
  const Status stale =
      engine.Answer(*id, AnswerFromOracle(*shown, oracle));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  ExactOracle rest(c.hierarchy.reach(), target);
  EXPECT_EQ(Drive(engine, *id, rest, SIZE_MAX), target);
  EXPECT_TRUE(engine.Close(*id).ok());
}

}  // namespace
}  // namespace aigs
