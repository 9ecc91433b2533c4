// PlanCache (PR 4): the shared per-epoch question-plan trie behind
// Engine::Ask, and the pure-planner split it relies on.
//  (1) cached and uncached engines emit bit-identical question transcripts
//      for every registry policy on tree and DAG hierarchies (the hard
//      guarantee that makes the cache a pure throughput knob);
//  (2) hits actually happen: a second session at a shared prefix reads the
//      trie instead of running the planner;
//  (3) concurrent multi-session stress over one shared trie (run under
//      ASan/TSan in CI);
//  (4) eviction under a tiny memory budget keeps results exact and the
//      resident size bounded;
//  (5) an epoch hot-swap drops the old trie with its snapshot refcount —
//      live sessions keep their epoch's plans, new sessions start cold;
//  (6) no depth cap: a repeated deep search hits at every depth;
//  (7) PlanCache unit behavior: answer-keyed interning, CLOCK eviction,
//      counters, and the per-node byte bound.
#include "service/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/aigs.h"
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

/// Runs one search to completion, recording every asked question; returns
/// the identified target.
NodeId DriveToEnd(Engine& engine, SessionId id, Oracle& oracle,
                  std::vector<RecordedQuery>* recorded) {
  for (;;) {
    const auto q = engine.Ask(id);
    AIGS_CHECK(q.ok());
    if (q->kind == Query::Kind::kDone) {
      return q->node;
    }
    if (recorded != nullptr) {
      recorded->emplace_back(q->kind, QueryNodes(*q));
    }
    const Status s = engine.Answer(id, AnswerFromOracle(*q, oracle));
    AIGS_CHECK(s.ok());
  }
}

struct CacheCase {
  std::string name;
  Hierarchy hierarchy;
  Distribution distribution;
};

std::vector<CacheCase> CacheCases() {
  std::vector<CacheCase> cases;
  Rng rng(4242);
  Hierarchy tree = MustBuild(RandomTree(48, rng));
  Distribution tree_dist = ZipfRandomDistribution(tree.NumNodes(), 2.0, rng);
  cases.push_back({"tree", std::move(tree), std::move(tree_dist)});
  Hierarchy dag = MustBuild(RandomDag(48, rng, 0.4));
  Distribution dag_dist = ZipfRandomDistribution(dag.NumNodes(), 2.0, rng);
  cases.push_back({"dag", std::move(dag), std::move(dag_dist)});
  return cases;
}

/// Every registry policy spec the hierarchy supports (mirrors
/// test_service.cc; the scripted policy gets a complete question order).
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

CatalogConfig ConfigFor(const CacheCase& c) {
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(c.hierarchy);
  config.distribution = c.distribution;
  config.cost_model = SomeCosts(c.hierarchy.NumNodes());
  config.policy_specs = SpecsFor(c.hierarchy);
  return config;
}

EngineOptions CachedOptions(PlanCacheOptions cache = {}) {
  EngineOptions options;
  options.plan_cache = cache;
  return options;
}

EngineOptions UncachedOptions() {
  EngineOptions options;
  options.plan_cache.enabled = false;
  return options;
}

// ---- (1) the hard guarantee: bit-identical transcripts ---------------------

TEST(PlanCacheEquivalence, EveryPolicyEveryTargetTreeAndDag) {
  for (const CacheCase& c : CacheCases()) {
    Engine cached(CachedOptions());
    Engine uncached(UncachedOptions());
    ASSERT_TRUE(cached.Publish(ConfigFor(c)).ok());
    ASSERT_TRUE(uncached.Publish(ConfigFor(c)).ok());
    ASSERT_NE(cached.plan_cache(), nullptr);
    ASSERT_EQ(uncached.plan_cache(), nullptr);
    for (const std::string& spec : SpecsFor(c.hierarchy)) {
      SCOPED_TRACE(c.name + "/" + spec);
      for (NodeId target = 0; target < c.hierarchy.NumNodes(); ++target) {
        ExactOracle oracle_a(c.hierarchy.reach(), target);
        ExactOracle oracle_b(c.hierarchy.reach(), target);
        auto id_a = cached.Open(spec);
        auto id_b = uncached.Open(spec);
        ASSERT_TRUE(id_a.ok() && id_b.ok());
        std::vector<RecordedQuery> asked_cached, asked_uncached;
        const NodeId found_cached =
            DriveToEnd(cached, *id_a, oracle_a, &asked_cached);
        const NodeId found_uncached =
            DriveToEnd(uncached, *id_b, oracle_b, &asked_uncached);
        ASSERT_EQ(asked_cached, asked_uncached) << "target " << target;
        EXPECT_EQ(found_cached, target);
        EXPECT_EQ(found_uncached, target);
        EXPECT_TRUE(cached.Close(*id_a).ok());
        EXPECT_TRUE(uncached.Close(*id_b).ok());
      }
    }
    // Every target enumerated against every policy: the trie took real
    // traffic, and the shared prefixes produced real hits.
    const PlanCacheStats stats = cached.Stats().plan_cache;
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.inserts, 0u);
  }
}

// ---- (2) hits happen at shared prefixes ------------------------------------

TEST(PlanCache, SecondSessionAtSamePrefixHitsEveryStep) {
  const CacheCase c = std::move(CacheCases().front());
  Engine engine(CachedOptions());
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());

  const NodeId target = static_cast<NodeId>(c.hierarchy.NumNodes() - 1);
  ExactOracle oracle_a(c.hierarchy.reach(), target);
  auto first = engine.Open("greedy_naive");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(DriveToEnd(engine, *first, oracle_a, nullptr), target);

  const PlanCacheStats after_first = engine.plan_cache()->stats();
  // The first session misses at every depth (each Ask populates the trie).
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GT(after_first.inserts, 0u);

  // An identical second search walks the warm path end to end: same
  // transcript, zero additional misses.
  ExactOracle oracle_b(c.hierarchy.reach(), target);
  auto second = engine.Open("greedy_naive");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(DriveToEnd(engine, *second, oracle_b, nullptr), target);
  const PlanCacheStats after_second = engine.plan_cache()->stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, 0u);
}

// ---- (3) concurrent stress over one shared trie ----------------------------

TEST(PlanCache, ConcurrentSessionsShareOneTrie) {
  const CacheCase c = std::move(CacheCases().front());
  // A small budget keeps eviction in play while threads hammer the stripes.
  PlanCacheOptions cache;
  cache.max_bytes = 16u << 10;
  cache.num_stripes = 4;
  Engine engine(CachedOptions(cache));
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());

  constexpr int kThreads = 8;
  constexpr int kSearchesPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      const std::vector<std::string> specs = {"greedy", "greedy_naive",
                                              "batched:k=3", "wigs"};
      for (int i = 0; i < kSearchesPerThread; ++i) {
        const NodeId target =
            static_cast<NodeId>(rng.UniformInt(c.hierarchy.NumNodes()));
        ExactOracle oracle(c.hierarchy.reach(), target);
        const auto id = engine.Open(specs[i % specs.size()]);
        if (!id.ok()) {
          ++failures;
          return;
        }
        if (DriveToEnd(engine, *id, oracle, nullptr) != target) {
          ++failures;
        }
        (void)engine.Close(*id);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const PlanCacheStats stats = engine.Stats().plan_cache;
  EXPECT_GT(stats.hits, 0u);
}

// ---- (4) eviction under budget ---------------------------------------------

TEST(PlanCache, EvictionKeepsResultsExactAndBytesBounded) {
  const CacheCase c = std::move(CacheCases().front());
  PlanCacheOptions cache;
  cache.max_bytes = 4u << 10;  // a few dozen entries at most
  cache.num_stripes = 2;
  Engine engine(CachedOptions(cache));
  Engine reference(UncachedOptions());
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  ASSERT_TRUE(reference.Publish(ConfigFor(c)).ok());

  for (NodeId target = 0; target < c.hierarchy.NumNodes(); ++target) {
    ExactOracle oracle_a(c.hierarchy.reach(), target);
    ExactOracle oracle_b(c.hierarchy.reach(), target);
    const auto id_a = engine.Open("greedy_naive");
    const auto id_b = reference.Open("greedy_naive");
    ASSERT_TRUE(id_a.ok() && id_b.ok());
    std::vector<RecordedQuery> asked_evicting, asked_reference;
    EXPECT_EQ(DriveToEnd(engine, *id_a, oracle_a, &asked_evicting), target);
    EXPECT_EQ(DriveToEnd(reference, *id_b, oracle_b, &asked_reference),
              target);
    EXPECT_EQ(asked_evicting, asked_reference);
  }
  const PlanCacheStats stats = engine.Stats().plan_cache;
  EXPECT_GT(stats.evictions, 0u);
  // Per-stripe budgets are enforced up to one resident oversized entry.
  EXPECT_LE(stats.bytes, cache.max_bytes + 512);
}

// ---- (5) epoch hot-swap drops the old trie ---------------------------------

TEST(PlanCache, PublishStartsAFreshTrieAndOldSessionsKeepTheirs) {
  const CacheCase c = std::move(CacheCases().front());
  // This test pins the PR-4 epoch-pinning path: publish must NOT disturb
  // live sessions or fill the fresh trie. The migration sweep (on by
  // default) is therefore explicitly disabled;
  // tests/test_epoch_migration.cc covers it.
  EngineOptions pinned = CachedOptions();
  pinned.migration.sweep_on_publish = false;
  Engine engine(pinned);
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  const std::shared_ptr<PlanCache> first_trie = engine.plan_cache();

  // Warm epoch 1 with one full search and keep a live session on it.
  const NodeId target = static_cast<NodeId>(c.hierarchy.NumNodes() - 1);
  ExactOracle warm_oracle(c.hierarchy.reach(), target);
  auto warm = engine.Open("greedy_naive");
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(DriveToEnd(engine, *warm, warm_oracle, nullptr), target);
  auto live = engine.Open("greedy_naive");
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(engine.Ask(*live).ok());
  const PlanCacheStats first_stats = first_trie->stats();
  EXPECT_GT(first_stats.inserts, 0u);

  // Publish epoch 2: the engine swaps to an empty trie; the live session
  // still holds epoch 1's (refcounted alongside its snapshot).
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  const std::shared_ptr<PlanCache> second_trie = engine.plan_cache();
  ASSERT_NE(second_trie, nullptr);
  EXPECT_NE(first_trie.get(), second_trie.get());
  EXPECT_EQ(second_trie->stats().entries, 0u);

  // Epoch bookkeeping: one session on epoch 1, new ones land on epoch 2.
  auto fresh = engine.Open("greedy_naive");
  ASSERT_TRUE(fresh.ok());
  const EngineStats engine_stats = engine.Stats();
  EXPECT_EQ(engine_stats.epoch, 2u);
  EXPECT_EQ(engine_stats.sessions_by_epoch.at(1), 2u);  // warm + live
  EXPECT_EQ(engine_stats.sessions_by_epoch.at(2), 1u);

  // The live epoch-1 session still completes exactly — and its Asks only
  // ever touch epoch 1's trie (epoch 2's counters stay untouched by it).
  ExactOracle live_oracle(c.hierarchy.reach(), target);
  const PlanCacheStats second_before = second_trie->stats();
  EXPECT_EQ(DriveToEnd(engine, *live, live_oracle, nullptr), target);
  EXPECT_EQ(second_trie->stats().hits + second_trie->stats().misses,
            second_before.hits + second_before.misses);
  EXPECT_GT(first_trie->stats().hits, first_stats.hits);
}

// ---- (6) no depth cap ------------------------------------------------------

TEST(PlanCache, DeepTranscriptHitsAtEveryDepth) {
  // A 40-node path: top_down asks one question per level on the way to the
  // bottom, and every prefix of that transcript, however deep, enters the
  // trie.
  constexpr std::size_t kLevels = 40;
  Digraph path;
  path.AddNodes(kLevels);
  for (NodeId v = 0; v + 1 < kLevels; ++v) {
    path.AddEdge(v, v + 1);
  }
  Rng rng(99);
  CacheCase c{"path", MustBuild(std::move(path)),
              ZipfRandomDistribution(kLevels, 2.0, rng)};
  Engine engine(CachedOptions());
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());

  const NodeId target = static_cast<NodeId>(kLevels - 1);
  ExactOracle oracle_a(c.hierarchy.reach(), target);
  auto first = engine.Open("top_down");
  ASSERT_TRUE(first.ok());
  std::vector<RecordedQuery> asked;
  ASSERT_EQ(DriveToEnd(engine, *first, oracle_a, &asked), target);
  ASSERT_GE(asked.size(), kLevels - 1);
  const PlanCacheStats after_first = engine.plan_cache()->stats();
  EXPECT_EQ(after_first.inserts, asked.size() + 1);

  // One Ask per question plus the final kDone one, at transcript depths
  // 0..asked.size(): an identical second search hits every one of them.
  ExactOracle oracle_b(c.hierarchy.reach(), target);
  auto second = engine.Open("top_down");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(DriveToEnd(engine, *second, oracle_b, nullptr), target);
  const PlanCacheStats after_second = engine.plan_cache()->stats();
  EXPECT_EQ(after_second.hits - after_first.hits, asked.size() + 1);
  EXPECT_EQ(after_second.misses - after_first.misses, 0u);
}

// ---- (7) PlanCache unit behavior (interned-trie API) -----------------------

TEST(PlanCacheUnit, InternedRollingKeyMissThenHit) {
  PlanCache cache(PlanCacheOptions{});
  const PlanPrefixId root = cache.RootFor("greedy");
  ASSERT_NE(root, kNoPlanPrefix);
  EXPECT_FALSE(cache.Lookup(root).has_value());
  cache.Insert(root, Query::ReachQuery(5));
  const auto hit = cache.Lookup(root);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, Query::Kind::kReach);
  EXPECT_EQ(hit->node, 5u);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(PlanCacheUnit, InterningIsStableAndPerSpec) {
  PlanCache cache(PlanCacheOptions{});
  const PlanPrefixId a = cache.RootFor("greedy");
  const PlanPrefixId b = cache.RootFor("wigs");
  EXPECT_NE(a, b);  // distinct specs never share a trie position
  EXPECT_EQ(cache.RootFor("greedy"), a);  // interning is idempotent
  const PlanPrefixId a1 = cache.Advance(a, 1);
  EXPECT_EQ(cache.Advance(a, 1), a1);
  EXPECT_NE(cache.Advance(a, 0), a1);
  EXPECT_NE(cache.Advance(b, 1), a1);  // same answer, other root
  // Deeper sessions keep advancing in O(1): each id depends only on
  // (parent id, answer code), never on re-encoding the whole transcript.
  const PlanPrefixId a2 = cache.Advance(a1, 0);
  EXPECT_EQ(cache.Advance(a1, 0), a2);
  // A session that left the trie stays out of it.
  EXPECT_EQ(cache.Advance(kNoPlanPrefix, 1), kNoPlanPrefix);
}

TEST(PlanCacheUnit, LookupChildInternsThenLooksUp) {
  PlanCache cache(PlanCacheOptions{});
  const PlanPrefixId root = cache.RootFor("greedy");
  PlanPrefixId at = root;
  EXPECT_FALSE(cache.LookupChild(&at, 1).has_value());  // interned only
  EXPECT_EQ(at, cache.Advance(root, 1));
  cache.Insert(at, Query::ReachQuery(9));
  PlanPrefixId again = root;
  const auto hit = cache.LookupChild(&again, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->node, 9u);
  EXPECT_EQ(again, at);
  PlanPrefixId outside = kNoPlanPrefix;  // a session that left the trie
  EXPECT_FALSE(cache.LookupChild(&outside, 1).has_value());
  EXPECT_EQ(outside, kNoPlanPrefix);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheUnit, LookupOfUnknownOrUnplannedIdMisses) {
  PlanCache cache(PlanCacheOptions{});
  EXPECT_FALSE(cache.Lookup(kNoPlanPrefix).has_value());
  EXPECT_FALSE(cache.Lookup(987654321u).has_value());  // never interned
  const PlanPrefixId root = cache.RootFor("greedy");
  EXPECT_FALSE(cache.Lookup(root).has_value());  // interned, not planned
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(PlanCacheUnit, ClockEvictsColdEntriesAndPathsReinternFresh) {
  PlanCacheOptions options;
  options.max_bytes = 900;  // room for only a few nodes in one stripe
  options.num_stripes = 1;
  PlanCache cache(options);
  const PlanPrefixId root = cache.RootFor("g");
  std::vector<PlanPrefixId> ids;
  for (std::uint32_t i = 0; i < 16; ++i) {
    const PlanPrefixId id = cache.Advance(root, i);  // 16 choice answers
    cache.Insert(id, Query::ReachQuery(static_cast<NodeId>(i)));
    ids.push_back(id);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.stats().bytes, 900u + 512u);
  // The earliest ids were evicted: stale ids miss (correctness never
  // depended on residency), and re-advancing interns a FRESH id.
  EXPECT_FALSE(cache.Lookup(ids.front()).has_value());
  const PlanPrefixId fresh = cache.Advance(root, 0);
  EXPECT_NE(fresh, ids.front());
  // ...which serves the path again after a re-insert.
  cache.Insert(fresh, Query::ReachQuery(0));
  EXPECT_TRUE(cache.Lookup(fresh).has_value());
}

TEST(PlanCacheUnit, EdgeTableKeepsEveryLiveEdgeUnderChurn) {
  // A 64-node budget over 256 children of one root: nearly every Advance
  // evicts, so edge cells are deleted and shifted constantly. A live node
  // must stay reachable by its edge — re-advancing a key mints a new id
  // only after the old one was evicted.
  PlanCacheOptions options;
  options.max_bytes = 64 * 72;
  options.num_stripes = 1;
  PlanCache cache(options);
  const PlanPrefixId root = cache.RootFor("g");
  Rng rng(5);
  std::vector<PlanPrefixId> last(256, kNoPlanPrefix);
  for (int i = 0; i < 20'000; ++i) {
    const auto answer = static_cast<std::uint32_t>(rng.UniformInt(256));
    const PlanPrefixId id = cache.Advance(root, answer);
    cache.Insert(id, Query::ReachQuery(answer));
    const auto hit = cache.Lookup(id);
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(hit->node, answer);
    if (last[answer] != kNoPlanPrefix && last[answer] != id) {
      ASSERT_FALSE(cache.Lookup(last[answer]).has_value()) << "step " << i;
    }
    last[answer] = id;
  }
  EXPECT_GT(cache.stats().evictions, 10'000u);
}

TEST(PlanCacheUnit, ReinsertRefreshesWithoutDoubleCounting) {
  PlanCacheOptions options;
  options.num_stripes = 1;
  PlanCache cache(options);
  const PlanPrefixId id = cache.RootFor("k");
  cache.Insert(id, Query::ReachQuery(1));
  const std::size_t bytes = cache.stats().bytes;
  cache.Insert(id, Query::ReachQuery(1));
  EXPECT_EQ(cache.stats().bytes, bytes);
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(PlanCacheUnit, BatchQueriesRoundTrip) {
  PlanCache cache(PlanCacheOptions{});
  const PlanPrefixId id =
      cache.Advance(cache.RootFor("batched"), 1);
  cache.Insert(id, Query::ReachBatch({7, 9, 11}));
  const auto hit = cache.Lookup(id);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, Query::Kind::kReachBatch);
  EXPECT_EQ(hit->choices, (std::vector<NodeId>{7, 9, 11}));
}

TEST(PlanCacheUnit, EdgesAreKeyedByAnswerCode) {
  TranscriptStep reach;
  reach.kind = Query::Kind::kReach;
  reach.nodes = {4};
  reach.yes = true;
  EXPECT_EQ(PlanCache::EdgeOf(reach), 1u);
  TranscriptStep choice;
  choice.kind = Query::Kind::kChoice;
  choice.nodes = {2, 5, 9};
  choice.choice = -1;  // "none of these"
  EXPECT_EQ(PlanCache::EdgeOf(choice), 0u);
  choice.choice = 2;
  EXPECT_EQ(PlanCache::EdgeOf(choice), 3u);
  TranscriptStep batch;
  batch.kind = Query::Kind::kReachBatch;
  batch.nodes = {1, 2, 3};
  batch.batch_answers = {true, false, true};
  EXPECT_EQ(PlanCache::EdgeOf(batch), 0b101u);
  // No edge: a batch too wide for the code, or a step that did not answer
  // the question planned at its parent.
  batch.nodes.assign(33, 1);
  batch.batch_answers.assign(33, false);
  EXPECT_FALSE(PlanCache::EdgeOf(batch).has_value());
  reach.diverged = true;
  EXPECT_FALSE(PlanCache::EdgeOf(reach).has_value());
}

TEST(PackedTranscriptUnit, EveryStepDecodesEncodesAndKeepsItsEdge) {
  constexpr auto kReach = Query::Kind::kReach;
  constexpr auto kBatch = Query::Kind::kReachBatch;
  constexpr auto kChoice = Query::Kind::kChoice;
  const auto pattern = [](std::size_t n) {
    std::vector<bool> answers(n);
    for (std::size_t j = 0; j < n; ++j) {
      answers[j] = j % 3 == 0 || j + 1 == n;
    }
    return answers;
  };
  const auto nodes = [](std::size_t n) {
    std::vector<NodeId> out(n);
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = static_cast<NodeId>(1000 - j);
    }
    return out;
  };
  const std::vector<TranscriptStep> steps = {
      {kReach, {4294967294u}, true, {}, -1, false},
      {kReach, {0}, false, {}, -1, true},
      {kBatch, {1, 2, 3}, false, {true, false, true}, -1, false},
      {kBatch, nodes(32), false, std::vector<bool>(32, true), -1, false},
      {kBatch, nodes(33), false, pattern(33), -1, false},
      {kBatch, nodes(70), false, pattern(70), -1, true},
      {kChoice, {2, 5, 9}, false, {}, -1, false},
      {kChoice, {2, 5, 9}, false, {}, 2, true},
      {kChoice, {7}, false, {}, 0, false},
      {kReach, {12}, true, {}, -1, false},
  };
  PackedTranscript packed;
  for (const TranscriptStep& step : steps) {
    packed.Append(step, step.diverged);
  }
  const PackedTranscript moved = std::move(packed);
  ASSERT_EQ(moved.size(), steps.size());
  EXPECT_EQ(moved.NumDiverged(), 3u);
  TranscriptStep decoded;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    SCOPED_TRACE(i);
    moved.Decode(i, &decoded);
    EXPECT_EQ(decoded, steps[i]);
    EXPECT_EQ(moved.EdgeOf(i), PlanCache::EdgeOf(steps[i]));
    std::string from_step;
    std::string from_word;
    SessionCodec::AppendStepKey(steps[i], &from_step);
    SessionCodec::AppendStepKey(moved, i, &from_word);
    EXPECT_EQ(from_word, from_step);
  }
}

TEST(PackedTranscriptUnit, GrowsOneWordPerReachStep) {
  PackedTranscript packed;
  for (NodeId i = 0; i < 1000; ++i) {
    packed.AppendReach(i, i % 2 == 0);
  }
  ASSERT_EQ(packed.size(), 1000u);
  for (NodeId i = 0; i < 1000; ++i) {
    EXPECT_EQ(packed.kind(i), Query::Kind::kReach);
    EXPECT_EQ(packed.node(i), i);
    EXPECT_EQ(packed.yes(i), i % 2 == 0);
    EXPECT_FALSE(packed.diverged(i));
  }
}

TEST(PlanCacheUnit, ReachNodesStayWithinNinetySixBytes) {
  PlanCache cache(PlanCacheOptions{});
  PlanPrefixId id = cache.RootFor("greedy");
  constexpr std::uint32_t kNodes = 10'000;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    id = cache.Advance(id, i & 1);
    cache.Insert(id, Query::ReachQuery(i));
  }
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, kNodes + 1);  // the root too
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.bytes / stats.entries, 96u);
}

}  // namespace
}  // namespace aigs
