// Service layer: Engine/CatalogSnapshot/SessionManager/SessionCodec.
//  (1) save→restore round-trips produce bit-identical remaining question
//      transcripts for every registry policy on tree and DAG hierarchies;
//  (2) the SessionManager under concurrent traffic and TTL eviction;
//  (3) Status rejections (never aborts) for mismatched answer kinds;
//  (4) snapshot epochs: hot swap keeps live sessions on their epoch;
//  (5) the Evaluator's engine-driven path matches the in-process path;
//  (6) catalog digests are pinned to fixed values.
#include "service/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/aigs.h"
#include "eval/evaluator.h"
#include "eval/runner.h"
#include "graph/generators.h"
#include "oracle/oracle.h"
#include "service/session_codec.h"
#include "tests/test_support.h"
#include "util/rng.h"

namespace aigs {
namespace {

using testing::MustBuild;

// One recorded question: kind + the queried node(s).
using RecordedQuery = std::pair<Query::Kind, std::vector<NodeId>>;

std::vector<NodeId> QueryNodes(const Query& q) {
  return q.kind == Query::Kind::kReach ? std::vector<NodeId>{q.node}
                                       : q.choices;
}

/// Answers up to `max_steps` questions (all when max_steps is huge),
/// recording each query; returns the identified target when the session
/// finished, kInvalidNode otherwise.
NodeId Drive(Engine& engine, SessionId id, Oracle& oracle,
             std::size_t max_steps, std::vector<RecordedQuery>* recorded) {
  for (std::size_t step = 0; step < max_steps; ++step) {
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
  return kInvalidNode;
}

struct ServiceCase {
  std::string name;
  Hierarchy hierarchy;
  Distribution distribution;
};

std::vector<ServiceCase> ServiceCases() {
  std::vector<ServiceCase> cases;
  Rng rng(99);
  Hierarchy tree = MustBuild(RandomTree(45, rng));
  Distribution tree_dist = ZipfRandomDistribution(tree.NumNodes(), 2.0, rng);
  cases.push_back({"tree", std::move(tree), std::move(tree_dist)});
  Hierarchy dag = MustBuild(RandomDag(45, rng, 0.4));
  Distribution dag_dist = ZipfRandomDistribution(dag.NumNodes(), 2.0, rng);
  cases.push_back({"dag", std::move(dag), std::move(dag_dist)});
  return cases;
}

/// Every registry policy name, with options where defaults need a nudge,
/// restricted to what the hierarchy supports. The scripted policy gets a
/// complete question order (every non-root node) so any target is
/// identifiable.
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

CatalogConfig ConfigFor(const ServiceCase& c,
                        std::shared_ptr<const CostModel> costs) {
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(c.hierarchy);
  config.distribution = c.distribution;
  config.cost_model = std::move(costs);
  config.policy_specs = SpecsFor(c.hierarchy);
  return config;
}

std::shared_ptr<const CostModel> SomeCosts(std::size_t n) {
  Rng rng(7);
  return std::make_shared<const CostModel>(
      CostModel::UniformRandom(n, 1, 9, rng));
}

// ---- (1) save → restore transcript equality --------------------------------

TEST(SessionCodecRoundTrip, EveryPolicyOnTreeAndDag) {
  for (const ServiceCase& c : ServiceCases()) {
    Engine engine;
    ASSERT_TRUE(
        engine.Publish(ConfigFor(c, SomeCosts(c.hierarchy.NumNodes()))).ok());
    for (const std::string& spec : SpecsFor(c.hierarchy)) {
      SCOPED_TRACE(c.name + "/" + spec);
      for (const NodeId target :
           {NodeId{0}, static_cast<NodeId>(c.hierarchy.NumNodes() / 2),
            static_cast<NodeId>(c.hierarchy.NumNodes() - 1)}) {
        ExactOracle oracle(c.hierarchy.reach(), target);

        // Answer a prefix of the search, then suspend.
        auto opened = engine.Open(spec);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        const SessionId original = *opened;
        Drive(engine, original, oracle, 2, nullptr);

        auto blob = engine.Save(original);
        ASSERT_TRUE(blob.ok()) << blob.status().ToString();
        auto resumed = engine.Resume(*blob);
        ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

        // Both sessions must ask bit-identical remaining questions and
        // identify the same target.
        std::vector<RecordedQuery> rest_original, rest_resumed;
        const NodeId found_original =
            Drive(engine, original, oracle, 1u << 20, &rest_original);
        const NodeId found_resumed =
            Drive(engine, *resumed, oracle, 1u << 20, &rest_resumed);
        EXPECT_EQ(rest_original, rest_resumed);
        EXPECT_EQ(found_original, target);
        EXPECT_EQ(found_resumed, target);

        EXPECT_TRUE(engine.Close(original).ok());
        EXPECT_TRUE(engine.Close(*resumed).ok());
      }
    }
  }
}

TEST(SessionCodecRoundTrip, EncodeDecodeIsLossless) {
  SerializedSession session;
  session.fingerprint = 0xDEADBEEFCAFEF00DULL;
  session.epoch = 7;
  session.policy_spec = "batched:k=3";
  session.steps.push_back({Query::Kind::kReach, {17}, true, {}, -1});
  session.steps.push_back(
      {Query::Kind::kReachBatch, {4, 9, 12}, false, {true, false, true}, -1});
  session.steps.push_back({Query::Kind::kChoice, {3, 5, 8}, false, {}, 2});
  session.steps.push_back({Query::Kind::kChoice, {3, 5}, false, {}, -1});

  const std::string text = SessionCodec::Encode(session);
  auto decoded = SessionCodec::Decode(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->fingerprint, session.fingerprint);
  EXPECT_EQ(decoded->epoch, session.epoch);
  EXPECT_EQ(decoded->policy_spec, session.policy_spec);
  EXPECT_EQ(decoded->steps, session.steps);
}

TEST(SessionCodecRoundTrip, RejectsMalformedInput) {
  EXPECT_FALSE(SessionCodec::Decode("").ok());
  EXPECT_FALSE(SessionCodec::Decode("not a session").ok());
  EXPECT_FALSE(SessionCodec::Decode("aigs-session/1\n").ok());
  // Truncated: steps promised but missing.
  EXPECT_FALSE(SessionCodec::Decode("aigs-session/1\nfingerprint 0\n"
                                    "epoch 1\npolicy greedy\nsteps 2\n"
                                    "reach 3 y\nend\n")
                   .ok());
  // Batch pattern length mismatch.
  EXPECT_FALSE(SessionCodec::Decode("aigs-session/1\nfingerprint 0\n"
                                    "epoch 1\npolicy greedy\nsteps 1\n"
                                    "batch 1+2+3 yn\nend\n")
                   .ok());
}

// ---- (3) Status rejections instead of aborts -------------------------------

TEST(EngineAnswers, MismatchedAnswerKindIsRejectedNotFatal) {
  const ServiceCase c = std::move(ServiceCases()[0]);  // tree
  Engine engine;
  ASSERT_TRUE(
      engine.Publish(ConfigFor(c, SomeCosts(c.hierarchy.NumNodes()))).ok());

  // greedy asks kReach; a choice/batch answer must bounce with a Status
  // (previously the SearchSession default paths were process-fatal).
  auto id = engine.Open("greedy");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.Answer(*id, SessionAnswer::Choice(0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Answer(*id, SessionAnswer::Batch({true})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.Answer(*id, SessionAnswer::Reach(false)).ok());

  // batched asks kReachBatch; shape and kind are both validated.
  auto batched = engine.Open("batched:k=3");
  ASSERT_TRUE(batched.ok());
  auto q = engine.Ask(*batched);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->kind, Query::Kind::kReachBatch);
  EXPECT_EQ(engine.Answer(*batched, SessionAnswer::Reach(true)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine
                .Answer(*batched, SessionAnswer::Batch(std::vector<bool>(
                                      q->choices.size() + 1, true)))
                .code(),
            StatusCode::kInvalidArgument);

  // migs asks kChoice; out-of-range indexes are rejected.
  auto migs = engine.Open("migs");
  ASSERT_TRUE(migs.ok());
  auto mq = engine.Ask(*migs);
  ASSERT_TRUE(mq.ok());
  ASSERT_EQ(mq->kind, Query::Kind::kChoice);
  EXPECT_EQ(engine
                .Answer(*migs, SessionAnswer::Choice(
                                   static_cast<int>(mq->choices.size())))
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.Answer(*migs, SessionAnswer::Choice(-2)).code(),
            StatusCode::kOutOfRange);

  // Finished sessions reject further answers.
  ExactOracle oracle(c.hierarchy.reach(), 3);
  auto done = engine.Open("greedy");
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(Drive(engine, *done, oracle, 1u << 20, nullptr), 3u);
  EXPECT_EQ(engine.Answer(*done, SessionAnswer::Reach(true)).code(),
            StatusCode::kFailedPrecondition);

  // Unknown ids and unknown specs are typed errors too.
  EXPECT_EQ(engine.Ask(SessionId{999999}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.Open("no_such_policy").status().code(),
            StatusCode::kNotFound);
}

// ---- (6) digest stability --------------------------------------------------

// Saved blobs, WAL step records and checkpoints bind to these digests, so
// their values are part of the on-disk format: a faster digest must produce
// the same bytes. The weights cover every leading-zero-byte count (8 for 0,
// 7 for 1 and 0xFF, 6 for 0x100, 4 for 0xFFFFFFFF, 0 for an 8-byte value).
struct GoldenDigest {
  std::uint64_t hierarchy;
  std::uint64_t catalog;
};

GoldenDigest DigestOf(Digraph g, std::vector<Weight> weights) {
  auto hierarchy = std::make_shared<const Hierarchy>(
      testing::MustBuild(std::move(g)));
  CatalogConfig config;
  config.hierarchy = hierarchy;
  config.distribution = testing::MustDist(std::move(weights));
  config.policy_specs = {"top_down"};
  auto snapshot = CatalogSnapshot::Build(std::move(config), 1);
  AIGS_CHECK(snapshot.ok());
  return {(*snapshot)->hierarchy_fingerprint(), (*snapshot)->fingerprint()};
}

std::vector<Weight> GoldenWeights() {
  return {0, 1, 0xFF, 0x100, 0xFFFFFFFFULL, (1ULL << 56) | 0xAB, 7};
}

TEST(CatalogDigest, TreeDigestIsStable) {
  Digraph g;
  g.AddNodes(7);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(1, 4);
  g.AddEdge(2, 5);
  g.AddEdge(2, 6);
  const GoldenDigest d = DigestOf(std::move(g), GoldenWeights());
  EXPECT_EQ(d.hierarchy, 0x7E65D105DD752D83ULL);
  EXPECT_EQ(d.catalog, 0xEE8D11309E97D1C5ULL);
}

TEST(CatalogDigest, DagDigestIsStable) {
  Digraph g;
  g.AddNodes(7);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(1, 4);
  g.AddEdge(3, 5);
  g.AddEdge(4, 6);
  g.AddEdge(5, 6);
  const GoldenDigest d = DigestOf(std::move(g), GoldenWeights());
  EXPECT_EQ(d.hierarchy, 0xA6BE8C1DFC934B68ULL);
  EXPECT_EQ(d.catalog, 0x067B8F750B1DC3DEULL);
}

// ---- (4) snapshot epochs ---------------------------------------------------

TEST(EngineEpochs, HotSwapKeepsLiveSessionsOnTheirEpoch) {
  const ServiceCase c = std::move(ServiceCases()[0]);  // tree
  const std::size_t n = c.hierarchy.NumNodes();
  Engine engine;
  ASSERT_TRUE(engine.Publish(ConfigFor(c, SomeCosts(c.hierarchy.NumNodes()))).ok());
  EXPECT_EQ(engine.epoch(), 1u);

  const NodeId target = static_cast<NodeId>(n - 1);
  ExactOracle oracle(c.hierarchy.reach(), target);
  auto id = engine.Open("greedy");
  ASSERT_TRUE(id.ok());
  Drive(engine, *id, oracle, 1, nullptr);
  auto saved_on_epoch1 = engine.Save(*id);
  ASSERT_TRUE(saved_on_epoch1.ok());

  // Publish a new epoch with shifted weights (an online-learning update).
  CatalogConfig next = ConfigFor(c, SomeCosts(c.hierarchy.NumNodes()));
  std::vector<Weight> shifted = c.distribution.weights();
  shifted[0] += 1000;
  next.distribution = testing::MustDist(std::move(shifted));
  ASSERT_TRUE(engine.Publish(std::move(next)).ok());
  EXPECT_EQ(engine.epoch(), 2u);

  // The live session still completes correctly on epoch 1's snapshot.
  EXPECT_EQ(Drive(engine, *id, oracle, 1u << 20, nullptr), target);

  // New sessions see epoch 2; the epoch-1 save no longer matches the
  // current catalog fingerprint, so Resume refuses an inexact replay.
  EXPECT_EQ(engine.Resume(*saved_on_epoch1).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---- (2) SessionManager: TTL + concurrency ---------------------------------

TEST(SessionManagerTtl, ExpiresIdleSessionsOnInjectedClock) {
  std::uint64_t now = 1000;
  SessionManagerOptions options;
  options.num_shards = 4;
  options.ttl_millis = 50;
  options.clock_millis = [&now] { return now; };
  SessionManager manager(options);

  const SessionId a = manager.Insert(std::make_shared<ServiceSession>());
  const SessionId b = manager.Insert(std::make_shared<ServiceSession>());
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_NE(a, b);

  now += 40;  // a touch refreshes the TTL
  EXPECT_TRUE(manager.Find(a).ok());
  now += 40;  // b is now 80ms idle, a only 40ms
  EXPECT_TRUE(manager.Find(a).ok());
  EXPECT_EQ(manager.Find(b).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.size(), 1u);

  now += 100;
  EXPECT_EQ(manager.EvictExpired(), 1u);
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_EQ(manager.Erase(a).code(), StatusCode::kNotFound);
}

TEST(SessionManagerConcurrency, ParallelOpenDriveCloseOnOneEngine) {
  const ServiceCase c = std::move(ServiceCases()[0]);  // tree
  const std::size_t n = c.hierarchy.NumNodes();
  EngineOptions engine_options;
  engine_options.sessions.num_shards = 8;
  Engine engine(engine_options);
  ASSERT_TRUE(engine.Publish(ConfigFor(c, SomeCosts(c.hierarchy.NumNodes()))).ok());

  constexpr int kThreads = 8;
  constexpr int kSearchesPerThread = 40;
  std::atomic<int> correct{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kSearchesPerThread; ++i) {
        const NodeId target = static_cast<NodeId>(rng.UniformInt(n));
        ExactOracle oracle(c.hierarchy.reach(), target);
        auto id = engine.Open(t % 2 == 0 ? "greedy" : "batched:k=3");
        if (!id.ok()) {
          ++failures;
          continue;
        }
        const NodeId found = Drive(engine, *id, oracle, 1u << 20, nullptr);
        if (found == target) {
          ++correct;
        } else {
          ++failures;
        }
        if (!engine.Close(*id).ok()) {
          ++failures;
        }
      }
    });
  }
  // Concurrent epoch publishes must never disturb in-flight sessions.
  std::thread publisher([&] {
    for (int i = 0; i < 5; ++i) {
      CatalogConfig next = ConfigFor(c, SomeCosts(c.hierarchy.NumNodes()));
      AIGS_CHECK(engine.Publish(std::move(next)).ok());
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  publisher.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(correct.load(), kThreads * kSearchesPerThread);
  EXPECT_EQ(engine.sessions().size(), 0u);
  EXPECT_EQ(engine.epoch(), 6u);
}

// ---- (5) evaluator service path --------------------------------------------

TEST(EvaluatorServicePath, EngineDrivenExactMatchesInProcess) {
  for (const ServiceCase& c : ServiceCases()) {
    SCOPED_TRACE(c.name);
    Engine engine;
    ASSERT_TRUE(engine.Publish(ConfigFor(c, SomeCosts(c.hierarchy.NumNodes()))).ok());

    PolicyContext context;
    context.hierarchy = &c.hierarchy;
    context.distribution = &c.distribution;
    auto policy = PolicyRegistry::Global().Create("batched:k=3", context);
    ASSERT_TRUE(policy.ok());

    const Evaluator evaluator;
    const EvalStats direct =
        evaluator.Exact(**policy, c.hierarchy, c.distribution);
    const auto service = evaluator.Exact(engine, "batched:k=3");
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_EQ(service->expected_cost, direct.expected_cost);
    EXPECT_EQ(service->expected_rounds, direct.expected_rounds);
    EXPECT_EQ(service->max_cost, direct.max_cost);
    EXPECT_EQ(service->num_searches, direct.num_searches);
    EXPECT_EQ(service->per_target_cost, direct.per_target_cost);

    const EvalStats direct_sampled = evaluator.Sampled(
        **policy, c.hierarchy, c.distribution, 500, /*seed=*/5);
    const auto service_sampled =
        evaluator.Sampled(engine, "batched:k=3", 500, /*seed=*/5);
    ASSERT_TRUE(service_sampled.ok());
    EXPECT_EQ(service_sampled->expected_cost, direct_sampled.expected_cost);

    EXPECT_EQ(evaluator.Exact(engine, "nope").status().code(),
              StatusCode::kNotFound);
  }
  Engine empty;
  EXPECT_EQ(Evaluator().Exact(empty, "greedy").status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace aigs
