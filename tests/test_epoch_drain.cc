// The drain worker: Publish is an O(1) epoch swap and the idle-session
// sweep runs on a concurrent-safe worker.
//  (1) equivalence, the hard guarantee: for every registry policy on trees
//      and DAGs, a session drained onto a new epoch asks exactly the
//      remaining questions a quiescent engine asks for the same target;
//  (2) TTL interplay: a session the manager expired mid-drain is neither
//      resurrected (no TTL refresh) nor counted as migrated, on an
//      injectable clock;
//  (3) roll-forward: a second Publish mid-drain supersedes the running job
//      and the pipeline converges on the newest epoch, never a stale one;
//  (4) a multithreaded stress run racing Open/Ask/Answer/Close and repeated
//      publishes against the live drain — no lost or duplicated sessions,
//      every transcript still bit-identical to the quiescent reference;
//  (5) Publish builds its snapshot without the lock Open, Stats and
//      snapshot() take, so they keep serving the old epoch meanwhile.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/aigs.h"
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
/// end), recording the questions; returns the target when done was reached,
/// kInvalidNode otherwise.
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

/// Answers `steps` questions and stops — no trailing Ask, so the session is
/// left IDLE (between an answer and its next question), which is what the
/// drain sweep considers migratable. Drive's final done-probe would pin it.
void DriveIdle(Engine& engine, SessionId id, Oracle& oracle,
               std::size_t steps,
               std::vector<RecordedQuery>* recorded = nullptr) {
  for (std::size_t step = 0; step < steps; ++step) {
    const auto q = engine.Ask(id);
    AIGS_CHECK(q.ok());
    if (q->kind == Query::Kind::kDone) {
      return;
    }
    if (recorded != nullptr) {
      recorded->emplace_back(q->kind, QueryNodes(*q));
    }
    AIGS_CHECK(engine.Answer(id, AnswerFromOracle(*q, oracle)).ok());
  }
}

struct DrainCase {
  std::string name;
  Hierarchy hierarchy;
  Distribution distribution;
};

std::vector<DrainCase> Cases() {
  std::vector<DrainCase> cases;
  Rng rng(626262);
  {
    Hierarchy tree = MustBuild(RandomTree(48, rng));
    Distribution d = ZipfRandomDistribution(tree.NumNodes(), 2.0, rng);
    cases.push_back({"tree", std::move(tree), std::move(d)});
  }
  {
    Hierarchy dag = MustBuild(RandomDag(48, rng, 0.4));
    Distribution d = ZipfRandomDistribution(dag.NumNodes(), 2.0, rng);
    cases.push_back({"dag", std::move(dag), std::move(d)});
  }
  return cases;
}

/// Every registry policy spec the hierarchy supports (mirrors
/// test_epoch_migration.cc; the scripted policy gets a complete order).
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

CatalogConfig ConfigFor(const DrainCase& c) {
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(c.hierarchy);
  config.distribution = c.distribution;
  config.cost_model = SomeCosts(c.hierarchy.NumNodes());
  config.policy_specs = SpecsFor(c.hierarchy);
  return config;
}

// ---- (1) drained vs quiescent equivalence ----------------------------------

TEST(EpochDrain, DrainedSessionMatchesQuiescentTranscriptEveryPolicy) {
  for (const DrainCase& c : Cases()) {
    // The quiescent reference never republishes.
    Engine quiet;
    EngineOptions options;  // shrink the batches
    options.drain.batch_size = 2;
    options.drain.tick_budget_ms = 1;
    Engine engine(options);
    ASSERT_TRUE(quiet.Publish(ConfigFor(c)).ok());
    ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());

    for (const std::string& spec : SpecsFor(c.hierarchy)) {
      SCOPED_TRACE(c.name + "/" + spec);
      const NodeId target = static_cast<NodeId>(c.hierarchy.NumNodes() - 1);
      ExactOracle reference_oracle(c.hierarchy.reach(), target);
      auto reference_id = quiet.Open(spec);
      ASSERT_TRUE(reference_id.ok());
      std::vector<RecordedQuery> reference_qs;
      EXPECT_EQ(Drive(quiet, *reference_id, reference_oracle, SIZE_MAX,
                      &reference_qs),
                target);
      EXPECT_TRUE(quiet.Close(*reference_id).ok());

      // A half-driven idle session, then a republish of identical weights:
      // the drain worker migrates it (it is not mid-question).
      ExactOracle oracle(c.hierarchy.reach(), target);
      auto id = engine.Open(spec);
      ASSERT_TRUE(id.ok());
      std::vector<RecordedQuery> qs;
      DriveIdle(engine, *id, oracle, 2, &qs);
      ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
      engine.WaitForDrain();
      const EngineStats stats = engine.Stats();
      ASSERT_EQ(stats.sessions_by_epoch.size(), 1u);
      EXPECT_EQ(stats.sessions_by_epoch.begin()->first, engine.epoch());

      ExactOracle rest(c.hierarchy.reach(), target);
      EXPECT_EQ(Drive(engine, *id, rest, SIZE_MAX, &qs), target);
      EXPECT_EQ(qs, reference_qs);
      EXPECT_TRUE(engine.Close(*id).ok());
    }

    // The worker actually did the migrating (one session per spec per
    // republish), and the pipeline settled idle on the newest epoch.
    const DrainStats d = engine.DrainProgress();
    EXPECT_EQ(d.phase, DrainPhase::kIdle);
    EXPECT_EQ(d.migrated, SpecsFor(c.hierarchy).size());
    EXPECT_EQ(d.failed, 0u);
    EXPECT_EQ(d.target_epoch, engine.epoch());
    EXPECT_GT(d.batches, 0u);
  }
}

// ---- (2) TTL eviction vs the sweep ------------------------------------------

TEST(EpochDrain, BackgroundSweepDropsExpiredSessionsOnInjectedClock) {
  const DrainCase c = std::move(Cases().front());
  auto now = std::make_shared<std::atomic<std::uint64_t>>(1'000);
  EngineOptions options;
  options.sessions.ttl_millis = 500;
  options.sessions.clock_millis = [now] { return now->load(); };
  Engine engine(options);
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  engine.WaitForDrain();

  const NodeId target = static_cast<NodeId>(c.hierarchy.NumNodes() - 1);
  std::vector<SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    ExactOracle oracle(c.hierarchy.reach(), target);
    auto id = engine.Open("greedy");
    ASSERT_TRUE(id.ok());
    DriveIdle(engine, *id, oracle, 1);
    ids.push_back(*id);
  }
  now->fetch_add(1'000);  // all three expire before the drain can run
  // A fresh idle session beside them must still migrate.
  ExactOracle fresh_oracle(c.hierarchy.reach(), target);
  auto fresh = engine.Open("greedy");
  ASSERT_TRUE(fresh.ok());
  DriveIdle(engine, *fresh, fresh_oracle, 1);

  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  engine.WaitForDrain();
  const DrainStats d = engine.DrainProgress();
  EXPECT_EQ(d.expired, 3u);
  EXPECT_EQ(d.migrated, 1u);
  EXPECT_EQ(d.failed, 0u);
  for (const SessionId id : ids) {
    EXPECT_EQ(engine.Ask(id).status().code(), StatusCode::kNotFound);
  }
  const EngineStats stats = engine.Stats();
  ASSERT_EQ(stats.sessions_by_epoch.size(), 1u);
  EXPECT_EQ(stats.sessions_by_epoch.begin()->first, engine.epoch());
  ExactOracle rest(c.hierarchy.reach(), target);
  EXPECT_EQ(Drive(engine, *fresh, rest, SIZE_MAX), target);
  EXPECT_TRUE(engine.Close(*fresh).ok());

  // A second publish finds no old-epoch work and, above all, never counts
  // an evicted session as migrated.
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  engine.WaitForDrain();
  const DrainStats again = engine.DrainProgress();
  EXPECT_EQ(again.migrated, 1u);
  EXPECT_EQ(again.expired, 3u);
  EXPECT_EQ(engine.Stats().live_sessions, 0u);
}

// ---- (3) mid-drain re-publish rolls forward ---------------------------------

TEST(EpochDrain, RePublishMidDrainConvergesOnTheNewestEpoch) {
  const DrainCase c = std::move(Cases().front());
  EngineOptions options;
  options.drain.batch_size = 4;  // many batch boundaries = many
  options.drain.tick_budget_ms = 1;  // supersede checkpoints
  Engine engine(options);
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  engine.WaitForDrain();

  const NodeId target = static_cast<NodeId>(c.hierarchy.NumNodes() - 1);
  std::vector<SessionId> ids;
  for (int i = 0; i < 200; ++i) {
    ExactOracle oracle(c.hierarchy.reach(), target);
    auto id = engine.Open("greedy");
    ASSERT_TRUE(id.ok());
    DriveIdle(engine, *id, oracle, 1);
    ids.push_back(*id);
  }

  // Two publishes back to back: the second lands while the first drain is
  // pending or sweeping. Whether the worker had picked the first job up
  // yet (rolled_forward) or not (pending job replaced), the invariant is
  // the same: the pipeline must converge on the LAST epoch and every idle
  // session must land there, exactly once.
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());
  engine.WaitForDrain();

  const DrainStats d = engine.DrainProgress();
  EXPECT_EQ(d.drains, 2u);  // the initial publish enqueues nothing
  EXPECT_EQ(d.target_epoch, engine.epoch());
  EXPECT_EQ(engine.epoch(), 3u);
  EXPECT_EQ(d.sessions_remaining, 0u);

  const EngineStats stats = engine.Stats();
  ASSERT_EQ(stats.sessions_by_epoch.size(), 1u);
  EXPECT_EQ(stats.sessions_by_epoch.begin()->first, 3u);
  EXPECT_EQ(stats.sessions_by_epoch.begin()->second, ids.size());
  for (const SessionId id : ids) {
    ExactOracle rest(c.hierarchy.reach(), target);
    EXPECT_EQ(Drive(engine, id, rest, SIZE_MAX), target);
    ASSERT_TRUE(engine.Close(id).ok());
  }
}

// ---- (4) concurrent stress: live traffic vs live drain ----------------------

TEST(EpochDrain, StressTrafficRacesDrainAndRePublishLosslessly) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSearchesPerThread = 12;
  constexpr std::size_t kPublishes = 4;
  const std::vector<std::string> kSpecs = {"greedy", "greedy_naive",
                                           "batched:k=3", "top_down"};

  for (const DrainCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    // Quiescent reference transcripts, one per (spec, target): the weights
    // never change across publishes, so every migration is zero-divergence
    // and racing sessions must reproduce these bit-exactly.
    std::map<std::pair<std::string, NodeId>, std::vector<RecordedQuery>>
        expected;
    {
      Engine ref;
      ASSERT_TRUE(ref.Publish(ConfigFor(c)).ok());
      for (const std::string& spec : kSpecs) {
        for (NodeId target = 0; target < c.hierarchy.NumNodes();
             target += 7) {
          ExactOracle oracle(c.hierarchy.reach(), target);
          auto id = ref.Open(spec);
          ASSERT_TRUE(id.ok());
          std::vector<RecordedQuery> qs;
          EXPECT_EQ(Drive(ref, *id, oracle, SIZE_MAX, &qs), target);
          expected[{spec, target}] = std::move(qs);
          ASSERT_TRUE(ref.Close(*id).ok());
        }
      }
    }

    EngineOptions options;  // aggressive batching
    options.drain.batch_size = 4;
    options.drain.tick_budget_ms = 1;
    options.drain.max_concurrency = 2;
    Engine engine(options);
    ASSERT_TRUE(engine.Publish(ConfigFor(c)).ok());

    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads + 1);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t s = 0; s < kSearchesPerThread; ++s) {
          const std::string& spec = kSpecs[(t + s) % kSpecs.size()];
          const NodeId target = static_cast<NodeId>(
              ((t * kSearchesPerThread + s) % (c.hierarchy.NumNodes() / 7)) *
              7);
          ExactOracle oracle(c.hierarchy.reach(), target);
          auto id = engine.Open(spec);
          if (!id.ok()) {
            failures.fetch_add(1);
            continue;
          }
          std::vector<RecordedQuery> qs;
          if (Drive(engine, *id, oracle, SIZE_MAX, &qs) != target) {
            failures.fetch_add(1);
          } else if (qs != expected[{spec, target}]) {
            mismatches.fetch_add(1);
          }
          if (!engine.Close(*id).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    // Publisher thread: repeated identical-weight publishes, each handing
    // a fresh drain to the worker while the previous may still be running.
    threads.emplace_back([&] {
      for (std::size_t p = 0; p < kPublishes; ++p) {
        if (!engine.Publish(ConfigFor(c)).ok()) {
          failures.fetch_add(1);
        }
        std::this_thread::yield();
      }
    });
    for (std::thread& thread : threads) {
      thread.join();
    }
    engine.WaitForDrain();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    // No session lost, duplicated, or left behind: every search closed its
    // session, so the store must be empty, and the drain idle on the
    // newest epoch.
    const EngineStats stats = engine.Stats();
    EXPECT_EQ(stats.live_sessions, 0u);
    EXPECT_TRUE(stats.sessions_by_epoch.empty());
    EXPECT_EQ(stats.drain.phase, DrainPhase::kIdle);
    EXPECT_EQ(stats.drain.target_epoch, engine.epoch());
    EXPECT_EQ(engine.epoch(), kPublishes + 1);
    EXPECT_EQ(stats.drain.failed, 0u);
  }
}

// ---- (5) Publish builds outside the snapshot lock --------------------------

/// While armed, the "blocking_build" test policy's factory parks until
/// released — for at most 10 s, so an engine that builds under the lock
/// Open waits on fails the test instead of hanging.
struct BuildGate {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false, entered = false, released = false, timed_out = false;
};
BuildGate gate;

TEST(EpochDrain, PublishBuildDoesNotBlockOpenStatsOrSnapshot) {
  static const bool registered =
      PolicyRegistry::Global()
          .Register("blocking_build", "test policy: greedy behind a gate",
                    [](const PolicyContext& context, PolicyOptions&)
                        -> StatusOr<std::unique_ptr<Policy>> {
                      std::unique_lock<std::mutex> lock(gate.mu);
                      if (gate.armed) {
                        gate.entered = true;
                        gate.cv.notify_all();
                        gate.timed_out = !gate.cv.wait_for(
                            lock, std::chrono::seconds(10),
                            [] { return gate.released; });
                      }
                      lock.unlock();
                      return PolicyRegistry::Global().Create("greedy",
                                                             context);
                    })
          .ok();
  ASSERT_TRUE(registered);
  const DrainCase c = std::move(Cases().front());
  CatalogConfig config = ConfigFor(c);
  config.policy_specs = {"greedy", "blocking_build"};
  Engine engine;
  ASSERT_TRUE(engine.Publish(config).ok());  // gate unarmed: builds at once

  std::unique_lock<std::mutex> lock(gate.mu);
  gate.armed = true;
  gate.entered = gate.released = gate.timed_out = false;
  std::atomic<bool> published{false};
  std::thread publisher([&] { published = engine.Publish(config).ok(); });
  const bool entered = gate.cv.wait_for(lock, std::chrono::seconds(10),
                                        [] { return gate.entered; });
  lock.unlock();
  // The epoch-2 build is parked inside the factory: none of these may wait
  // for it, and all of them still see epoch 1.
  const auto id = engine.Open("greedy");
  const EngineStats stats = engine.Stats();
  const std::shared_ptr<const CatalogSnapshot> snap = engine.snapshot();
  lock.lock();
  gate.released = true;
  gate.cv.notify_all();
  lock.unlock();
  publisher.join();
  lock.lock();
  gate.armed = false;
  EXPECT_TRUE(entered);
  EXPECT_FALSE(gate.timed_out)
      << "Open/Stats/snapshot() waited for the snapshot build";
  lock.unlock();
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_TRUE(published.load());
  EXPECT_EQ(engine.epoch(), 2u);

  // The session opened mid-build is idle on epoch 1: the drain moves it.
  engine.WaitForDrain();
  const EngineStats after = engine.Stats();
  ASSERT_EQ(after.sessions_by_epoch.size(), 1u);
  EXPECT_EQ(after.sessions_by_epoch.begin()->first, 2u);

  // A failed build consumes no epoch.
  config.policy_specs = {"no_such_policy"};
  EXPECT_FALSE(engine.Publish(config).ok());
  config.policy_specs = {"greedy"};
  const auto next = engine.Publish(config);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)->epoch(), 3u);
}

}  // namespace
}  // namespace aigs
