#include "service/engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <optional>
#include <thread>
#include <utility>

#include "util/thread_pool.h"

namespace aigs {

/// The drain pipeline, the one place the idle-session sweep runs: one
/// coordinator thread consuming publish jobs plus a small private pool
/// that migrates sessions within a batch. Both start with the first job,
/// so an engine that never republishes runs no drain threads (nor does a
/// process forked before its first republish).
///
/// Cancellation model: Enqueue bumps a generation; the coordinator checks
/// it between batches (and per tick inside a batch pass), so a newer
/// Publish rolls the in-flight drain forward instead of letting it finish
/// against a stale epoch. A job never pins an epoch itself — it re-reads
/// the engine's current state when it runs, so the sweep always targets
/// the newest snapshot no matter how Enqueues interleave.
///
/// Safety model: every per-session step re-checks liveness through
/// SessionManager::Peek (no TTL refresh — an evicted session is never
/// resurrected), takes the session mutex with try_lock (a session touched
/// by a live request is retried next tick, never blocked on), and leaves
/// mid-question sessions pinned (migrating would change the question under
/// the client).
class EpochDrainWorker {
 public:
  EpochDrainWorker(Engine* engine, DrainOptions options)
      : engine_(engine), options_(options) {}

  ~EpochDrainWorker() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      stop_.store(true, std::memory_order_relaxed);
    }
    work_cv_.notify_all();
    idle_cv_.notify_all();
    if (coordinator_.joinable()) {
      coordinator_.join();
    }
  }

  /// Replaces any pending job (the newest publish wins) and cancels the
  /// running one at its next batch boundary. `epoch` is the one the caller
  /// just installed; progress reports name it from this call on.
  void Enqueue(std::uint64_t epoch) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      has_pending_ = true;
      target_epoch_ = epoch;
      generation_.fetch_add(1, std::memory_order_relaxed);
      drains_.fetch_add(1, std::memory_order_relaxed);
      if (!coordinator_.joinable()) {
        pool_.emplace(std::max<std::size_t>(1, options_.max_concurrency));
        coordinator_ = std::thread([this] { Loop(); });
      }
    }
    work_cv_.notify_all();
  }

  /// Blocks until no job is pending or running.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock,
                  [this] { return shutdown_ || (!has_pending_ && !active_); });
  }

  DrainStats Snapshot() const {
    DrainStats stats;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats.phase = has_pending_ || active_ ? DrainPhase::kSweeping
                                            : DrainPhase::kIdle;
      stats.target_epoch = target_epoch_;
    }
    stats.sessions_remaining = remaining_.load(std::memory_order_relaxed);
    stats.batches = batches_.load(std::memory_order_relaxed);
    stats.last_batch = last_batch_.load(std::memory_order_relaxed);
    stats.migrated = migrated_.load(std::memory_order_relaxed);
    stats.divergent_steps = divergent_steps_.load(std::memory_order_relaxed);
    stats.failed = failed_.load(std::memory_order_relaxed);
    stats.skipped_pinned = skipped_pinned_.load(std::memory_order_relaxed);
    stats.retried_busy = retried_busy_.load(std::memory_order_relaxed);
    stats.expired = expired_.load(std::memory_order_relaxed);
    stats.drains = drains_.load(std::memory_order_relaxed);
    stats.completed = completed_.load(std::memory_order_relaxed);
    stats.rolled_forward = rolled_forward_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  bool Superseded(std::uint64_t generation) const {
    return stop_.load(std::memory_order_relaxed) ||
           generation_.load(std::memory_order_relaxed) != generation;
  }

  void Loop() {
    for (;;) {
      std::uint64_t generation = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return shutdown_ || has_pending_; });
        if (shutdown_) {
          return;  // abandon pending work; old epochs just stay pinned
        }
        has_pending_ = false;
        active_ = true;
        generation = generation_.load(std::memory_order_relaxed);
      }
      RunJob(generation);
      {
        std::lock_guard<std::mutex> lock(mu_);
        active_ = false;
      }
      idle_cv_.notify_all();
    }
  }

  void RunJob(std::uint64_t generation) {
    // Re-read the engine's CURRENT snapshot: publishers enqueue under the
    // engine's publish mutex after their swap, so this is the newest epoch
    // even when the Enqueue that woke the worker raced another publish.
    const std::shared_ptr<const CatalogSnapshot> snapshot =
        engine_->snapshot();
    if (snapshot == nullptr) {
      return;
    }
    if (!Sweep(*snapshot, generation)) {
      rolled_forward_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Migrates every idle session off older epochs; false when superseded
  /// mid-way.
  bool Sweep(const CatalogSnapshot& snapshot, std::uint64_t generation) {
    using Clock = std::chrono::steady_clock;
    const std::uint64_t target_epoch = snapshot.epoch();
    std::vector<std::pair<SessionId, std::shared_ptr<ServiceSession>>> work;
    for (auto& [id, session] : engine_->sessions_.SnapshotSessions()) {
      if (session != nullptr &&
          session->epoch.load(std::memory_order_relaxed) != target_epoch) {
        work.emplace_back(id, std::move(session));
      }
    }
    remaining_.store(work.size(), std::memory_order_relaxed);

    while (!work.empty()) {
      std::vector<std::pair<SessionId, std::shared_ptr<ServiceSession>>>
          retry;
      std::mutex retry_mu;
      Clock::time_point tick_deadline =
          Clock::now() + std::chrono::milliseconds(options_.tick_budget_ms);
      for (std::size_t start = 0; start < work.size();
           start += options_.batch_size) {
        if (Superseded(generation)) {
          return false;
        }
        if (Clock::now() >= tick_deadline) {
          std::this_thread::yield();  // tick boundary: give traffic a gap
          tick_deadline = Clock::now() +
                          std::chrono::milliseconds(options_.tick_budget_ms);
        }
        const std::size_t end =
            std::min(start + options_.batch_size, work.size());
        pool_->ParallelFor(end - start, [&](std::size_t i) {
          DrainSession(work[start + i].first, work[start + i].second,
                       target_epoch, &retry, &retry_mu);
        });
        batches_.fetch_add(1, std::memory_order_relaxed);
        last_batch_.store(end - start, std::memory_order_relaxed);
        remaining_.store(work.size() - end + retry.size(),
                         std::memory_order_relaxed);
      }
      if (retry.size() == work.size()) {
        // Every remaining session was lock-busy; back off briefly instead
        // of spinning against live traffic (a newer publish or shutdown
        // wakes the wait immediately).
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
          return shutdown_ || has_pending_;
        });
        if (shutdown_ || has_pending_) {
          return false;
        }
      }
      work = std::move(retry);
    }
    remaining_.store(0, std::memory_order_relaxed);
    return true;
  }

  /// One session's drain step (runs on the pool).
  void DrainSession(
      SessionId id, const std::shared_ptr<ServiceSession>& session,
      std::uint64_t target_epoch,
      std::vector<std::pair<SessionId, std::shared_ptr<ServiceSession>>>*
          retry,
      std::mutex* retry_mu) {
    // Liveness re-check WITHOUT a TTL refresh: a session the manager
    // evicted (or replaced) since the sweep captured it is dropped, never
    // resurrected or double-counted.
    if (engine_->sessions_.Peek(id) != session) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::unique_lock<std::mutex> lock(session->mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      retried_busy_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> retry_lock(*retry_mu);
      retry->emplace_back(id, session);
      return;
    }
    if (session->epoch.load(std::memory_order_relaxed) >= target_epoch) {
      return;  // a live request or an explicit Migrate got there first
    }
    if (session->has_pending) {
      // The client owes an answer to a question it has already been
      // shown. Migrating would change it under them — leave the session
      // pinned (it migrates after its next answer or drains naturally);
      // retrying next tick would just re-skip it.
      skipped_pinned_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (const auto result = engine_->MigrateLocked(id, *session);
        result.ok()) {
      migrated_.fetch_add(1, std::memory_order_relaxed);
      divergent_steps_.fetch_add(result->divergent_steps,
                                 std::memory_order_relaxed);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Engine* engine_;
  DrainOptions options_;
  std::optional<ThreadPool> pool_;  // set with coordinator_

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  bool has_pending_ = false;
  bool active_ = false;
  bool shutdown_ = false;
  std::uint64_t target_epoch_ = 0;  // the epoch the newest Enqueue named

  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> stop_{false};

  std::atomic<std::size_t> remaining_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::size_t> last_batch_{0};
  std::atomic<std::uint64_t> migrated_{0};
  std::atomic<std::uint64_t> divergent_steps_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> skipped_pinned_{0};
  std::atomic<std::uint64_t> retried_busy_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> drains_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rolled_forward_{0};

  std::thread coordinator_;  // started by the first Enqueue; joined first
};

const char* DrainPhaseName(DrainPhase phase) {
  switch (phase) {
    case DrainPhase::kIdle:
      return "idle";
    case DrainPhase::kSweeping:
      return "sweeping";
  }
  return "?";
}

namespace {

const char* KindName(Query::Kind kind) {
  switch (kind) {
    case Query::Kind::kReach:
      return "reach";
    case Query::Kind::kReachBatch:
      return "reach-batch";
    case Query::Kind::kChoice:
      return "choice";
    case Query::Kind::kDone:
      return "done";
  }
  return "?";
}

/// True iff `planned` poses exactly the question `step` records (the
/// answer is data, not part of the match).
bool QuestionMatchesStep(const Query& planned, const TranscriptStep& step) {
  if (planned.kind != step.kind) {
    return false;
  }
  return planned.kind == Query::Kind::kReach
             ? (step.nodes.size() == 1 && planned.node == step.nodes[0])
             : planned.choices == step.nodes;
}

/// Shape validation for replayed steps — adversarial blobs must fail with
/// a Status before any applier sees them.
Status ValidateStepShape(const TranscriptStep& step, std::size_t num_nodes,
                         std::size_t index) {
  const std::string at = " (step " + std::to_string(index) + ")";
  if (step.nodes.empty()) {
    return Status::InvalidArgument("transcript step names no nodes" + at);
  }
  for (const NodeId v : step.nodes) {
    if (v >= num_nodes) {
      return Status::OutOfRange("transcript node " + std::to_string(v) +
                                " outside the current hierarchy" + at);
    }
  }
  switch (step.kind) {
    case Query::Kind::kReach:
      if (step.nodes.size() != 1) {
        return Status::InvalidArgument("reach step with " +
                                       std::to_string(step.nodes.size()) +
                                       " nodes" + at);
      }
      break;
    case Query::Kind::kReachBatch:
      if (step.batch_answers.size() != step.nodes.size()) {
        return Status::InvalidArgument("batch step with mismatched answer "
                                       "count" + at);
      }
      break;
    case Query::Kind::kChoice:
      if (step.choice < -1 ||
          step.choice >= static_cast<int>(step.nodes.size())) {
        return Status::OutOfRange("choice answer outside [-1, " +
                                  std::to_string(step.nodes.size()) + ")" +
                                  at);
      }
      break;
    case Query::Kind::kDone:
      return Status::InvalidArgument("transcript contains a 'done' step" +
                                     at);
  }
  return Status::OK();
}

/// Applies a step whose question the session's planner just reproduced —
/// the exact-replay path (identical to the live Answer switch).
Status ApplyMatchedStep(SearchSession& search, const TranscriptStep& step) {
  switch (step.kind) {
    case Query::Kind::kReach:
      search.OnReach(step.nodes[0], step.yes);
      return Status::OK();
    case Query::Kind::kReachBatch:
      // A crafted blob may contain an inconsistent round the live engine
      // would have rejected; reject it here the same way.
      return search.TryOnReachBatch(step.nodes, step.batch_answers);
    case Query::Kind::kChoice:
      search.OnChoice(step.nodes, step.choice);
      return Status::OK();
    case Query::Kind::kDone:
      break;  // excluded by ValidateStepShape
  }
  AIGS_CHECK(false);
  return Status::Internal("unreachable");
}

/// The session's complete serializable state (Save, WAL open records, and
/// checkpoint blobs all encode exactly this). Caller holds the session
/// mutex (or the session is still private).
SerializedSession SnapshotState(const ServiceSession& session) {
  SerializedSession out;
  out.fingerprint = session.snapshot->fingerprint();
  out.hierarchy_fingerprint = session.snapshot->hierarchy_fingerprint();
  out.epoch = session.snapshot->epoch();
  out.policy_spec = session.policy_spec;
  out.steps = session.transcript;
  return out;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      sessions_(std::move(options.sessions)),
      drain_(std::make_unique<EpochDrainWorker>(this, options_.drain)) {}

// Out of line so ~EpochDrainWorker is visible; drain_ is declared last and
// therefore destroyed first, stopping its threads while the rest of the
// engine is still alive.
Engine::~Engine() = default;

void Engine::WaitForDrain() { drain_->Wait(); }

DrainStats Engine::DrainProgress() const { return drain_->Snapshot(); }

StatusOr<std::shared_ptr<const CatalogSnapshot>> Engine::Publish(
    CatalogConfig config) {
  std::shared_ptr<const CatalogSnapshot> snapshot;
  std::shared_ptr<PlanCache> cache;
  std::shared_ptr<const CatalogSnapshot> old_snapshot;
  std::shared_ptr<PlanCache> old_cache;
  if (config.build_pool == nullptr) {
    // Publish runs on a caller thread, never on a shared-pool worker, so
    // sharding the per-spec policy builds on the default pool is safe.
    config.build_pool = &ThreadPool::Default();
  }
  // The build runs under the publisher lock alone: Open, Resume, Stats
  // and snapshot() keep serving the old epoch until the swap below.
  std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  AIGS_ASSIGN_OR_RETURN(
      snapshot, CatalogSnapshot::Build(std::move(config), next_epoch_));
  ++next_epoch_;
  // A fresh epoch gets a fresh plan trie; the old one retires with its
  // snapshot's refcount — a publish invalidates every stale plan without
  // any flush or version check on the hot path. The old pair is freed
  // after the swap lock drops.
  if (options_.plan_cache.enabled) {
    cache = std::make_shared<PlanCache>(options_.plan_cache);
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    old_snapshot = std::exchange(snapshot_, snapshot);
    old_cache = std::exchange(plan_cache_, cache);
  }
  // The sweep goes to the drain worker — Publish stays O(1) in the
  // session count — and a drain already in flight rolls forward to this
  // epoch. Enqueued before the publisher lock drops, so jobs reach the
  // worker in epoch order.
  if (options_.migration.sweep_on_publish && old_snapshot != nullptr) {
    drain_->Enqueue(snapshot->epoch());
  }
  return snapshot;
}

std::shared_ptr<const CatalogSnapshot> Engine::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::uint64_t Engine::epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_ == nullptr ? 0 : snapshot_->epoch();
}

void Engine::CurrentEpochState(
    std::shared_ptr<const CatalogSnapshot>* snap,
    std::shared_ptr<PlanCache>* cache) const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  *snap = snapshot_;
  *cache = plan_cache_;
}

StatusOr<std::shared_ptr<ServiceSession>> Engine::BuildSession(
    std::shared_ptr<const CatalogSnapshot> snap,
    std::shared_ptr<PlanCache> cache, const std::string& policy_spec) {
  AIGS_ASSIGN_OR_RETURN(const Policy* policy, snap->PolicyFor(policy_spec));
  auto session = std::make_shared<ServiceSession>();
  session->epoch.store(snap->epoch(), std::memory_order_relaxed);
  session->snapshot = std::move(snap);
  session->policy_spec = policy_spec;
  session->policy = policy;
  session->plan_cache = std::move(cache);
  session->search = policy->NewSession();
  session->plan_prefix = session->plan_cache != nullptr
                             ? session->plan_cache->RootFor(policy_spec)
                             : kNoPlanPrefix;
  return session;
}

// ---- per-op traffic counters (OpStats) -------------------------------------

void Engine::CountOp(OpKind op, const Status& status) {
  op_counts_[op].fetch_add(1, std::memory_order_relaxed);
  if (!status.ok()) {
    const auto code = static_cast<std::size_t>(status.code());
    if (code < rejected_by_code_.size()) {
      rejected_by_code_[code].fetch_add(1, std::memory_order_relaxed);
    }
  }
}

StatusOr<SessionId> Engine::Open(const std::string& policy_spec,
                                 SessionId proposed_id) {
  StatusOr<SessionId> result = OpenImpl(policy_spec, proposed_id);
  CountOp(kOpOpen, result.status());
  return result;
}

StatusOr<Query> Engine::Ask(SessionId id) {
  StatusOr<Query> result = AskImpl(id);
  CountOp(kOpAsk, result.status());
  return result;
}

Status Engine::Answer(SessionId id, const SessionAnswer& answer) {
  const Status status = AnswerImpl(id, answer);
  CountOp(kOpAnswer, status);
  return status;
}

StatusOr<std::string> Engine::Save(SessionId id) {
  StatusOr<std::string> result = SaveImpl(id);
  CountOp(kOpSave, result.status());
  return result;
}

StatusOr<SessionId> Engine::Resume(const std::string& serialized,
                                   SessionId proposed_id) {
  StatusOr<SessionId> result = ResumeImpl(serialized, proposed_id);
  CountOp(kOpResume, result.status());
  return result;
}

StatusOr<MigrateResult> Engine::Migrate(SessionId id) {
  StatusOr<MigrateResult> result = MigrateImpl(id);
  CountOp(kOpMigrate, result.status());
  return result;
}

StatusOr<MigrateResult> Engine::Migrate(const std::string& serialized,
                                        SessionId proposed_id) {
  StatusOr<MigrateResult> result = MigrateBlobImpl(serialized, proposed_id);
  CountOp(kOpMigrate, result.status());
  return result;
}

Status Engine::Close(SessionId id) {
  const Status status = CloseImpl(id);
  CountOp(kOpClose, status);
  return status;
}

StatusOr<SessionId> Engine::InsertSession(
    std::shared_ptr<ServiceSession> session, SessionId proposed_id) {
  if (proposed_id == 0) {
    return sessions_.Insert(std::move(session));
  }
  AIGS_RETURN_NOT_OK(sessions_.InsertWithId(proposed_id, std::move(session)));
  return proposed_id;
}

StatusOr<SessionId> Engine::OpenImpl(const std::string& policy_spec,
                                     SessionId proposed_id) {
  std::shared_ptr<const CatalogSnapshot> snap;
  std::shared_ptr<PlanCache> cache;
  CurrentEpochState(&snap, &cache);
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "no catalog snapshot published yet — call Publish first");
  }
  AIGS_ASSIGN_OR_RETURN(
      std::shared_ptr<ServiceSession> session,
      BuildSession(std::move(snap), std::move(cache), policy_spec));
  AIGS_ASSIGN_OR_RETURN(const SessionId id,
                        InsertSession(session, proposed_id));
  if (DurableStore* store = durable_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(session->mutex);
    if (const Status logged = store->AppendOpen(id, SnapshotState(*session));
        !logged.ok()) {
      // Not durable ⇒ not acked: the id never reaches the client.
      (void)sessions_.Erase(id);
      return logged;
    }
  }
  MaybeAutoCheckpoint();
  return id;
}

StatusOr<std::shared_ptr<ServiceSession>> Engine::FindSession(SessionId id) {
  return sessions_.Find(id);
}

Query Engine::ResolvePending(ServiceSession& session) {
  if (session.has_pending) {
    return session.pending;
  }
  Query query;
  PlanCache* cache = session.plan_cache.get();
  if (cache != nullptr &&
      session.transcript.size() > cache->options().max_depth) {
    cache->CountBypass();  // deep prefixes skip the trie; the planner runs
    cache = nullptr;
  }
  if (cache != nullptr) {
    if (std::optional<Query> hit = cache->Lookup(session.plan_prefix)) {
      // Warm path: the question was planned once by some session at this
      // (policy, transcript) prefix — by an Ask or a transcript replay —
      // so Ask skips the planner here. (The candidate-state policies skip it
      // entirely; the phase-automata baselines still settle their derived
      // state inside the applier — their planners are O(children) cheap,
      // and the cache exists for the expensive middle-point planners.)
      query = *std::move(hit);
    } else {
      query = session.search->Next();
      cache->Insert(session.plan_prefix, query);
    }
  } else {
    query = session.search->Next();
  }
  session.pending = query;
  session.has_pending = true;
  return query;
}

StatusOr<Query> Engine::AskImpl(SessionId id) {
  AIGS_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                        FindSession(id));
  std::lock_guard<std::mutex> lock(session->mutex);
  session->reask_after_migration = false;
  return ResolvePending(*session);
}

Status Engine::AnswerImpl(SessionId id, const SessionAnswer& answer) {
  AIGS_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                        FindSession(id));
  {
    std::lock_guard<std::mutex> lock(session->mutex);
    AIGS_RETURN_NOT_OK(AnswerLocked(id, *session, answer));
  }
  // Off the hot lock: a threshold-crossing answer pays for the checkpoint
  // (bounded, amortized), every other answer only reads one atomic.
  MaybeAutoCheckpoint();
  return Status::OK();
}

Status Engine::AnswerLocked(SessionId id, ServiceSession& session_ref,
                            const SessionAnswer& answer) {
  ServiceSession* const session = &session_ref;
  if (session->reask_after_migration) {
    return Status::FailedPrecondition(
        "session " + std::to_string(id) +
        " was migrated to a new epoch after its question was shown; ask "
        "again before answering");
  }
  const Query query = ResolvePending(*session);
  if (query.kind == Query::Kind::kDone) {
    return Status::FailedPrecondition(
        "session " + std::to_string(id) +
        " already identified its target; nothing to answer");
  }
  // Service-boundary guard for the SearchSession default-fatal paths: a
  // mismatched answer kind is a client error, not a process abort.
  if (answer.kind != query.kind) {
    return Status::InvalidArgument(
        std::string("pending question expects a ") + KindName(query.kind) +
        " answer, got " + KindName(answer.kind));
  }

  TranscriptStep step;
  step.kind = query.kind;
  switch (query.kind) {
    case Query::Kind::kReach:
      step.nodes = {query.node};
      step.yes = answer.yes;
      session->search->OnReach(query.node, answer.yes);
      break;
    case Query::Kind::kReachBatch:
      if (answer.batch.size() != query.choices.size()) {
        return Status::InvalidArgument(
            "batch answer has " + std::to_string(answer.batch.size()) +
            " entries; the pending batch asks " +
            std::to_string(query.choices.size()) + " questions");
      }
      step.nodes = query.choices;
      step.batch_answers = answer.batch;
      // Content validation too: a mutually inconsistent round (it would
      // eliminate every candidate) bounces with InvalidArgument and leaves
      // the question pending — never the fatal in-process path.
      AIGS_RETURN_NOT_OK(
          session->search->TryOnReachBatch(query.choices, answer.batch));
      break;
    case Query::Kind::kChoice:
      if (answer.choice < -1 ||
          answer.choice >= static_cast<int>(query.choices.size())) {
        return Status::OutOfRange(
            "choice answer " + std::to_string(answer.choice) +
            " outside [-1, " + std::to_string(query.choices.size()) + ")");
      }
      step.nodes = query.choices;
      step.choice = answer.choice;
      session->search->OnChoice(query.choices, answer.choice);
      break;
    case Query::Kind::kDone:
      AIGS_CHECK(false);  // handled above
  }
  // Advance the rolling plan key by this step's trie edge (one O(edge)
  // intern, depth-independent) and drop the consumed plan. Past the depth
  // cap the key is never read again, so stop maintaining it.
  if (session->plan_cache != nullptr &&
      session->transcript.size() < session->plan_cache->options().max_depth) {
    std::string edge;
    SessionCodec::AppendStepKey(step, &edge);
    session->plan_prefix =
        session->plan_cache->Advance(session->plan_prefix, edge);
  }
  session->has_pending = false;
  session->transcript.push_back(std::move(step));
  if (DurableStore* store = durable_.load(std::memory_order_acquire)) {
    // Logged under the session mutex so a session's step records hit the
    // WAL in transcript order. An IOError here means the step is applied
    // in memory but NOT acked durable — the error return tells the client
    // exactly that, and the store counts the degradation.
    AIGS_RETURN_NOT_OK(store->AppendStep(
        id, session->snapshot->fingerprint(),
        session->transcript.size() - 1, session->transcript.back()));
  }
  return Status::OK();
}

StatusOr<std::string> Engine::SaveImpl(SessionId id) {
  AIGS_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                        FindSession(id));
  std::lock_guard<std::mutex> lock(session->mutex);
  return SessionCodec::Encode(SnapshotState(*session));
}

Status Engine::ReplayTranscript(ServiceSession& session,
                                std::vector<TranscriptStep> steps,
                                ReplayMode mode, std::size_t max_divergence,
                                std::size_t* divergent_steps) {
  const std::size_t num_nodes = session.snapshot->hierarchy().NumNodes();
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    TranscriptStep& step = steps[i];
    AIGS_RETURN_NOT_OK(ValidateStepShape(step, num_nodes, i));
    const Query planned = session.search->Next();
    // The replay already paid the planner; memoize its answer so restores
    // and migrations warm the trie exactly like Ask's miss path would.
    // Sound even past a divergence: the trie key is the actual transcript
    // prefix, and the planner is a pure function of it.
    if (session.plan_cache != nullptr &&
        session.transcript.size() <=
            session.plan_cache->options().max_depth) {
      session.plan_cache->Insert(session.plan_prefix, planned);
    }
    if (QuestionMatchesStep(planned, step)) {
      step.diverged = false;  // this epoch's planner reproduces it after all
      AIGS_RETURN_NOT_OK(ApplyMatchedStep(*session.search, step));
    } else if (step.diverged) {
      // Recorded divergence from an earlier migration: the step was never
      // this epoch's plan, so fold it observed in BOTH modes (an exact
      // Resume of a migrated session must round-trip) without charging the
      // fresh-divergence budget it already passed once.
      AIGS_RETURN_NOT_OK(session.search->TryApplyObserved(step));
    } else if (mode == ReplayMode::kExact) {
      return Status::Internal(
          "transcript replay diverged at step " + std::to_string(i) +
          ": the snapshot no longer reproduces the saved question sequence");
    } else {
      ++divergent;
      if (divergent > max_divergence) {
        return Status::FailedPrecondition(
            "migration divergence budget (" +
            std::to_string(max_divergence) + ") exceeded at step " +
            std::to_string(i) + " of " + std::to_string(steps.size()));
      }
      step.diverged = true;
      // The planner would ask something else here; fold the recorded
      // answer through the policy's observed-step applier instead.
      AIGS_RETURN_NOT_OK(session.search->TryApplyObserved(step));
    }
    if (session.plan_cache != nullptr &&
        session.transcript.size() <
            session.plan_cache->options().max_depth) {
      std::string edge;
      SessionCodec::AppendStepKey(step, &edge);
      session.plan_prefix =
          session.plan_cache->Advance(session.plan_prefix, edge);
    }
    session.transcript.push_back(std::move(step));
  }
  if (divergent_steps != nullptr) {
    // Surface the total divergence of the resulting transcript (recorded
    // flags that persisted plus fresh ones); the budget above only charges
    // the fresh ones.
    *divergent_steps = 0;
    for (const TranscriptStep& step : session.transcript) {
      *divergent_steps += step.diverged ? 1 : 0;
    }
  }
  return Status::OK();
}

StatusOr<SessionId> Engine::ResumeImpl(const std::string& serialized,
                                       SessionId proposed_id) {
  AIGS_ASSIGN_OR_RETURN(const SerializedSession saved,
                        SessionCodec::Decode(serialized));
  std::shared_ptr<const CatalogSnapshot> snap;
  std::shared_ptr<PlanCache> cache;
  CurrentEpochState(&snap, &cache);
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "no catalog snapshot published yet — call Publish first");
  }
  if (saved.fingerprint != snap->fingerprint()) {
    return Status::FailedPrecondition(
        "saved session was recorded on a different catalog (fingerprint "
        "mismatch); replay would not be exact — use Migrate to replay onto "
        "the current epoch with divergence tolerated");
  }
  AIGS_ASSIGN_OR_RETURN(
      std::shared_ptr<ServiceSession> session,
      BuildSession(std::move(snap), std::move(cache), saved.policy_spec));
  // Replay with verification: determinism (Definition 6) guarantees the
  // fresh session regenerates the recorded questions in order; any
  // divergence means the catalog or policy changed under us.
  AIGS_RETURN_NOT_OK(ReplayTranscript(*session, saved.steps,
                                      ReplayMode::kExact,
                                      /*max_divergence=*/0, nullptr));
  AIGS_ASSIGN_OR_RETURN(const SessionId id,
                        InsertSession(session, proposed_id));
  if (DurableStore* store = durable_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(session->mutex);
    if (const Status logged = store->AppendOpen(id, SnapshotState(*session));
        !logged.ok()) {
      (void)sessions_.Erase(id);
      return logged;
    }
  }
  return id;
}

StatusOr<std::shared_ptr<ServiceSession>> Engine::MigrateDecoded(
    const SerializedSession& saved, std::size_t* divergent_steps) {
  std::shared_ptr<const CatalogSnapshot> snap;
  std::shared_ptr<PlanCache> cache;
  CurrentEpochState(&snap, &cache);
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "no catalog snapshot published yet — call Publish first");
  }
  // Migration tolerates changed weights, never a changed node space: a v1
  // blob carries no hierarchy digest, so it only qualifies when its full
  // fingerprint still matches (the exact case).
  if (saved.hierarchy_fingerprint != 0) {
    if (saved.hierarchy_fingerprint != snap->hierarchy_fingerprint()) {
      return Status::FailedPrecondition(
          "saved session was recorded on a different hierarchy; its node "
          "ids do not transfer");
    }
  } else if (saved.fingerprint != snap->fingerprint()) {
    return Status::FailedPrecondition(
        "saved session predates hierarchy fingerprints (aigs-session/1) "
        "and its catalog fingerprint no longer matches");
  }
  AIGS_ASSIGN_OR_RETURN(
      std::shared_ptr<ServiceSession> session,
      BuildSession(std::move(snap), std::move(cache), saved.policy_spec));
  AIGS_RETURN_NOT_OK(ReplayTranscript(
      *session, saved.steps, ReplayMode::kTolerant,
      options_.migration.max_divergence, divergent_steps));
  return session;
}

StatusOr<MigrateResult> Engine::MigrateBlobImpl(const std::string& serialized,
                                                SessionId proposed_id) {
  AIGS_ASSIGN_OR_RETURN(const SerializedSession saved,
                        SessionCodec::Decode(serialized));
  MigrateResult result;
  result.from_epoch = saved.epoch;
  result.steps = saved.steps.size();
  auto session = MigrateDecoded(saved, &result.divergent_steps);
  if (!session.ok()) {
    migration_failures_.fetch_add(1, std::memory_order_relaxed);
    return session.status();
  }
  result.to_epoch = (*session)->snapshot->epoch();
  AIGS_ASSIGN_OR_RETURN(result.id, InsertSession(*session, proposed_id));
  if (DurableStore* store = durable_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock((*session)->mutex);
    if (const Status logged =
            store->AppendOpen(result.id, SnapshotState(**session));
        !logged.ok()) {
      (void)sessions_.Erase(result.id);
      return logged;
    }
  }
  sessions_migrated_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

StatusOr<MigrateResult> Engine::MigrateLocked(SessionId id,
                                              ServiceSession& session) {
  MigrateResult result;
  result.id = id;
  result.from_epoch = session.snapshot->epoch();
  result.steps = session.transcript.size();

  std::shared_ptr<const CatalogSnapshot> snap;
  std::shared_ptr<PlanCache> cache;
  CurrentEpochState(&snap, &cache);
  AIGS_CHECK(snap != nullptr);  // the session exists, so Publish happened
  result.to_epoch = snap->epoch();
  if (snap.get() == session.snapshot.get()) {
    result.to_epoch = result.from_epoch;
    return result;  // already current: zero-step no-op
  }
  if (session.snapshot->hierarchy_fingerprint() !=
      snap->hierarchy_fingerprint()) {
    migration_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition(
        "current epoch runs a different hierarchy; node ids do not "
        "transfer");
  }
  // Build and replay into a private scratch session; the live one is only
  // touched on success, so failures leave it intact on its old epoch.
  auto rebuilt = BuildSession(std::move(snap), std::move(cache),
                              session.policy_spec);
  if (!rebuilt.ok()) {
    migration_failures_.fetch_add(1, std::memory_order_relaxed);
    return rebuilt.status();
  }
  if (const Status replay = ReplayTranscript(
          **rebuilt, session.transcript, ReplayMode::kTolerant,
          options_.migration.max_divergence, &result.divergent_steps);
      !replay.ok()) {
    migration_failures_.fetch_add(1, std::memory_order_relaxed);
    return replay;
  }
  ServiceSession& fresh = **rebuilt;
  const bool had_pending = session.has_pending;
  session.snapshot = std::move(fresh.snapshot);
  session.policy = fresh.policy;
  session.plan_cache = std::move(fresh.plan_cache);
  session.search = std::move(fresh.search);
  session.transcript = std::move(fresh.transcript);
  session.plan_prefix = fresh.plan_prefix;
  session.has_pending = false;
  // A question the client already saw may differ on the new epoch; force a
  // re-Ask instead of silently applying their answer to a new question.
  session.reask_after_migration = had_pending;
  session.epoch.store(result.to_epoch, std::memory_order_relaxed);
  sessions_migrated_.fetch_add(1, std::memory_order_relaxed);
  if (DurableStore* store = durable_.load(std::memory_order_acquire)) {
    // Re-log the whole session: the migration rewrote its fingerprint and
    // divergence flags, so subsequent step records chain off this state.
    // Best-effort — an IOError leaves the WAL describing the pre-migration
    // prefix (still a consistent recovery) and is counted by the store.
    (void)store->AppendOpen(id, SnapshotState(session));
  }
  return result;
}

StatusOr<MigrateResult> Engine::MigrateImpl(SessionId id) {
  AIGS_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                        FindSession(id));
  std::lock_guard<std::mutex> lock(session->mutex);
  return MigrateLocked(id, *session);
}

Status Engine::CloseImpl(SessionId id) {
  AIGS_RETURN_NOT_OK(sessions_.Erase(id));
  if (DurableStore* store = durable_.load(std::memory_order_acquire)) {
    AIGS_RETURN_NOT_OK(store->AppendClose(id));
  }
  return Status::OK();
}

Status Engine::EnableDurability(DurabilityOptions options) {
  std::lock_guard<std::mutex> lock(durable_mutex_);
  if (durable_owner_ != nullptr) {
    return Status::FailedPrecondition("durability is already enabled");
  }
  if (DurableStore::HasState(options.dir)) {
    return Status::FailedPrecondition(
        "'" + options.dir +
        "' already holds durable session state; Recover it (or remove the "
        "directory) instead of overwriting it");
  }
  DurableScan scan;
  AIGS_ASSIGN_OR_RETURN(durable_owner_,
                        DurableStore::Open(std::move(options), &scan));
  durable_.store(durable_owner_.get(), std::memory_order_release);
  // Sessions opened before durability was enabled exist only in memory;
  // an immediate checkpoint makes them (and the id watermark) durable.
  std::lock_guard<std::mutex> checkpoint(checkpoint_mutex_);
  return CheckpointLocked(*durable_owner_);
}

StatusOr<std::shared_ptr<ServiceSession>> Engine::RecoverSession(
    const SerializedSession& saved, std::size_t* divergent_steps) {
  std::shared_ptr<const CatalogSnapshot> snap;
  std::shared_ptr<PlanCache> cache;
  CurrentEpochState(&snap, &cache);
  AIGS_CHECK(snap != nullptr);  // Recover checks before scanning
  if (saved.fingerprint != snap->fingerprint()) {
    // The catalog changed across the restart; fall back to the migration
    // contract (same hierarchy, tolerated divergence within budget).
    return MigrateDecoded(saved, divergent_steps);
  }
  AIGS_ASSIGN_OR_RETURN(
      std::shared_ptr<ServiceSession> session,
      BuildSession(std::move(snap), std::move(cache), saved.policy_spec));
  AIGS_RETURN_NOT_OK(ReplayTranscript(*session, saved.steps,
                                      ReplayMode::kExact,
                                      /*max_divergence=*/0, divergent_steps));
  return session;
}

StatusOr<RecoveryStats> Engine::Recover(DurabilityOptions options) {
  if (snapshot() == nullptr) {
    return Status::FailedPrecondition(
        "no catalog snapshot published yet — recovery replays transcripts "
        "against the current snapshot, so Publish first");
  }
  std::lock_guard<std::mutex> lock(durable_mutex_);
  if (durable_owner_ != nullptr) {
    return Status::FailedPrecondition("durability is already enabled");
  }
  DurableScan scan;
  AIGS_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> store,
                        DurableStore::Open(std::move(options), &scan));
  RecoveryStats stats;
  stats.checkpoint_sessions = scan.checkpoint_sessions;
  stats.wal_records = scan.wal_records;
  stats.torn_tails = scan.torn_tails;
  stats.torn_bytes = scan.torn_bytes;
  stats.malformed_records = scan.malformed_records;
  stats.invalid_checkpoints = scan.invalid_checkpoints;

  const std::uint64_t now_wall = store->NowWallMillis();
  const std::uint64_t ttl = options_.sessions.ttl_millis;
  for (const RecoveredSessionRecord& record : scan.sessions) {
    // The recovery half of the TTL contract: a session that would have
    // been evicted had the process lived is dropped here, never
    // resurrected. (Recovered survivors restart their idle clock.)
    if (ttl != 0 && now_wall > record.last_active_wall_ms &&
        now_wall - record.last_active_wall_ms > ttl) {
      ++stats.expired_dropped;
      continue;
    }
    std::size_t divergent = 0;
    auto session = RecoverSession(record.saved, &divergent);
    if (!session.ok() ||
        !sessions_.InsertWithId(record.id, *std::move(session)).ok()) {
      ++stats.replay_failures;
      continue;
    }
    ++stats.recovered;
    if (divergent > 0) {
      ++stats.divergent_sessions;
    }
  }
  sessions_.ReserveIds(scan.next_session_id);

  durable_owner_ = std::move(store);
  durable_.store(durable_owner_.get(), std::memory_order_release);
  recovered_.fetch_add(stats.recovered, std::memory_order_relaxed);
  expired_dropped_.fetch_add(stats.expired_dropped,
                             std::memory_order_relaxed);
  last_recovery_ = stats;
  has_recovery_ = true;
  // Collapse the replayed segments into one fresh checkpoint so the next
  // recovery starts from here. Best-effort: a failure leaves the old
  // files, which still recover (that is what just happened).
  std::lock_guard<std::mutex> checkpoint(checkpoint_mutex_);
  (void)CheckpointLocked(*durable_owner_);
  return stats;
}

Status Engine::CheckpointLocked(DurableStore& store) {
  AIGS_ASSIGN_OR_RETURN(const std::uint64_t seq, store.BeginCheckpoint());
  // Rotation happened FIRST: every append from here lands in the new
  // segment. A step both inside a blob below and in that segment replays
  // idempotently via its transcript index.
  const std::uint64_t now_wall = store.NowWallMillis();
  std::vector<DurableStore::CheckpointSession> sessions;
  for (const auto& entry : sessions_.SnapshotWithIdle()) {
    if (entry.session == nullptr || sessions_.Peek(entry.id) != entry.session) {
      continue;  // evicted or replaced since capture; never resurrected
    }
    DurableStore::CheckpointSession record;
    record.id = entry.id;
    record.last_active_wall_ms = now_wall > entry.idle_millis
                                     ? now_wall - entry.idle_millis
                                     : 0;
    {
      std::lock_guard<std::mutex> lock(entry.session->mutex);
      record.blob = SessionCodec::Encode(SnapshotState(*entry.session));
    }
    sessions.push_back(std::move(record));
  }
  return store.CommitCheckpoint(seq, sessions, sessions_.next_id());
}

Status Engine::Checkpoint() {
  DurableStore* store = durable_.load(std::memory_order_acquire);
  if (store == nullptr) {
    return Status::FailedPrecondition("durability is not enabled");
  }
  std::lock_guard<std::mutex> lock(checkpoint_mutex_);
  return CheckpointLocked(*store);
}

void Engine::MaybeAutoCheckpoint() {
  DurableStore* store = durable_.load(std::memory_order_acquire);
  if (store == nullptr || !store->ShouldCheckpoint()) {
    return;
  }
  std::unique_lock<std::mutex> lock(checkpoint_mutex_, std::try_to_lock);
  if (!lock.owns_lock() || !store->ShouldCheckpoint()) {
    return;  // a checkpoint is already running (it resets the counter)
  }
  // Best-effort: on failure the WAL simply keeps growing and the next
  // threshold crossing retries; durability of acked records is unaffected.
  (void)CheckpointLocked(*store);
}

Status Engine::FlushDurable() {
  DurableStore* store = durable_.load(std::memory_order_acquire);
  return store == nullptr ? Status::OK() : store->Sync();
}

std::shared_ptr<PlanCache> Engine::plan_cache() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return plan_cache_;
}

EngineStats Engine::Stats() const {
  EngineStats stats;
  std::shared_ptr<PlanCache> cache;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    stats.epoch = snapshot_ == nullptr ? 0 : snapshot_->epoch();
    cache = plan_cache_;
  }
  stats.sessions_by_epoch = sessions_.SessionsByEpoch();
  for (const auto& [epoch, count] : stats.sessions_by_epoch) {
    stats.live_sessions += count;
  }
  if (cache != nullptr) {
    stats.plan_cache_enabled = true;
    stats.plan_cache = cache->stats();
    stats.plan_cache_by_epoch.emplace(stats.epoch, stats.plan_cache);
  }
  stats.sessions_migrated =
      sessions_migrated_.load(std::memory_order_relaxed);
  stats.migration_failures =
      migration_failures_.load(std::memory_order_relaxed);
  stats.ops.opens = op_counts_[kOpOpen].load(std::memory_order_relaxed);
  stats.ops.asks = op_counts_[kOpAsk].load(std::memory_order_relaxed);
  stats.ops.answers = op_counts_[kOpAnswer].load(std::memory_order_relaxed);
  stats.ops.saves = op_counts_[kOpSave].load(std::memory_order_relaxed);
  stats.ops.resumes = op_counts_[kOpResume].load(std::memory_order_relaxed);
  stats.ops.migrates = op_counts_[kOpMigrate].load(std::memory_order_relaxed);
  stats.ops.closes = op_counts_[kOpClose].load(std::memory_order_relaxed);
  for (std::size_t code = 0; code < rejected_by_code_.size(); ++code) {
    stats.ops.rejected_by_code[code] =
        rejected_by_code_[code].load(std::memory_order_relaxed);
    stats.ops.rejected += stats.ops.rejected_by_code[code];
  }
  stats.drain = drain_->Snapshot();
  if (DurableStore* store = durable_.load(std::memory_order_acquire)) {
    stats.durable = true;
    stats.durability = store->Stats();
  }
  stats.recovered = recovered_.load(std::memory_order_relaxed);
  stats.expired_dropped = expired_dropped_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(durable_mutex_);
    stats.has_recovery = has_recovery_;
    stats.last_recovery = last_recovery_;
  }
  return stats;
}

}  // namespace aigs
