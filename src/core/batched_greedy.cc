#include "core/batched_greedy.h"

#include <vector>

#include "core/split_weight_index.h"
#include "graph/candidate_set.h"

namespace aigs {
namespace {

// Reference backend: per-pick BFS scans over a scratch candidate set.
class BatchedGreedyBfsSession final : public SearchSession {
 public:
  BatchedGreedyBfsSession(const Hierarchy& h,
                          const std::vector<Weight>& weights,
                          std::size_t questions_per_round)
      : hierarchy_(&h),
        weights_(&weights),
        questions_per_round_(questions_per_round),
        candidates_(h.graph()),
        simulated_(h.graph()),
        scratch_(h.NumNodes()) {}

  Query PlanQuestion() const override {
    if (candidates_.alive_count() == 1) {
      return Query::Done(candidates_.SoleCandidate());
    }
    return Query::ReachBatch(SelectBatch());
  }

  void ApplyReachBatch(std::span<const NodeId> nodes,
                       const std::vector<bool>& answers) override {
    AIGS_CHECK(TryApplyReachBatch(nodes, answers).ok() &&
               "batch answers eliminated every candidate");
  }

  Status TryApplyReachBatch(std::span<const NodeId> nodes,
                            const std::vector<bool>& answers) override {
    AIGS_CHECK(answers.size() == nodes.size());
    const ReachabilityIndex& reach = hierarchy_->reach();
    // Intersect all answers: t survives iff Reaches(q_i, t) == answers[i]
    // for every question of the round. (Answers may reference nodes already
    // excluded by other answers of the same round — intersection handles
    // every combination uniformly.)
    std::vector<NodeId> to_kill;
    candidates_.bits().ForEachSetBit([&](std::size_t raw) {
      const NodeId t = static_cast<NodeId>(raw);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (reach.Reaches(nodes[i], t) != answers[i]) {
          to_kill.push_back(t);
          return;
        }
      }
    });
    if (to_kill.size() == candidates_.alive_count()) {
      // Mutually inconsistent answers: no candidate survives. Leave the
      // round pending so a (service) caller can re-answer.
      return Status::InvalidArgument(
          "batch answers are mutually inconsistent — they eliminate every "
          "candidate");
    }
    // Kill via single-node removals on the bitset; counts stay consistent.
    for (const NodeId t : to_kill) {
      candidates_.KillOne(t);
    }
    return Status::OK();
  }

  Status ApplyObservedStep(const TranscriptStep& step) override {
    // The batch applier is already a pure intersection over arbitrary
    // (node, answer) rounds, so an observed round from another epoch folds
    // through the same validating path.
    if (step.kind != Query::Kind::kReachBatch) {
      return SearchSession::ApplyObservedStep(step);
    }
    for (const NodeId q : step.nodes) {
      if (q >= hierarchy_->NumNodes()) {
        return Status::OutOfRange("observed question node " +
                                  std::to_string(q) +
                                  " outside the hierarchy");
      }
    }
    return TryApplyReachBatch(step.nodes, step.batch_answers);
  }

 private:
  // Picks up to k questions: each is the middle point of the region that
  // remains after assuming "no" to the round's earlier picks. The member
  // scratch set is reset from the live one instead of copy-constructed.
  std::vector<NodeId> SelectBatch() const {
    std::vector<NodeId> batch;
    simulated_.ResetFrom(candidates_);
    while (batch.size() < questions_per_round_ &&
           simulated_.alive_count() > 1) {
      const NodeId q = MiddlePointOf(simulated_);
      if (q == kInvalidNode) {
        break;
      }
      batch.push_back(q);
      simulated_.RemoveReachable(q);
    }
    AIGS_CHECK(!batch.empty());
    return batch;
  }

  // Middle point over `set`: minimizes |2·w(R(v) ∩ set) − w(set)| among
  // nodes that actually split the set (0 < |R(v) ∩ set| < |set| by count),
  // so progress never stalls on zero-weight regions.
  NodeId MiddlePointOf(CandidateSet& set) const {
    const Digraph& g = hierarchy_->graph();
    Weight total = 0;
    set.bits().ForEachSetBit(
        [&](std::size_t v) { total += (*weights_)[v]; });
    NodeId best = kInvalidNode;
    Weight best_diff = 0;
    const std::size_t set_count = set.alive_count();
    set.bits().ForEachSetBit([&](std::size_t raw) {
      const NodeId v = static_cast<NodeId>(raw);
      Weight reach_weight = 0;
      std::size_t reach_count = 0;
      scratch_.ForwardBfs(
          g, v, [&set](NodeId x) { return set.IsAlive(x); },
          [&](NodeId x) {
            reach_weight += (*weights_)[x];
            ++reach_count;
          });
      if (reach_count == set_count) {
        return;  // "yes" is certain; the question is wasted
      }
      // Overflow-safe |2*reach - total| (same pattern as middle_point.cc).
      const Weight rest = total - reach_weight;
      const Weight diff =
          reach_weight > rest ? reach_weight - rest : rest - reach_weight;
      if (best == kInvalidNode || diff < best_diff) {
        best = v;
        best_diff = diff;
      }
    });
    return best;
  }

  const Hierarchy* hierarchy_;
  const std::vector<Weight>* weights_;
  std::size_t questions_per_round_;
  CandidateSet candidates_;
  // Planning scratch (round simulation + BFS) — memoized derived state,
  // reset from `candidates_` on every plan.
  mutable CandidateSet simulated_;
  mutable BfsScratch scratch_;
};

// Fast backend: SplitWeightIndex state; the round simulation runs in the
// planning thread's scratch. Construction is O(1) — the session is an
// overlay over the policy's base.
class BatchedGreedyIndexSession final : public SearchSession {
 public:
  BatchedGreedyIndexSession(const SplitWeightBase& base,
                            std::size_t questions_per_round)
      : questions_per_round_(questions_per_round), state_(base) {}

  Query PlanQuestion() const override {
    const CandidateView view = state_.View();
    if (view.AliveCount() == 1) {
      return Query::Done(view.Target());
    }
    return Query::ReachBatch(SelectBatch());
  }

  void ApplyReachBatch(std::span<const NodeId> nodes,
                       const std::vector<bool>& answers) override {
    AIGS_CHECK(TryApplyReachBatch(nodes, answers).ok() &&
               "batch answers eliminated every candidate");
  }

  Status TryApplyReachBatch(std::span<const NodeId> nodes,
                            const std::vector<bool>& answers) override {
    // Folds the round into the candidate view first, so mutually
    // inconsistent answers are rejected without touching the session.
    return state_.TryApplyBatch(nodes, answers);
  }

  Status ApplyObservedStep(const TranscriptStep& step) override {
    // TryApplyBatch tolerates arbitrary (node, answer) rounds — dead nodes,
    // down-only root moves — so the observed fold is the validating batch
    // path itself.
    if (step.kind != Query::Kind::kReachBatch) {
      return SearchSession::ApplyObservedStep(step);
    }
    for (const NodeId q : step.nodes) {
      if (q >= state_.hierarchy().NumNodes()) {
        return Status::OutOfRange("observed question node " +
                                  std::to_string(q) +
                                  " outside the hierarchy");
      }
    }
    return state_.TryApplyBatch(step.nodes, step.batch_answers);
  }

 private:
  std::vector<NodeId> SelectBatch() const {
    std::vector<NodeId> batch;
    RoundSimulation round = state_.SimulateRound();
    while (batch.size() < questions_per_round_ &&
           round.view().AliveCount() > 1) {
      const MiddlePoint mp = round.view().FindSplittingMiddlePoint();
      if (mp.node == kInvalidNode) {
        break;
      }
      batch.push_back(mp.node);
      round.AssumeNo(mp.node);
    }
    AIGS_CHECK(!batch.empty());
    return batch;
  }

  std::size_t questions_per_round_;
  SplitWeightIndex state_;
};

}  // namespace

BatchedGreedyPolicy::BatchedGreedyPolicy(const Hierarchy& hierarchy,
                                         const Distribution& dist,
                                         BatchedGreedyOptions options)
    : hierarchy_(&hierarchy), weights_(dist.weights()), options_(options) {
  AIGS_CHECK(dist.size() == hierarchy.NumNodes());
  AIGS_CHECK(options.questions_per_round >= 1);
  if (options_.backend == SelectionBackend::kSplitIndex) {
    base_ = std::make_unique<SplitWeightBase>(hierarchy, weights_);
  }
}

std::unique_ptr<SearchSession> BatchedGreedyPolicy::NewSession() const {
  if (options_.backend == SelectionBackend::kBfsRescan) {
    return std::make_unique<BatchedGreedyBfsSession>(
        *hierarchy_, weights_, options_.questions_per_round);
  }
  return std::make_unique<BatchedGreedyIndexSession>(
      *base_, options_.questions_per_round);
}

}  // namespace aigs
