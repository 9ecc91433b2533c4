#include "core/cost_sensitive.h"

#include "core/split_weight_index.h"

namespace aigs {
namespace {

class CostSensitiveSession final : public SearchSession {
 public:
  CostSensitiveSession(const SplitWeightBase& base, const CostModel& costs)
      : state_(base), costs_(&costs) {}

  Query PlanQuestion() const override {
    const CandidateView view = state_.View();
    if (view.AliveCount() == 1) {
      return Query::Done(view.Target());
    }
    return Query::ReachQuery(SelectQueryNode(view));
  }

  void ApplyReach(NodeId q, bool yes) override {
    if (yes) {
      state_.ApplyYes(q);
    } else {
      state_.ApplyNo(q);
    }
  }

  Status ApplyObservedStep(const TranscriptStep& step) override {
    if (step.kind != Query::Kind::kReach) {
      return SearchSession::ApplyObservedStep(step);
    }
    return state_.TryApplyObservedReach(step.nodes[0], step.yes);
  }

 private:
  // argmax over alive v != root of p(G_v∩C)·p(C\G_v)/c(v), compared by exact
  // 128-bit cross multiplication: a/ca > b/cb  <=>  a·cb > b·ca. The inside
  // weight comes from the incremental index (O(log n) per candidate on
  // trees, O(n/64) on DAGs) instead of a session overlay. Enumeration order
  // is mode-dependent, so ties break explicitly toward the smaller node id —
  // the same winner the ascending-id scan picked.
  NodeId SelectQueryNode(const CandidateView& view) const {
    const NodeId r = view.root();
    const Weight total = view.TotalAlive();
    NodeId best = kInvalidNode;
    U128 best_product = 0;        // p(G_v∩C)·p(C\G_v)
    std::uint32_t best_cost = 1;  // c(best)
    view.ForEachAlive([&](NodeId v) {
      if (v == r) {
        return;
      }
      const Weight inside = view.ReachWeight(v);
      const U128 product =
          static_cast<U128>(inside) * static_cast<U128>(total - inside);
      const std::uint32_t cost = costs_->CostOf(v);
      const U128 lhs = product * best_cost;
      const U128 rhs = best_product * cost;
      if (best == kInvalidNode || lhs > rhs || (lhs == rhs && v < best)) {
        best = v;
        best_product = product;
        best_cost = cost;
      }
    });
    AIGS_CHECK(best != kInvalidNode);
    return best;
  }

  SplitWeightIndex state_;
  const CostModel* costs_;
};

}  // namespace

CostSensitiveGreedyPolicy::CostSensitiveGreedyPolicy(
    const Hierarchy& hierarchy, const Distribution& dist,
    const CostModel& costs, CostSensitiveOptions options)
    : hierarchy_(&hierarchy),
      weights_(options.use_rounded_weights ? RoundWeights(dist, options.rounding)
                                           : dist.weights()),
      costs_(&costs) {
  AIGS_CHECK(dist.size() == hierarchy.NumNodes());
  AIGS_CHECK(costs.size() == hierarchy.NumNodes());
  base_ = std::make_unique<SplitWeightBase>(hierarchy, weights_);
}

std::unique_ptr<SearchSession> CostSensitiveGreedyPolicy::NewSession() const {
  return std::make_unique<CostSensitiveSession>(*base_, *costs_);
}

}  // namespace aigs
