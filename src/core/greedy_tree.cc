#include "core/greedy_tree.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "util/node_map.h"

namespace aigs {
namespace {

/// |2a - b| in unsigned arithmetic, computed as |a - (b - a)| so it stays
/// overflow-free for any a <= b (2a can exceed 2^64 on kRealScale-scaled
/// distributions over large catalogs).
Weight SplitDiff(Weight subtree, Weight total) {
  const Weight rest = total - subtree;
  return subtree > rest ? subtree - rest : rest - subtree;
}

/// True iff 2a > b without forming 2a (a <= b).
bool MoreThanHalf(Weight subtree, Weight total) {
  return subtree > total - subtree;
}

/// One search session implementing the Algorithm 4 descent over a
/// TreeSearchState overlay.
class GreedyTreeSession final : public SearchSession {
 public:
  GreedyTreeSession(const TreeWeightBase& base,
                    GreedyTreeOptions::ChildScan child_scan)
      : state_(base), child_scan_(child_scan) {}

  Query PlanQuestion() const override {
    if (state_.CandidateCount() == 1) {
      return Query::Done(state_.Target());
    }
    return Query::ReachQuery(SelectQueryNode());
  }

  void ApplyReach(NodeId q, bool yes) override {
    if (yes) {
      state_.ApplyYes(q);
    } else {
      state_.ApplyNo(q);
      // Removal invalidates cached heap entries along the ancestor path;
      // the lazy heap self-heals by re-checking weights on pop.
    }
  }

  // Observed fold (cross-epoch migration): normalize the question against
  // the tree geometry before touching the state, so a question another
  // epoch's planner picked never trips the descend-only invariants.
  Status ApplyObservedStep(const TranscriptStep& step) override {
    if (step.kind != Query::Kind::kReach) {
      return SearchSession::ApplyObservedStep(step);
    }
    const Tree& tree = state_.base().tree();
    const NodeId q = step.nodes[0];
    if (q >= tree.NumNodes()) {
      return Status::OutOfRange("observed question node " +
                                std::to_string(q) +
                                " outside the hierarchy");
    }
    const NodeId r = state_.root();
    if (q == r || tree.InSubtree(q, r)) {
      // q is the root or an ancestor: yes is already known, no contradicts
      // the earlier yes that moved the root here.
      return step.yes ? Status::OK()
                      : Status::InvalidArgument(
                            "observed no for ancestor node " +
                            std::to_string(q) +
                            " contradicts the transcript so far");
    }
    if (!tree.InSubtree(r, q)) {
      // Disjoint subtree: a tree target under r is never under q, so yes
      // is inconsistent and no is free.
      return step.yes ? Status::InvalidArgument(
                            "observed yes for node " + std::to_string(q) +
                            " outside the candidate subtree")
                      : Status::OK();
    }
    // q lies strictly under the root; check whether an earlier no already
    // removed it (walk the ancestor chain up to r — O(depth), replay only).
    bool removed = false;
    for (NodeId a = q; a != r && a != kInvalidNode; a = tree.Parent(a)) {
      if (state_.IsRemovedTop(a)) {
        removed = true;
        break;
      }
    }
    if (removed) {
      return step.yes ? Status::InvalidArgument(
                            "observed yes for node " + std::to_string(q) +
                            " inside an eliminated subtree")
                      : Status::OK();  // already known
    }
    if (step.yes) {
      state_.ApplyYes(q);
    } else {
      // Removing T_q never empties the candidates: the root answered yes,
      // so it stays a candidate outside T_q.
      state_.ApplyNo(q);
    }
    return Status::OK();
  }

 private:
  /// A child of the descent with its session subtree weight.
  struct Child {
    NodeId node = kInvalidNode;
    Weight weight = 0;
  };

  // Algorithm 4 lines 4–9: walk down the weighted heavy path while the
  // current node still dominates half the remaining weight; return the
  // better of the last two nodes visited. Never returns the current root
  // (its answer is known to be yes).
  NodeId SelectQueryNode() const {
    const NodeId r = state_.root();
    const Weight total = state_.SubtreeWeight(r);
    Child u;
    Child v{r, total};
    NodeId first_child = kInvalidNode;
    while (MoreThanHalf(v.weight, total) && !IsSessionLeaf(v.node)) {
      u = v;
      v = MaxWeightAliveChild(v.node);
      AIGS_DCHECK(v.node != kInvalidNode);
      if (first_child == kInvalidNode) {
        first_child = v.node;
      }
    }
    if (u.node == kInvalidNode) {
      // Zero-weight remainder (possible only when the distribution assigns
      // no mass to the surviving candidates): any alive child keeps the
      // search progressing and costs nothing in expectation.
      return MaxWeightAliveChild(r).node;
    }
    const NodeId q =
        SplitDiff(u.weight, total) <= SplitDiff(v.weight, total) ? u.node
                                                                 : v.node;
    // Querying the root is a wasted question; fall to its heavy child.
    return q == r ? first_child : q;
  }

  // A node is a leaf of the candidate tree when no descendant survives.
  bool IsSessionLeaf(NodeId v) const { return state_.SubtreeSize(v) == 1; }

  // Both scans return the heaviest alive child, the earliest in
  // Children(v) order among equal weights, so they ask the same questions.
  Child MaxWeightAliveChild(NodeId v) const {
    return child_scan_ == GreedyTreeOptions::ChildScan::kLinear
               ? MaxChildLinear(v)
               : MaxChildHeap(v);
  }

  Child MaxChildLinear(NodeId v) const {
    Child best;
    for (const NodeId c : state_.base().tree().Children(v)) {
      const std::optional<Weight> w = state_.AliveSubtreeWeight(c);
      if (w && (best.node == kInvalidNode || *w > best.weight)) {
        best = {c, *w};
      }
    }
    return best;
  }

  // Lazy max-heap per visited node: entries carry the weight observed at
  // push time; stale tops (weights only ever decrease) are re-pushed with
  // their current weight until the top is fresh.
  Child MaxChildHeap(NodeId v) const {
    const auto children = state_.base().tree().Children(v);
    auto& heap = heaps_[v];
    if (!heap.initialized) {
      for (std::uint32_t i = 0; i < children.size(); ++i) {
        heap.entries.push_back({state_.SubtreeWeight(children[i]), i});
      }
      std::make_heap(heap.entries.begin(), heap.entries.end(), HeapLess);
      heap.initialized = true;
    }
    auto& entries = heap.entries;
    while (!entries.empty()) {
      const HeapEntry top = entries.front();
      const NodeId c = children[top.index];
      const std::optional<Weight> current = state_.AliveSubtreeWeight(c);
      if (current && *current == top.weight) {
        return {c, top.weight};
      }
      std::pop_heap(entries.begin(), entries.end(), HeapLess);
      if (current) {
        entries.back().weight = *current;
        std::push_heap(entries.begin(), entries.end(), HeapLess);
      } else {
        entries.pop_back();
      }
    }
    return {};
  }

  /// A child's weight at push time and its position in Children(v).
  struct HeapEntry {
    Weight weight = 0;
    std::uint32_t index = 0;
  };

  // Max-heap order: heavier first, then earlier in Children(v) — the
  // linear scan's tie-break.
  static bool HeapLess(const HeapEntry& a, const HeapEntry& b) {
    return a.weight != b.weight ? a.weight < b.weight : a.index > b.index;
  }

  struct LazyHeap {
    bool initialized = false;
    std::vector<HeapEntry> entries;
  };

  TreeSearchState state_;
  GreedyTreeOptions::ChildScan child_scan_;
  // Planner memoization: lazily-built per-node max-heaps over child subtree
  // weights. Self-healing (stale tops re-check current weights on pop), so
  // the heaps are derived state, never a source of nondeterminism. Only
  // the heap scan writes it, so a linear-scan session never allocates it.
  mutable NodeMap<LazyHeap> heaps_;
};

}  // namespace

GreedyTreePolicy::GreedyTreePolicy(const Hierarchy& hierarchy,
                                   const Distribution& dist,
                                   GreedyTreeOptions options)
    : hierarchy_(&hierarchy),
      options_(options),
      base_(hierarchy.tree(), options.use_rounded_weights
                                  ? RoundWeights(dist, options.rounding)
                                  : dist.weights()) {
  AIGS_CHECK(hierarchy.is_tree());
  AIGS_CHECK(dist.size() == hierarchy.NumNodes());
}

std::unique_ptr<SearchSession> GreedyTreePolicy::NewSession() const {
  return std::make_unique<GreedyTreeSession>(base_, options_.child_scan);
}

}  // namespace aigs
