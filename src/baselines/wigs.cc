#include "baselines/wigs.h"

#include <algorithm>
#include <vector>

namespace aigs {
namespace {

// ---- Tree variant ----------------------------------------------------------

class WigsTreeSession final : public SearchSession {
 public:
  WigsTreeSession(const Tree& tree, const HeavyPathDecomposition& hpd,
                  const std::vector<std::vector<NodeId>>& ordered_children)
      : tree_(&tree), hpd_(&hpd), ordered_children_(&ordered_children),
        root_(tree.root()) {}

  Query PlanQuestion() const override {
    for (;;) {
      switch (phase_) {
        case Phase::kStartPath: {
          if (tree_->Children(root_).empty()) {
            return Query::Done(root_);
          }
          path_ = hpd_->PathFrom(root_);
          lo_ = 0;
          hi_ = path_.size() - 1;
          phase_ = Phase::kBinarySearch;
          break;
        }
        case Phase::kBinarySearch: {
          if (lo_ < hi_) {
            const std::size_t mid = (lo_ + hi_ + 1) / 2;
            return Query::ReachQuery(path_[mid]);
          }
          // Deepest yes node found; scan its light children.
          anchor_ = path_[lo_];
          heavy_child_ =
              lo_ + 1 < path_.size() ? path_[lo_ + 1] : kInvalidNode;
          scan_idx_ = 0;
          phase_ = Phase::kLightScan;
          break;
        }
        case Phase::kLightScan: {
          const auto& children = (*ordered_children_)[anchor_];
          while (scan_idx_ < children.size() &&
                 children[scan_idx_] == heavy_child_) {
            ++scan_idx_;  // the heavy child already answered no
          }
          if (scan_idx_ >= children.size()) {
            return Query::Done(anchor_);
          }
          return Query::ReachQuery(children[scan_idx_]);
        }
      }
    }
  }

  void ApplyReach(NodeId q, bool yes) override {
    // Settle the automaton first: a cache-supplied answer may arrive
    // without this session ever having planned, and the answer routing
    // below depends on the settled phase.
    if (!plan_settled()) {
      (void)PlanQuestion();
    }
    if (phase_ == Phase::kBinarySearch) {
      const std::size_t mid = (lo_ + hi_ + 1) / 2;
      AIGS_DCHECK(path_[mid] == q);
      if (yes) {
        lo_ = mid;
      } else {
        hi_ = mid - 1;
      }
      return;
    }
    AIGS_CHECK(phase_ == Phase::kLightScan);
    if (yes) {
      root_ = q;
      phase_ = Phase::kStartPath;
    } else {
      ++scan_idx_;
    }
  }

  // Observed fold (cross-epoch migration): a question recorded under
  // another epoch's heavy paths need not match this automaton's pending
  // probe (ApplyReach routes strictly by phase). Rewrite the fact against
  // the deepest known yes-node instead: a deeper yes restarts the search
  // at that node (forgetting nested no-knowledge is safe — those probes
  // may be re-asked; identification stays exact), a no matching a pending
  // probe narrows natively, and anything else is implied or forgotten.
  Status ApplyObservedStep(const TranscriptStep& step) override {
    if (step.kind != Query::Kind::kReach) {
      return SearchSession::ApplyObservedStep(step);
    }
    const NodeId q = step.nodes[0];
    if (q >= tree_->NumNodes()) {
      return Status::OutOfRange("observed question node " +
                                std::to_string(q) +
                                " outside the hierarchy");
    }
    // Settle so the phase fields below describe the current state.
    if (!plan_settled()) {
      (void)PlanQuestion();
    }
    const NodeId deepest = phase_ == Phase::kBinarySearch ? path_[lo_]
                           : phase_ == Phase::kLightScan  ? anchor_
                                                          : root_;
    const auto eliminated = [&](NodeId v) {
      switch (phase_) {
        case Phase::kStartPath:
          return false;
        case Phase::kBinarySearch:
          // The shallowest no on the heavy path, if any, cuts its subtree.
          return hi_ + 1 < path_.size() && tree_->InSubtree(path_[hi_ + 1], v);
        case Phase::kLightScan: {
          if (heavy_child_ != kInvalidNode &&
              tree_->InSubtree(heavy_child_, v)) {
            return true;
          }
          const auto& children = (*ordered_children_)[anchor_];
          for (std::size_t i = 0; i < scan_idx_ && i < children.size(); ++i) {
            if (tree_->InSubtree(children[i], v)) {
              return true;
            }
          }
          return false;
        }
      }
      return false;
    };
    if (step.yes) {
      if (q == deepest || tree_->InSubtree(q, deepest)) {
        return Status::OK();  // ancestor-or-self: already known
      }
      if (!tree_->InSubtree(deepest, q)) {
        return Status::InvalidArgument(
            "observed yes for node " + std::to_string(q) +
            " disjoint from the deepest known yes-node");
      }
      if (eliminated(q)) {
        return Status::InvalidArgument(
            "observed yes for node " + std::to_string(q) +
            " inside an already-eliminated subtree");
      }
      root_ = q;  // restart below the new deepest yes
      phase_ = Phase::kStartPath;
      return Status::OK();
    }
    if (q == deepest || tree_->InSubtree(q, deepest)) {
      return Status::InvalidArgument(
          "observed no for node " + std::to_string(q) +
          " contradicts the deepest known yes-node");
    }
    if (eliminated(q) || !tree_->InSubtree(deepest, q)) {
      return Status::OK();  // already implied
    }
    if (phase_ == Phase::kBinarySearch) {
      for (std::size_t k = lo_ + 1; k <= hi_; ++k) {
        if (path_[k] == q) {
          hi_ = k - 1;  // narrows the binary search natively
          return Status::OK();
        }
      }
    } else if (phase_ == Phase::kLightScan) {
      const auto& children = (*ordered_children_)[anchor_];
      if (scan_idx_ < children.size() && children[scan_idx_] == q) {
        ++scan_idx_;  // exactly the pending scan probe
        return Status::OK();
      }
    }
    // A no the automaton cannot encode as a search position; forget it.
    return Status::OK();
  }

 private:
  enum class Phase { kStartPath, kBinarySearch, kLightScan };

  const Tree* tree_;
  const HeavyPathDecomposition* hpd_;
  const std::vector<std::vector<NodeId>>* ordered_children_;

  NodeId root_;
  // Phase automaton. Mutable: planning advances the answer-free phase
  // transitions (start-path materialization, binary-search → light-scan) —
  // all deterministic functions of the answers applied so far.
  mutable Phase phase_ = Phase::kStartPath;
  mutable std::vector<NodeId> path_;
  mutable std::size_t lo_ = 0;
  mutable std::size_t hi_ = 0;
  mutable NodeId anchor_ = kInvalidNode;
  mutable NodeId heavy_child_ = kInvalidNode;
  mutable std::size_t scan_idx_ = 0;
};

// ---- DAG variant -----------------------------------------------------------

// Generalizes the tree strategy to DAGs with the candidate counts
// |R(v) ∩ C| a SplitWeightIndex overlay maintains:
//  * kChildScan — probe the current root's children in decreasing
//    alive-count order, one question each (the light-children scan);
//  * kBinarySearch — once a child answers yes (and becomes the root), build
//    the count-heaviest chain below it and binary-search for the deepest
//    yes. Chains are directed paths, so reach() answers along them are
//    prefix-monotone.
// Answers update the candidate sub-DAG eagerly in both phases; every yes
// moves the index root to the answered node, which is the scan's anchor.
class WigsDagSession final : public SearchSession {
 public:
  explicit WigsDagSession(const SplitWeightBase& base) : index_(base) {}

  Query PlanQuestion() const override {
    const CandidateView view = index_.View();
    if (view.AliveCount() == 1) {
      return Query::Done(view.Target());
    }
    if (phase_ == Phase::kBinarySearch && lo_ < hi_) {
      return Query::ReachQuery(chain_[Mid()]);
    }
    phase_ = Phase::kChildScan;
    const NodeId probe = MaxCountAliveChild(view, view.root());
    // AliveCount() > 1 plus the downward-closure invariant guarantee the
    // root still has an alive child.
    AIGS_CHECK(probe != kInvalidNode);
    return Query::ReachQuery(probe);
  }

  void ApplyReach(NodeId q, bool yes) override {
    // Settle the automaton (an exhausted binary search falls back to the
    // child scan) before routing the answer on the phase.
    if (!plan_settled()) {
      (void)PlanQuestion();
    }
    if (phase_ == Phase::kChildScan) {
      if (yes) {
        index_.ApplyYes(q);
        StartBinarySearch();
      } else {
        index_.ApplyNo(q);  // next Next() probes the next-best child
      }
      return;
    }
    AIGS_CHECK(phase_ == Phase::kBinarySearch);
    const std::ptrdiff_t mid = static_cast<std::ptrdiff_t>(Mid());
    AIGS_DCHECK(chain_[static_cast<std::size_t>(mid)] == q);
    if (yes) {
      index_.ApplyYes(q);
      lo_ = mid;
    } else {
      index_.ApplyNo(q);
      hi_ = mid - 1;
    }
    if (lo_ >= hi_) {
      phase_ = Phase::kChildScan;  // anchor found; scan its children
    }
  }

  // Observed fold (cross-epoch migration): fold the answer into the
  // candidate state, then drop back to the child scan unless it was an
  // already-known no — any in-flight chain was built for the pre-fold
  // candidate set and is rebuilt from the next plan.
  Status ApplyObservedStep(const TranscriptStep& step) override {
    if (step.kind != Query::Kind::kReach) {
      return SearchSession::ApplyObservedStep(step);
    }
    const std::size_t alive_before = index_.AliveCount();
    AIGS_RETURN_NOT_OK(index_.TryApplyObservedReach(step.nodes[0], step.yes));
    if (step.yes || index_.AliveCount() != alive_before) {
      phase_ = Phase::kChildScan;
    }
    return Status::OK();
  }

 private:
  enum class Phase { kChildScan, kBinarySearch };

  std::size_t Mid() const {
    return static_cast<std::size_t>((lo_ + hi_ + 1) / 2);
  }

  NodeId MaxCountAliveChild(const CandidateView& view, NodeId v) const {
    NodeId best = kInvalidNode;
    std::size_t best_count = 0;
    for (const NodeId c : index_.hierarchy().graph().Children(v)) {
      if (!view.IsAlive(c)) {
        continue;
      }
      const std::size_t count = view.ReachCount(c);
      if (best == kInvalidNode || count > best_count) {
        best = c;
        best_count = count;
      }
    }
    return best;
  }

  // The root just answered yes: binary-search the count-heaviest chain
  // below it (root excluded; chain[0] is its heaviest alive child).
  void StartBinarySearch() {
    chain_.clear();
    const CandidateView view = index_.View();
    for (NodeId v = MaxCountAliveChild(view, view.root());
         v != kInvalidNode; v = MaxCountAliveChild(view, v)) {
      chain_.push_back(v);
    }
    if (chain_.empty()) {
      phase_ = Phase::kChildScan;
      return;
    }
    lo_ = -1;  // -1 encodes "even chain[0] may be a no"
    hi_ = static_cast<std::ptrdiff_t>(chain_.size()) - 1;
    phase_ = Phase::kBinarySearch;
  }

  SplitWeightIndex index_;
  // Mutable: planning demotes an exhausted binary search to the child scan
  // — a deterministic function of the answers applied so far.
  mutable Phase phase_ = Phase::kChildScan;
  std::vector<NodeId> chain_;
  std::ptrdiff_t lo_ = 0;
  std::ptrdiff_t hi_ = 0;
};

}  // namespace

WigsTreePolicy::WigsTreePolicy(const Hierarchy& hierarchy)
    : hierarchy_(&hierarchy),
      hpd_(HeavyPathDecomposition::BySize(hierarchy.tree())) {
  AIGS_CHECK(hierarchy.is_tree());
  const Tree& tree = hierarchy.tree();
  std::vector<std::uint32_t> sizes(tree.NumNodes());
  for (NodeId v = 0; v < tree.NumNodes(); ++v) {
    sizes[v] = static_cast<std::uint32_t>(tree.SubtreeSize(v));
  }
  subtree_size_ = std::move(sizes);
  ordered_children_.resize(tree.NumNodes());
  for (NodeId v = 0; v < tree.NumNodes(); ++v) {
    const auto children = tree.Children(v);
    ordered_children_[v].assign(children.begin(), children.end());
    std::stable_sort(ordered_children_[v].begin(), ordered_children_[v].end(),
                     [this](NodeId a, NodeId b) {
                       return subtree_size_[a] > subtree_size_[b];
                     });
  }
}

std::unique_ptr<SearchSession> WigsTreePolicy::NewSession() const {
  return std::make_unique<WigsTreeSession>(hierarchy_->tree(), hpd_,
                                           ordered_children_);
}

WigsDagPolicy::WigsDagPolicy(const Hierarchy& hierarchy)
    : unit_weights_(hierarchy.NumNodes(), Weight{1}),
      base_(hierarchy, unit_weights_) {}

std::unique_ptr<SearchSession> WigsDagPolicy::NewSession() const {
  return std::make_unique<WigsDagSession>(base_);
}

std::unique_ptr<Policy> MakeWigsPolicy(const Hierarchy& hierarchy) {
  if (hierarchy.is_tree()) {
    return std::make_unique<WigsTreePolicy>(hierarchy);
  }
  return std::make_unique<WigsDagPolicy>(hierarchy);
}

}  // namespace aigs
