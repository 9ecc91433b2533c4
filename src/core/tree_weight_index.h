// Subtree-weight bookkeeping for GreedyTree (Algorithm 4/5).
//
// TreeWeightBase holds, for a (tree, node-weight) pair, the subtree weights
// p̃(v) = p(T_v) that Algorithm 5 (SetWeightDFS) computes; subtree sizes
// |T_v| come from the Tree's Euler intervals. It is shared by all search
// sessions and can be updated incrementally when the distribution changes
// one node at a time (online learning — O(depth) per labeled object).
//
// TreeSearchState is one session's view: current root plus one removal
// table recording the subtrees removed by no-answers (Algorithm 4 lines
// 11–14 subtract p̃(q)/size(q) along the root→q path — at most h entries per
// query). A fresh session costs O(1), not O(n), and allocates nothing until
// its first no-answer.
#ifndef AIGS_CORE_TREE_WEIGHT_INDEX_H_
#define AIGS_CORE_TREE_WEIGHT_INDEX_H_

#include <optional>
#include <vector>

#include "tree/tree.h"
#include "util/common.h"
#include "util/node_map.h"

namespace aigs {

/// Shared, optionally-mutable base weights for a tree hierarchy.
class TreeWeightBase {
 public:
  /// `node_weights` must have one entry per node. The tree must outlive the
  /// base.
  TreeWeightBase(const Tree& tree, std::vector<Weight> node_weights);

  const Tree& tree() const { return *tree_; }

  /// w(v): the node's own weight.
  Weight NodeWeight(NodeId v) const { return node_weight_[v]; }

  /// p̃(v) = Σ_{x ∈ T_v} w(x).
  Weight SubtreeWeight(NodeId v) const { return subtree_weight_[v]; }

  /// |T_v| (structure-only; read from the tree, never recomputed).
  std::uint32_t SubtreeSize(NodeId v) const {
    return static_cast<std::uint32_t>(tree_->SubtreeSize(v));
  }

  /// Σ w over the whole tree.
  Weight Total() const { return subtree_weight_[tree_->root()]; }

  /// Adds `delta` to w(v), updating p̃ along the root→v path (O(depth)).
  /// Not thread-safe with concurrent sessions; the online-learning harness
  /// serializes searches with updates.
  void AddWeight(NodeId v, Weight delta);

  /// Replaces all node weights (O(n)).
  void SetWeights(std::vector<Weight> node_weights);

 private:
  const Tree* tree_;
  std::vector<Weight> node_weight_;
  std::vector<Weight> subtree_weight_;
};

/// Per-search overlay implementing the candidate tree of Algorithm 4.
class TreeSearchState {
 public:
  /// Starts with the whole tree alive and the root as search root.
  explicit TreeSearchState(const TreeWeightBase& base)
      : base_(&base), root_(base.tree().root()) {}

  const TreeWeightBase& base() const { return *base_; }

  /// Current search root r (every candidate lies in T_r minus removals).
  NodeId root() const { return root_; }

  /// Session subtree weight: base p̃(v) minus weight removed under v.
  Weight SubtreeWeight(NodeId v) const {
    return base_->SubtreeWeight(v) - removed_.GetOr(v, Removed{}).weight;
  }

  /// Session subtree size.
  std::uint32_t SubtreeSize(NodeId v) const {
    return base_->SubtreeSize(v) - removed_.GetOr(v, Removed{}).size;
  }

  /// True iff v was eliminated by a no-answer (v is the top of a removed
  /// subtree). Nodes strictly inside removed subtrees are never probed by
  /// the descent, so a top-only flag suffices.
  bool IsRemovedTop(NodeId v) const {
    return removed_.GetOr(v, Removed{}).top;
  }

  /// SubtreeWeight(v), or nullopt when IsRemovedTop(v) — one probe of the
  /// removal table for the descent's child scan.
  std::optional<Weight> AliveSubtreeWeight(NodeId v) const {
    const Removed removed = removed_.GetOr(v, Removed{});
    if (removed.top) {
      return std::nullopt;
    }
    return base_->SubtreeWeight(v) - removed.weight;
  }

  /// Number of candidates remaining.
  std::uint32_t CandidateCount() const { return SubtreeSize(root_); }

  /// Applies reach(q) = yes: the search root moves to q.
  void ApplyYes(NodeId q) {
    AIGS_DCHECK(base_->tree().InSubtree(root_, q));
    root_ = q;
  }

  /// Applies reach(q) = no: removes T_q, subtracting its session weight and
  /// size from every node on the root→q path (Algorithm 4 lines 11–14).
  void ApplyNo(NodeId q);

  /// The identified target; requires CandidateCount() == 1.
  NodeId Target() const {
    AIGS_CHECK(CandidateCount() == 1);
    return root_;
  }

 private:
  /// What the no-answers so far took out of T_v: the session weight and
  /// size removed strictly below v, plus whether v itself was removed.
  struct Removed {
    Weight weight = 0;
    std::uint32_t size = 0;
    bool top = false;
  };

  const TreeWeightBase* base_;
  NodeId root_;
  /// One entry per ancestor of each no-answered node, and one per
  /// no-answered node; empty (and unallocated) until the first no.
  NodeMap<Removed> removed_;
};

}  // namespace aigs

#endif  // AIGS_CORE_TREE_WEIGHT_INDEX_H_
