#include "core/tree_weight_index.h"

#include "tree/subtree_weights.h"

namespace aigs {

TreeWeightBase::TreeWeightBase(const Tree& tree,
                               std::vector<Weight> node_weights)
    : tree_(&tree) {
  SetWeights(std::move(node_weights));
}

void TreeWeightBase::SetWeights(std::vector<Weight> node_weights) {
  AIGS_CHECK(node_weights.size() == tree_->NumNodes());
  node_weight_ = std::move(node_weights);
  subtree_weight_ = ComputeSubtreeWeights(*tree_, node_weight_);
}

void TreeWeightBase::AddWeight(NodeId v, Weight delta) {
  node_weight_[v] += delta;
  for (NodeId a = v; a != kInvalidNode; a = tree_->Parent(a)) {
    subtree_weight_[a] += delta;
  }
}

void TreeSearchState::ApplyNo(NodeId q) {
  const Tree& tree = base_->tree();
  AIGS_DCHECK(q != root_);
  AIGS_DCHECK(tree.InSubtree(root_, q));
  AIGS_DCHECK(!IsRemovedTop(q));
  // Session values of the subtree being removed (they already account for
  // earlier removals strictly inside T_q).
  const Removed inside = removed_.GetOr(q, Removed{});
  const Weight w = base_->SubtreeWeight(q) - inside.weight;
  const std::uint32_t s = base_->SubtreeSize(q) - inside.size;
  AIGS_DCHECK(s >= 1);
  for (NodeId a = tree.Parent(q); a != kInvalidNode; a = tree.Parent(a)) {
    Removed& removed = removed_[a];
    removed.weight += w;
    removed.size += s;
    if (a == root_) {
      break;
    }
  }
  removed_[q].top = true;
}

}  // namespace aigs
