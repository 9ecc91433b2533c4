// WIGS baseline — the worst-case interactive graph search of Tao et al.
// (SIGMOD'19), re-implemented as heavy-path binary search (DESIGN.md §2).
//
// Tree variant: binary-search the static (size-based) heavy path from the
// current root for the deepest yes-node u_t, then probe u_t's light children
// in decreasing subtree-size order; a yes recurses, all-no identifies u_t.
//
// DAG variant: reachability is monotone along any directed chain, so the
// session repeatedly builds the count-heaviest chain of the alive sub-DAG
// (child with max |R(c) ∩ C|, read from a SplitWeightIndex overlay) and
// binary-searches it, applying each answer eagerly.
//
// Both variants ignore the target distribution — reproducing the paper's
// observation that WIGS cost is insensitive to the probability setting
// (Tables IV/V).
#ifndef AIGS_BASELINES_WIGS_H_
#define AIGS_BASELINES_WIGS_H_

#include <memory>
#include <string>

#include "core/hierarchy.h"
#include "core/policy.h"
#include "core/split_weight_index.h"
#include "tree/heavy_path.h"

namespace aigs {

/// Worst-case-oriented baseline for tree hierarchies.
class WigsTreePolicy : public Policy {
 public:
  /// The hierarchy must satisfy is_tree().
  explicit WigsTreePolicy(const Hierarchy& hierarchy);

  std::string name() const override { return "WIGS"; }
  std::unique_ptr<SearchSession> NewSession() const override;

 private:
  const Hierarchy* hierarchy_;
  HeavyPathDecomposition hpd_;
  std::vector<std::uint32_t> subtree_size_;
  // Children of each node in decreasing subtree-size order (scan order).
  std::vector<std::vector<NodeId>> ordered_children_;
};

/// Worst-case-oriented baseline for DAG hierarchies (also valid on trees).
class WigsDagPolicy : public Policy {
 public:
  explicit WigsDagPolicy(const Hierarchy& hierarchy);

  std::string name() const override { return "WIGS"; }
  std::unique_ptr<SearchSession> NewSession() const override;

 private:
  // The base needs a weight vector; WIGS ignores the distribution and
  // reads only candidate counts, so every node weighs 1.
  std::vector<Weight> unit_weights_;
  SplitWeightBase base_;  // borrows unit_weights_
};

/// Picks the matching WIGS variant for the hierarchy.
std::unique_ptr<Policy> MakeWigsPolicy(const Hierarchy& hierarchy);

}  // namespace aigs

#endif  // AIGS_BASELINES_WIGS_H_
