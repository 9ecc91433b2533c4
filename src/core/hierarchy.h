// Validated category hierarchy bundle: the finalized graph plus the derived
// indexes every policy needs (tree view when applicable, O(1) reachability).
// Build one Hierarchy per dataset and share it across policies, oracles and
// evaluators.
#ifndef AIGS_CORE_HIERARCHY_H_
#define AIGS_CORE_HIERARCHY_H_

#include <cstdint>
#include <memory>

#include "graph/digraph.h"
#include "graph/reachability.h"
#include "tree/tree.h"
#include "util/status.h"

namespace aigs {

/// Immutable hierarchy with stable addresses (safe to move the Hierarchy
/// value itself; internals are heap-allocated).
class Hierarchy {
 public:
  /// Takes ownership of `g` (finalizing it first if necessary, adding a
  /// dummy root for multi-root inputs) and builds the indexes.
  /// `reach_options` selects the reachability storage (Euler intervals for
  /// trees; compressed closure rows for DAGs unless dense ones are asked
  /// for).
  static StatusOr<Hierarchy> Build(Digraph g,
                                   ReachabilityOptions reach_options = {});

  const Digraph& graph() const { return *graph_; }
  const ReachabilityIndex& reach() const { return *reach_; }

  /// True iff the hierarchy is a rooted tree (enables GreedyTree / tree
  /// WIGS).
  bool is_tree() const { return tree_ != nullptr; }

  /// Tree view; requires is_tree().
  const Tree& tree() const {
    AIGS_CHECK(tree_ != nullptr);
    return *tree_;
  }

  NodeId root() const { return graph_->root(); }
  std::size_t NumNodes() const { return graph_->NumNodes(); }
  std::size_t NumEdges() const { return graph_->NumEdges(); }
  int Height() const { return graph_->Height(); }
  std::size_t MaxOutDegree() const { return graph_->MaxOutDegree(); }

  /// FNV-1a digest of (n, m, root, every parent→child edge), computed once
  /// at Build(). Epochs that share the hierarchy share this value;
  /// CatalogSnapshot continues it over the weights.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  Hierarchy() = default;

  std::unique_ptr<Digraph> graph_;
  std::unique_ptr<Tree> tree_;  // null for non-tree DAGs
  std::unique_ptr<ReachabilityIndex> reach_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace aigs

#endif  // AIGS_CORE_HIERARCHY_H_
