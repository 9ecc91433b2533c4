#include "core/hierarchy.h"

#include <utility>

#include "util/fnv.h"

namespace aigs {

StatusOr<Hierarchy> Hierarchy::Build(Digraph g,
                                     ReachabilityOptions reach_options) {
  if (!g.finalized()) {
    AIGS_RETURN_NOT_OK(g.Finalize());
  }
  Hierarchy h;
  h.graph_ = std::make_unique<Digraph>(std::move(g));
  if (h.graph_->IsTree()) {
    AIGS_ASSIGN_OR_RETURN(Tree t, Tree::Build(*h.graph_));
    h.tree_ = std::make_unique<Tree>(std::move(t));
  }
  h.reach_ = std::make_unique<ReachabilityIndex>(*h.graph_, reach_options);
  const Digraph& graph = *h.graph_;
  h.fingerprint_ = kFnvOffset;
  FnvMix(h.fingerprint_, graph.NumNodes());
  FnvMix(h.fingerprint_, graph.NumEdges());
  FnvMix(h.fingerprint_, graph.root());
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (const NodeId v : graph.Children(u)) {
      FnvMix(h.fingerprint_, (static_cast<std::uint64_t>(u) << 32) | v);
    }
  }
  return h;
}

}  // namespace aigs
