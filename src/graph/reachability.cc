#include "graph/reachability.h"

#include <cstdlib>

namespace aigs {

ReachabilityIndex::ReachabilityIndex(const Digraph& g,
                                     ReachabilityOptions options)
    : graph_(&g) {
  AIGS_CHECK(g.finalized());
  if (g.IsTree() && !options.force_closure_on_trees) {
    storage_ = Storage::kEuler;
    BuildEuler();
    return;
  }
  storage_ = Storage::kCompressedClosure;
  compressed_ = std::make_unique<CompressedClosure>(
      g, CompressedClosure::BuildOptions{options.build_threads,
                                         options.build_pool});
  const std::size_t n = g.NumNodes();
  reach_count_.assign(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    reach_count_[u] = compressed_->RowCount(u);
  }
}

const DynamicBitset& ReachabilityIndex::ClosureRow(NodeId) const {
  AIGS_CHECK(!"ReachabilityIndex has no dense closure rows");
  std::abort();
}

void ReachabilityIndex::BuildEuler() {
  const Digraph& g = *graph_;
  const std::size_t n = g.NumNodes();
  tin_.assign(n, 0);
  tout_.assign(n, 0);
  euler_to_node_.assign(n, kInvalidNode);
  reach_count_.assign(n, 0);

  // Iterative DFS (hierarchies can be deep; no recursion).
  std::uint32_t clock = 0;
  std::vector<std::pair<NodeId, std::size_t>> stack;  // (node, child index)
  stack.emplace_back(g.root(), 0);
  tin_[g.root()] = clock;
  euler_to_node_[clock++] = g.root();
  while (!stack.empty()) {
    auto& [u, next_child] = stack.back();
    const auto children = g.Children(u);
    if (next_child < children.size()) {
      const NodeId c = children[next_child++];
      tin_[c] = clock;
      euler_to_node_[clock++] = c;
      stack.emplace_back(c, 0);
    } else {
      tout_[u] = clock;
      reach_count_[u] = tout_[u] - tin_[u];
      stack.pop_back();
    }
  }
  AIGS_CHECK(clock == n);
}

Weight ReachabilityIndex::WeightOfReachableSet(
    NodeId u, const std::vector<Weight>& weights) const {
  AIGS_DCHECK(weights.size() == graph_->NumNodes());
  Weight total = 0;
  ForEachReachable(u, [&](NodeId v) { total += weights[v]; });
  return total;
}

std::vector<Weight> ReachabilityIndex::AllReachableSetWeights(
    const std::vector<Weight>& weights) const {
  const Digraph& g = *graph_;
  const std::size_t n = g.NumNodes();
  AIGS_CHECK(weights.size() == n);
  std::vector<Weight> out(n, 0);
  std::vector<Weight> prefix(n + 1, 0);
  if (euler_mode()) {
    // Subtree sums over the Euler order: prefix sums of weights in Euler
    // positions give each subtree weight in O(n).
    for (std::size_t t = 0; t < n; ++t) {
      prefix[t + 1] = prefix[t] + weights[euler_to_node_[t]];
    }
    for (NodeId v = 0; v < n; ++v) {
      out[v] = prefix[tout_[v]] - prefix[tin_[v]];
    }
    return out;
  }
  // Same prefix-sum trick in position space: interval rows and runs settle
  // in O(1) each.
  for (std::size_t p = 0; p < n; ++p) {
    prefix[p + 1] = prefix[p] + weights[compressed_->node_at_pos(p)];
  }
  for (NodeId v = 0; v < n; ++v) {
    out[v] = compressed_->RowWeightFromPrefix(v, prefix);
  }
  return out;
}

std::size_t ReachabilityIndex::MemoryBytes() const {
  const std::size_t total = reach_count_.size() * sizeof(std::size_t);
  if (euler_mode()) {
    return total + tin_.size() * sizeof(std::uint32_t) +
           tout_.size() * sizeof(std::uint32_t) +
           euler_to_node_.size() * sizeof(NodeId);
  }
  return total + compressed_->MemoryBytes();
}

}  // namespace aigs
