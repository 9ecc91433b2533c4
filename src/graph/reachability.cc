#include "graph/reachability.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "util/thread_pool.h"

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
  if (options.closure == ReachabilityOptions::Closure::kCompressed) {
    storage_ = Storage::kCompressedClosure;
    compressed_ = std::make_unique<CompressedClosure>(
        g, CompressedClosure::BuildOptions{options.build_threads,
                                           options.build_pool});
    const std::size_t n = g.NumNodes();
    reach_count_.assign(n, 0);
    for (NodeId u = 0; u < n; ++u) {
      reach_count_[u] = compressed_->RowCount(u);
    }
  } else {
    storage_ = Storage::kDenseClosure;
    BuildClosure(options);
  }
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

void ReachabilityIndex::BuildClosure(const ReachabilityOptions& options) {
  const Digraph& g = *graph_;
  const std::size_t n = g.NumNodes();
  // Guard the n² size math before touching the allocator: a million-node
  // catalog must be routed to compressed storage, not die in a 125 GB (or,
  // on 32-bit size_t, silently wrapped) allocation.
  AIGS_CHECK(DenseClosureBytes(n) <=
             static_cast<U128>(std::numeric_limits<std::size_t>::max()));
  closure_.resize(n);
  reach_count_.assign(n, 0);

  const std::vector<NodeId>& topo = g.TopologicalOrder();

  std::size_t workers = 1;
  if (options.build_pool != nullptr) {
    workers = options.build_pool->num_threads();
  } else if (options.build_threads > 0) {
    workers = static_cast<std::size_t>(options.build_threads);
  } else {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // Below a couple thousand rows the serial loop finishes in well under a
  // millisecond; level barriers would dominate.
  constexpr std::size_t kParallelMinNodes = 2048;

  if (workers <= 1 || n < kParallelMinNodes) {
    // Reverse topological order: children first, then union into parents.
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId u = *it;
      DynamicBitset& row = closure_[u];
      row.Resize(n);
      row.Set(u);
      for (const NodeId c : g.Children(u)) {
        row.OrWith(closure_[c]);
      }
      reach_count_[u] = row.Count();
    }
    return;
  }

  // Parallel build: rows grouped into dependency levels (level(u) =
  // 1 + max level over children, leaves at 0); rows within a level have no
  // edges between them, so they OR their children concurrently. OR is
  // commutative word-wise, so the resulting rows are bit-identical to the
  // serial build's.
  std::vector<std::uint32_t> level(n, 0);
  std::uint32_t num_levels = 1;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId u = *it;
    std::uint32_t lv = 0;
    for (const NodeId c : g.Children(u)) {
      lv = std::max(lv, level[c] + 1);
    }
    level[u] = lv;
    num_levels = std::max(num_levels, lv + 1);
  }
  std::vector<std::uint32_t> level_begin(num_levels + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    ++level_begin[level[u] + 1];
  }
  for (std::uint32_t lv = 0; lv < num_levels; ++lv) {
    level_begin[lv + 1] += level_begin[lv];
  }
  std::vector<NodeId> by_level(n);
  {
    std::vector<std::uint32_t> cursor(level_begin.begin(),
                                      level_begin.end() - 1);
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      by_level[cursor[level[*it]]++] = *it;
    }
  }

  ThreadPool& pool =
      options.build_pool != nullptr ? *options.build_pool : ThreadPool::Default();
  const std::size_t shard_cap = std::min<std::size_t>(workers, 64);
  for (std::uint32_t lv = 0; lv < num_levels; ++lv) {
    const std::size_t begin = level_begin[lv];
    const std::size_t len = level_begin[lv + 1] - begin;
    if (len == 0) {
      continue;
    }
    const std::size_t shards = std::min(shard_cap, len);
    const std::size_t per_shard = (len + shards - 1) / shards;
    pool.RunShards(shards, [&](std::size_t s) {
      const std::size_t sb = begin + s * per_shard;
      const std::size_t se = std::min(begin + len, sb + per_shard);
      for (std::size_t i = sb; i < se; ++i) {
        const NodeId u = by_level[i];
        DynamicBitset& row = closure_[u];
        row.Resize(n);
        row.Set(u);
        for (const NodeId c : g.Children(u)) {
          row.OrWith(closure_[c]);
        }
        reach_count_[u] = row.Count();
      }
    });
  }
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
  switch (storage_) {
    case Storage::kEuler: {
      // Subtree sums over the Euler order: prefix sums of weights in Euler
      // positions give each subtree weight in O(n).
      std::vector<Weight> prefix(n + 1, 0);
      for (std::size_t t = 0; t < n; ++t) {
        prefix[t + 1] = prefix[t] + weights[euler_to_node_[t]];
      }
      for (NodeId v = 0; v < n; ++v) {
        out[v] = prefix[tout_[v]] - prefix[tin_[v]];
      }
      break;
    }
    case Storage::kDenseClosure:
      for (NodeId v = 0; v < n; ++v) {
        out[v] = WeightOfReachableSet(v, weights);
      }
      break;
    case Storage::kCompressedClosure: {
      // Same prefix-sum trick in position space: interval rows and runs
      // settle in O(1) each.
      std::vector<Weight> prefix(n + 1, 0);
      for (std::size_t p = 0; p < n; ++p) {
        prefix[p + 1] = prefix[p] + weights[compressed_->node_at_pos(p)];
      }
      for (NodeId v = 0; v < n; ++v) {
        out[v] = compressed_->RowWeightFromPrefix(v, prefix);
      }
      break;
    }
  }
  return out;
}

std::size_t ReachabilityIndex::MemoryBytes() const {
  std::size_t total = reach_count_.size() * sizeof(std::size_t);
  switch (storage_) {
    case Storage::kEuler:
      total += tin_.size() * sizeof(std::uint32_t) +
               tout_.size() * sizeof(std::uint32_t) +
               euler_to_node_.size() * sizeof(NodeId);
      break;
    case Storage::kDenseClosure:
      for (const DynamicBitset& row : closure_) {
        total += row.words().size() * sizeof(std::uint64_t);
      }
      break;
    case Storage::kCompressedClosure:
      total += compressed_->MemoryBytes();
      break;
  }
  return total;
}

}  // namespace aigs
