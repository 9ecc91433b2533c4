// Transitive-closure reachability index. Answers reach(u, v) in O(1) and
// computes reachable-set weights for every node — the initialization step of
// GreedyDAG (w̃(v) = w(G_v)) and the ground truth behind the simulated
// oracle.
//
// Three storage modes:
//   - Euler intervals for tree hierarchies — O(n) memory.
//   - Compressed closure rows (graph/compressed_closure.h), the DAG
//     default — interval / chunked hybrid rows over a DFS-preorder
//     permutation, built streaming with one dense scratch row. This is
//     what makes million-node catalogs buildable at all (the dense
//     estimate at 1M nodes is ~125 GB), and its kernels match dense-row
//     latency at paper scale.
//   - Dense bitset closure rows — O(n²/8) memory (~96 MB for the paper's
//     28k-node ImageNet hierarchy), built in reverse topological order.
//     Built only on request (Closure::kDense): the reference storage the
//     equivalence tests and benches compare compressed rows against.
#ifndef AIGS_GRAPH_REACHABILITY_H_
#define AIGS_GRAPH_REACHABILITY_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/compressed_closure.h"
#include "graph/digraph.h"
#include "util/bitset.h"
#include "util/common.h"

namespace aigs {

class ThreadPool;

/// Storage selection for ReachabilityIndex.
struct ReachabilityOptions {
  enum class Closure {
    kCompressed,  // compressed rows (default)
    kDense,       // dense bitset rows (reference storage)
  };
  Closure closure = Closure::kCompressed;

  /// Trees normally use Euler intervals regardless of `closure`; setting
  /// this forces the closure machinery on trees too, so closure-path code
  /// can be exercised (and benched) on every hierarchy shape.
  bool force_closure_on_trees = false;

  /// Closure build concurrency: 0 = hardware concurrency, 1 = serial.
  /// Parallel builds levelize rows by dependency depth and shard each
  /// level; the resulting index is bit-identical to a serial build (and,
  /// for compressed storage, byte-identical in its encoded pools). Euler
  /// (tree) builds are always serial — they are O(n) already.
  int build_threads = 0;

  /// Caller-owned pool to shard the closure build on (overrides
  /// `build_threads`). Must not be one of the pool's own workers calling
  /// in.
  ThreadPool* build_pool = nullptr;
};

/// O(1) reachability oracle over a finalized Digraph.
class ReachabilityIndex {
 public:
  enum class Storage { kEuler, kDenseClosure, kCompressedClosure };

  /// Builds the index. Uses Euler intervals when `g.IsTree()` (unless
  /// forced off), otherwise dense or compressed closure rows per
  /// `options`. The graph must outlive the index.
  explicit ReachabilityIndex(const Digraph& g, ReachabilityOptions options = {});

  /// True iff v is reachable from u (u reaches u).
  bool Reaches(NodeId u, NodeId v) const {
    switch (storage_) {
      case Storage::kEuler:
        return tin_[v] >= tin_[u] && tin_[v] < tout_[u];
      case Storage::kDenseClosure:
        return closure_[u].Test(v);
      case Storage::kCompressedClosure:
        return compressed_->Reaches(u, v);
    }
    return false;
  }

  /// |R(u)|: number of nodes reachable from u, u included.
  std::size_t ReachableCount(NodeId u) const {
    return reach_count_[u];
  }

  /// Σ_{x ∈ R(u)} weights[x]. `weights` must have one entry per node.
  /// Exact uint64 arithmetic; callers guarantee no overflow (weights are
  /// bounded by the distribution scale).
  Weight WeightOfReachableSet(NodeId u,
                              const std::vector<Weight>& weights) const;

  /// Computes WeightOfReachableSet for every node in one pass. For trees
  /// this is a subtree-sum DP; for dense DAGs one closure scan; compressed
  /// rows settle against position-space prefix sums (O(1) per interval row
  /// and per run).
  std::vector<Weight> AllReachableSetWeights(
      const std::vector<Weight>& weights) const;

  /// Invokes fn(x) for every x ∈ R(u) (order unspecified).
  template <typename Fn>
  void ForEachReachable(NodeId u, Fn&& fn) const {
    switch (storage_) {
      case Storage::kEuler:
        for (std::uint32_t t = tin_[u]; t < tout_[u]; ++t) {
          fn(euler_to_node_[t]);
        }
        break;
      case Storage::kDenseClosure:
        closure_[u].ForEachSetBit([&fn](std::size_t v) {
          fn(static_cast<NodeId>(v));
        });
        break;
      case Storage::kCompressedClosure:
        compressed_->ForEachPosInRow(u, [this, &fn](std::size_t p) {
          fn(compressed_->node_at_pos(p));
        });
        break;
    }
  }

  /// Which representation the index chose.
  Storage storage() const { return storage_; }

  /// True when the index is in Euler (tree) mode.
  bool euler_mode() const { return storage_ == Storage::kEuler; }

  /// Euler-tour interval of u: R(u) = nodes at Euler positions
  /// [EulerBegin(u), EulerEnd(u)). Euler mode only.
  std::uint32_t EulerBegin(NodeId u) const {
    AIGS_DCHECK(euler_mode());
    return tin_[u];
  }
  std::uint32_t EulerEnd(NodeId u) const {
    AIGS_DCHECK(euler_mode());
    return tout_[u];
  }

  /// Node occupying Euler position t. Euler mode only.
  NodeId NodeAtEuler(std::uint32_t t) const {
    AIGS_DCHECK(euler_mode());
    return euler_to_node_[t];
  }

  /// Closure row of u: bit v set iff u reaches v. Dense closure mode only —
  /// the word-parallel form of R(u) the selection layer intersects with the
  /// alive mask.
  const DynamicBitset& ClosureRow(NodeId u) const {
    AIGS_DCHECK(storage_ == Storage::kDenseClosure);
    return closure_[u];
  }

  /// Compressed rows. Compressed closure mode only.
  const CompressedClosure& compressed() const {
    AIGS_DCHECK(storage_ == Storage::kCompressedClosure);
    return *compressed_;
  }

  /// Bytes held by the reachability structures themselves (excluding the
  /// graph).
  std::size_t MemoryBytes() const;

  /// Dense closure estimate n·⌈n/64⌉·8 for an n-node graph, computed in
  /// 128-bit so million-node inputs cannot overflow the size math.
  static U128 DenseClosureBytes(std::size_t n) {
    return static_cast<U128>(n) * ((n + 63) / 64) * 8;
  }

  const Digraph& graph() const { return *graph_; }

 private:
  void BuildEuler();
  void BuildClosure(const ReachabilityOptions& options);

  const Digraph* graph_;
  Storage storage_;

  // Euler mode: tin/tout intervals and the Euler order.
  std::vector<std::uint32_t> tin_;
  std::vector<std::uint32_t> tout_;
  std::vector<NodeId> euler_to_node_;

  // Dense closure mode: one bitset row per node.
  std::vector<DynamicBitset> closure_;

  // Compressed closure mode.
  std::unique_ptr<CompressedClosure> compressed_;

  std::vector<std::size_t> reach_count_;
};

}  // namespace aigs

#endif  // AIGS_GRAPH_REACHABILITY_H_
