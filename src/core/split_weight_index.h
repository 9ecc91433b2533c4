// SplitWeightIndex — the shared incremental selection layer behind every
// candidate-state policy (GreedyDAG, GreedyNaive, BatchedGreedy,
// CostSensitiveGreedy, WIGS-DAG): one session state for all of them.
//
// The naive selection rule recomputes w(R(v) ∩ C) with a fresh forward BFS
// from every alive candidate on every pick: O(n·m) per question. This layer
// makes that quantity incremental AND makes starting a search O(1): an
// immutable SplitWeightBase (built once per policy, shared by every
// session) holds all O(n) precomputation, and each SplitWeightIndex session
// is a small overlay whose state is proportional to the answers received —
// the same base+overlay shape TreeSearchState uses. No per-session Fenwick
// rebuild, no per-session O(n) anything; a service front end can open
// sessions per user request at memory-bandwidth cost.
//
// Two modes, chosen by the hierarchy's reachability index:
//
//  * Euler mode (trees): the base stores prefix sums of the weights in
//    Euler-tour order. A session's alive set is always one window (the
//    current root's Euler interval) minus a sorted list of disjoint removed
//    intervals (one per distinct no-answer; Euler intervals are laminar, so
//    nested removals merge away). w(R(v) ∩ C) is two O(log answers) binary
//    searches over that list plus a prefix-sum difference; a yes-answer
//    narrows the window, a no-answer inserts one interval.
//
//  * Closure mode (DAGs): a session starts in a pristine zero-allocation
//    state that answers every query from the base's full reachable-set
//    weights; the first answer materializes the alive bitset (one O(n/64)
//    word-parallel copy), after which w(R(v) ∩ C) is a blocked weighted
//    popcount of closure[v] & alive (util/bitset BlockedWeights kernel) and
//    each answer is one bitset intersection. When the reachability index
//    stores compressed rows, the same overlay runs directly on them: the
//    alive bitset and the blocked weight table live in the compressed
//    closure's DFS-preorder *position* space, and every kernel
//    (fused count+weight, AND, ANDNOT) consumes the interval / chunked
//    encodings without materializing a dense row — cost proportional to the
//    compressed row size instead of n/64. DAGs get compressed rows unless
//    their builder asks for dense ones, so after its first answer a DAG
//    session holds one alive bit per node and nothing else of size n.
//
// Selection entry points:
//  * FindMiddlePoint(): minimizes |2·w(R(v) ∩ C) − w(C)| over alive v ≠
//    root with GreedyDAG-style dominance pruning — the descent only expands
//    below v when w(R(v) ∩ C) still exceeds half the alive weight (a better
//    split may exist below) or when v ties the best diff seen (an
//    equal-weight descendant with a smaller id could win the tie-break).
//    That rule provably enumerates every global minimizer, so the result is
//    bit-identical to the naive full scan with its smallest-id tie-break.
//  * FindSplittingMiddlePoint(): the batched variant — additionally
//    requires |R(v) ∩ C| < |C| (a question whose yes-answer is certain is
//    wasted). Euler mode uses a pruned/rooted descent (covering nodes
//    always expand, splitting nodes expand under the FindMiddlePoint
//    dominance rule); closure mode keeps the flat scan with the fused
//    count+weight kernel.
//
// Both use the lexicographic (split_diff, node id) ordering, which matches
// the reference scan's first-wins-in-id-order tie-break exactly; the
// equivalence suite (tests/test_split_weight_index.cc) pins this. Policies
// with their own selection rule (GreedyDAG's first-strict-minimum BFS,
// WIGS-DAG's heaviest-child chains) walk DescendAlive() or the graph
// directly and read IsAlive/ReachWeight/ReachCount.
//
// In closure mode an exact weight is a row kernel, so all three selection
// sites (both entry points and GreedyDAG's BFS) first ask
// PristineBoundRulesOut(): w(R(v)) ≥ w(R(v) ∩ C) is an O(1) upper bound,
// and once a best candidate exists a light enough bound proves v neither
// wins nor needs expanding. Most probes below the first few levels end
// there; results stay bit-identical to the unbounded scans.
#ifndef AIGS_CORE_SPLIT_WEIGHT_INDEX_H_
#define AIGS_CORE_SPLIT_WEIGHT_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/hierarchy.h"
#include "core/middle_point.h"
#include "util/bitset.h"
#include "util/common.h"
#include "util/epoch_marker.h"
#include "util/status.h"

namespace aigs {

/// BFS marks and queue for the selection descents. They are memoized
/// planner state (see the `mutable` contract in core/policy.h), so they
/// belong to the planning thread, not to any session.
struct PlannerScratch {
  EpochMarker visited;
  std::vector<NodeId> queue;

  /// The calling thread's scratch, grown to at least `num_nodes` marks (it
  /// keeps the size of the largest hierarchy the thread has planned on).
  static PlannerScratch& ForThread(std::size_t num_nodes);
};

/// Immutable per-(hierarchy, weights) precomputation shared by every search
/// session. Borrows `weights`; both the hierarchy and the weight vector
/// must outlive the base (policies own the vector, the base, and hand
/// sessions out — the snapshot layer pins all three).
class SplitWeightBase {
 public:
  SplitWeightBase(const Hierarchy& hierarchy,
                  const std::vector<Weight>& weights);

  SplitWeightBase(const SplitWeightBase&) = delete;
  SplitWeightBase& operator=(const SplitWeightBase&) = delete;

  const Hierarchy& hierarchy() const { return *hierarchy_; }
  const ReachabilityIndex& reach() const { return *reach_; }
  const std::vector<Weight>& weights() const { return *node_weights_; }
  bool euler_mode() const { return euler_; }
  /// True when closure mode runs on compressed rows (position space).
  bool compressed_mode() const { return compressed_; }
  /// Σ w over all nodes.
  Weight Total() const { return total_; }

  // ---- Euler mode ----------------------------------------------------------

  /// Σ weights over Euler positions [begin, end).
  Weight EulerRangeWeight(std::uint32_t begin, std::uint32_t end) const {
    return euler_prefix_[end] - euler_prefix_[begin];
  }

  // ---- closure mode --------------------------------------------------------

  /// w(R(v)) over the full hierarchy (the pristine session's ReachWeight).
  Weight FullReachWeight(NodeId v) const { return full_reach_weight_[v]; }
  /// Block-sum table over `weights` for the popcount kernels (dense mode).
  const BlockedWeights& blocked_weights() const { return blocked_; }
  /// Block-sum table over the position-permuted weights (compressed mode).
  const BlockedWeights& pos_blocked_weights() const { return pos_blocked_; }

 private:
  const Hierarchy* hierarchy_;
  const ReachabilityIndex* reach_;
  const std::vector<Weight>* node_weights_;
  bool euler_;
  bool compressed_ = false;
  Weight total_ = 0;

  // Euler mode: prefix sums of weights permuted to Euler order (size n+1).
  std::vector<Weight> euler_prefix_;

  // Closure mode: full reachable-set weights and the blocked weight table.
  std::vector<Weight> full_reach_weight_;
  BlockedWeights blocked_;

  // Compressed closure mode: weights permuted into position space and their
  // block sums (sessions' alive bitsets live in position space too).
  std::vector<Weight> pos_weights_;
  BlockedWeights pos_blocked_;
};

/// One search session's view of (candidate set, split weights): an overlay
/// over a shared SplitWeightBase. Construction is O(1); state grows with
/// the answers applied, never with n (the closure-mode alive bitset
/// materializes lazily on the first answer).
class SplitWeightIndex {
 public:
  /// Starts with every node alive. The base must outlive the index.
  explicit SplitWeightIndex(const SplitWeightBase& base);

  /// Restores the all-alive initial state.
  void Reset();

  /// Copies another index's session state without rebuilding base data —
  /// the batched policy's per-round simulation scratch. Both must share the
  /// same base.
  void ResetFrom(const SplitWeightIndex& other);

  // ---- state queries --------------------------------------------------------

  std::size_t AliveCount() const { return alive_count_; }
  Weight TotalAlive() const { return total_alive_; }
  bool IsAlive(NodeId v) const;
  /// Current search root (moves on ApplyYes; every candidate is reachable
  /// from it through alive nodes).
  NodeId root() const { return root_; }
  /// The identified target; requires AliveCount() == 1.
  NodeId Target() const;

  /// w(R(v) ∩ C): O(log answers) in Euler mode; in closure mode O(1) while
  /// pristine, then one masked kernel over v's closure row — O(n/64) on
  /// dense rows, O(compressed row size) on compressed ones.
  Weight ReachWeight(NodeId v) const;
  /// |R(v) ∩ C| with the same costs.
  std::size_t ReachCount(NodeId v) const;

  /// O(1) closure-mode test that lets a selection descent skip v's exact
  /// ReachWeight: true when the base's pristine w(R(v)), an upper bound on
  /// w = w(R(v) ∩ C), alone proves w ≤ TotalAlive() − w (so nothing below
  /// v needs expanding) and v's split diff |w − (TotalAlive() − w)| ≥
  /// `diff` — strictly greater when `strict`, for (diff, id) argmins where
  /// a tie could still win on id. Always false in Euler mode, whose exact
  /// weight is already O(log answers).
  bool PristineBoundRulesOut(NodeId v, Weight diff, bool strict) const;

  /// Invokes fn(NodeId) for every alive candidate. Euler mode iterates in
  /// Euler order, dense closure mode in node-id order, compressed closure
  /// mode in DFS-preorder position order — callers that care about order
  /// must impose their own tie-breaks.
  template <typename Fn>
  void ForEachAlive(Fn&& fn) const {
    if (euler_) {
      std::uint32_t pos = window_begin_;
      for (const RemovedRange& r : removed_) {
        for (std::uint32_t t = pos; t < r.begin; ++t) {
          fn(base_->reach().NodeAtEuler(t));
        }
        pos = r.end;
      }
      for (std::uint32_t t = pos; t < window_end_; ++t) {
        fn(base_->reach().NodeAtEuler(t));
      }
    } else if (!materialized_) {
      const std::size_t n = base_->hierarchy().NumNodes();
      for (std::size_t v = 0; v < n; ++v) {
        fn(static_cast<NodeId>(v));
      }
    } else if (compressed_) {
      const CompressedClosure& cc = base_->reach().compressed();
      alive_.ForEachSetBit(
          [&](std::size_t p) { fn(cc.node_at_pos(p)); });
    } else {
      alive_.ForEachSetBit(
          [&](std::size_t v) { fn(static_cast<NodeId>(v)); });
    }
  }

  /// Breadth-first descent from root() over alive nodes, children in graph
  /// order: calls expand(v) once for every alive node the root reaches
  /// (root excluded) and descends below v only when it returns true. Runs
  /// on the calling thread's PlannerScratch, so `expand` must not start
  /// another descent.
  template <typename Fn>
  void DescendAlive(Fn&& expand) const {
    const Digraph& g = base_->hierarchy().graph();
    PlannerScratch& scratch = PlannerScratch::ForThread(g.NumNodes());
    scratch.visited.NewEpoch();
    scratch.queue.clear();
    scratch.queue.push_back(root_);
    scratch.visited.Visit(root_);
    for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
      const NodeId u = scratch.queue[head];
      for (const NodeId v : g.Children(u)) {
        if (scratch.visited.IsVisited(v) || !IsAlive(v)) {
          continue;
        }
        scratch.visited.Visit(v);
        if (expand(v)) {
          scratch.queue.push_back(v);
        }
      }
    }
  }

  // ---- answer application ---------------------------------------------------

  /// Applies reach(q) = yes: candidates ← R(q) ∩ C; root ← q when the
  /// current root reaches q (the root only ever moves down — a batched
  /// round may also answer yes for an ancestor, which adds no information).
  /// `q` may already be dead (batched rounds intersect answers for
  /// questions another answer of the same round eliminated).
  void ApplyYes(NodeId q);

  /// Applies reach(q) = no: candidates ← C \ R(q). Dead `q` allowed.
  void ApplyNo(NodeId q);

  /// Intersects a whole round of answers (one ApplyYes/ApplyNo per
  /// question) — each question costs one bitset intersection / interval op.
  void ApplyBatch(std::span<const NodeId> nodes,
                  const std::vector<bool>& answers);

  // ---- selection ------------------------------------------------------------

  /// Middle point over alive candidates excluding root() (Definition 4),
  /// via the dominance-pruned descent; in closure mode a candidate the
  /// pristine bound rules out (strictly worse diff) costs no row kernel.
  /// Requires AliveCount() > 1.
  MiddlePoint FindMiddlePoint() const;

  /// Middle point over alive candidates that split the set by count
  /// (|R(v) ∩ C| < |C|); kInvalidNode when none splits. Euler mode runs a
  /// pruned, rooted descent, closure mode a fused-kernel flat scan that
  /// skips the kernel for candidates the pristine bound rules out; both
  /// are bit-identical to a full (diff, id)-argmin scan.
  MiddlePoint FindSplittingMiddlePoint() const;

  const SplitWeightBase& base() const { return *base_; }

  /// Divergence-tolerant fold of an observed reachability answer (a
  /// question possibly planned under another epoch's weights — see
  /// SearchSession::TryApplyObserved) into this index. A reachability
  /// answer is a fact about the hidden target, so it folds into the
  /// candidate set under any weights; this validates first and leaves the
  /// state untouched on failure:
  ///  * InvalidArgument when the answer would eliminate every candidate
  ///    (inconsistent with the transcript so far);
  ///  * Unimplemented when q was already eliminated yet the answer still
  ///    splits the candidates (never produced by a genuine same-hierarchy
  ///    transcript — the rooted descents cannot survive a dead root);
  ///  * otherwise applies, moving the root only downward (ApplyYes rule).
  Status TryApplyObservedReach(NodeId q, bool yes);
  const Hierarchy& hierarchy() const { return base_->hierarchy(); }
  const std::vector<Weight>& weights() const { return base_->weights(); }

 private:
  /// One maximal dead Euler interval (Euler mode). Intervals are disjoint,
  /// sorted by begin, and fully inside the window; every position inside
  /// one is dead, so its dead weight is the base's full range weight.
  struct RemovedRange {
    std::uint32_t begin;
    std::uint32_t end;
  };

  // Rebuilds removed-interval prefix sums starting at entry `from`.
  void RebuildRemovedPrefixes(std::size_t from);
  // Σ dead weight/count over removed intervals nested inside [a, b).
  Weight RemovedWeightWithin(std::uint32_t a, std::uint32_t b) const;
  std::uint32_t RemovedCountWithin(std::uint32_t a, std::uint32_t b) const;
  // True iff [a, b) lies inside one removed interval (fully dead).
  bool CoveredByRemoved(std::uint32_t a, std::uint32_t b) const;
  // Index of the first removed interval with begin >= pos.
  std::size_t FirstRemovedAtOrAfter(std::uint32_t pos) const;
  // Collapses the session to the all-dead state over [begin, end).
  void MarkWindowDead(std::uint32_t begin, std::uint32_t end);
  // Materializes the closure-mode alive bitset from the pristine state.
  void MaterializeAllAlive();

  const SplitWeightBase* base_;
  bool euler_;
  bool compressed_;

  NodeId root_;
  std::size_t alive_count_ = 0;
  Weight total_alive_ = 0;

  // Euler mode: the current root's Euler window minus removed intervals,
  // with prefix sums of each interval's dead weight/count for O(log)
  // range queries. All O(answers)-sized.
  std::uint32_t window_begin_ = 0;
  std::uint32_t window_end_ = 0;
  std::vector<RemovedRange> removed_;
  std::vector<Weight> removed_prefix_weight_;   // size removed_.size() + 1
  std::vector<std::uint32_t> removed_prefix_count_;

  // Closure mode: bit v = node v alive (dense) or bit p = the node at
  // position p alive (compressed). Empty until the first answer (pristine
  // sessions answer from the base).
  bool materialized_ = false;
  DynamicBitset alive_;
};

}  // namespace aigs

#endif  // AIGS_CORE_SPLIT_WEIGHT_INDEX_H_
