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
// The candidate set after a transcript is C = ∩ R(yes) \ ∪ R(no). Both modes
// store it in that shape — a root (the latest yes) plus what the root does
// not already imply:
//
//  * Euler mode (trees): the base stores prefix sums of the weights in
//    Euler-tour order. A session's alive set is always one window (the
//    current root's Euler interval) minus a sorted list of disjoint removed
//    intervals (one per distinct no-answer; Euler intervals are laminar, so
//    nested removals merge away). w(R(v) ∩ C) is two O(log answers) binary
//    searches over that list plus a prefix-sum difference; a yes-answer
//    narrows the window, a no-answer inserts one interval.
//
//  * Closure mode (DAGs): the session holds root() (the latest yes), the yes
//    nodes the root does not reach (only batched rounds add them), and the
//    list of no nodes, so ApplyYes/ApplyNo are O(1) appends. Planners read
//    C through a CandidateView materialized in the calling thread's
//    PlannerScratch: every bit (root = hierarchy root) or the root's row,
//    one AND per extra yes, one ANDNOT per no, then one blocked pass for
//    w(C) and |C|. The rebuild drops the no nodes whose rows no longer meet
//    C — after a yes moves the root down, most of them. The scratch
//    memoizes the views of the sessions planned last on the thread under
//    (session stamp, answer count) and extends a view by one row (with a
//    fused split for the scalars) when its session returns one answer
//    later, so an in-process search, a transcript replay, a drain migration
//    or a server worker interleaving its sessions pays one row kernel per
//    answer. Stamps come from a process-wide counter, so a freed and
//    reallocated session never hits another session's memo. The views and
//    the blocked weight table live in the compressed closure's DFS-preorder
//    *position* space and every kernel (fused count+weight, AND, ANDNOT)
//    consumes the interval / chunked encodings without materializing a
//    dense row. A DAG session holds O(answers) words; the O(n/64) views
//    belong to the planning thread.
//
// Selection entry points (on CandidateView):
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

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/hierarchy.h"
#include "core/middle_point.h"
#include "util/bitset.h"
#include "util/common.h"
#include "util/epoch_marker.h"
#include "util/status.h"

namespace aigs {

/// Immutable per-(hierarchy, weights) precomputation shared by every search
/// session. Borrows `weights`; both the hierarchy and the weight vector
/// must outlive the base (policies own the vector, the base, and hand
/// sessions out — the snapshot layer pins all three).
class SplitWeightBase {
 public:
  using CountAndWeight = DynamicBitset::CountAndWeight;

  SplitWeightBase(const Hierarchy& hierarchy,
                  const std::vector<Weight>& weights);

  SplitWeightBase(const SplitWeightBase&) = delete;
  SplitWeightBase& operator=(const SplitWeightBase&) = delete;

  const Hierarchy& hierarchy() const { return *hierarchy_; }
  const ReachabilityIndex& reach() const { return *reach_; }
  const std::vector<Weight>& weights() const { return *node_weights_; }
  bool euler_mode() const { return euler_; }
  /// Σ w over all nodes.
  Weight Total() const { return total_; }

  // ---- Euler mode ----------------------------------------------------------

  /// Σ weights over Euler positions [begin, end).
  Weight EulerRangeWeight(std::uint32_t begin, std::uint32_t end) const {
    return euler_prefix_[end] - euler_prefix_[begin];
  }

  // ---- closure mode --------------------------------------------------------
  //
  // Candidate bitsets have one bit per node, bit pos(v) of the compressed
  // closure's position space (a node's "slot").

  /// w(R(v)) over the full hierarchy: w(R(v) ∩ C) while C is every node,
  /// and the O(1) upper bound behind CandidateView::PristineBoundRulesOut.
  Weight FullReachWeight(NodeId v) const { return full_reach_weight_[v]; }
  std::size_t Slot(NodeId v) const { return reach_->compressed().pos(v); }
  NodeId NodeAtSlot(std::size_t slot) const {
    return reach_->compressed().node_at_pos(slot);
  }
  /// |R(v) ∩ c| and w(R(v) ∩ c) in one row kernel.
  CountAndWeight RowSplit(NodeId v, const DynamicBitset& c) const;
  Weight RowWeight(NodeId v, const DynamicBitset& c) const;
  std::size_t RowCount(NodeId v, const DynamicBitset& c) const;
  /// c = R(v) (c already has one bit per node).
  void FillRow(NodeId v, DynamicBitset& c) const;
  /// c &= R(v).
  void IntersectRow(NodeId v, DynamicBitset& c) const;
  /// c &= ~R(v).
  void SubtractRow(NodeId v, DynamicBitset& c) const;
  /// |c| and w(c): one blocked scan over the whole bitset.
  CountAndWeight SetSplit(const DynamicBitset& c) const;

 private:
  const Hierarchy* hierarchy_;
  const ReachabilityIndex* reach_;
  const std::vector<Weight>* node_weights_;
  bool euler_;
  Weight total_ = 0;

  // Euler mode: prefix sums of weights permuted to Euler order (size n+1).
  std::vector<Weight> euler_prefix_;

  // Closure mode: full reachable-set weights, and the weights permuted into
  // position space with their block sums (candidate bitsets live in
  // position space too).
  std::vector<Weight> full_reach_weight_;
  std::vector<Weight> pos_weights_;
  BlockedWeights pos_blocked_;
};

class SplitWeightIndex;

/// Planning scratch of one thread: BFS marks and queue for the selection
/// descents, the memoized closure-mode candidate views, and the batched
/// round simulation. All of it is memoized planner state (see the
/// `mutable` contract in core/policy.h), so it belongs to the planning
/// thread, not to any session.
struct PlannerScratch {
  EpochMarker visited;
  std::vector<NodeId> queue;

  /// Memoized closure-mode views: C of the session stamped `stamp` after
  /// `answers` answers, with its count and weight (stamp 0: none). The
  /// memo keeps the views of the sessions planned last on the thread —
  /// up to kMaxViews, within kViewBudgetBytes of bitsets — so a server
  /// worker that interleaves sessions extends each one's view by a row per
  /// answer instead of rebuilding it. Its size is per thread, never per
  /// session.
  struct ViewSlot {
    DynamicBitset alive;
    std::uint64_t stamp = 0;
    std::uint64_t answers = 0;
    std::size_t count = 0;
    Weight total = 0;
    std::uint64_t last_use = 0;
  };
  static constexpr std::size_t kMaxViews = 64;
  static constexpr std::size_t kViewBudgetBytes = std::size_t{2} << 20;
  std::array<ViewSlot, kMaxViews> views;
  std::uint64_t clock = 0;
  std::size_t mru = 0;  // the slot SlotFor returned last

  /// The slot memoizing session `stamp`, else the least recently used one
  /// among those the budget allows for `num_nodes`-bit views; marks it most
  /// recently used.
  ViewSlot& SlotFor(std::uint64_t stamp, std::size_t num_nodes);

  /// RoundSimulation state: a copy of a view, or of an Euler session.
  DynamicBitset simulated;
  std::unique_ptr<SplitWeightIndex> euler_simulated;

  /// The calling thread's scratch, grown to at least `num_nodes` marks (it
  /// keeps the size of the largest hierarchy the thread has planned on).
  static PlannerScratch& ForThread(std::size_t num_nodes);
};

/// A session's candidate set C as its planner reads it: the session's own
/// interval state in Euler mode, C materialized in the calling thread's
/// PlannerScratch in closure mode. Valid until the session changes or the
/// thread plans other sessions, so planners take one per plan and never
/// keep it.
class CandidateView {
 public:
  std::size_t AliveCount() const { return count_; }
  Weight TotalAlive() const { return total_; }
  /// The session's root (every candidate is reachable from it through
  /// alive nodes).
  NodeId root() const { return root_; }
  /// The identified target; requires AliveCount() == 1.
  NodeId Target() const;
  bool IsAlive(NodeId v) const;

  /// w(R(v) ∩ C): O(log answers) in Euler mode; in closure mode one masked
  /// kernel over v's compressed row — O(row size) — or O(1) while C is
  /// every node.
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
  /// Euler order, closure mode in DFS-preorder position order — callers
  /// that care about order must impose their own tie-breaks.
  template <typename Fn>
  void ForEachAlive(Fn&& fn) const;

  /// Breadth-first descent from root() over alive nodes, children in graph
  /// order: calls expand(v) once for every alive node the root reaches
  /// (root excluded) and descends below v only when it returns true. Runs
  /// on the calling thread's PlannerScratch, so `expand` must not start
  /// another descent.
  template <typename Fn>
  void DescendAlive(Fn&& expand) const;

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

 private:
  friend class SplitWeightIndex;
  friend class RoundSimulation;

  CandidateView() = default;

  // True when C is every node (closure mode): row queries then read the
  // base's full-row totals in O(1) instead of running a kernel.
  bool IsFull() const {
    return count_ == base_->hierarchy().NumNodes();
  }

  const SplitWeightBase* base_ = nullptr;
  // Euler mode: the interval state the view reads.
  const SplitWeightIndex* euler_ = nullptr;
  // Closure mode: C, one bit per node slot.
  const DynamicBitset* alive_ = nullptr;
  NodeId root_ = kInvalidNode;
  std::size_t count_ = 0;
  Weight total_ = 0;
};

/// The batched planner's round simulation: C shrunk by the "no" the planner
/// assumes for each question it already picked this round. It lives in the
/// calling thread's PlannerScratch (a copy of the view in closure mode, of
/// the interval state in Euler mode) and leaves the session and its
/// memoized view untouched.
class RoundSimulation {
 public:
  const CandidateView& view() const { return view_; }
  /// Assumes reach(q) = no: C ← C \ R(q).
  void AssumeNo(NodeId q);

 private:
  friend class SplitWeightIndex;

  CandidateView view_;
  SplitWeightIndex* euler_ = nullptr;
  DynamicBitset* alive_ = nullptr;
};

/// One search session's candidate state: an overlay over a shared
/// SplitWeightBase. Construction is O(1) and the state grows with the
/// answers applied, never with n.
class SplitWeightIndex {
 public:
  /// Starts with every node alive. The base must outlive the index.
  explicit SplitWeightIndex(const SplitWeightBase& base);

  SplitWeightIndex(const SplitWeightIndex&) = delete;
  SplitWeightIndex& operator=(const SplitWeightIndex&) = delete;

  /// Restores the all-alive initial state.
  void Reset();

  /// Copies another session's state without rebuilding base data (the copy
  /// rebinds to the other's base).
  void ResetFrom(const SplitWeightIndex& other);

  // ---- planning -------------------------------------------------------------

  /// The planner's view of C (see CandidateView). In closure mode it is
  /// built in the calling thread's scratch — memoized, extended by one row
  /// when this session applied one answer since, else rebuilt.
  CandidateView View() const;

  /// Starts a batched round simulation from the current C.
  RoundSimulation SimulateRound() const;

  // ---- state queries (each reads View()) ------------------------------------

  std::size_t AliveCount() const { return View().AliveCount(); }
  Weight TotalAlive() const { return View().TotalAlive(); }
  bool IsAlive(NodeId v) const { return View().IsAlive(v); }
  Weight ReachWeight(NodeId v) const { return View().ReachWeight(v); }
  std::size_t ReachCount(NodeId v) const { return View().ReachCount(v); }
  template <typename Fn>
  void ForEachAlive(Fn&& fn) const {
    View().ForEachAlive(fn);
  }
  MiddlePoint FindMiddlePoint() const { return View().FindMiddlePoint(); }
  MiddlePoint FindSplittingMiddlePoint() const {
    return View().FindSplittingMiddlePoint();
  }
  /// Current search root (moves on ApplyYes; every candidate is reachable
  /// from it through alive nodes).
  NodeId root() const { return root_; }

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
  /// question).
  void ApplyBatch(std::span<const NodeId> nodes,
                  const std::vector<bool>& answers);

  /// Validating ApplyBatch: folds the round into the view first and, when
  /// no candidate survives it, returns InvalidArgument with the session
  /// untouched. Otherwise applies it with w(C) and |C| exact.
  Status TryApplyBatch(std::span<const NodeId> nodes,
                       const std::vector<bool>& answers);

  /// Divergence-tolerant fold of an observed reachability answer (a
  /// question possibly planned under another epoch's weights — see
  /// SearchSession::TryApplyObserved) into this index. A reachability
  /// answer is a fact about the hidden target, so it folds into the
  /// candidate set under any weights; this validates first and leaves the
  /// state untouched on failure:
  ///  * OutOfRange when q is not a node of the hierarchy;
  ///  * InvalidArgument when the answer would eliminate every candidate
  ///    (inconsistent with the transcript so far);
  ///  * Unimplemented when q was already eliminated yet the answer still
  ///    splits the candidates (never produced by a genuine same-hierarchy
  ///    transcript — the rooted descents cannot survive a dead root);
  ///  * otherwise applies, moving the root only downward (ApplyYes rule).
  Status TryApplyObservedReach(NodeId q, bool yes);

  const SplitWeightBase& base() const { return *base_; }
  const Hierarchy& hierarchy() const { return base_->hierarchy(); }
  const std::vector<Weight>& weights() const { return base_->weights(); }

 private:
  friend class CandidateView;

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
  // Euler-mode queries behind CandidateView.
  bool EulerIsAlive(NodeId v) const;
  Weight EulerReachWeight(NodeId v) const;
  std::size_t EulerReachCount(NodeId v) const;
  NodeId EulerTarget() const;
  void EulerApplyYes(NodeId q);
  void EulerApplyNo(NodeId q);

  // Closure mode: records one answer.
  void AppendAnswer(NodeId q, bool yes);
  // Closure mode: this session's view slot in the calling thread's scratch,
  // brought up to date.
  PlannerScratch::ViewSlot& MemoView() const;
  // Closure mode: builds C and its scalars into `slot` from the stored
  // answers, dropping the no nodes whose rows no longer meet C.
  void RebuildView(PlannerScratch::ViewSlot& slot) const;

  const SplitWeightBase* base_;
  bool euler_;

  NodeId root_;

  // Euler mode: |C| and w(C), and the current root's Euler window minus
  // removed intervals with prefix sums of each interval's dead
  // weight/count for O(log) range queries. All O(answers)-sized.
  std::size_t alive_count_ = 0;
  Weight total_alive_ = 0;
  std::uint32_t window_begin_ = 0;
  std::uint32_t window_end_ = 0;
  std::vector<RemovedRange> removed_;
  std::vector<Weight> removed_prefix_weight_;   // size removed_.size() + 1
  std::vector<std::uint32_t> removed_prefix_count_;

  // Closure mode: C = R(root_) ∩ ∩ R(extra_yes_) \ ∪ R(nos_). A rebuild
  // drops the no nodes whose rows no longer meet C, so that list is
  // mutable memoized state like the scratch view itself. `stamp_` names this state
  // history for the thread memos (fresh on construction, Reset and
  // ResetFrom); `answers_` counts answers since; `last_node_`/`last_yes_`
  // is the latest one, so a memo one answer behind extends by one row.
  std::vector<NodeId> extra_yes_;
  mutable std::vector<NodeId> nos_;
  std::uint64_t stamp_ = 0;
  std::uint64_t answers_ = 0;
  NodeId last_node_ = kInvalidNode;
  bool last_yes_ = false;
};

// ---- CandidateView inline members ---------------------------------------------

inline bool CandidateView::IsAlive(NodeId v) const {
  if (euler_ != nullptr) {
    return euler_->EulerIsAlive(v);
  }
  return alive_->Test(base_->Slot(v));
}

template <typename Fn>
void CandidateView::ForEachAlive(Fn&& fn) const {
  if (euler_ != nullptr) {
    const ReachabilityIndex& reach = base_->reach();
    std::uint32_t pos = euler_->window_begin_;
    for (const SplitWeightIndex::RemovedRange& r : euler_->removed_) {
      for (std::uint32_t t = pos; t < r.begin; ++t) {
        fn(reach.NodeAtEuler(t));
      }
      pos = r.end;
    }
    for (std::uint32_t t = pos; t < euler_->window_end_; ++t) {
      fn(reach.NodeAtEuler(t));
    }
    return;
  }
  alive_->ForEachSetBit([&](std::size_t p) { fn(base_->NodeAtSlot(p)); });
}

template <typename Fn>
void CandidateView::DescendAlive(Fn&& expand) const {
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

}  // namespace aigs

#endif  // AIGS_CORE_SPLIT_WEIGHT_INDEX_H_
