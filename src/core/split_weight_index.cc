#include "core/split_weight_index.h"

#include <algorithm>

namespace aigs {
namespace {

// Folds candidate v with w = w(R(v) ∩ C) into the (split_diff, id) argmin
// and returns v's diff. Overflow-safe |2w − total| as |w − (total − w)|;
// w ≤ total.
Weight ConsiderMiddlePoint(NodeId v, Weight w, Weight total,
                           MiddlePoint& best) {
  const Weight rest = total - w;
  const Weight diff = w > rest ? w - rest : rest - w;
  if (best.node == kInvalidNode || diff < best.split_diff ||
      (diff == best.split_diff && v < best.node)) {
    best.node = v;
    best.split_diff = diff;
    best.reach_weight = w;
  }
  return diff;
}

}  // namespace

PlannerScratch& PlannerScratch::ForThread(std::size_t num_nodes) {
  thread_local PlannerScratch scratch;
  if (scratch.visited.size() < num_nodes) {
    scratch.visited.Resize(num_nodes);
  }
  return scratch;
}

SplitWeightBase::SplitWeightBase(const Hierarchy& hierarchy,
                                 const std::vector<Weight>& weights)
    : hierarchy_(&hierarchy),
      reach_(&hierarchy.reach()),
      node_weights_(&weights),
      euler_(hierarchy.reach().euler_mode()) {
  AIGS_CHECK(weights.size() == hierarchy.NumNodes());
  const std::size_t n = hierarchy.NumNodes();
  if (euler_) {
    euler_prefix_.resize(n + 1);
    euler_prefix_[0] = 0;
    for (std::uint32_t t = 0; t < n; ++t) {
      euler_prefix_[t + 1] =
          euler_prefix_[t] + weights[reach_->NodeAtEuler(t)];
    }
    total_ = euler_prefix_[n];
  } else {
    full_reach_weight_ = reach_->AllReachableSetWeights(weights);
    compressed_ =
        reach_->storage() == ReachabilityIndex::Storage::kCompressedClosure;
    if (compressed_) {
      // Sessions keep their alive bitsets in the compressed closure's
      // position space, so the weight table (and its block sums) must be
      // permuted the same way.
      const CompressedClosure& cc = reach_->compressed();
      pos_weights_.resize(n);
      for (std::size_t p = 0; p < n; ++p) {
        pos_weights_[p] = weights[cc.node_at_pos(p)];
      }
      pos_blocked_ = BlockedWeights(pos_weights_);
    } else {
      blocked_ = BlockedWeights(weights);
    }
    total_ = 0;
    for (const Weight w : weights) {
      total_ += w;
    }
  }
}

SplitWeightIndex::SplitWeightIndex(const SplitWeightBase& base)
    : base_(&base),
      euler_(base.euler_mode()),
      compressed_(base.compressed_mode()) {
  Reset();
}

void SplitWeightIndex::Reset() {
  const std::size_t n = base_->hierarchy().NumNodes();
  root_ = base_->hierarchy().root();
  alive_count_ = n;
  total_alive_ = base_->Total();
  if (euler_) {
    window_begin_ = 0;
    window_end_ = static_cast<std::uint32_t>(n);
    removed_.clear();
    removed_prefix_weight_.assign(1, 0);
    removed_prefix_count_.assign(1, 0);
  } else {
    materialized_ = false;
  }
}

void SplitWeightIndex::ResetFrom(const SplitWeightIndex& other) {
  AIGS_DCHECK(base_ == other.base_);
  root_ = other.root_;
  alive_count_ = other.alive_count_;
  total_alive_ = other.total_alive_;
  if (euler_) {
    window_begin_ = other.window_begin_;
    window_end_ = other.window_end_;
    removed_ = other.removed_;
    removed_prefix_weight_ = other.removed_prefix_weight_;
    removed_prefix_count_ = other.removed_prefix_count_;
  } else {
    materialized_ = other.materialized_;
    if (materialized_) {
      alive_ = other.alive_;
    }
  }
}

// ---- removed-interval bookkeeping (Euler mode) ------------------------------

std::size_t SplitWeightIndex::FirstRemovedAtOrAfter(std::uint32_t pos) const {
  return static_cast<std::size_t>(
      std::lower_bound(removed_.begin(), removed_.end(), pos,
                       [](const RemovedRange& r, std::uint32_t p) {
                         return r.begin < p;
                       }) -
      removed_.begin());
}

void SplitWeightIndex::RebuildRemovedPrefixes(std::size_t from) {
  removed_prefix_weight_.resize(removed_.size() + 1);
  removed_prefix_count_.resize(removed_.size() + 1);
  if (from == 0) {
    removed_prefix_weight_[0] = 0;
    removed_prefix_count_[0] = 0;
    from = 1;
  }
  for (std::size_t i = from; i <= removed_.size(); ++i) {
    const RemovedRange& r = removed_[i - 1];
    removed_prefix_weight_[i] = removed_prefix_weight_[i - 1] +
                                base_->EulerRangeWeight(r.begin, r.end);
    removed_prefix_count_[i] =
        removed_prefix_count_[i - 1] + (r.end - r.begin);
  }
}

Weight SplitWeightIndex::RemovedWeightWithin(std::uint32_t a,
                                             std::uint32_t b) const {
  // Laminarity: an interval with begin ∈ [a, b) is nested inside [a, b).
  const std::size_t lo = FirstRemovedAtOrAfter(a);
  const std::size_t hi = FirstRemovedAtOrAfter(b);
  return removed_prefix_weight_[hi] - removed_prefix_weight_[lo];
}

std::uint32_t SplitWeightIndex::RemovedCountWithin(std::uint32_t a,
                                                   std::uint32_t b) const {
  const std::size_t lo = FirstRemovedAtOrAfter(a);
  const std::size_t hi = FirstRemovedAtOrAfter(b);
  return removed_prefix_count_[hi] - removed_prefix_count_[lo];
}

bool SplitWeightIndex::CoveredByRemoved(std::uint32_t a,
                                        std::uint32_t b) const {
  const std::size_t idx = FirstRemovedAtOrAfter(a + 1);
  // removed_[idx - 1] is the last interval starting at or before a.
  return idx > 0 && removed_[idx - 1].end >= b;
}

void SplitWeightIndex::MarkWindowDead(std::uint32_t begin,
                                      std::uint32_t end) {
  window_begin_ = begin;
  window_end_ = end;
  removed_.clear();
  if (begin < end) {
    removed_.push_back(RemovedRange{begin, end});
  }
  RebuildRemovedPrefixes(0);
  alive_count_ = 0;
  total_alive_ = 0;
}

// ---- state queries ----------------------------------------------------------

bool SplitWeightIndex::IsAlive(NodeId v) const {
  if (euler_) {
    const std::uint32_t t = base_->reach().EulerBegin(v);
    return t >= window_begin_ && t < window_end_ &&
           !CoveredByRemoved(t, t + 1);
  }
  if (!materialized_) {
    return true;
  }
  return alive_.Test(compressed_ ? base_->reach().compressed().pos(v) : v);
}

NodeId SplitWeightIndex::Target() const {
  AIGS_CHECK(alive_count_ == 1);
  if (euler_) {
    std::uint32_t pos = window_begin_;
    for (const RemovedRange& r : removed_) {
      if (r.begin > pos) {
        break;
      }
      pos = r.end;
    }
    AIGS_DCHECK(pos < window_end_);
    return base_->reach().NodeAtEuler(pos);
  }
  if (!materialized_) {
    return base_->hierarchy().root();  // n == 1
  }
  if (compressed_) {
    return base_->reach().compressed().node_at_pos(alive_.FindFirst());
  }
  return static_cast<NodeId>(alive_.FindFirst());
}

Weight SplitWeightIndex::ReachWeight(NodeId v) const {
  if (euler_) {
    const std::uint32_t a =
        std::max(window_begin_, base_->reach().EulerBegin(v));
    const std::uint32_t b = std::min(window_end_, base_->reach().EulerEnd(v));
    if (a >= b || CoveredByRemoved(a, b)) {
      return 0;
    }
    return base_->EulerRangeWeight(a, b) - RemovedWeightWithin(a, b);
  }
  if (!materialized_) {
    return base_->FullReachWeight(v);
  }
  if (compressed_) {
    return base_->reach()
        .compressed()
        .IntersectCountAndWeight(v, alive_, base_->pos_blocked_weights())
        .weight;
  }
  return alive_.MaskedWeightedSum(base_->reach().ClosureRow(v),
                                  base_->blocked_weights());
}

std::size_t SplitWeightIndex::ReachCount(NodeId v) const {
  if (euler_) {
    const std::uint32_t a =
        std::max(window_begin_, base_->reach().EulerBegin(v));
    const std::uint32_t b = std::min(window_end_, base_->reach().EulerEnd(v));
    if (a >= b || CoveredByRemoved(a, b)) {
      return 0;
    }
    return (b - a) - RemovedCountWithin(a, b);
  }
  if (!materialized_) {
    return base_->reach().ReachableCount(v);
  }
  if (compressed_) {
    return base_->reach().compressed().IntersectCount(v, alive_);
  }
  return alive_.IntersectionCount(base_->reach().ClosureRow(v));
}

bool SplitWeightIndex::PristineBoundRulesOut(NodeId v, Weight diff,
                                             bool strict) const {
  if (euler_) {
    return false;
  }
  // w ≤ ub, so ub ≤ total − ub gives w ≤ total − w and a diff of at least
  // (total − ub) − ub. The bound may count dead weight and exceed the alive
  // total; test that first, or total − ub wraps around.
  const Weight total = total_alive_;
  const Weight ub = base_->FullReachWeight(v);
  if (ub > total || ub > total - ub) {
    return false;
  }
  const Weight min_diff = (total - ub) - ub;
  return strict ? min_diff > diff : min_diff >= diff;
}

// ---- answer application -----------------------------------------------------

void SplitWeightIndex::MaterializeAllAlive() {
  const std::size_t n = base_->hierarchy().NumNodes();
  if (alive_.size() != n) {
    alive_.Resize(n, true);
  } else {
    alive_.SetAll();
  }
  materialized_ = true;
}

void SplitWeightIndex::ApplyYes(NodeId q) {
  // A batched round can apply a yes for an ancestor of an earlier yes of
  // the same round (it adds no information). The root only ever moves DOWN
  // (to nodes the current root reaches), preserving the invariant that
  // every candidate is reachable from root() through alive nodes — which
  // the rooted selection descents rely on.
  const bool moves_down = base_->reach().Reaches(root_, q);
  if (euler_) {
    const std::uint32_t a =
        std::max(window_begin_, base_->reach().EulerBegin(q));
    const std::uint32_t b = std::min(window_end_, base_->reach().EulerEnd(q));
    if (moves_down) {
      root_ = q;
    }
    if (a >= b) {
      // R(q) is disjoint from the window: nothing survives.
      MarkWindowDead(window_begin_, window_begin_);
      return;
    }
    if (CoveredByRemoved(a, b)) {
      // q itself is dead: R(q) ∩ C is empty.
      MarkWindowDead(a, b);
      return;
    }
    // Keep only the removed intervals nested inside the new window (an
    // interval is either nested or disjoint — laminarity).
    const std::size_t lo = FirstRemovedAtOrAfter(a);
    const std::size_t hi = FirstRemovedAtOrAfter(b);
    if (lo > 0) {
      removed_.erase(removed_.begin(),
                     removed_.begin() + static_cast<std::ptrdiff_t>(lo));
    }
    removed_.resize(hi - lo);
    window_begin_ = a;
    window_end_ = b;
    RebuildRemovedPrefixes(0);
    total_alive_ = base_->EulerRangeWeight(a, b) - RemovedWeightWithin(a, b);
    alive_count_ = (b - a) - RemovedCountWithin(a, b);
    return;
  }
  if (compressed_) {
    const CompressedClosure& cc = base_->reach().compressed();
    if (!materialized_) {
      if (alive_.size() != cc.num_nodes()) {
        alive_.Resize(cc.num_nodes());
      } else {
        alive_.ClearAll();
      }
      cc.ExpandRowInto(q, alive_);
      materialized_ = true;
      total_alive_ = base_->FullReachWeight(q);
      alive_count_ = base_->reach().ReachableCount(q);
    } else {
      const DynamicBitset::CountAndWeight cw =
          cc.IntersectCountAndWeight(q, alive_, base_->pos_blocked_weights());
      total_alive_ = cw.weight;
      alive_count_ = cw.count;
      cc.IntersectInto(q, alive_);
    }
    if (moves_down) {
      root_ = q;
    }
    return;
  }
  const DynamicBitset& row = base_->reach().ClosureRow(q);
  if (!materialized_) {
    alive_ = row;
    materialized_ = true;
    total_alive_ = base_->FullReachWeight(q);
    alive_count_ = base_->reach().ReachableCount(q);
  } else {
    total_alive_ =
        alive_.MaskedWeightedSum(row, base_->blocked_weights());
    alive_count_ = alive_.IntersectionCount(row);
    alive_.AndWith(row);
  }
  if (moves_down) {
    root_ = q;
  }
}

void SplitWeightIndex::ApplyNo(NodeId q) {
  if (euler_) {
    const std::uint32_t a =
        std::max(window_begin_, base_->reach().EulerBegin(q));
    const std::uint32_t b = std::min(window_end_, base_->reach().EulerEnd(q));
    if (a >= b || CoveredByRemoved(a, b)) {
      return;  // R(q) is disjoint from the candidates or already dead
    }
    const Weight dead_weight =
        base_->EulerRangeWeight(a, b) - RemovedWeightWithin(a, b);
    const std::uint32_t dead_count = (b - a) - RemovedCountWithin(a, b);
    // Replace the intervals nested inside [a, b) with the one merged
    // interval.
    const std::size_t lo = FirstRemovedAtOrAfter(a);
    const std::size_t hi = FirstRemovedAtOrAfter(b);
    removed_.erase(removed_.begin() + static_cast<std::ptrdiff_t>(lo),
                   removed_.begin() + static_cast<std::ptrdiff_t>(hi));
    removed_.insert(removed_.begin() + static_cast<std::ptrdiff_t>(lo),
                    RemovedRange{a, b});
    RebuildRemovedPrefixes(lo);
    total_alive_ -= dead_weight;
    alive_count_ -= dead_count;
    return;
  }
  if (!materialized_) {
    MaterializeAllAlive();
  }
  if (compressed_) {
    const CompressedClosure& cc = base_->reach().compressed();
    const DynamicBitset::CountAndWeight cw =
        cc.IntersectCountAndWeight(q, alive_, base_->pos_blocked_weights());
    total_alive_ -= cw.weight;
    alive_count_ -= cw.count;
    cc.SubtractFrom(q, alive_);
    return;
  }
  const DynamicBitset& row = base_->reach().ClosureRow(q);
  total_alive_ -= alive_.MaskedWeightedSum(row, base_->blocked_weights());
  alive_count_ -= alive_.IntersectionCount(row);
  alive_.AndNotWith(row);
}

Status SplitWeightIndex::TryApplyObservedReach(NodeId q, bool yes) {
  if (q >= base_->hierarchy().NumNodes()) {
    return Status::OutOfRange("observed question node " + std::to_string(q) +
                              " outside the hierarchy");
  }
  const std::size_t inside = ReachCount(q);
  const std::size_t alive = AliveCount();
  if (yes) {
    if (inside == 0) {
      return Status::InvalidArgument(
          "observed yes for node " + std::to_string(q) +
          " would eliminate every candidate (inconsistent transcript)");
    }
    if (!IsAlive(q)) {
      if (inside == alive) {
        return Status::OK();  // no information; root must not move to q
      }
      return Status::Unimplemented(
          "observed yes for eliminated node " + std::to_string(q) +
          " still splits the candidates — not a same-hierarchy transcript");
    }
    ApplyYes(q);
    return Status::OK();
  }
  if (inside == 0) {
    return Status::OK();  // already known
  }
  if (inside == alive) {
    return Status::InvalidArgument(
        "observed no for node " + std::to_string(q) +
        " would eliminate every candidate (inconsistent transcript)");
  }
  // ApplyNo tolerates an eliminated q (the root never moves on a no), so
  // no aliveness restriction here.
  ApplyNo(q);
  return Status::OK();
}

void SplitWeightIndex::ApplyBatch(std::span<const NodeId> nodes,
                                  const std::vector<bool>& answers) {
  AIGS_CHECK(nodes.size() == answers.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (answers[i]) {
      ApplyYes(nodes[i]);
    } else {
      ApplyNo(nodes[i]);
    }
  }
}

// ---- selection --------------------------------------------------------------

MiddlePoint SplitWeightIndex::FindMiddlePoint() const {
  AIGS_DCHECK(alive_count_ > 1);
  const Weight total = total_alive_;
  MiddlePoint best;

  // Dominance-pruned descent from the root (the rooted generalization of
  // Algorithm 6's BFS). Weights are non-increasing along alive paths
  // (R(child) ∩ C ⊆ R(parent) ∩ C), so below a node with w ≤ total − w every
  // descendant's diff is ≥ the node's own; descending further can only
  // matter when the node ties the best diff seen so far (an equal-weight
  // descendant may have a smaller id). Expanding exactly those nodes visits
  // every global minimizer, making the (diff, id) argmin identical to the
  // naive full scan's. A node whose pristine bound already proves a
  // strictly worse diff (and so no expansion) never reaches either test.
  DescendAlive([&](NodeId v) {
    if (best.node != kInvalidNode &&
        PristineBoundRulesOut(v, best.split_diff, /*strict=*/true)) {
      return false;
    }
    const Weight w = ReachWeight(v);
    const Weight diff = ConsiderMiddlePoint(v, w, total, best);
    return w > total - w || diff <= best.split_diff;
  });
  AIGS_CHECK(best.node != kInvalidNode);
  return best;
}

MiddlePoint SplitWeightIndex::FindSplittingMiddlePoint() const {
  const Weight total = total_alive_;
  const std::size_t count = alive_count_;
  MiddlePoint best;

  if (euler_) {
    // Pruned/rooted descent (the PR-2 follow-up): instead of the flat scan
    // over every alive candidate, BFS down from the current root. A node
    // covering the whole candidate set (|R(v) ∩ C| = |C|) is a wasted
    // question, but splitting nodes may sit below it, so it always expands;
    // a splitting node expands under the same dominance rule as
    // FindMiddlePoint (w > total − w, or it ties the best diff seen — an
    // equal-weight descendant with a smaller id could win the tie-break).
    // Subtree weights are non-increasing along alive paths, so a pruned
    // splitting node's descendants all carry a strictly worse diff than the
    // current best and can never become the (diff, id) argmin: the result
    // is bit-identical to the flat scan. Post-yes intersection states win
    // the most — their windows concentrate mass near the root, which is
    // exactly where the dominance rule cuts the frontier.
    DescendAlive([&](NodeId v) {
      if (ReachCount(v) == count) {
        return true;  // covering: wasted question, keep descending
      }
      const Weight w = ReachWeight(v);
      const Weight diff = ConsiderMiddlePoint(v, w, total, best);
      return w > total - w || diff <= best.split_diff;
    });
    return best;
  }

  const bool closure_fused = materialized_;
  ForEachAlive([&](NodeId v) {
    // A strictly worse diff loses whether or not v splits the set.
    if (best.node != kInvalidNode &&
        PristineBoundRulesOut(v, best.split_diff, /*strict=*/true)) {
      return;
    }
    // The count gates the "splits the set" requirement, the weight feeds
    // the diff. Materialized closure mode fuses both into one word scan
    // (per-chunk over compressed rows); the other modes check the (cheap)
    // count first and skip the weight sum for covering nodes.
    Weight w;
    if (closure_fused) {
      const DynamicBitset::CountAndWeight cw =
          compressed_
              ? base_->reach().compressed().IntersectCountAndWeight(
                    v, alive_, base_->pos_blocked_weights())
              : alive_.MaskedCountAndWeightedSum(base_->reach().ClosureRow(v),
                                                base_->blocked_weights());
      if (cw.count == count) {
        return;  // "yes" is certain; the question is wasted
      }
      w = cw.weight;
    } else {
      if (ReachCount(v) == count) {
        return;  // "yes" is certain; the question is wasted
      }
      w = ReachWeight(v);
    }
    ConsiderMiddlePoint(v, w, total, best);
  });
  return best;
}

}  // namespace aigs
