#include "core/split_weight_index.h"

#include <algorithm>
#include <atomic>
#include <string>

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

// Session stamps are never reused in a process, so a thread memo keyed by
// one can never match a later session that happens to reuse its address.
std::uint64_t NextStamp() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

PlannerScratch::ViewSlot& PlannerScratch::SlotFor(std::uint64_t stamp,
                                                  std::size_t num_nodes) {
  ViewSlot* found = &views[mru];
  if (found->stamp != stamp) {
    const std::size_t slots = std::clamp<std::size_t>(
        kViewBudgetBytes / std::max<std::size_t>(1, num_nodes / 8), 1,
        kMaxViews);
    found = &views[0];
    for (ViewSlot& slot : std::span(views).first(slots)) {
      if (slot.stamp == stamp) {
        found = &slot;
        break;
      }
      if (slot.last_use < found->last_use) {
        found = &slot;  // least recently used so far
      }
    }
    mru = static_cast<std::size_t>(found - views.data());
  }
  found->last_use = ++clock;
  return *found;
}

PlannerScratch& PlannerScratch::ForThread(std::size_t num_nodes) {
  thread_local PlannerScratch scratch;
  if (scratch.visited.size() < num_nodes) {
    scratch.visited.Resize(num_nodes);
  }
  return scratch;
}

// ---- SplitWeightBase ----------------------------------------------------------

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
      // Candidate bitsets live in the compressed closure's position space,
      // so the weight table (and its block sums) must be permuted the same
      // way.
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

SplitWeightBase::CountAndWeight SplitWeightBase::RowSplit(
    NodeId v, const DynamicBitset& c) const {
  if (compressed_) {
    return reach_->compressed().IntersectCountAndWeight(v, c, pos_blocked_);
  }
  return c.MaskedCountAndWeightedSum(reach_->ClosureRow(v), blocked_);
}

Weight SplitWeightBase::RowWeight(NodeId v, const DynamicBitset& c) const {
  if (compressed_) {
    return reach_->compressed()
        .IntersectCountAndWeight(v, c, pos_blocked_)
        .weight;
  }
  return c.MaskedWeightedSum(reach_->ClosureRow(v), blocked_);
}

std::size_t SplitWeightBase::RowCount(NodeId v,
                                      const DynamicBitset& c) const {
  if (compressed_) {
    return reach_->compressed().IntersectCount(v, c);
  }
  return c.IntersectionCount(reach_->ClosureRow(v));
}

SplitWeightBase::CountAndWeight SplitWeightBase::SetSplit(
    const DynamicBitset& c) const {
  return c.RangeCountAndWeightedSum(0, c.size(),
                                    compressed_ ? pos_blocked_ : blocked_);
}

void SplitWeightBase::FillRow(NodeId v, DynamicBitset& c) const {
  if (compressed_) {
    c.ClearAll();
    reach_->compressed().ExpandRowInto(v, c);
  } else {
    c = reach_->ClosureRow(v);
  }
}

void SplitWeightBase::IntersectRow(NodeId v, DynamicBitset& c) const {
  if (compressed_) {
    reach_->compressed().IntersectInto(v, c);
  } else {
    c.AndWith(reach_->ClosureRow(v));
  }
}

void SplitWeightBase::SubtractRow(NodeId v, DynamicBitset& c) const {
  if (compressed_) {
    reach_->compressed().SubtractFrom(v, c);
  } else {
    c.AndNotWith(reach_->ClosureRow(v));
  }
}

// ---- SplitWeightIndex: state --------------------------------------------------

SplitWeightIndex::SplitWeightIndex(const SplitWeightBase& base)
    : base_(&base), euler_(base.euler_mode()) {
  Reset();
}

void SplitWeightIndex::Reset() {
  const std::size_t n = base_->hierarchy().NumNodes();
  root_ = base_->hierarchy().root();
  if (euler_) {
    alive_count_ = n;
    total_alive_ = base_->Total();
    window_begin_ = 0;
    window_end_ = static_cast<std::uint32_t>(n);
    removed_.clear();
    removed_prefix_weight_.assign(1, 0);
    removed_prefix_count_.assign(1, 0);
  } else {
    extra_yes_.clear();
    nos_.clear();
    stamp_ = NextStamp();
    answers_ = 0;
    last_node_ = kInvalidNode;
  }
}

void SplitWeightIndex::ResetFrom(const SplitWeightIndex& other) {
  base_ = other.base_;
  euler_ = other.euler_;
  root_ = other.root_;
  if (euler_) {
    alive_count_ = other.alive_count_;
    total_alive_ = other.total_alive_;
    window_begin_ = other.window_begin_;
    window_end_ = other.window_end_;
    removed_ = other.removed_;
    removed_prefix_weight_ = other.removed_prefix_weight_;
    removed_prefix_count_ = other.removed_prefix_count_;
  } else {
    extra_yes_ = other.extra_yes_;
    nos_ = other.nos_;
    stamp_ = NextStamp();
    answers_ = 0;
    last_node_ = kInvalidNode;
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

// ---- Euler-mode queries -------------------------------------------------------

bool SplitWeightIndex::EulerIsAlive(NodeId v) const {
  const std::uint32_t t = base_->reach().EulerBegin(v);
  return t >= window_begin_ && t < window_end_ && !CoveredByRemoved(t, t + 1);
}

NodeId SplitWeightIndex::EulerTarget() const {
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

Weight SplitWeightIndex::EulerReachWeight(NodeId v) const {
  const std::uint32_t a =
      std::max(window_begin_, base_->reach().EulerBegin(v));
  const std::uint32_t b = std::min(window_end_, base_->reach().EulerEnd(v));
  if (a >= b || CoveredByRemoved(a, b)) {
    return 0;
  }
  return base_->EulerRangeWeight(a, b) - RemovedWeightWithin(a, b);
}

std::size_t SplitWeightIndex::EulerReachCount(NodeId v) const {
  const std::uint32_t a =
      std::max(window_begin_, base_->reach().EulerBegin(v));
  const std::uint32_t b = std::min(window_end_, base_->reach().EulerEnd(v));
  if (a >= b || CoveredByRemoved(a, b)) {
    return 0;
  }
  return (b - a) - RemovedCountWithin(a, b);
}

// ---- planning -----------------------------------------------------------------

CandidateView SplitWeightIndex::View() const {
  CandidateView view;
  view.base_ = base_;
  view.root_ = root_;
  if (euler_) {
    view.euler_ = this;
    view.count_ = alive_count_;
    view.total_ = total_alive_;
    return view;
  }
  const PlannerScratch::ViewSlot& slot = MemoView();
  view.alive_ = &slot.alive;
  view.count_ = slot.count;
  view.total_ = slot.total;
  return view;
}

PlannerScratch::ViewSlot& SplitWeightIndex::MemoView() const {
  const std::size_t n = base_->hierarchy().NumNodes();
  PlannerScratch::ViewSlot& slot =
      PlannerScratch::ForThread(n).SlotFor(stamp_, n);
  if (slot.stamp == stamp_ && slot.answers == answers_) {
    return slot;
  }
  if (slot.stamp == stamp_ && slot.answers + 1 == answers_) {
    // The memo is one answer behind: fold in that answer's row.
    const SplitWeightBase::CountAndWeight split =
        base_->RowSplit(last_node_, slot.alive);
    if (last_yes_) {
      slot.count = split.count;
      slot.total = split.weight;
      base_->IntersectRow(last_node_, slot.alive);
    } else {
      slot.count -= split.count;
      slot.total -= split.weight;
      base_->SubtractRow(last_node_, slot.alive);
    }
  } else {
    RebuildView(slot);
  }
  slot.stamp = stamp_;
  slot.answers = answers_;
  return slot;
}

void SplitWeightIndex::RebuildView(PlannerScratch::ViewSlot& slot) const {
  const std::size_t n = base_->hierarchy().NumNodes();
  if (slot.alive.size() != n) {
    slot.alive.Resize(n);
  }
  if (root_ == base_->hierarchy().root()) {
    slot.alive.SetAll();
    slot.count = n;
    slot.total = base_->Total();
  } else {
    base_->FillRow(root_, slot.alive);
    slot.count = base_->reach().ReachableCount(root_);
    slot.total = base_->FullReachWeight(root_);
  }
  if (extra_yes_.empty() && nos_.empty()) {
    return;
  }
  for (const NodeId y : extra_yes_) {
    base_->IntersectRow(y, slot.alive);
  }
  // A no row that no longer meets C never will (C only shrinks), so it
  // leaves the session's list for good. After a yes moves the root down,
  // that is most of the earlier no rows.
  std::erase_if(nos_, [&](NodeId q) {
    if (base_->RowCount(q, slot.alive) == 0) {
      return true;
    }
    base_->SubtractRow(q, slot.alive);
    return false;
  });
  const SplitWeightBase::CountAndWeight split = base_->SetSplit(slot.alive);
  slot.count = split.count;
  slot.total = split.weight;
}

RoundSimulation SplitWeightIndex::SimulateRound() const {
  RoundSimulation sim;
  PlannerScratch& s = PlannerScratch::ForThread(base_->hierarchy().NumNodes());
  if (euler_) {
    if (s.euler_simulated == nullptr) {
      s.euler_simulated = std::make_unique<SplitWeightIndex>(*base_);
    }
    s.euler_simulated->ResetFrom(*this);
    sim.euler_ = s.euler_simulated.get();
    sim.view_ = sim.euler_->View();
    return sim;
  }
  sim.view_ = View();
  s.simulated = *sim.view_.alive_;
  sim.alive_ = &s.simulated;
  sim.view_.alive_ = &s.simulated;
  return sim;
}

void RoundSimulation::AssumeNo(NodeId q) {
  if (euler_ != nullptr) {
    euler_->ApplyNo(q);
    view_ = euler_->View();
    return;
  }
  const SplitWeightBase& base = *view_.base_;
  const SplitWeightBase::CountAndWeight split = base.RowSplit(q, *alive_);
  view_.count_ -= split.count;
  view_.total_ -= split.weight;
  base.SubtractRow(q, *alive_);
}

// ---- answer application -------------------------------------------------------

void SplitWeightIndex::AppendAnswer(NodeId q, bool yes) {
  if (yes) {
    // The root only ever moves DOWN (to nodes the current root reaches),
    // preserving the invariant that every candidate is reachable from
    // root() through alive nodes — which the rooted selection descents
    // rely on. A yes for a node that reaches the root adds nothing; any
    // other yes the root does not reach is kept beside it.
    const ReachabilityIndex& reach = base_->reach();
    if (reach.Reaches(root_, q)) {
      std::erase_if(extra_yes_,
                    [&](NodeId y) { return reach.Reaches(y, q); });
      root_ = q;
    } else if (!reach.Reaches(q, root_)) {
      extra_yes_.push_back(q);
    }
  } else {
    nos_.push_back(q);
  }
  last_node_ = q;
  last_yes_ = yes;
  ++answers_;
}

void SplitWeightIndex::ApplyYes(NodeId q) {
  if (euler_) {
    EulerApplyYes(q);
    return;
  }
  AppendAnswer(q, /*yes=*/true);
}

void SplitWeightIndex::ApplyNo(NodeId q) {
  if (euler_) {
    EulerApplyNo(q);
    return;
  }
  AppendAnswer(q, /*yes=*/false);
}

void SplitWeightIndex::EulerApplyYes(NodeId q) {
  // A batched round can apply a yes for an ancestor of an earlier yes of
  // the same round (it adds no information); the root only moves down.
  const bool moves_down = base_->reach().Reaches(root_, q);
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
}

void SplitWeightIndex::EulerApplyNo(NodeId q) {
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

Status SplitWeightIndex::TryApplyBatch(std::span<const NodeId> nodes,
                                       const std::vector<bool>& answers) {
  AIGS_CHECK(nodes.size() == answers.size());
  const Status inconsistent = Status::InvalidArgument(
      "batch answers are mutually inconsistent — they eliminate every "
      "candidate");
  if (euler_) {
    // Fold the round into a scratch copy first (one Euler-range operation
    // per question), so a rejected round never touches the session.
    SplitWeightIndex& copy = *SimulateRound().euler_;
    copy.ApplyBatch(nodes, answers);
    if (copy.alive_count_ == 0) {
      return inconsistent;
    }
    ResetFrom(copy);
    return Status::OK();
  }
  // Closure mode: fold the round into this session's memoized view with
  // fused splits, then record it; the memo then holds the post-round C.
  PlannerScratch::ViewSlot& slot = MemoView();
  std::size_t count = slot.count;
  Weight total = slot.total;
  for (std::size_t i = 0; i < nodes.size() && count > 0; ++i) {
    const SplitWeightBase::CountAndWeight split =
        base_->RowSplit(nodes[i], slot.alive);
    if (answers[i]) {
      count = split.count;
      total = split.weight;
      base_->IntersectRow(nodes[i], slot.alive);
    } else {
      count -= split.count;
      total -= split.weight;
      base_->SubtractRow(nodes[i], slot.alive);
    }
  }
  if (count == 0) {
    slot.stamp = 0;  // the slot no longer matches any session state
    return inconsistent;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    AppendAnswer(nodes[i], answers[i]);
  }
  slot.answers = answers_;
  slot.count = count;
  slot.total = total;
  return Status::OK();
}

Status SplitWeightIndex::TryApplyObservedReach(NodeId q, bool yes) {
  if (q >= base_->hierarchy().NumNodes()) {
    return Status::OutOfRange("observed question node " + std::to_string(q) +
                              " outside the hierarchy");
  }
  const CandidateView view = View();
  const std::size_t inside = view.ReachCount(q);
  const std::size_t alive = view.AliveCount();
  if (yes) {
    if (inside == 0) {
      return Status::InvalidArgument(
          "observed yes for node " + std::to_string(q) +
          " would eliminate every candidate (inconsistent transcript)");
    }
    if (!view.IsAlive(q)) {
      if (inside == alive) {
        return Status::OK();  // no information; root must not move to q
      }
      return Status::Unimplemented(
          "observed yes for eliminated node " + std::to_string(q) +
          " still splits the candidates — not a same-hierarchy transcript");
    }
  } else {
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
  }
  if (yes) {
    ApplyYes(q);
  } else {
    ApplyNo(q);
  }
  return Status::OK();
}

// ---- CandidateView ------------------------------------------------------------

NodeId CandidateView::Target() const {
  AIGS_CHECK(count_ == 1);
  if (euler_ != nullptr) {
    return euler_->EulerTarget();
  }
  return base_->NodeAtSlot(alive_->FindFirst());
}

Weight CandidateView::ReachWeight(NodeId v) const {
  if (euler_ != nullptr) {
    return euler_->EulerReachWeight(v);
  }
  return IsFull() ? base_->FullReachWeight(v) : base_->RowWeight(v, *alive_);
}

std::size_t CandidateView::ReachCount(NodeId v) const {
  if (euler_ != nullptr) {
    return euler_->EulerReachCount(v);
  }
  return IsFull() ? base_->reach().ReachableCount(v)
                  : base_->RowCount(v, *alive_);
}


bool CandidateView::PristineBoundRulesOut(NodeId v, Weight diff,
                                          bool strict) const {
  if (euler_ != nullptr) {
    return false;
  }
  // w ≤ ub, so ub ≤ total − ub gives w ≤ total − w and a diff of at least
  // (total − ub) − ub. The bound may count dead weight and exceed the alive
  // total; test that first, or total − ub wraps around.
  const Weight total = total_;
  const Weight ub = base_->FullReachWeight(v);
  if (ub > total || ub > total - ub) {
    return false;
  }
  const Weight min_diff = (total - ub) - ub;
  return strict ? min_diff > diff : min_diff >= diff;
}

MiddlePoint CandidateView::FindMiddlePoint() const {
  AIGS_DCHECK(count_ > 1);
  const Weight total = total_;
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

MiddlePoint CandidateView::FindSplittingMiddlePoint() const {
  const Weight total = total_;
  const std::size_t count = count_;
  MiddlePoint best;

  if (euler_ != nullptr) {
    // Pruned/rooted descent: instead of the flat scan over every alive
    // candidate, BFS down from the current root. A node covering the whole
    // candidate set (|R(v) ∩ C| = |C|) is a wasted question, but splitting
    // nodes may sit below it, so it always expands; a splitting node
    // expands under the same dominance rule as FindMiddlePoint (w > total −
    // w, or it ties the best diff seen — an equal-weight descendant with a
    // smaller id could win the tie-break). Subtree weights are
    // non-increasing along alive paths, so a pruned splitting node's
    // descendants all carry a strictly worse diff than the current best and
    // can never become the (diff, id) argmin: the result is bit-identical
    // to the flat scan. Post-yes intersection states win the most — their
    // windows concentrate mass near the root, which is exactly where the
    // dominance rule cuts the frontier.
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

  ForEachAlive([&](NodeId v) {
    // A strictly worse diff loses whether or not v splits the set.
    if (best.node != kInvalidNode &&
        PristineBoundRulesOut(v, best.split_diff, /*strict=*/true)) {
      return;
    }
    // The count gates the "splits the set" requirement, the weight feeds
    // the diff; one fused word scan (per chunk on compressed rows) yields
    // both.
    const SplitWeightBase::CountAndWeight cw =
        IsFull() ? SplitWeightBase::CountAndWeight{base_->reach()
                                                       .ReachableCount(v),
                                                   base_->FullReachWeight(v)}
                 : base_->RowSplit(v, *alive_);
    if (cw.count == count) {
      return;  // "yes" is certain; the question is wasted
    }
    ConsiderMiddlePoint(v, cw.weight, total, best);
  });
  return best;
}

}  // namespace aigs
