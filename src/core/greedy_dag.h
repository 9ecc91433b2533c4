// GreedyDAG (Algorithm 6): the efficient instantiation of the rounded greedy
// policy on general DAG hierarchies, 2(1+3 ln n)-approximate (Theorem 1).
//
// Query selection walks the candidate DAG from the root by BFS, expanding
// only nodes v with 2·w̃(v) > w̃(r): any v with 2·w̃(v) ≤ w̃(r) dominates all
// of its descendants (its split difference is no worse), so the search
// prunes below it while still considering v itself — exactly the paper's
// lines 4–11, with the first strict minimum in BFS order winning. The
// session state is a SplitWeightIndex overlay over the policy's shared
// SplitWeightBase — the root, the answers that still shape the candidate
// set, nothing of size n — and each plan reads the candidates through a
// CandidateView in the planning thread's scratch: w̃ restricted to the
// candidates is a closure-row intersection with that view, which is the
// corrected Algorithm 7 update without any per-session reverse BFS.
// Because that intersection is a row kernel, the BFS first bounds
// w̃(R(v) ∩ C) by the pristine w̃(R(v))
// (CandidateView::PristineBoundRulesOut) and skips children the bound
// already shows to be dominated and no better than the best.
#ifndef AIGS_CORE_GREEDY_DAG_H_
#define AIGS_CORE_GREEDY_DAG_H_

#include <memory>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/policy.h"
#include "core/split_weight_index.h"
#include "prob/distribution.h"
#include "prob/rounding.h"

namespace aigs {

/// Tuning knobs for GreedyDAG.
struct GreedyDagOptions {
  /// Apply Eq. (1) rounding (the paper's default for DAGs — Theorem 1).
  /// Disable for online learning, where raw empirical counts are already
  /// integers >= 1.
  bool use_rounded_weights = true;
  RoundingOptions rounding;

  /// Expand the selection BFS below dominated nodes anyway (ablation knob:
  /// turns selection into an exhaustive scan of the alive sub-DAG that also
  /// computes every candidate's exact weight, skipping no probe on the
  /// pristine-weight bound; the chosen node is identical, selection just
  /// costs more). It is the reference the bounded default is tested
  /// against.
  bool disable_dominance_pruning = false;
};

/// Greedy policy on DAGs (works on trees too; GreedyTree is the faster
/// specialization there).
class GreedyDagPolicy : public Policy {
 public:
  GreedyDagPolicy(const Hierarchy& hierarchy, const Distribution& dist,
                  GreedyDagOptions options = {});

  std::string name() const override { return "GreedyDAG"; }
  std::unique_ptr<SearchSession> NewSession() const override;

 private:
  GreedyDagOptions options_;
  std::vector<Weight> weights_;
  SplitWeightBase base_;  // borrows weights_
};

}  // namespace aigs

#endif  // AIGS_CORE_GREEDY_DAG_H_
