// Shared helpers for the aigs test suite.
#ifndef AIGS_TESTS_TEST_SUPPORT_H_
#define AIGS_TESTS_TEST_SUPPORT_H_

#include <memory>
#include <vector>

#include "core/hierarchy.h"
#include "core/policy.h"
#include "data/synthetic_catalog.h"
#include "eval/runner.h"
#include "oracle/oracle.h"
#include "prob/distribution.h"
#include "util/common.h"

// Defined under ASan or TSan, whose allocators and slowdowns void some
// measurement-based assertions.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AIGS_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AIGS_TEST_SANITIZED 1
#endif
#endif

namespace aigs::testing {

/// Builds a Hierarchy or dies.
inline Hierarchy MustBuild(Digraph g) {
  auto h = Hierarchy::Build(std::move(g));
  AIGS_CHECK(h.ok());
  return *std::move(h);
}

/// Builds a Distribution from weights or dies.
inline Distribution MustDist(std::vector<Weight> weights) {
  auto d = Distribution::FromWeights(std::move(weights));
  AIGS_CHECK(d.ok());
  return *std::move(d);
}

/// A 3,000-node catalog-shaped DAG, built on compressed closure rows (the
/// DAG default). With CatalogZipfCounts its weights are skewed enough that,
/// deep in a search, nodes' pristine reach weights exceed the whole alive
/// total — a state the ≤40-node random DAGs rarely reach.
inline Hierarchy CatalogScaleDag() {
  CatalogParams params;
  params.num_nodes = 3000;
  params.height = 9;
  params.max_out_degree = 60;
  params.extra_parent_frac = 0.08;
  params.seed = 31;
  return MustBuild(GenerateCatalogDag(params));
}

/// Zipf(1) object counts over `num_nodes` categories (1M objects).
inline Distribution CatalogZipfCounts(std::size_t num_nodes) {
  return AssignZipfObjectCounts(num_nodes, 1'000'000, 1.0, 32);
}

/// Runs the policy against every possible target; returns per-target unit
/// costs. Dies if any search misidentifies its target.
inline std::vector<std::uint64_t> RunAllTargets(const Policy& policy,
                                                const Hierarchy& h) {
  std::vector<std::uint64_t> costs(h.NumNodes());
  for (NodeId target = 0; target < h.NumNodes(); ++target) {
    ExactOracle oracle(h.reach(), target);
    auto session = policy.NewSession();
    const SearchResult r = RunSearch(*session, oracle);
    AIGS_CHECK(r.target == target);
    costs[target] = r.UnitCost();
  }
  return costs;
}

/// Expected unit cost of per-target costs under a distribution.
inline double WeightedAverage(const std::vector<std::uint64_t>& costs,
                              const Distribution& dist) {
  long double total = 0;
  for (NodeId v = 0; v < costs.size(); ++v) {
    total += static_cast<long double>(dist.WeightOf(v)) *
             static_cast<long double>(costs[v]);
  }
  return static_cast<double>(total / static_cast<long double>(dist.Total()));
}

}  // namespace aigs::testing

#endif  // AIGS_TESTS_TEST_SUPPORT_H_
