// One-call construction of the two paper-scale evaluation datasets
// (hierarchy + "real" object-count distribution) and their Table II
// statistics.
#ifndef AIGS_DATA_DATASETS_H_
#define AIGS_DATA_DATASETS_H_

#include <string>

#include "core/hierarchy.h"
#include "data/synthetic_catalog.h"
#include "prob/distribution.h"

namespace aigs {

/// A ready-to-evaluate dataset.
struct Dataset {
  std::string name;
  Hierarchy hierarchy;
  /// Object counts per category (the "real data distribution").
  Distribution real_distribution;
  std::uint64_t num_objects = 0;
};

/// Amazon-like tree at the paper's scale, or shrunk by `scale` (node count,
/// object count and max degree scaled down; height preserved) for fast
/// default bench runs. scale = 1.0 reproduces Table II exactly. `reach`
/// selects the hierarchy's reachability storage (compressed closure rows
/// by default, dense on request).
Dataset MakeAmazonDataset(double scale = 1.0,
                          const ReachabilityOptions& reach = {});

/// ImageNet-like DAG, same contract.
Dataset MakeImageNetDataset(double scale = 1.0,
                            const ReachabilityOptions& reach = {});

/// Renders the Table II statistics row for a dataset.
std::string DescribeDataset(const Dataset& dataset);

}  // namespace aigs

#endif  // AIGS_DATA_DATASETS_H_
