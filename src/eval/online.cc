#include "eval/online.h"

#include <memory>
#include <string>

#include "eval/runner.h"
#include "oracle/oracle.h"
#include "prob/alias_table.h"
#include "prob/empirical.h"
#include "service/engine.h"
#include "util/rng.h"

namespace aigs {

StatusOr<OnlineSeries> RunOnlineLearning(const Hierarchy& hierarchy,
                                         const Distribution& real_dist,
                                         const OnlineOptions& options) {
  if (real_dist.size() != hierarchy.NumNodes()) {
    return Status::InvalidArgument("distribution size mismatch");
  }
  if (options.num_objects == 0 || options.block_size == 0 ||
      options.num_traces == 0 ||
      options.num_objects % options.block_size != 0) {
    return Status::InvalidArgument(
        "num_objects must be a positive multiple of block_size");
  }
  const std::size_t num_blocks = options.num_objects / options.block_size;
  const std::size_t publish_every =
      options.publish_every == 0 ? options.block_size : options.publish_every;
  const AliasTable sampler(real_dist);

  // The learned counts stay raw integers, so the snapshot policies must not
  // re-round them (matches the paper's live-count setting).
  const std::string policy_spec = hierarchy.is_tree()
                                      ? "greedy_tree:rounded=false"
                                      : "greedy_dag:rounded=false";

  std::vector<long double> block_cost_sum(num_blocks, 0);
  long double grand_sum = 0;

  Engine engine;
  std::uint64_t epochs_published = 0;
  const auto publish = [&](const EmpiricalCounts& counts) -> Status {
    CatalogConfig config;
    config.hierarchy = UnownedHierarchy(hierarchy);
    config.distribution = counts.ToDistribution();
    config.policy_specs = {policy_spec};
    AIGS_RETURN_NOT_OK(engine.Publish(std::move(config)).status());
    // Every epoch starts from a settled drain (its sweep finished), so
    // each block's searches see the same trie whatever the scheduling.
    engine.WaitForDrain();
    ++epochs_published;
    return Status::OK();
  };

  for (std::size_t trace = 0; trace < options.num_traces; ++trace) {
    Rng rng(options.seed + trace);
    EmpiricalCounts counts(hierarchy.NumNodes(), options.prior);
    AIGS_RETURN_NOT_OK(publish(counts));
    std::size_t since_publish = 0;

    for (std::size_t block = 0; block < num_blocks; ++block) {
      std::uint64_t block_queries = 0;
      for (std::size_t i = 0; i < options.block_size; ++i) {
        if (since_publish >= publish_every) {
          // The learned counts advance one epoch; sessions opened below see
          // the refreshed distribution, in-flight ones are untouched.
          AIGS_RETURN_NOT_OK(publish(counts));
          since_publish = 0;
        }
        const NodeId target = sampler.Sample(rng);
        ExactOracle oracle(hierarchy.reach(), target);
        AIGS_ASSIGN_OR_RETURN(const SessionId id, engine.Open(policy_spec));
        AIGS_ASSIGN_OR_RETURN(const SearchResult r,
                              RunSearch(engine, id, oracle));
        AIGS_RETURN_NOT_OK(engine.Close(id));
        AIGS_CHECK(r.target == target);
        block_queries += r.UnitCost();
        counts.Observe(target);
        ++since_publish;
      }
      block_cost_sum[block] += static_cast<long double>(block_queries) /
                               static_cast<long double>(options.block_size);
      grand_sum += static_cast<long double>(block_queries);
    }
  }

  OnlineSeries series;
  series.avg_cost_per_block.resize(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    series.avg_cost_per_block[b] = static_cast<double>(
        block_cost_sum[b] / static_cast<long double>(options.num_traces));
  }
  series.overall_avg_cost = static_cast<double>(
      grand_sum / static_cast<long double>(options.num_traces *
                                           options.num_objects));
  series.epochs_published = epochs_published;
  return series;
}

}  // namespace aigs
