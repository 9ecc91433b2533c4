// Parallel reachability-index builds must be indistinguishable from serial
// ones: compressed encodings byte-identical (same row table, chunk refs,
// and payload pools), for any
// worker count and on a caller-owned pool. The parallel path only engages
// above a node floor, so these tests run at graph sizes straddling it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/compressed_closure.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aigs {
namespace {

// The compressed parallel build engages at >= 8192 nodes. Use a size above
// it so the sharded paths actually run.
constexpr std::size_t kDagNodes = 10'000;

TEST(ParallelBuild, CompressedEncodingByteIdenticalAcrossThreadCounts) {
  Rng rng(3101);
  const Digraph dag = RandomDag(kDagNodes, rng, 0.25);

  CompressedClosure::BuildOptions serial;
  serial.threads = 1;
  const CompressedClosure reference(dag, serial);

  for (const int threads : {2, 8}) {
    CompressedClosure::BuildOptions options;
    options.threads = threads;
    const CompressedClosure parallel(dag, options);
    EXPECT_TRUE(reference.IdenticalEncoding(parallel))
        << "threads=" << threads;
  }
}

TEST(ParallelBuild, CompressedEncodingByteIdenticalOnTree) {
  Rng rng(3102);
  const Digraph tree = RandomTree(kDagNodes, rng);

  CompressedClosure::BuildOptions serial;
  serial.threads = 1;
  const CompressedClosure reference(tree, serial);

  CompressedClosure::BuildOptions options;
  options.threads = 8;
  const CompressedClosure parallel(tree, options);
  EXPECT_TRUE(reference.IdenticalEncoding(parallel));
}

TEST(ParallelBuild, CompressedBuildOnCallerOwnedPool) {
  Rng rng(3103);
  const Digraph dag = RandomDag(kDagNodes, rng, 0.3);

  CompressedClosure::BuildOptions serial;
  serial.threads = 1;
  const CompressedClosure reference(dag, serial);

  ThreadPool pool(4);
  CompressedClosure::BuildOptions options;
  options.pool = &pool;
  const CompressedClosure parallel(dag, options);
  EXPECT_TRUE(reference.IdenticalEncoding(parallel));
}

TEST(ParallelBuild, ReachabilityIndexRoutesBuildOptionsToCompressed) {
  Rng rng(3106);
  const Digraph dag = RandomDag(kDagNodes, rng, 0.2);

  ReachabilityOptions serial;
  serial.build_threads = 1;
  const ReachabilityIndex reference(dag, serial);
  ASSERT_EQ(reference.storage(),
            ReachabilityIndex::Storage::kCompressedClosure);

  ReachabilityOptions options;
  options.build_threads = 8;
  const ReachabilityIndex parallel(dag, options);
  EXPECT_TRUE(reference.compressed().IdenticalEncoding(parallel.compressed()));

  // Spot-check semantics on top of the byte identity.
  Rng probe(3107);
  for (int i = 0; i < 2'000; ++i) {
    const NodeId u = static_cast<NodeId>(probe.UniformInt(dag.NumNodes()));
    const NodeId v = static_cast<NodeId>(probe.UniformInt(dag.NumNodes()));
    ASSERT_EQ(reference.Reaches(u, v), parallel.Reaches(u, v));
  }
}

}  // namespace
}  // namespace aigs
