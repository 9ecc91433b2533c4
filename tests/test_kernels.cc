// SIMD kernel dispatch correctness: every implementation table must be
// BIT-IDENTICAL to the scalar reference on every input shape — word counts
// from 0 through several vector widths plus remainders, dense/sparse/run
// data, and every partial-tail length at the bitset layer. On top of the
// raw kernels, pinning AIGS_KERNELS=scalar must reproduce the exact policy
// transcripts the dispatched build produces on trees and DAGs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/hierarchy.h"
#include "core/policy_registry.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "oracle/oracle.h"
#include "prob/distribution.h"
#include "tests/test_support.h"
#include "util/bitset.h"
#include "util/kernels.h"
#include "util/rng.h"

namespace aigs {
namespace {

using kernels::CountAndWeight;
using kernels::Mode;
using kernels::Ops;
using kernels::OpsFor;

/// The modes the running CPU can execute, scalar first.
std::vector<Mode> SupportedModes() {
  std::vector<Mode> modes = {Mode::kScalar};
  if (kernels::CpuSupports(Mode::kAvx2)) {
    modes.push_back(Mode::kAvx2);
  }
  if (kernels::CpuSupports(Mode::kAvx512)) {
    modes.push_back(Mode::kAvx512);
  }
  return modes;
}

enum class Fill { kSparse, kDense, kRuns, kAllOnes, kAllZeros };

std::vector<std::uint64_t> MakeWords(std::size_t n, Fill fill, Rng& rng) {
  std::vector<std::uint64_t> words(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    switch (fill) {
      case Fill::kSparse:
        words[i] = std::uint64_t{1} << rng.UniformInt(64);
        if (rng.UniformInt(4) == 0) {
          words[i] = 0;
        }
        break;
      case Fill::kDense:
        words[i] = rng.Next() | rng.Next();
        break;
      case Fill::kRuns:
        words[i] = (~std::uint64_t{0}) << rng.UniformInt(64);
        if (rng.UniformInt(8) == 0) {
          words[i] = ~words[i];
        }
        break;
      case Fill::kAllOnes:
        words[i] = ~std::uint64_t{0};
        break;
      case Fill::kAllZeros:
        words[i] = 0;
        break;
    }
  }
  return words;
}

std::vector<Weight> MakeWeights(std::size_t n_words, Rng& rng) {
  std::vector<Weight> weights(n_words * 64);
  for (Weight& w : weights) {
    w = 1 + rng.UniformInt(1000);
  }
  return weights;
}

std::vector<Weight> BlockSums(const std::vector<Weight>& weights) {
  std::vector<Weight> sums(weights.size() / 64, 0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    sums[i / 64] += weights[i];
  }
  return sums;
}

constexpr Fill kFills[] = {Fill::kSparse, Fill::kDense, Fill::kRuns,
                           Fill::kAllOnes, Fill::kAllZeros};

// Every mutating word kernel against scalar, all word counts 0..257 (covers
// empty input, sub-vector sizes, and every remainder of the 4- and 8-word
// vector strides), for every data shape.
TEST(Kernels, MutatingKernelsMatchScalarAcrossSizes) {
  const Ops& scalar = OpsFor(Mode::kScalar);
  for (const Mode mode : SupportedModes()) {
    if (mode == Mode::kScalar) {
      continue;
    }
    const Ops& ops = OpsFor(mode);
    Rng rng(77);
    for (std::size_t n = 0; n <= 257; ++n) {
      for (const Fill fill : kFills) {
        const std::vector<std::uint64_t> src = MakeWords(n, fill, rng);
        const std::vector<std::uint64_t> dst0 = MakeWords(n, Fill::kDense, rng);

        std::vector<std::uint64_t> a = dst0;
        std::vector<std::uint64_t> b = dst0;
        scalar.and_words(a.data(), src.data(), n);
        ops.and_words(b.data(), src.data(), n);
        ASSERT_EQ(a, b) << kernels::ModeName(mode) << " and_words n=" << n;

        a = dst0;
        b = dst0;
        scalar.andnot_words(a.data(), src.data(), n);
        ops.andnot_words(b.data(), src.data(), n);
        ASSERT_EQ(a, b) << kernels::ModeName(mode) << " andnot_words n=" << n;

        a = dst0;
        b = dst0;
        scalar.or_words(a.data(), src.data(), n);
        ops.or_words(b.data(), src.data(), n);
        ASSERT_EQ(a, b) << kernels::ModeName(mode) << " or_words n=" << n;
      }
    }
  }
}

TEST(Kernels, CountingKernelsMatchScalarAcrossSizes) {
  const Ops& scalar = OpsFor(Mode::kScalar);
  for (const Mode mode : SupportedModes()) {
    if (mode == Mode::kScalar) {
      continue;
    }
    const Ops& ops = OpsFor(mode);
    Rng rng(78);
    for (std::size_t n = 0; n <= 257; ++n) {
      for (const Fill fill : kFills) {
        const std::vector<std::uint64_t> a = MakeWords(n, fill, rng);
        const std::vector<std::uint64_t> b = MakeWords(n, Fill::kDense, rng);
        ASSERT_EQ(scalar.popcount_words(a.data(), n),
                  ops.popcount_words(a.data(), n))
            << kernels::ModeName(mode) << " popcount n=" << n;
        ASSERT_EQ(scalar.and_popcount_words(a.data(), b.data(), n),
                  ops.and_popcount_words(a.data(), b.data(), n))
            << kernels::ModeName(mode) << " and_popcount n=" << n;
      }
    }
  }
}

TEST(Kernels, FusedWeightKernelsMatchScalarAcrossSizes) {
  const Ops& scalar = OpsFor(Mode::kScalar);
  for (const Mode mode : SupportedModes()) {
    if (mode == Mode::kScalar) {
      continue;
    }
    const Ops& ops = OpsFor(mode);
    Rng rng(79);
    for (std::size_t n = 0; n <= 257; ++n) {
      const std::vector<Weight> weights = MakeWeights(n, rng);
      const std::vector<Weight> block_sums = BlockSums(weights);
      for (const Fill fill : kFills) {
        const std::vector<std::uint64_t> a = MakeWords(n, fill, rng);
        const std::vector<std::uint64_t> b = MakeWords(n, Fill::kDense, rng);

        const CountAndWeight sm = scalar.masked_count_weight(
            a.data(), b.data(), n, weights.data(), block_sums.data());
        const CountAndWeight vm = ops.masked_count_weight(
            a.data(), b.data(), n, weights.data(), block_sums.data());
        ASSERT_EQ(sm.count, vm.count)
            << kernels::ModeName(mode) << " masked count n=" << n;
        ASSERT_EQ(sm.weight, vm.weight)
            << kernels::ModeName(mode) << " masked weight n=" << n;

        const CountAndWeight sc = scalar.count_weight(
            a.data(), n, weights.data(), block_sums.data());
        const CountAndWeight vc =
            ops.count_weight(a.data(), n, weights.data(), block_sums.data());
        ASSERT_EQ(sc.count, vc.count)
            << kernels::ModeName(mode) << " count n=" << n;
        ASSERT_EQ(sc.weight, vc.weight)
            << kernels::ModeName(mode) << " weight n=" << n;
      }
    }
  }
}

// Bitset layer: the fused count/weight paths must agree with a per-bit
// reference for EVERY tail length 0..63 under every active mode (the tail
// word is settled scalar regardless of the dispatched interior).
TEST(Kernels, BitsetFusedOpsExactForEveryTailLength) {
  const Mode before = kernels::ActiveMode();
  for (const Mode mode : SupportedModes()) {
    kernels::SetMode(mode);
    Rng rng(80);
    for (std::size_t tail = 0; tail < 64; ++tail) {
      const std::size_t size = 256 + tail;  // 4 full words + every tail
      DynamicBitset row(size);
      DynamicBitset alive(size);
      std::vector<Weight> weights(size);
      for (std::size_t p = 0; p < size; ++p) {
        if (rng.UniformInt(3) != 0) {
          row.Set(p);
        }
        if (rng.UniformInt(2) != 0) {
          alive.Set(p);
        }
        weights[p] = 1 + rng.UniformInt(100);
      }
      const BlockedWeights blocked(weights);

      std::size_t want_count = 0;
      Weight want_weight = 0;
      for (std::size_t p = 0; p < size; ++p) {
        if (row.Test(p) && alive.Test(p)) {
          ++want_count;
          want_weight += weights[p];
        }
      }
      const auto got = row.MaskedCountAndWeightedSum(alive, blocked);
      ASSERT_EQ(want_count, got.count) << "tail=" << tail;
      ASSERT_EQ(want_weight, got.weight) << "tail=" << tail;
      ASSERT_EQ(want_count, row.IntersectionCount(alive)) << "tail=" << tail;

      const std::size_t begin = rng.UniformInt(size);
      const std::size_t end =
          begin + rng.UniformInt(static_cast<std::uint32_t>(size - begin + 1));
      std::size_t range_count = 0;
      Weight range_weight = 0;
      for (std::size_t p = begin; p < end; ++p) {
        if (alive.Test(p)) {
          ++range_count;
          range_weight += weights[p];
        }
      }
      const auto range = alive.RangeCountAndWeightedSum(begin, end, blocked);
      ASSERT_EQ(range_count, range.count) << "tail=" << tail;
      ASSERT_EQ(range_weight, range.weight) << "tail=" << tail;
    }
  }
  kernels::SetMode(before);
}

TEST(Kernels, ParseModeGrammar) {
  Mode mode;
  EXPECT_TRUE(kernels::ParseMode("scalar", &mode));
  EXPECT_EQ(mode, Mode::kScalar);
  EXPECT_TRUE(kernels::ParseMode("avx2", &mode));
  EXPECT_EQ(mode, Mode::kAvx2);
  EXPECT_TRUE(kernels::ParseMode("avx512", &mode));
  EXPECT_EQ(mode, Mode::kAvx512);
  EXPECT_TRUE(kernels::ParseMode("auto", &mode));
  EXPECT_EQ(mode, Mode::kAuto);
  EXPECT_FALSE(kernels::ParseMode("sse9", &mode));
  EXPECT_FALSE(kernels::ParseMode("", &mode));
  EXPECT_STREQ(kernels::ModeName(Mode::kScalar), "scalar");
  EXPECT_STREQ(kernels::ModeName(Mode::kAuto), "auto");
}

TEST(Kernels, ActiveNeverReportsAuto) {
  const Mode before = kernels::ActiveMode();
  kernels::SetMode(Mode::kAuto);
  // kAuto restores the env/CPU default: BestSupported() unless AIGS_KERNELS
  // pins something else (the scalar-pinned CI leg runs exactly that way).
  EXPECT_NE(kernels::ActiveMode(), Mode::kAuto);
  const char* env = std::getenv("AIGS_KERNELS");
  if (env == nullptr || std::string_view(env) == "auto") {
    EXPECT_EQ(kernels::ActiveMode(), kernels::BestSupported());
  }
  kernels::SetMode(before);
}

// ---- transcript pinning: scalar vs dispatched ----------------------------

/// Serializes one full search: every question, every answer, the verdict.
std::string TranscriptOf(const Policy& policy, const ReachabilityIndex& reach,
                         NodeId target) {
  ExactOracle oracle(reach, target);
  auto session = policy.NewSession();
  std::string out;
  for (int step = 0; step < 100'000; ++step) {
    const Query q = session->Next();
    switch (q.kind) {
      case Query::Kind::kDone:
        EXPECT_EQ(q.node, target);
        return out + "D" + std::to_string(q.node);
      case Query::Kind::kReach: {
        const bool yes = oracle.Reach(q.node);
        out += 'R';
        out += std::to_string(q.node);
        out += yes ? "+;" : "-;";
        session->OnReach(q.node, yes);
        break;
      }
      case Query::Kind::kReachBatch: {
        out += "B";
        std::vector<bool> answers(q.choices.size());
        for (std::size_t i = 0; i < q.choices.size(); ++i) {
          answers[i] = oracle.Reach(q.choices[i]);
          out += std::to_string(q.choices[i]) + (answers[i] ? "+" : "-");
        }
        out += ";";
        AIGS_CHECK(session->TryOnReachBatch(q.choices, answers).ok());
        break;
      }
      case Query::Kind::kChoice: {
        const int answer = oracle.Choice(q.choices);
        out += "C";
        for (const NodeId v : q.choices) {
          out += std::to_string(v) + "|";
        }
        out += '=';
        out += std::to_string(answer);
        out += ';';
        session->OnChoice(q.choices, answer);
        break;
      }
    }
  }
  ADD_FAILURE() << "search did not terminate";
  return out;
}

/// All-target transcripts of several policies on one hierarchy under the
/// currently pinned kernel mode.
std::string AllTranscriptsUnderActiveMode(const Digraph& g) {
  Digraph copy = g;
  ReachabilityOptions reach;
  reach.force_closure_on_trees = true;
  auto built = Hierarchy::Build(std::move(copy), reach);
  AIGS_CHECK(built.ok());
  const Hierarchy& h = *built;
  const std::size_t n = h.NumNodes();
  std::vector<Weight> weights(n);
  Rng rng(91);
  for (std::size_t v = 0; v < n; ++v) {
    weights[v] = 1 + rng.UniformInt(40);
  }
  const Distribution dist = testing::MustDist(std::move(weights));
  PolicyContext context;
  context.hierarchy = &h;
  context.distribution = &dist;

  std::string out;
  for (const char* spec : {"greedy", "batched:k=4"}) {
    auto policy = PolicyRegistry::Global().Create(spec, context);
    AIGS_CHECK(policy.ok());
    for (NodeId target = 0; target < n; ++target) {
      out += TranscriptOf(**policy, h.reach(), target) + "\n";
    }
  }
  return out;
}

TEST(Kernels, ScalarAndDispatchedTranscriptsIdentical) {
  const Mode best = kernels::BestSupported();
  if (best == Mode::kScalar) {
    GTEST_SKIP() << "no SIMD implementation supported on this CPU";
  }
  const Mode before = kernels::ActiveMode();
  Rng rng(17);
  const Digraph tree = RandomTree(120, rng);
  const Digraph dag = RandomDag(100, rng, 0.35);
  for (const Digraph* g : {&tree, &dag}) {
    kernels::SetMode(Mode::kScalar);
    const std::string scalar_transcripts = AllTranscriptsUnderActiveMode(*g);
    kernels::SetMode(best);
    const std::string simd_transcripts = AllTranscriptsUnderActiveMode(*g);
    EXPECT_EQ(scalar_transcripts, simd_transcripts);
  }
  kernels::SetMode(before);
}

}  // namespace
}  // namespace aigs
