#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include "data/builtin.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace aigs {
namespace {

TEST(GraphIo, RoundTripPreservesStructure) {
  Rng rng(1);
  const Digraph original = RandomDag(30, rng, 0.4);
  const std::string text = SerializeHierarchy(original);
  auto parsed = ParseHierarchy(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Digraph& g = *parsed;
  ASSERT_EQ(g.NumNodes(), original.NumNodes());
  ASSERT_EQ(g.NumEdges(), original.NumEdges());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto a = original.Children(u);
    const auto b = g.Children(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(GraphIo, RoundTripPreservesLabels) {
  const Digraph original = BuildVehicleHierarchy();
  auto parsed = ParseHierarchy(SerializeHierarchy(original));
  ASSERT_TRUE(parsed.ok());
  for (NodeId v = 0; v < original.NumNodes(); ++v) {
    EXPECT_EQ(parsed->Label(v), original.Label(v));
  }
}

TEST(GraphIo, ParseRejectsMissingHeader) {
  EXPECT_FALSE(ParseHierarchy("e 0 1\n").ok());
}

TEST(GraphIo, ParseRejectsOutOfRangeEdge) {
  EXPECT_FALSE(ParseHierarchy("n 2\ne 0 5\n").ok());
}

TEST(GraphIo, ParseRejectsSelfLoop) {
  EXPECT_FALSE(ParseHierarchy("n 2\ne 1 1\n").ok());
}

TEST(GraphIo, ParseRejectsUnknownDirective) {
  EXPECT_FALSE(ParseHierarchy("n 1\nx nope\n").ok());
}

TEST(GraphIo, ParseRejectsDuplicateHeader) {
  EXPECT_FALSE(ParseHierarchy("n 2\nn 2\ne 0 1\n").ok());
}

TEST(GraphIo, ParseSkipsCommentsAndBlankLines) {
  auto parsed = ParseHierarchy("# hello\n\nn 2\n# mid\ne 0 1\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumNodes(), 2u);
}

TEST(GraphIo, ParseAddsDummyRootForForests) {
  auto parsed = ParseHierarchy("n 4\ne 0 1\ne 2 3\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumNodes(), 5u);  // dummy root appended
  EXPECT_EQ(parsed->Label(parsed->root()), "<root>");
}

TEST(GraphIo, SaveAndLoadFile) {
  Rng rng(2);
  const Digraph original = RandomTree(15, rng);
  const std::string path = ::testing::TempDir() + "/aigs_hierarchy.txt";
  ASSERT_TRUE(SaveHierarchy(original, path).ok());
  auto loaded = LoadHierarchy(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNodes(), original.NumNodes());
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
}

TEST(GraphIo, LoadMissingFileFails) {
  EXPECT_FALSE(LoadHierarchy("/nonexistent/path/file.txt").ok());
}

}  // namespace
}  // namespace aigs
