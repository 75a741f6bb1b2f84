// STR bulk loading and range queries of the R-tree index
// (rtree/flat_rtree.h), checked against brute force, including over the
// survivors of an erase re-packed by a fresh bulk load.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rtree/bulk_load.h"
#include "rtree/flat_rtree.h"
#include "util/random.h"

namespace skyup {
namespace {

Dataset RandomDataset(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(dims);
  ds.Reserve(n);
  std::vector<double> row(dims);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = rng.NextDouble();
    ds.Add(row);
  }
  return ds;
}

// Ids of the rows inside `box`.
std::vector<PointId> BruteForceRange(const Dataset& ds, const Mbr& box) {
  std::vector<PointId> out;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (box.Contains(ds.data(static_cast<PointId>(i)))) {
      out.push_back(static_cast<PointId>(i));
    }
  }
  return out;
}

Mbr RandomBox(Rng* rng, size_t dims) {
  std::vector<double> lo(dims), hi(dims);
  for (size_t i = 0; i < dims; ++i) {
    const double a = rng->NextDouble();
    const double b = rng->NextDouble();
    lo[i] = std::min(a, b);
    hi[i] = std::max(a, b);
  }
  return Mbr::FromCorners(lo.data(), hi.data(), dims);
}

// Sorted RangeQuery answer.
std::vector<PointId> Range(const FlatRTree& tree, const Mbr& box) {
  std::vector<PointId> got;
  tree.RangeQuery(box, &got);
  std::sort(got.begin(), got.end());
  return got;
}

FlatRTree Load(const Dataset& ds, size_t fanout = 64) {
  Result<FlatRTree> tree = FlatRTree::BulkLoad(ds, fanout);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(tree).value();
}

size_t LeafCount(const FlatRTree& tree) {
  size_t leaves = 0;
  for (uint32_t n = 0; n < tree.node_count(); ++n) {
    if (tree.is_leaf(n)) ++leaves;
  }
  return leaves;
}

TEST(RTreeTest, EmptyTree) {
  Dataset ds(2);
  const FlatRTree tree = Load(ds);
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Validate().ok());
  const std::vector<double> lo = {0, 0}, hi = {1, 1};
  EXPECT_TRUE(Range(tree, Mbr::FromCorners(lo.data(), hi.data(), 2)).empty());
}

TEST(RTreeTest, BulkLoadValidates) {
  Dataset ds = RandomDataset(5000, 2, 7);
  const FlatRTree tree = Load(ds);
  EXPECT_EQ(tree.size(), 5000u);
  Status s = tree.Validate();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(RTreeTest, BulkLoadAcceptsEmptyDataset) {
  // An empty dataset yields the empty index bound to it, but the fanout
  // and dimensionality limits still apply.
  Dataset ds(3);
  Result<FlatRTree> tree = FlatRTree::BulkLoad(ds);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->dims(), 3u);
  EXPECT_EQ(&tree->dataset(), &ds);
  EXPECT_EQ(tree->node_count(), 0u);
  EXPECT_TRUE(tree->root_mbr().IsEmpty());
  EXPECT_FALSE(FlatRTree::BulkLoad(ds, 1).ok());
  Dataset wide(kMaxDims + 1);
  EXPECT_FALSE(FlatRTree::BulkLoad(wide).ok());
}

TEST(RTreeTest, BulkLoadRejectsTinyFanout) {
  Dataset ds = RandomDataset(10, 2, 1);
  EXPECT_FALSE(FlatRTree::BulkLoad(ds, 1).ok());
}

TEST(RTreeTest, BulkLoadSmallDatasetSingleLeafRoot) {
  Dataset ds = RandomDataset(10, 2, 3);
  const FlatRTree tree = Load(ds);
  EXPECT_TRUE(tree.is_leaf(FlatRTree::kRoot));
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(RTreeTest, BulkLoadIsPacked) {
  // STR should produce close to n / fanout leaves.
  Dataset ds = RandomDataset(6400, 2, 9);
  const FlatRTree tree = Load(ds, 64);
  const size_t leaves = LeafCount(tree);
  EXPECT_LE(leaves, 140u);  // perfect packing would give 100
  EXPECT_GE(leaves, 100u);
}

class RangeQueryTest : public ::testing::TestWithParam<
                           std::tuple<size_t, size_t, bool>> {};

// Parameters: row count, dims, and whether the bulk-loaded index stays
// intact. When it does not, a third of the rows are erased first, the way
// the serve tier erases: the survivors are re-packed by a fresh bulk load,
// and RangeQuery must match brute force over them.
TEST_P(RangeQueryTest, MatchesBruteForce) {
  const size_t n = std::get<0>(GetParam());
  const size_t dims = std::get<1>(GetParam());
  const bool erase = !std::get<2>(GetParam());
  const Dataset all = RandomDataset(n, dims, 1000 + n + dims);
  Dataset ds(dims);
  for (size_t i = 0; i < n; ++i) {
    // Erase a contiguous run (whole leaves) plus a strided sample.
    if (erase && (i < n / 6 || i % 5 == 0)) continue;
    ds.Add(all.data(static_cast<PointId>(i)));
  }
  const FlatRTree tree = Load(ds, 16);
  Status s = tree.Validate();
  ASSERT_TRUE(s.ok()) << s.ToString();

  Rng rng(55);
  for (int q = 0; q < 25; ++q) {
    const Mbr box = RandomBox(&rng, dims);
    EXPECT_EQ(Range(tree, box), BruteForceRange(ds, box));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RangeQueryTest,
    ::testing::Combine(::testing::Values<size_t>(64, 500, 3000),
                       ::testing::Values<size_t>(2, 4),
                       ::testing::Bool()),
    [](const auto& param_info) {
      // Built by append: gcc 12's -Wrestrict false-fires on chained
      // `const char* + std::string` concatenation (PR105329).
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_d";
      name += std::to_string(std::get<1>(param_info.param));
      name += std::get<2>(param_info.param) ? "_bulk" : "_erase";
      return name;
    });

TEST(RTreeTest, RangeQueryWholeSpaceReturnsEverything) {
  Dataset ds = RandomDataset(300, 3, 77);
  const FlatRTree tree = Load(ds);
  const std::vector<double> lo = {-1, -1, -1}, hi = {2, 2, 2};
  EXPECT_EQ(Range(tree, Mbr::FromCorners(lo.data(), hi.data(), 3)).size(),
            300u);
}

TEST(RTreeTest, DuplicatePointsAreAllIndexed) {
  Dataset ds(2);
  for (int i = 0; i < 100; ++i) ds.Add({0.5, 0.5});
  const FlatRTree tree = Load(ds, 8);
  EXPECT_TRUE(tree.Validate().ok());
  const std::vector<double> lo = {0.5, 0.5};
  EXPECT_EQ(Range(tree, Mbr::FromCorners(lo.data(), lo.data(), 2)).size(),
            100u);
}

TEST(StrSlabCountTest, FormulaCases) {
  // 1000 points, capacity 10 -> 100 pages; 2 dims left -> ceil(sqrt(100)).
  EXPECT_EQ(StrSlabCount(1000, 10, 2), 10u);
  EXPECT_EQ(StrSlabCount(1000, 10, 1), 100u);
  // Exact cube root should not round up from floating noise.
  EXPECT_EQ(StrSlabCount(640, 10, 3), 4u);
  EXPECT_EQ(StrSlabCount(5, 10, 2), 1u);
}

}  // namespace
}  // namespace skyup
