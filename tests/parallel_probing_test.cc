// Multi-threaded improved probing: the one candidate loop
// (core/probing.cc) must return the single-thread answer at every worker
// count.

#include "core/probing.h"

#include <gtest/gtest.h>

#include <vector>

#include "data/generator.h"

namespace skyup {
namespace {

struct Fixture {
  Dataset competitors;
  Dataset products;
  ProductCostFunction cost_fn;
};

Fixture Make(size_t np, size_t nt, size_t dims, Distribution distribution,
             uint64_t seed) {
  Result<Dataset> p = GenerateCompetitors(np, dims, distribution, seed);
  Result<Dataset> t = GenerateProducts(nt, dims, distribution, seed + 1);
  EXPECT_TRUE(p.ok() && t.ok());
  return Fixture{std::move(p).value(), std::move(t).value(),
                 ProductCostFunction::ReciprocalSum(dims, 1e-3)};
}

TEST(ParallelProbingTest, MatchesSequentialExactly) {
  for (auto distribution : {Distribution::kIndependent,
                            Distribution::kAntiCorrelated}) {
    Fixture fx = Make(800, 120, 3, distribution, 42);
    Result<FlatRTree> tree = FlatRTree::BulkLoad(fx.competitors);
    ASSERT_TRUE(tree.ok());

    Result<std::vector<UpgradeResult>> sequential =
        TopKImprovedProbing(tree.value(), fx.products, fx.cost_fn, 15);
    ASSERT_TRUE(sequential.ok());

    for (size_t threads : {1, 2, 4, 7}) {
      Result<std::vector<UpgradeResult>> parallel =
          TopKImprovedProbing(tree.value(), fx.products, fx.cost_fn, 15,
                              1e-6, threads);
      ASSERT_TRUE(parallel.ok());
      ASSERT_EQ(parallel->size(), sequential->size()) << threads;
      for (size_t i = 0; i < sequential->size(); ++i) {
        EXPECT_EQ((*parallel)[i].product_id, (*sequential)[i].product_id)
            << "threads=" << threads << " rank=" << i;
        EXPECT_NEAR((*parallel)[i].cost, (*sequential)[i].cost, 1e-12);
        EXPECT_EQ((*parallel)[i].upgraded, (*sequential)[i].upgraded);
      }
    }
  }
}

TEST(ParallelProbingTest, MoreThreadsThanProducts) {
  Fixture fx = Make(200, 3, 2, Distribution::kIndependent, 7);
  Result<FlatRTree> tree = FlatRTree::BulkLoad(fx.competitors);
  ASSERT_TRUE(tree.ok());
  Result<std::vector<UpgradeResult>> r = TopKImprovedProbing(
      tree.value(), fx.products, fx.cost_fn, 3, 1e-6, /*threads=*/64);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
}

TEST(ParallelProbingTest, DefaultThreadCount) {
  Fixture fx = Make(300, 50, 2, Distribution::kIndependent, 8);
  Result<FlatRTree> tree = FlatRTree::BulkLoad(fx.competitors);
  ASSERT_TRUE(tree.ok());
  ExecStats stats;
  Result<std::vector<UpgradeResult>> r = TopKImprovedProbing(
      tree.value(), fx.products, fx.cost_fn, 5, 1e-6, /*threads=*/0, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
  EXPECT_EQ(stats.products_processed, 50u);
  // Every candidate either paid for Algorithm 1 or was cut by the sound
  // lower bound — nothing falls through the accounting.
  EXPECT_EQ(stats.upgrade_calls + stats.candidates_pruned,
            stats.products_processed);
}

TEST(ParallelProbingTest, ShardTruncationKeepsGlobalOptimum) {
  // Many products per shard force the bounded-buffer truncation path; the
  // global top-k must survive it.
  Fixture fx = Make(400, 500, 2, Distribution::kAntiCorrelated, 9);
  Result<FlatRTree> tree = FlatRTree::BulkLoad(fx.competitors);
  ASSERT_TRUE(tree.ok());
  Result<std::vector<UpgradeResult>> sequential =
      TopKImprovedProbing(tree.value(), fx.products, fx.cost_fn, 8);
  Result<std::vector<UpgradeResult>> parallel = TopKImprovedProbing(
      tree.value(), fx.products, fx.cost_fn, 8, 1e-6, 3);
  ASSERT_TRUE(sequential.ok() && parallel.ok());
  ASSERT_EQ(parallel->size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*parallel)[i].product_id, (*sequential)[i].product_id);
    EXPECT_NEAR((*parallel)[i].cost, (*sequential)[i].cost, 1e-12);
  }
}

TEST(ParallelProbingTest, RejectsInvalidArguments) {
  Fixture fx = Make(100, 10, 2, Distribution::kIndependent, 10);
  Result<FlatRTree> tree = FlatRTree::BulkLoad(fx.competitors);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(
      TopKImprovedProbing(tree.value(), fx.products, fx.cost_fn, 0).ok());
  EXPECT_FALSE(TopKImprovedProbing(tree.value(), fx.products, fx.cost_fn, 1,
                                   -1.0)
                   .ok());
  Dataset empty(2);
  EXPECT_FALSE(TopKImprovedProbing(tree.value(), empty, fx.cost_fn, 1).ok());
}

}  // namespace
}  // namespace skyup
