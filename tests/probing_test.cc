#include "core/probing.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/dominance.h"
#include "data/generator.h"

namespace skyup {
namespace {

struct Fixture {
  Dataset competitors{2};
  Dataset products{2};
  ProductCostFunction cost_fn = ProductCostFunction::ReciprocalSum(2, 1e-3);
};

// A tiny scene with hand-checkable answers:
//   competitors: (0.1, 0.5), (0.5, 0.1), (0.3, 0.3)
//   products:    A=(0.6, 0.6) dominated by all three,
//                B=(0.05, 0.9) undominated (best x),
//                C=(2.0, 2.0) dominated by all three, far away.
Fixture MakeScene() {
  Fixture fx;
  fx.competitors.Add({0.1, 0.5});
  fx.competitors.Add({0.5, 0.1});
  fx.competitors.Add({0.3, 0.3});
  fx.products.Add({0.6, 0.6});   // A, id 0
  fx.products.Add({0.05, 0.9});  // B, id 1
  fx.products.Add({2.0, 2.0});   // C, id 2
  return fx;
}

TEST(ProbingTest, UndominatedProductCostsZeroAndRanksFirst) {
  Fixture fx = MakeScene();
  Result<FlatRTree> rp = FlatRTree::BulkLoad(fx.competitors);
  ASSERT_TRUE(rp.ok());

  for (auto algo : {&TopKBasicProbing, &TopKImprovedProbing}) {
    Result<std::vector<UpgradeResult>> top =
        (*algo)(rp.value(), fx.products, fx.cost_fn, 3, 1e-6, 1, nullptr,
                nullptr, nullptr);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    ASSERT_EQ(top->size(), 3u);
    EXPECT_EQ((*top)[0].product_id, 1);
    EXPECT_DOUBLE_EQ((*top)[0].cost, 0.0);
    EXPECT_TRUE((*top)[0].already_competitive);
    // A is nearer to the skyline than C, so cheaper to upgrade.
    EXPECT_EQ((*top)[1].product_id, 0);
    EXPECT_EQ((*top)[2].product_id, 2);
    EXPECT_LT((*top)[1].cost, (*top)[2].cost);
  }
}

TEST(ProbingTest, ResultsSortedByCost) {
  Result<Dataset> p =
      GenerateCompetitors(500, 3, Distribution::kIndependent, 3);
  Result<Dataset> t = GenerateProducts(80, 3, Distribution::kIndependent, 4);
  ASSERT_TRUE(p.ok() && t.ok());
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-3);
  Result<FlatRTree> rp = FlatRTree::BulkLoad(*p);
  ASSERT_TRUE(rp.ok());

  Result<std::vector<UpgradeResult>> top =
      TopKImprovedProbing(rp.value(), *t, f, 20);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 20u);
  for (size_t i = 1; i < top->size(); ++i) {
    EXPECT_LE((*top)[i - 1].cost, (*top)[i].cost);
  }
}

TEST(ProbingTest, KLargerThanTReturnsAll) {
  Fixture fx = MakeScene();
  Result<FlatRTree> rp = FlatRTree::BulkLoad(fx.competitors);
  ASSERT_TRUE(rp.ok());
  Result<std::vector<UpgradeResult>> top =
      TopKBasicProbing(rp.value(), fx.products, fx.cost_fn, 100);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 3u);
}

TEST(ProbingTest, RejectsInvalidArguments) {
  Fixture fx = MakeScene();
  Result<FlatRTree> rp = FlatRTree::BulkLoad(fx.competitors);
  ASSERT_TRUE(rp.ok());

  EXPECT_FALSE(
      TopKBasicProbing(rp.value(), fx.products, fx.cost_fn, 0).ok());
  EXPECT_FALSE(
      TopKBasicProbing(rp.value(), fx.products, fx.cost_fn, 1, -1.0).ok());

  Dataset wrong_dims(3);
  wrong_dims.Add({1, 2, 3});
  EXPECT_FALSE(
      TopKBasicProbing(rp.value(), wrong_dims, fx.cost_fn, 1).ok());

  Dataset empty(2);
  EXPECT_FALSE(TopKBasicProbing(rp.value(), empty, fx.cost_fn, 1).ok());

  ProductCostFunction f3 = ProductCostFunction::ReciprocalSum(3);
  EXPECT_FALSE(TopKBasicProbing(rp.value(), fx.products, f3, 1).ok());
}

TEST(ProbingTest, UpgradedResultsAreUndominated) {
  Result<Dataset> p =
      GenerateCompetitors(800, 2, Distribution::kAntiCorrelated, 11);
  Result<Dataset> t = GenerateProducts(50, 2, Distribution::kIndependent, 12);
  ASSERT_TRUE(p.ok() && t.ok());
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(2, 1e-3);
  Result<FlatRTree> rp = FlatRTree::BulkLoad(*p);
  ASSERT_TRUE(rp.ok());

  Result<std::vector<UpgradeResult>> top =
      TopKImprovedProbing(rp.value(), *t, f, 10);
  ASSERT_TRUE(top.ok());
  for (const UpgradeResult& r : *top) {
    for (size_t i = 0; i < p->size(); ++i) {
      ASSERT_FALSE(Dominates(p->data(static_cast<PointId>(i)),
                             r.upgraded.data(), 2))
          << "upgraded product " << r.product_id << " still dominated";
    }
  }
}

TEST(ProbingTest, BasicAndImprovedAgreeWithBruteForce) {
  for (auto distribution : {Distribution::kIndependent,
                            Distribution::kAntiCorrelated}) {
    Result<Dataset> p = GenerateCompetitors(600, 3, distribution, 21);
    Result<Dataset> t = GenerateProducts(60, 3, distribution, 22);
    ASSERT_TRUE(p.ok() && t.ok());
    ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-3);
    Result<FlatRTree> rp = FlatRTree::BulkLoad(*p);
    ASSERT_TRUE(rp.ok());

    Result<std::vector<UpgradeResult>> oracle =
        TopKBruteForce(*p, *t, f, 15);
    Result<std::vector<UpgradeResult>> basic =
        TopKBasicProbing(rp.value(), *t, f, 15);
    Result<std::vector<UpgradeResult>> improved =
        TopKImprovedProbing(rp.value(), *t, f, 15);
    ASSERT_TRUE(oracle.ok() && basic.ok() && improved.ok());
    ASSERT_EQ(oracle->size(), basic->size());
    ASSERT_EQ(oracle->size(), improved->size());
    for (size_t i = 0; i < oracle->size(); ++i) {
      EXPECT_EQ((*oracle)[i].product_id, (*basic)[i].product_id);
      EXPECT_NEAR((*oracle)[i].cost, (*basic)[i].cost, 1e-9);
      EXPECT_EQ((*oracle)[i].product_id, (*improved)[i].product_id);
      EXPECT_NEAR((*oracle)[i].cost, (*improved)[i].cost, 1e-9);
    }
  }
}

TEST(ProbingTest, StatsShowImprovedFetchesFewerDominators) {
  Result<Dataset> p =
      GenerateCompetitors(3000, 2, Distribution::kIndependent, 31);
  Result<Dataset> t = GenerateProducts(30, 2, Distribution::kIndependent, 32);
  ASSERT_TRUE(p.ok() && t.ok());
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(2, 1e-3);
  Result<FlatRTree> rp = FlatRTree::BulkLoad(*p);
  ASSERT_TRUE(rp.ok());

  ExecStats basic_stats, improved_stats;
  ASSERT_TRUE(
      TopKBasicProbing(rp.value(), *t, f, 5, 1e-6, 1, &basic_stats).ok());
  ASSERT_TRUE(
      TopKImprovedProbing(rp.value(), *t, f, 5, 1e-6, 1, &improved_stats).ok());
  // Products in (1,2]^2 are dominated by nearly all 3000 competitors; the
  // improved probe only materializes the dominator *skyline*.
  EXPECT_GT(basic_stats.dominators_fetched,
            10 * improved_stats.dominators_fetched);
  EXPECT_EQ(basic_stats.products_processed, 30u);
  EXPECT_EQ(improved_stats.products_processed, 30u);
}

}  // namespace
}  // namespace skyup
