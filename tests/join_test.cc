#include "core/join.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/dominance.h"
#include "core/probing.h"
#include "data/generator.h"
#include "data/wine.h"

namespace skyup {
namespace {

// Owns the datasets behind stable pointers so the R-trees stay valid.
struct Workload {
  std::unique_ptr<Dataset> competitors;
  std::unique_ptr<Dataset> products;
  std::unique_ptr<FlatRTree> rp;
  std::unique_ptr<FlatRTree> rt;
  std::unique_ptr<ProductCostFunction> cost_fn;
};

Workload MakeWorkload(size_t np, size_t nt, size_t dims,
                      Distribution distribution, uint64_t seed,
                      size_t fanout = 16) {
  Workload w;
  Result<Dataset> p = GenerateCompetitors(np, dims, distribution, seed);
  Result<Dataset> t = GenerateProducts(nt, dims, distribution, seed + 1);
  EXPECT_TRUE(p.ok() && t.ok());
  w.competitors = std::make_unique<Dataset>(std::move(p).value());
  w.products = std::make_unique<Dataset>(std::move(t).value());
  Result<FlatRTree> rp = FlatRTree::BulkLoad(*w.competitors, fanout);
  Result<FlatRTree> rt = FlatRTree::BulkLoad(*w.products, fanout);
  EXPECT_TRUE(rp.ok() && rt.ok());
  w.rp = std::make_unique<FlatRTree>(std::move(rp).value());
  w.rt = std::make_unique<FlatRTree>(std::move(rt).value());
  w.cost_fn = std::make_unique<ProductCostFunction>(
      ProductCostFunction::ReciprocalSum(dims, 1e-3));
  return w;
}

JoinOptions Opts(LowerBoundKind kind, BoundMode mode) {
  JoinOptions o;
  o.lower_bound = kind;
  o.bound_mode = mode;
  return o;
}

TEST(JoinCursorTest, CreateValidatesInputs) {
  Workload w = MakeWorkload(100, 20, 2, Distribution::kIndependent, 1);
  EXPECT_FALSE(
      JoinCursor::Create(nullptr, w.rt.get(), w.cost_fn.get()).ok());
  EXPECT_FALSE(
      JoinCursor::Create(w.rp.get(), nullptr, w.cost_fn.get()).ok());
  EXPECT_FALSE(JoinCursor::Create(w.rp.get(), w.rt.get(), nullptr).ok());

  JoinOptions bad;
  bad.epsilon = 0.0;
  EXPECT_FALSE(
      JoinCursor::Create(w.rp.get(), w.rt.get(), w.cost_fn.get(), bad).ok());

  ProductCostFunction f3 = ProductCostFunction::ReciprocalSum(3);
  EXPECT_FALSE(JoinCursor::Create(w.rp.get(), w.rt.get(), &f3).ok());

  Dataset empty(2);
  Result<FlatRTree> empty_tree = FlatRTree::BulkLoad(empty);
  ASSERT_TRUE(empty_tree.ok());
  EXPECT_FALSE(
      JoinCursor::Create(&*empty_tree, w.rt.get(), w.cost_fn.get()).ok());
  EXPECT_FALSE(
      JoinCursor::Create(w.rp.get(), &*empty_tree, w.cost_fn.get()).ok());
}

TEST(JoinCursorTest, ExhaustsAllProducts) {
  Workload w = MakeWorkload(300, 40, 2, Distribution::kIndependent, 5);
  Result<JoinCursor> cursor =
      JoinCursor::Create(w.rp.get(), w.rt.get(), w.cost_fn.get(),
                         Opts(LowerBoundKind::kConservative,
                              BoundMode::kSound));
  ASSERT_TRUE(cursor.ok());
  size_t count = 0;
  std::vector<bool> seen(w.products->size(), false);
  while (auto r = cursor->Next()) {
    ASSERT_GE(r->product_id, 0);
    ASSERT_LT(static_cast<size_t>(r->product_id), seen.size());
    EXPECT_FALSE(seen[static_cast<size_t>(r->product_id)])
        << "product reported twice";
    seen[static_cast<size_t>(r->product_id)] = true;
    ++count;
  }
  EXPECT_EQ(count, w.products->size());
}

TEST(JoinCursorTest, SoundModeStreamsNondecreasingCosts) {
  for (auto kind : {LowerBoundKind::kNaive, LowerBoundKind::kConservative,
                    LowerBoundKind::kAggressive}) {
    Workload w = MakeWorkload(500, 60, 3, Distribution::kAntiCorrelated, 9);
    Result<JoinCursor> cursor = JoinCursor::Create(
        w.rp.get(), w.rt.get(), w.cost_fn.get(),
        Opts(kind, BoundMode::kSound));
    ASSERT_TRUE(cursor.ok());
    double prev = -1.0;
    while (auto r = cursor->Next()) {
      EXPECT_GE(r->cost, prev - 1e-9)
          << "out-of-order result under " << LowerBoundKindName(kind);
      prev = r->cost;
    }
  }
}

class JoinAgreementTest
    : public ::testing::TestWithParam<std::tuple<LowerBoundKind, BoundMode,
                                                 int>> {};

TEST_P(JoinAgreementTest, TopKCostsMatchBruteForce) {
  const auto [kind, mode, variant] = GetParam();
  const Distribution distribution = variant % 2 == 0
                                        ? Distribution::kIndependent
                                        : Distribution::kAntiCorrelated;
  const size_t dims = 2 + static_cast<size_t>(variant) % 3;
  Workload w = MakeWorkload(700, 80, dims, distribution,
                            100 + static_cast<uint64_t>(variant));

  Result<std::vector<UpgradeResult>> oracle =
      TopKBruteForce(*w.competitors, *w.products, *w.cost_fn, 12);
  ASSERT_TRUE(oracle.ok());

  Result<std::vector<UpgradeResult>> join = TopKJoin(
      *w.rp, *w.rt, *w.cost_fn, 12, Opts(kind, mode));
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_EQ(join->size(), oracle->size());

  for (size_t i = 0; i < oracle->size(); ++i) {
    // Identical cost sequence (ties may swap which product realizes a
    // cost, so compare costs, not ids).
    EXPECT_NEAR((*join)[i].cost, (*oracle)[i].cost, 1e-9)
        << LowerBoundKindName(kind) << "/" << BoundModeName(mode)
        << " rank " << i;
    // And each reported cost is the true cost of the reported product.
    Dataset one(w.products->dims());
    one.Add(w.products->data((*join)[i].product_id));
    Result<std::vector<UpgradeResult>> check =
        TopKBruteForce(*w.competitors, one, *w.cost_fn, 1);
    ASSERT_TRUE(check.ok());
    EXPECT_NEAR((*join)[i].cost, (*check)[0].cost, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinAgreementTest,
    ::testing::Combine(
        ::testing::Values(LowerBoundKind::kNaive,
                          LowerBoundKind::kConservative,
                          LowerBoundKind::kAggressive),
        ::testing::Values(BoundMode::kSound),
        ::testing::Values(0, 1, 2, 3)),
    [](const auto& param_info) {
      return std::string(LowerBoundKindName(std::get<0>(param_info.param))) +
             "_" + BoundModeName(std::get<1>(param_info.param)) + "_v" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(JoinTest, UpgradedResultsAreUndominated) {
  Workload w = MakeWorkload(600, 50, 3, Distribution::kAntiCorrelated, 33);
  Result<std::vector<UpgradeResult>> top =
      TopKJoin(*w.rp, *w.rt, *w.cost_fn, 10);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 10u);
  for (const UpgradeResult& r : *top) {
    for (size_t i = 0; i < w.competitors->size(); ++i) {
      ASSERT_FALSE(Dominates(w.competitors->data(static_cast<PointId>(i)),
                             r.upgraded.data(), 3));
    }
  }
}

TEST(JoinTest, CompetitiveProductsComeFirstAtZeroCost) {
  // Products straddling the competitor cube: some undominated.
  Workload w = MakeWorkload(200, 1, 2, Distribution::kIndependent, 55);
  // Rebuild the product set manually: one clearly undominated product.
  auto products = std::make_unique<Dataset>(2);
  products->Add({-1.0, 5.0});  // best x overall: undominated
  products->Add({1.5, 1.5});   // dominated by everything
  Result<FlatRTree> rt = FlatRTree::BulkLoad(*products);
  ASSERT_TRUE(rt.ok());

  Result<std::vector<UpgradeResult>> top =
      TopKJoin(*w.rp, rt.value(), *w.cost_fn, 2);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 2u);
  EXPECT_EQ((*top)[0].product_id, 0);
  EXPECT_TRUE((*top)[0].already_competitive);
  EXPECT_DOUBLE_EQ((*top)[0].cost, 0.0);
  EXPECT_GT((*top)[1].cost, 0.0);
}

TEST(JoinTest, MutualDominancePruningIsResultInvariant) {
  Workload w = MakeWorkload(800, 60, 3, Distribution::kIndependent, 77);
  JoinOptions with = Opts(LowerBoundKind::kConservative, BoundMode::kSound);
  JoinOptions without = with;
  without.mutual_dominance_pruning = false;

  ExecStats stats_with, stats_without;
  Result<std::vector<UpgradeResult>> a =
      TopKJoin(*w.rp, *w.rt, *w.cost_fn, 15, with, &stats_with);
  Result<std::vector<UpgradeResult>> b =
      TopKJoin(*w.rp, *w.rt, *w.cost_fn, 15, without, &stats_without);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR((*a)[i].cost, (*b)[i].cost, 1e-9);
  }
  EXPECT_GT(stats_with.jl_entries_pruned, 0u);
  EXPECT_EQ(stats_without.jl_entries_pruned, 0u);
}

TEST(JoinTest, LeafRefinementIsResultInvariant) {
  // Overlapping layout (T inside P's box) — the degenerate case of
  // DESIGN.md finding #2. Results must be identical with the refinement
  // on or off; only the amount of exact-cost work differs.
  Result<Dataset> p =
      GenerateCompetitors(2000, 3, Distribution::kIndependent, 501);
  Result<Dataset> t =
      GenerateCompetitors(300, 3, Distribution::kIndependent, 502);
  ASSERT_TRUE(p.ok() && t.ok());
  auto pp = std::make_unique<Dataset>(std::move(p).value());
  auto tt = std::make_unique<Dataset>(std::move(t).value());
  Result<FlatRTree> rp = FlatRTree::BulkLoad(*pp);
  Result<FlatRTree> rt = FlatRTree::BulkLoad(*tt);
  ASSERT_TRUE(rp.ok() && rt.ok());
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-3);

  JoinOptions on = Opts(LowerBoundKind::kConservative, BoundMode::kSound);
  JoinOptions off = on;
  off.refine_zero_bound_leaves = false;

  ExecStats stats_on, stats_off;
  Result<std::vector<UpgradeResult>> a =
      TopKJoin(rp.value(), rt.value(), f, 10, on, &stats_on);
  Result<std::vector<UpgradeResult>> b =
      TopKJoin(rp.value(), rt.value(), f, 10, off, &stats_off);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR((*a)[i].cost, (*b)[i].cost, 1e-9);
  }
  // Verbatim Algorithm 4 probes (nearly) the whole catalog here.
  EXPECT_GT(stats_off.products_processed, tt->size() / 2);
  EXPECT_LE(stats_on.products_processed, stats_off.products_processed);

}

TEST(JoinTest, LeafRefinementPrunesWineLikeWorkloads) {
  // The wine workload (products are strictly dominated tuples inside the
  // competitor space) is where finding #2 matters: with the paper-mode
  // bounds, refining zero-bound leaves must skip the exact computation
  // for most products, while the verbatim algorithm probes everything.
  Result<Dataset> wine = SynthesizeWine(1500, 99);
  ASSERT_TRUE(wine.ok());
  Result<Dataset> reduced = WineSubset(
      *wine, {WineAttr::kChlorides, WineAttr::kSulphates,
              WineAttr::kTotalSulfurDioxide});
  ASSERT_TRUE(reduced.ok());
  Result<WineSplit> split = SplitWine(*reduced, 300, 7);
  ASSERT_TRUE(split.ok());
  auto pp = std::make_unique<Dataset>(std::move(split->competitors));
  auto tt = std::make_unique<Dataset>(std::move(split->products));
  Result<FlatRTree> rp = FlatRTree::BulkLoad(*pp);
  Result<FlatRTree> rt = FlatRTree::BulkLoad(*tt);
  ASSERT_TRUE(rp.ok() && rt.ok());
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-3);

  // Ground truth.
  Result<std::vector<UpgradeResult>> oracle =
      TopKBruteForce(*pp, *tt, f, 1);
  ASSERT_TRUE(oracle.ok());

  // Sound bounds: refinement keeps the result exact and skips some exact
  // computations, while the verbatim algorithm (refine off) probes nearly
  // the whole catalog.
  JoinOptions sound_on = Opts(LowerBoundKind::kConservative,
                              BoundMode::kSound);
  JoinOptions sound_off = sound_on;
  sound_off.refine_zero_bound_leaves = false;
  ExecStats stats_on, stats_off;
  Result<std::vector<UpgradeResult>> a =
      TopKJoin(rp.value(), rt.value(), f, 1, sound_on, &stats_on);
  Result<std::vector<UpgradeResult>> b =
      TopKJoin(rp.value(), rt.value(), f, 1, sound_off, &stats_off);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR((*a)[0].cost, (*oracle)[0].cost, 1e-9);
  EXPECT_NEAR((*b)[0].cost, (*oracle)[0].cost, 1e-9);
  EXPECT_GT(stats_off.products_processed, tt->size() / 2);
  EXPECT_LT(stats_on.products_processed, stats_off.products_processed);

  // DESIGN.md finding #1, demonstrated: the paper's LBC formula is an
  // overestimate, and combined with leaf refinement it prunes the true
  // optimum on this (deterministic) wine workload. Its reported cost can
  // never be *below* the optimum, but here it is far above it.
  JoinOptions paper_on = Opts(LowerBoundKind::kConservative,
                              BoundMode::kPaper);
  Result<std::vector<UpgradeResult>> c =
      TopKJoin(rp.value(), rt.value(), f, 1, paper_on);
  ASSERT_TRUE(c.ok());
  EXPECT_GE((*c)[0].cost, (*oracle)[0].cost - 1e-9);
  EXPECT_GT((*c)[0].cost, (*oracle)[0].cost + 0.1)
      << "if this starts matching the oracle, the demonstration workload "
         "has shifted; the property being documented is that it *can* "
         "mismatch";
}

TEST(JoinTest, ProgressivenessStopsEarly) {
  // Asking for 1 result must process far fewer products than |T|.
  Workload w = MakeWorkload(2000, 500, 2, Distribution::kIndependent, 91);
  ExecStats stats;
  Result<std::vector<UpgradeResult>> top =
      TopKJoin(*w.rp, *w.rt, *w.cost_fn, 1,
               Opts(LowerBoundKind::kConservative, BoundMode::kPaper),
               &stats);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_LT(stats.products_processed, w.products->size() / 2)
      << "join should not probe most of T for k=1";
}

TEST(JoinTest, PaperModeCostsAreIndividuallyCorrect) {
  // Under the paper's (unsound) bounds the *ordering* can in principle
  // drift on near-ties, but every reported cost must still be that
  // product's true upgrading cost.
  Workload w = MakeWorkload(700, 80, 3, Distribution::kAntiCorrelated, 123);
  Result<std::vector<UpgradeResult>> join =
      TopKJoin(*w.rp, *w.rt, *w.cost_fn, 15,
               Opts(LowerBoundKind::kConservative, BoundMode::kPaper));
  ASSERT_TRUE(join.ok());
  for (const UpgradeResult& r : *join) {
    Dataset one(w.products->dims());
    one.Add(w.products->data(r.product_id));
    Result<std::vector<UpgradeResult>> check =
        TopKBruteForce(*w.competitors, one, *w.cost_fn, 1);
    ASSERT_TRUE(check.ok());
    EXPECT_NEAR(r.cost, (*check)[0].cost, 1e-9);
  }
}

TEST(JoinTest, LargeFanoutAndSmallFanoutAgree) {
  Workload coarse = MakeWorkload(900, 70, 2, Distribution::kIndependent,
                                 200, /*fanout=*/64);
  Workload fine = MakeWorkload(900, 70, 2, Distribution::kIndependent,
                               200, /*fanout=*/4);
  Result<std::vector<UpgradeResult>> a =
      TopKJoin(*coarse.rp, *coarse.rt, *coarse.cost_fn, 10,
               Opts(LowerBoundKind::kAggressive, BoundMode::kSound));
  Result<std::vector<UpgradeResult>> b =
      TopKJoin(*fine.rp, *fine.rt, *fine.cost_fn, 10,
               Opts(LowerBoundKind::kAggressive, BoundMode::kSound));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR((*a)[i].cost, (*b)[i].cost, 1e-9);
  }
}

TEST(JoinTest, StatsAccounting) {
  Workload w = MakeWorkload(500, 50, 2, Distribution::kIndependent, 301);
  ExecStats stats;
  ASSERT_TRUE(TopKJoin(*w.rp, *w.rt, *w.cost_fn, 5, JoinOptions{}, &stats)
                  .ok());
  EXPECT_GT(stats.heap_pops, 0u);
  EXPECT_GT(stats.t_expansions, 0u);
  EXPECT_GT(stats.lbc_evaluations, 0u);
  EXPECT_GE(stats.upgrade_calls, 5u);
}

TEST(JoinCursorTest, ExhaustedCursorStaysEmpty) {
  Workload w = MakeWorkload(50, 5, 2, Distribution::kIndependent, 610);
  Result<JoinCursor> cursor =
      JoinCursor::Create(w.rp.get(), w.rt.get(), w.cost_fn.get());
  ASSERT_TRUE(cursor.ok());
  size_t n = 0;
  while (cursor->Next()) ++n;
  EXPECT_EQ(n, 5u);
  EXPECT_FALSE(cursor->Next().has_value());
  EXPECT_FALSE(cursor->Next().has_value());
}

TEST(JoinTest, KLargerThanTReturnsEverything) {
  Workload w = MakeWorkload(80, 7, 3, Distribution::kAntiCorrelated, 611);
  Result<std::vector<UpgradeResult>> top =
      TopKJoin(*w.rp, *w.rt, *w.cost_fn, 100);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 7u);
}

TEST(JoinTest, ProductIdenticalToCompetitorIsCompetitive) {
  // A product exactly equal to a skyline competitor is not dominated.
  auto p = std::make_unique<Dataset>(2);
  p->Add({0.3, 0.3});
  p->Add({0.1, 0.6});
  auto t = std::make_unique<Dataset>(2);
  t->Add({0.3, 0.3});
  Result<FlatRTree> rp = FlatRTree::BulkLoad(*p);
  Result<FlatRTree> rt = FlatRTree::BulkLoad(*t);
  ASSERT_TRUE(rp.ok() && rt.ok());
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(2, 1e-3);
  Result<std::vector<UpgradeResult>> top =
      TopKJoin(rp.value(), rt.value(), f, 1);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_TRUE((*top)[0].already_competitive);
  EXPECT_DOUBLE_EQ((*top)[0].cost, 0.0);
}

TEST(JoinTest, SingleEntryTrees) {
  auto p = std::make_unique<Dataset>(3);
  p->Add({0.1, 0.2, 0.3});
  auto t = std::make_unique<Dataset>(3);
  t->Add({0.4, 0.4, 0.4});
  Result<FlatRTree> rp = FlatRTree::BulkLoad(*p);
  Result<FlatRTree> rt = FlatRTree::BulkLoad(*t);
  ASSERT_TRUE(rp.ok() && rt.ok());
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-3);
  Result<std::vector<UpgradeResult>> top =
      TopKJoin(rp.value(), rt.value(), f, 1);
  ASSERT_TRUE(top.ok());
  EXPECT_GT((*top)[0].cost, 0.0);
  // The upgraded product beats the lone competitor on some dimension.
  bool beats = false;
  for (size_t d = 0; d < 3; ++d) {
    beats = beats || (*top)[0].upgraded[d] < p->data(0)[d];
  }
  EXPECT_TRUE(beats);
}

TEST(JoinTest, KZeroRejected) {
  Workload w = MakeWorkload(100, 10, 2, Distribution::kIndependent, 400);
  EXPECT_FALSE(TopKJoin(*w.rp, *w.rt, *w.cost_fn, 0).ok());
}

}  // namespace
}  // namespace skyup
