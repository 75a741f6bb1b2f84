// Randomized end-to-end integration: every public surface in one loop —
// generators, normalization, all cost-function families (including fitted
// ones), every top-k algorithm, the parallel prober, and the progressive
// cursor — cross-checked against each other and against the dominance
// invariants on each trial.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dominance.h"
#include "core/planner.h"
#include "data/cost_fitting.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "util/random.h"

namespace skyup {
namespace {

std::shared_ptr<const AttributeCostFunction> RandomAttributeCost(Rng* rng) {
  switch (rng->NextUint64(4)) {
    case 0:
      return std::make_shared<const ReciprocalCost>(
          rng->NextDouble(1e-3, 0.1));
    case 1:
      return std::make_shared<const LinearCost>(rng->NextDouble(5.0, 20.0),
                                                rng->NextDouble(0.0, 3.0));
    case 2:
      return std::make_shared<const ExponentialCost>(
          rng->NextDouble(1.0, 5.0), rng->NextDouble(0.1, 2.0));
    default:
      return std::make_shared<const PowerCost>(rng->NextDouble(0.5, 2.0),
                                               rng->NextDouble(0.5, 2.0),
                                               rng->NextDouble(1e-2, 0.2));
  }
}

// A fitted (isotonic) cost from noisy samples of a decreasing curve.
std::shared_ptr<const AttributeCostFunction> RandomFittedCost(Rng* rng) {
  std::vector<CostSample> samples;
  const double slope = rng->NextDouble(0.5, 3.0);
  for (int i = 0; i < 40; ++i) {
    const double x = rng->NextDouble(0.0, 2.0);
    samples.push_back(
        {x, 6.0 - slope * x + rng->NextGaussian() * 0.2});
  }
  auto fit = FitAttributeCost(samples);
  EXPECT_TRUE(fit.ok());
  return std::move(fit).value();
}

TEST(IntegrationStressTest, AllSurfacesAgreeOnRandomWorkloads) {
  Rng rng(20120406);
  for (int trial = 0; trial < 25; ++trial) {
    const size_t dims = 2 + rng.NextUint64(4);  // 2..5
    const auto distribution =
        static_cast<Distribution>(rng.NextUint64(3));
    const size_t np = 150 + rng.NextUint64(500);
    const size_t nt = 20 + rng.NextUint64(80);
    const size_t k = 1 + rng.NextUint64(12);

    Result<Dataset> p = GenerateCompetitors(
        np, dims, distribution, 5000 + static_cast<uint64_t>(trial));
    ASSERT_TRUE(p.ok());
    // Candidates straddle the competitor cube so every LBC case occurs.
    GeneratorConfig tconf;
    tconf.count = nt;
    tconf.dims = dims;
    tconf.distribution = distribution;
    tconf.lo = 0.2;
    tconf.hi = rng.NextDouble() < 0.5 ? 1.0 : 1.8;
    tconf.seed = 6000 + static_cast<uint64_t>(trial);
    Result<Dataset> t = GenerateDataset(tconf);
    ASSERT_TRUE(t.ok());

    // Random per-dimension cost family (one dimension fitted from noisy
    // samples), random weights.
    std::vector<std::shared_ptr<const AttributeCostFunction>> per_dim;
    std::vector<double> weights;
    for (size_t d = 0; d < dims; ++d) {
      per_dim.push_back(d == 0 ? RandomFittedCost(&rng)
                               : RandomAttributeCost(&rng));
      weights.push_back(rng.NextDouble(0.5, 2.0));
    }
    Result<ProductCostFunction> cost_fn =
        ProductCostFunction::WeightedSum(per_dim, weights);
    ASSERT_TRUE(cost_fn.ok());

    PlannerOptions options;
    options.validate_monotonicity = true;
    options.rtree_fanout = 4 + rng.NextUint64(29);
    options.lower_bound =
        static_cast<LowerBoundKind>(rng.NextUint64(3));
    options.bound_mode = BoundMode::kSound;
    Result<UpgradePlanner> planner =
        UpgradePlanner::Create(*p, *t, *cost_fn, options);
    ASSERT_TRUE(planner.ok()) << planner.status().ToString();

    Result<std::vector<UpgradeResult>> oracle =
        planner->TopK(k, Algorithm::kBruteForce);
    ASSERT_TRUE(oracle.ok());

    for (auto algo : {Algorithm::kBasicProbing, Algorithm::kImprovedProbing,
                      Algorithm::kJoin}) {
      Result<std::vector<UpgradeResult>> got = planner->TopK(k, algo);
      ASSERT_TRUE(got.ok()) << AlgorithmName(algo);
      ASSERT_EQ(got->size(), oracle->size());
      for (size_t i = 0; i < got->size(); ++i) {
        ASSERT_NEAR((*got)[i].cost, (*oracle)[i].cost, 1e-9)
            << AlgorithmName(algo) << " trial " << trial << " rank " << i;
      }
    }

    // Parallel probing matches sequential id-for-id.
    Result<std::vector<UpgradeResult>> parallel =
        TopKImprovedProbing(*planner->competitors_flat(), planner->products(),
                            planner->cost_function(), k, 1e-6, 3);
    ASSERT_TRUE(parallel.ok());
    Result<std::vector<UpgradeResult>> sequential =
        planner->TopK(k, Algorithm::kImprovedProbing);
    ASSERT_TRUE(sequential.ok());
    ASSERT_EQ(parallel->size(), sequential->size());
    for (size_t i = 0; i < parallel->size(); ++i) {
      ASSERT_EQ((*parallel)[i].product_id, (*sequential)[i].product_id);
    }

    // The cursor streams the full ranking in nondecreasing cost order and
    // every upgraded vector is undominated and componentwise-improving.
    Result<JoinCursor> cursor = planner->OpenJoinCursor();
    ASSERT_TRUE(cursor.ok());
    double prev = -1.0;
    size_t streamed = 0;
    while (auto r = cursor->Next()) {
      ASSERT_GE(r->cost, prev - 1e-9);
      prev = r->cost;
      ++streamed;
      ASSERT_GE(r->cost, -1e-9);
      const double* original = planner->products().data(r->product_id);
      for (size_t d = 0; d < dims; ++d) {
        ASSERT_LE(r->upgraded[d], original[d] + 1e-12);
      }
      for (size_t i = 0; i < planner->competitors().size(); ++i) {
        ASSERT_FALSE(
            Dominates(planner->competitors().data(static_cast<PointId>(i)),
                      r->upgraded.data(), dims))
            << "trial " << trial;
      }
    }
    ASSERT_EQ(streamed, planner->products().size());
  }
}

}  // namespace
}  // namespace skyup
