#include "core/planner.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/normalize.h"

namespace skyup {
namespace {

Dataset MakeDataset(const std::vector<std::vector<double>>& rows) {
  Result<Dataset> r = Dataset::FromRows(rows);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

// The paper's motivating example: Tables I and II. Standby time and camera
// pixels are maximize-preferred; weight is minimize-preferred.
struct PhoneExample {
  Dataset competitors;  // Table I, normalized
  Dataset products;     // Table II, normalized
  Normalizer normalizer;
};

PhoneExample MakePhones() {
  Dataset raw_p = MakeDataset({{140, 200, 2.0},
                               {180, 150, 3.0},
                               {100, 160, 3.0},
                               {180, 180, 3.0},
                               {120, 180, 4.0},
                               {150, 150, 3.0}});
  Dataset raw_t = MakeDataset({{150, 120, 2.0},
                               {180, 130, 1.0},
                               {180, 120, 3.0},
                               {220, 180, 2.0}});
  Result<Normalizer> norm = Normalizer::FitAll(
      {&raw_p, &raw_t},
      {Direction::kMinimize, Direction::kMaximize, Direction::kMaximize});
  EXPECT_TRUE(norm.ok());
  return PhoneExample{norm->Normalize(raw_p), norm->Normalize(raw_t),
                      std::move(norm).value()};
}

TEST(PlannerTest, CreateValidatesInputs) {
  Dataset p = MakeDataset({{1, 2}});
  Dataset t = MakeDataset({{3, 4}});
  ProductCostFunction f2 = ProductCostFunction::ReciprocalSum(2);
  ProductCostFunction f3 = ProductCostFunction::ReciprocalSum(3);

  EXPECT_TRUE(UpgradePlanner::Create(p, t, f2).ok());
  EXPECT_FALSE(UpgradePlanner::Create(Dataset(2), t, f2).ok());
  EXPECT_FALSE(UpgradePlanner::Create(p, Dataset(2), f2).ok());
  EXPECT_FALSE(UpgradePlanner::Create(p, t, f3).ok());
  EXPECT_FALSE(UpgradePlanner::Create(p, MakeDataset({{1, 2, 3}}), f2).ok());

  // Epsilon must be finite and positive: NaN and infinity slip past a
  // plain `<= 0` test.
  for (double epsilon : {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    PlannerOptions bad_eps;
    bad_eps.epsilon = epsilon;
    EXPECT_FALSE(UpgradePlanner::Create(p, t, f2, bad_eps).ok()) << epsilon;
  }
  PlannerOptions bad_fanout;
  bad_fanout.rtree_fanout = 1;
  EXPECT_FALSE(UpgradePlanner::Create(p, t, f2, bad_fanout).ok());
}

TEST(PlannerTest, CreateRejectsNonFiniteCoordinates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Dataset p = MakeDataset({{1, 2}, {2, 1}});
  Dataset t = MakeDataset({{3, 4}});
  ProductCostFunction f2 = ProductCostFunction::ReciprocalSum(2);
  for (double bad : {nan, inf, -inf}) {
    Dataset bad_p = MakeDataset({{1, 2}, {2, bad}});
    Result<UpgradePlanner> planner = UpgradePlanner::Create(bad_p, t, f2);
    EXPECT_EQ(planner.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(planner.status().message().find("P row 1"), std::string::npos)
        << planner.status().message();
    Dataset bad_t = MakeDataset({{bad, 4}});
    planner = UpgradePlanner::Create(p, bad_t, f2);
    EXPECT_EQ(planner.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(planner.status().message().find("T row 0"), std::string::npos)
        << planner.status().message();
  }
}

TEST(PlannerTest, AllAlgorithmsAgreeOnPhoneExample) {
  PhoneExample ex = MakePhones();
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-2);
  Result<UpgradePlanner> planner =
      UpgradePlanner::Create(ex.competitors, ex.products, f);
  ASSERT_TRUE(planner.ok());

  Result<std::vector<UpgradeResult>> reference =
      planner->TopK(4, Algorithm::kBruteForce);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->size(), 4u);
  // Every phone in T is dominated (the paper's premise).
  for (const UpgradeResult& r : *reference) {
    EXPECT_FALSE(r.already_competitive);
    EXPECT_GT(r.cost, 0.0);
  }

  for (auto algo : {Algorithm::kBasicProbing, Algorithm::kImprovedProbing,
                    Algorithm::kJoin}) {
    Result<std::vector<UpgradeResult>> got = planner->TopK(4, algo);
    ASSERT_TRUE(got.ok()) << AlgorithmName(algo);
    ASSERT_EQ(got->size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ((*got)[i].product_id, (*reference)[i].product_id)
          << AlgorithmName(algo) << " rank " << i;
      EXPECT_NEAR((*got)[i].cost, (*reference)[i].cost, 1e-9);
    }
  }
}

TEST(PlannerTest, DenormalizedUpgradeImprovesMaximizeDims) {
  PhoneExample ex = MakePhones();
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-2);
  Result<UpgradePlanner> planner =
      UpgradePlanner::Create(ex.competitors, ex.products, f);
  ASSERT_TRUE(planner.ok());
  Result<std::vector<UpgradeResult>> top = planner->TopK(1, Algorithm::kJoin);
  ASSERT_TRUE(top.ok());
  const UpgradeResult& best = (*top)[0];

  const std::vector<double> upgraded_raw =
      ex.normalizer.Denormalize(best.upgraded);
  const std::vector<double> original_raw = ex.normalizer.Denormalize(
      std::vector<double>(ex.products.data(best.product_id),
                          ex.products.data(best.product_id) + 3));
  // Weight can only shrink; standby and pixels can only grow.
  EXPECT_LE(upgraded_raw[0], original_raw[0] + 1e-6);
  EXPECT_GE(upgraded_raw[1], original_raw[1] - 1e-6);
  EXPECT_GE(upgraded_raw[2], original_raw[2] - 1e-6);
}

TEST(PlannerTest, MonotonicityValidationRejectsBadCostFunction) {
  Dataset p = MakeDataset({{0.1, 0.1}, {0.9, 0.9}});
  Dataset t = MakeDataset({{1.5, 1.5}});

  // A cost that *rises* with the attribute value violates the paper's
  // monotonicity assumption (better products would be cheaper).
  class Rising final : public AttributeCostFunction {
   public:
    double Cost(double value) const override { return value * value; }
    std::string name() const override { return "rising"; }
  };
  Result<ProductCostFunction> bad = ProductCostFunction::Sum(
      {std::make_shared<const Rising>(), std::make_shared<const Rising>()});
  ASSERT_TRUE(bad.ok());
  PlannerOptions options;
  options.validate_monotonicity = true;
  Result<UpgradePlanner> planner =
      UpgradePlanner::Create(p, t, std::move(bad).value(), options);
  ASSERT_FALSE(planner.ok());
  EXPECT_EQ(planner.status().code(), StatusCode::kFailedPrecondition);

  Result<UpgradePlanner> good = UpgradePlanner::Create(
      p, t, ProductCostFunction::ReciprocalSum(2), options);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST(PlannerTest, JoinCursorStreamsAllProducts) {
  Result<Dataset> p =
      GenerateCompetitors(400, 2, Distribution::kIndependent, 61);
  Result<Dataset> t = GenerateProducts(30, 2, Distribution::kIndependent, 62);
  ASSERT_TRUE(p.ok() && t.ok());
  Result<UpgradePlanner> planner = UpgradePlanner::Create(
      *p, *t, ProductCostFunction::ReciprocalSum(2, 1e-3));
  ASSERT_TRUE(planner.ok());

  Result<JoinCursor> cursor = planner->OpenJoinCursor();
  ASSERT_TRUE(cursor.ok());
  size_t n = 0;
  while (cursor->Next()) ++n;
  EXPECT_EQ(n, 30u);
}

TEST(PlannerTest, TopKWithinSetRanksCatalog) {
  // A catalog where members 0 and 1 are undominated, 2 and 3 dominated;
  // 2 sits nearer the frontier than 3.
  Dataset catalog = MakeDataset(
      {{0.1, 0.9}, {0.9, 0.1}, {0.5, 0.95}, {1.8, 1.8}});
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(2, 1e-3);
  Result<std::vector<UpgradeResult>> top =
      UpgradePlanner::TopKWithinSet(catalog, f, 4);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->size(), 4u);
  EXPECT_TRUE((*top)[0].already_competitive);
  EXPECT_TRUE((*top)[1].already_competitive);
  EXPECT_DOUBLE_EQ((*top)[0].cost, 0.0);
  // (0.5, 0.95) is dominated by (0.1, 0.9) but sits just off the frontier.
  EXPECT_FALSE((*top)[2].already_competitive);
  EXPECT_FALSE((*top)[3].already_competitive);
  EXPECT_LT((*top)[2].cost, (*top)[3].cost);
}

TEST(PlannerTest, TopKWithinSetDuplicatesAreCompetitive) {
  // Two identical points do not dominate each other.
  Dataset catalog = MakeDataset({{0.5, 0.5}, {0.5, 0.5}, {0.8, 0.8}});
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(2, 1e-3);
  Result<std::vector<UpgradeResult>> top =
      UpgradePlanner::TopKWithinSet(catalog, f, 3);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE((*top)[0].already_competitive);
  EXPECT_TRUE((*top)[1].already_competitive);
  EXPECT_FALSE((*top)[2].already_competitive);
}

TEST(PlannerTest, TopKWithReportMatchesTopKAndCarriesTelemetry) {
  PhoneExample ex = MakePhones();
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-2);
  Result<UpgradePlanner> planner =
      UpgradePlanner::Create(ex.competitors, ex.products, f);
  ASSERT_TRUE(planner.ok());

  for (auto algo : {Algorithm::kImprovedProbing, Algorithm::kJoin,
                    Algorithm::kBruteForce}) {
    Result<std::vector<UpgradeResult>> plain = planner->TopK(4, algo);
    ASSERT_TRUE(plain.ok()) << AlgorithmName(algo);
    Result<TopKReport> report = planner->TopKWithReport(4, algo);
    ASSERT_TRUE(report.ok()) << AlgorithmName(algo);

    EXPECT_EQ(report->algorithm, algo);
    EXPECT_EQ(report->k, 4u);
    ASSERT_EQ(report->results.size(), plain->size()) << AlgorithmName(algo);
    for (size_t i = 0; i < plain->size(); ++i) {
      EXPECT_EQ(report->results[i].product_id, (*plain)[i].product_id);
      EXPECT_NEAR(report->results[i].cost, (*plain)[i].cost, 1e-9);
    }

    EXPECT_GT(report->wall_seconds, 0.0);
    // Single-threaded engines flush exactly one shard of phase timings,
    // and the rollup accounts for some nonzero slice of the run.
    EXPECT_GE(report->telemetry.phases.per_shard.size(), 1u)
        << AlgorithmName(algo);
    EXPECT_GT(report->telemetry.phases.total.TotalSeconds(), 0.0)
        << AlgorithmName(algo);
    EXPECT_GT(report->stats.products_processed, 0u) << AlgorithmName(algo);
  }
  // Improved probing runs on the batched kernels.
  ASSERT_NE(planner->competitors_flat(), nullptr);
  Result<TopKReport> improved =
      planner->TopKWithReport(4, Algorithm::kImprovedProbing);
  ASSERT_TRUE(improved.ok());
  EXPECT_GT(improved->stats.block_kernel_calls, 0u);
}

TEST(PlannerTest, TopKTelemetryOutParamIsOptional) {
  PhoneExample ex = MakePhones();
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-2);
  Result<UpgradePlanner> planner =
      UpgradePlanner::Create(ex.competitors, ex.products, f);
  ASSERT_TRUE(planner.ok());

  QueryTelemetry telemetry;
  Result<std::vector<UpgradeResult>> r =
      planner->TopK(2, Algorithm::kImprovedProbing, nullptr, &telemetry);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(telemetry.phases.per_shard.size(), 1u);
  EXPECT_GT(telemetry.probe_latency.count(), 0u);

  // Passing no telemetry sink still works (the default path).
  Result<std::vector<UpgradeResult>> quiet =
      planner->TopK(2, Algorithm::kImprovedProbing);
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->size(), r->size());
}

TEST(PlannerTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kBruteForce), "brute-force");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBasicProbing), "basic-probing");
  EXPECT_STREQ(AlgorithmName(Algorithm::kImprovedProbing),
               "improved-probing");
  EXPECT_STREQ(AlgorithmName(Algorithm::kJoin), "join");
}

TEST(PlannerTest, SoundBoundModeOptionFlowsThrough) {
  Result<Dataset> p =
      GenerateCompetitors(300, 3, Distribution::kAntiCorrelated, 71);
  Result<Dataset> t =
      GenerateProducts(40, 3, Distribution::kAntiCorrelated, 72);
  ASSERT_TRUE(p.ok() && t.ok());
  PlannerOptions options;
  options.bound_mode = BoundMode::kSound;
  options.lower_bound = LowerBoundKind::kAggressive;
  Result<UpgradePlanner> planner = UpgradePlanner::Create(
      *p, *t, ProductCostFunction::ReciprocalSum(3, 1e-3), options);
  ASSERT_TRUE(planner.ok());

  Result<std::vector<UpgradeResult>> join = planner->TopK(8, Algorithm::kJoin);
  Result<std::vector<UpgradeResult>> oracle =
      planner->TopK(8, Algorithm::kBruteForce);
  ASSERT_TRUE(join.ok() && oracle.ok());
  ASSERT_EQ(join->size(), oracle->size());
  for (size_t i = 0; i < join->size(); ++i) {
    EXPECT_NEAR((*join)[i].cost, (*oracle)[i].cost, 1e-9);
  }
}

}  // namespace
}  // namespace skyup
