#include "skyline/skyline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/dominance.h"
#include "data/generator.h"
#include "skyline/incremental.h"
#include "util/random.h"

namespace skyup {
namespace {

Dataset MakeDataset(const std::vector<std::vector<double>>& rows) {
  Result<Dataset> r = Dataset::FromRows(rows);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

// Reference skyline: distinct coordinate vectors not dominated by any
// point; for duplicated skyline vectors exactly one representative.
std::set<std::vector<double>> ReferenceSkylineCoords(const Dataset& ds) {
  std::set<std::vector<double>> out;
  for (size_t i = 0; i < ds.size(); ++i) {
    const PointId id = static_cast<PointId>(i);
    if (!IsDominated(ds, id)) {
      out.insert(std::vector<double>(ds.data(id), ds.data(id) + ds.dims()));
    }
  }
  return out;
}

std::set<std::vector<double>> Coords(const Dataset& ds,
                                     const std::vector<PointId>& ids) {
  std::set<std::vector<double>> out;
  for (PointId id : ids) {
    out.insert(std::vector<double>(ds.data(id), ds.data(id) + ds.dims()));
  }
  return out;
}

std::vector<PointId> BbsOfRows(const Dataset& ds) {
  Result<FlatRTree> tree = FlatRTree::BulkLoad(ds);
  EXPECT_TRUE(tree.ok());
  return SkylineBbs(tree.value());
}

// The three whole-dataset skylines, by name.
struct NamedSkyline {
  const char* name;
  std::vector<PointId> (*run)(const Dataset&);
};
const NamedSkyline kSkylines[] = {
    {"bnl", [](const Dataset& ds) { return SkylineBnl(ds); }},
    {"sfs", [](const Dataset& ds) { return SkylineSfs(ds); }},
    {"bbs", BbsOfRows},
};

TEST(SkylineTest, PaperTableOneSkyline) {
  // Table I phones, maximize dims negated: the skyline is phones 1, 3, 5.
  Dataset ds = MakeDataset({{140, -200, -2.0},
                            {180, -150, -3.0},
                            {100, -160, -3.0},
                            {180, -180, -3.0},
                            {120, -180, -4.0},
                            {150, -150, -3.0}});
  for (const NamedSkyline& algo : kSkylines) {
    std::vector<PointId> sky = algo.run(ds);
    std::sort(sky.begin(), sky.end());
    EXPECT_EQ(sky, (std::vector<PointId>{0, 2, 4})) << algo.name;
  }
}

TEST(SkylineTest, SinglePointIsItsOwnSkyline) {
  Dataset ds = MakeDataset({{1, 2}});
  for (const NamedSkyline& algo : kSkylines) {
    EXPECT_EQ(algo.run(ds), (std::vector<PointId>{0})) << algo.name;
  }
}

TEST(SkylineTest, TotallyOrderedChainHasSingletonSkyline) {
  Dataset ds = MakeDataset({{3, 3}, {2, 2}, {1, 1}, {4, 4}});
  for (const NamedSkyline& algo : kSkylines) {
    std::vector<PointId> sky = algo.run(ds);
    ASSERT_EQ(sky.size(), 1u) << algo.name;
    EXPECT_EQ(sky[0], 2);
  }
}

TEST(SkylineTest, AntiChainIsFullyInSkyline) {
  Dataset ds = MakeDataset({{1, 4}, {2, 3}, {3, 2}, {4, 1}});
  for (const NamedSkyline& algo : kSkylines) {
    EXPECT_EQ(algo.run(ds).size(), 4u) << algo.name;
  }
}

TEST(SkylineTest, DuplicatesKeepOneRepresentative) {
  Dataset ds = MakeDataset({{1, 1}, {1, 1}, {2, 2}});
  for (const NamedSkyline& algo : kSkylines) {
    std::vector<PointId> sky = algo.run(ds);
    ASSERT_EQ(sky.size(), 1u) << algo.name;
    EXPECT_EQ(ds.data(sky[0])[0], 1.0);
  }
  // SFS ties on the coordinate sum break by row, so the first row wins.
  EXPECT_EQ(SkylineSfs(ds), (std::vector<PointId>{0}));
}

TEST(SkylineTest, EmptyDatasetYieldsEmptySkyline) {
  Dataset ds(2);
  for (const NamedSkyline& algo : kSkylines) {
    EXPECT_TRUE(algo.run(ds).empty()) << algo.name;
  }
}

TEST(SkylineTest, SubsetRestrictsBnlAndSfs) {
  Dataset ds = MakeDataset({{1, 1}, {5, 5}, {4, 6}, {5, 5}});
  const std::vector<PointId> subset = {3, 1, 2};
  std::vector<PointId> bnl = SkylineBnl(ds, &subset);
  EXPECT_EQ(Coords(ds, bnl),
            (std::set<std::vector<double>>{{5, 5}, {4, 6}}));
  EXPECT_EQ(bnl.size(), 2u);
  // SFS returns sum order with row ties broken by row: (5,5) at row 1
  // represents its duplicate at row 3, whatever the subset's order.
  EXPECT_EQ(SkylineSfs(ds, &subset), (std::vector<PointId>{1, 2}));
}

struct SkylineSweepParam {
  size_t n;
  size_t dims;
  Distribution distribution;
};

class SkylineSweepTest
    : public ::testing::TestWithParam<SkylineSweepParam> {};

TEST_P(SkylineSweepTest, AllAlgorithmsAgreeAndAreCorrect) {
  const SkylineSweepParam param = GetParam();
  GeneratorConfig config;
  config.count = param.n;
  config.dims = param.dims;
  config.distribution = param.distribution;
  config.seed = 1234 + param.n;
  Result<Dataset> data = GenerateDataset(config);
  ASSERT_TRUE(data.ok());

  const std::set<std::vector<double>> expected =
      ReferenceSkylineCoords(*data);
  const auto bnl = Coords(*data, SkylineBnl(*data));
  const auto sfs = Coords(*data, SkylineSfs(*data));
  const auto bbs = Coords(*data, BbsOfRows(*data));

  EXPECT_EQ(bnl, expected);
  EXPECT_EQ(sfs, expected);
  EXPECT_EQ(bbs, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkylineSweepTest,
    ::testing::Values(
        SkylineSweepParam{100, 2, Distribution::kIndependent},
        SkylineSweepParam{100, 2, Distribution::kAntiCorrelated},
        SkylineSweepParam{100, 2, Distribution::kCorrelated},
        SkylineSweepParam{800, 3, Distribution::kIndependent},
        SkylineSweepParam{800, 3, Distribution::kAntiCorrelated},
        SkylineSweepParam{500, 5, Distribution::kIndependent},
        SkylineSweepParam{500, 5, Distribution::kAntiCorrelated},
        SkylineSweepParam{2000, 4, Distribution::kCorrelated}),
    [](const auto& param_info) {
      // Built by append: gcc 12's -Wrestrict false-fires on chained
      // `const char* + std::string` concatenation (PR105329).
      std::string name = "n";
      name += std::to_string(param_info.param.n);
      name += "_d";
      name += std::to_string(param_info.param.dims);
      name += '_';
      name += "iac"[static_cast<int>(param_info.param.distribution)];
      return name;
    });

TEST(SkylineTest, SkylineMembersAreMutuallyNonDominating) {
  Result<Dataset> data =
      GenerateCompetitors(1500, 3, Distribution::kAntiCorrelated, 5);
  ASSERT_TRUE(data.ok());
  std::vector<PointId> sky = SkylineSfs(*data);
  for (size_t i = 0; i < sky.size(); ++i) {
    for (size_t j = 0; j < sky.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          Dominates(data->data(sky[i]), data->data(sky[j]), data->dims()));
    }
  }
}

TEST(SkylineOfPointersTest, FiltersToSkylineInPlace) {
  Dataset ds = MakeDataset({{2, 2}, {1, 3}, {3, 1}, {2.5, 2.5}, {1, 3}});
  std::vector<const double*> ptrs;
  for (size_t i = 0; i < ds.size(); ++i) {
    ptrs.push_back(ds.data(static_cast<PointId>(i)));
  }
  SkylineOfPointers(&ptrs, 2);
  // Skyline coords: (2,2), (1,3), (3,1); the duplicate (1,3) collapses.
  ASSERT_EQ(ptrs.size(), 3u);
  std::set<std::vector<double>> got;
  for (const double* p : ptrs) got.insert({p[0], p[1]});
  const std::set<std::vector<double>> expected = {{2, 2}, {1, 3}, {3, 1}};
  EXPECT_EQ(got, expected);
}

TEST(SkylineOfPointersTest, EmptyInput) {
  std::vector<const double*> ptrs;
  SkylineOfPointers(&ptrs, 3);
  EXPECT_TRUE(ptrs.empty());
}

TEST(IsDominatedTest, Basics) {
  Dataset ds = MakeDataset({{1, 1}, {2, 2}, {1, 1}});
  EXPECT_FALSE(IsDominated(ds, 0));
  EXPECT_TRUE(IsDominated(ds, 1));
  EXPECT_FALSE(IsDominated(ds, 2));  // duplicate of a minimum: not dominated
}

TEST(PatchSkylineInsertTest, DropsDominatedAndDuplicateInserts) {
  Dataset ds = MakeDataset({{1, 3}, {3, 1}, {2, 2},    // seed skyline
                            {2.5, 2.5},                // dominated by (2,2)
                            {1, 3}});                  // duplicate member
  std::vector<const double*> sky = {ds.data(0), ds.data(1), ds.data(2)};
  EXPECT_FALSE(PatchSkylineInsert(&sky, ds.data(3), 2));
  EXPECT_FALSE(PatchSkylineInsert(&sky, ds.data(4), 2));
  ASSERT_EQ(sky.size(), 3u);
  // Rejected inserts leave the skyline untouched, order included.
  EXPECT_EQ(sky[0], ds.data(0));
  EXPECT_EQ(sky[1], ds.data(1));
  EXPECT_EQ(sky[2], ds.data(2));
}

TEST(PatchSkylineInsertTest, EvictsEveryDominatedMemberStably) {
  Dataset ds = MakeDataset({{1, 4}, {2, 2}, {4, 1}, {3, 3},   // seed
                            {1.5, 1.5}});  // evicts (2,2) and (3,3)
  std::vector<const double*> sky = {ds.data(0), ds.data(1), ds.data(2),
                                    ds.data(3)};
  EXPECT_TRUE(PatchSkylineInsert(&sky, ds.data(4), 2));
  ASSERT_EQ(sky.size(), 3u);
  // Survivors keep their relative order; the insert lands at the back.
  EXPECT_EQ(sky[0], ds.data(0));
  EXPECT_EQ(sky[1], ds.data(2));
  EXPECT_EQ(sky[2], ds.data(4));
}

TEST(PatchSkylineInsertTest, EmptySkylineAdmitsAnything) {
  Dataset ds = MakeDataset({{5, 5}});
  std::vector<const double*> sky;
  EXPECT_TRUE(PatchSkylineInsert(&sky, ds.data(0), 2));
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_EQ(sky[0], ds.data(0));
}

// Folding points one at a time must land on the same value set as one-shot
// SkylineOfPointers over the union — the exactness argument the serving
// overlay (src/serve/shard/shard_query.cc) rests on.
TEST(PatchSkylineInsertTest, MatchesOneShotReductionOnRandomStreams) {
  for (size_t dims = 2; dims <= 4; ++dims) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Result<Dataset> gen = GenerateCompetitors(
          60, dims, Distribution::kAntiCorrelated, 1000 * dims + seed);
      ASSERT_TRUE(gen.ok());
      const Dataset& ds = gen.value();

      std::vector<const double*> incremental;
      std::vector<const double*> all;
      for (size_t i = 0; i < ds.size(); ++i) {
        const double* p = ds.data(static_cast<PointId>(i));
        PatchSkylineInsert(&incremental, p, dims);
        all.push_back(p);
      }
      SkylineOfPointers(&all, dims);

      const auto values = [dims](const std::vector<const double*>& ptrs) {
        std::set<std::vector<double>> out;
        for (const double* p : ptrs) {
          out.insert(std::vector<double>(p, p + dims));
        }
        return out;
      };
      EXPECT_EQ(values(incremental), values(all))
          << "dims=" << dims << " seed=" << seed;
      // Value-set semantics: one representative per distinct vector.
      EXPECT_EQ(incremental.size(), values(incremental).size());
    }
  }
}

}  // namespace
}  // namespace skyup
