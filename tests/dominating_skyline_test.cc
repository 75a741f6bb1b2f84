#include "skyline/dominating_skyline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/dominance.h"
#include "core/dominance_batch.h"
#include "data/generator.h"
#include "skyline/skyline.h"
#include "util/random.h"

namespace skyup {
namespace {

// Reference: collect all strict dominators of t, then take their skyline.
std::set<std::vector<double>> ReferenceDominatorSkyline(
    const Dataset& ds, const std::vector<double>& t) {
  std::vector<PointId> dominators;
  for (size_t i = 0; i < ds.size(); ++i) {
    const PointId id = static_cast<PointId>(i);
    if (Dominates(ds.data(id), t.data(), ds.dims())) dominators.push_back(id);
  }
  std::vector<PointId> sky = SkylineBnl(ds, &dominators);
  std::set<std::vector<double>> out;
  for (PointId id : sky) {
    out.insert(std::vector<double>(ds.data(id), ds.data(id) + ds.dims()));
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

TEST(DominatingSkylineTest, NoDominators) {
  Result<Dataset> ds = Dataset::FromRows({{5, 5}, {6, 4}});
  ASSERT_TRUE(ds.ok());
  Result<FlatRTree> tree = FlatRTree::BulkLoad(*ds);
  ASSERT_TRUE(tree.ok());
  const std::vector<double> t = {1.0, 1.0};
  EXPECT_TRUE(DominatingSkyline(tree.value(), t.data()).empty());
}

TEST(DominatingSkylineTest, EqualPointIsNotADominator) {
  Result<Dataset> ds = Dataset::FromRows({{2, 2}, {3, 3}});
  ASSERT_TRUE(ds.ok());
  Result<FlatRTree> tree = FlatRTree::BulkLoad(*ds);
  ASSERT_TRUE(tree.ok());
  const std::vector<double> t = {2.0, 2.0};
  EXPECT_TRUE(DominatingSkyline(tree.value(), t.data()).empty());
}

TEST(DominatingSkylineTest, SimpleCase) {
  // Dominators of (5,5): (1,4), (4,1), (2,2); skyline of those: (1,4),
  // (4,1), (2,2) minus dominated members -> (2,2) dominates none of them;
  // all three are mutually incomparable except none dominates another.
  Result<Dataset> ds =
      Dataset::FromRows({{1, 4}, {4, 1}, {2, 2}, {6, 6}, {5, 0.5}});
  ASSERT_TRUE(ds.ok());
  Result<FlatRTree> tree = FlatRTree::BulkLoad(*ds);
  ASSERT_TRUE(tree.ok());
  const std::vector<double> t = {5.0, 5.0};
  std::vector<PointId> sky = DominatingSkyline(tree.value(), t.data());
  EXPECT_EQ(Coords(*ds, sky), ReferenceDominatorSkyline(*ds, t));
}

struct Param {
  size_t n;
  size_t dims;
  Distribution distribution;
};

class DominatingSkylineSweep : public ::testing::TestWithParam<Param> {};

TEST_P(DominatingSkylineSweep, MatchesReferenceOnRandomProbes) {
  const Param param = GetParam();
  Result<Dataset> p = GenerateCompetitors(param.n, param.dims,
                                          param.distribution, 404 + param.n);
  ASSERT_TRUE(p.ok());
  Result<FlatRTree> tree = FlatRTree::BulkLoad(*p, 16);
  ASSERT_TRUE(tree.ok());

  Rng rng(17);
  for (int probe = 0; probe < 30; ++probe) {
    std::vector<double> t(param.dims);
    // Mix of inside-cube and beyond-cube probes.
    const double hi = probe % 2 == 0 ? 1.0 : 2.0;
    for (auto& v : t) v = rng.NextDouble(0.0, hi);
    std::vector<PointId> sky = DominatingSkyline(tree.value(), t.data());

    EXPECT_EQ(Coords(*p, sky), ReferenceDominatorSkyline(*p, t));
    for (PointId id : sky) {
      EXPECT_TRUE(Dominates(p->data(id), t.data(), param.dims));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DominatingSkylineSweep,
    ::testing::Values(Param{200, 2, Distribution::kIndependent},
                      Param{200, 2, Distribution::kAntiCorrelated},
                      Param{1000, 3, Distribution::kIndependent},
                      Param{1000, 3, Distribution::kAntiCorrelated},
                      Param{800, 4, Distribution::kCorrelated},
                      Param{600, 5, Distribution::kAntiCorrelated}),
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

TEST(DominatingSkylineFromTest, RootSeedEqualsSingleSource) {
  Result<Dataset> p =
      GenerateCompetitors(800, 3, Distribution::kAntiCorrelated, 71);
  ASSERT_TRUE(p.ok());
  Result<FlatRTree> tree = FlatRTree::BulkLoad(*p);
  ASSERT_TRUE(tree.ok());
  const std::vector<double> t = {1.2, 1.2, 1.2};
  const auto single = Coords(*p, DominatingSkyline(tree.value(), t.data()));
  const auto multi = Coords(
      *p, DominatingSkylineFrom(*tree, {FlatRTree::kRoot}, {}, t.data()));
  EXPECT_EQ(single, multi);
  EXPECT_FALSE(multi.empty());
}

TEST(DominatingSkylineFromTest, SubtreeSeedsAndExplicitPoints) {
  Result<Dataset> p =
      GenerateCompetitors(600, 2, Distribution::kIndependent, 72);
  ASSERT_TRUE(p.ok());
  Result<FlatRTree> tree = FlatRTree::BulkLoad(*p, 8);
  ASSERT_TRUE(tree.ok());
  ASSERT_FALSE(tree->is_leaf(FlatRTree::kRoot));

  // Seed from the root's children plus a few explicit point ids: must
  // equal the single-source result (same coverage, different seeding).
  std::vector<uint32_t> roots;
  for (uint32_t c = tree->child_begin(FlatRTree::kRoot);
       c < tree->child_end(FlatRTree::kRoot); ++c) {
    roots.push_back(c);
  }
  const std::vector<PointId> extra = {0, 1, 2, 3, 4};
  const std::vector<double> t = {0.9, 0.9};
  const auto multi =
      Coords(*p, DominatingSkylineFrom(*tree, roots, extra, t.data()));
  const auto single = Coords(*p, DominatingSkyline(tree.value(), t.data()));
  EXPECT_EQ(multi, single);
}

TEST(DominatingSkylineFromTest, EmptySeedsYieldEmpty) {
  Dataset p(2);
  p.Add({0.1, 0.1});
  Result<FlatRTree> tree = FlatRTree::BulkLoad(p);
  ASSERT_TRUE(tree.ok());
  const std::vector<double> t = {0.5, 0.5};
  EXPECT_TRUE(DominatingSkylineFrom(*tree, {}, {}, t.data()).empty());
}

TEST(DominatingSkylineFromTest, PointSeedsOnly) {
  Dataset p(2);
  p.Add({0.1, 0.5});
  p.Add({0.5, 0.1});
  p.Add({0.3, 0.3});
  p.Add({0.9, 0.9});  // not a dominator of t
  Result<FlatRTree> tree = FlatRTree::BulkLoad(p);
  ASSERT_TRUE(tree.ok());
  const std::vector<double> t = {0.8, 0.8};
  const auto sky = DominatingSkylineFrom(*tree, {}, {0, 1, 2, 3}, t.data());
  EXPECT_EQ(sky.size(), 3u);
}

TEST(DominatingSkylineTest, StatsAreAccounted) {
  Result<Dataset> p =
      GenerateCompetitors(2000, 2, Distribution::kIndependent, 8);
  ASSERT_TRUE(p.ok());
  Result<FlatRTree> tree = FlatRTree::BulkLoad(*p);
  ASSERT_TRUE(tree.ok());
  const std::vector<double> t = {1.5, 1.5};  // dominated by everything
  ProbeStats stats;
  std::vector<PointId> sky = DominatingSkyline(tree.value(), t.data(), &stats);
  EXPECT_FALSE(sky.empty());
  EXPECT_GT(stats.heap_pops, 0u);
  EXPECT_GT(stats.nodes_visited, 0u);
}

TEST(DominatingSkylineTest, PrunesFarNodes) {
  // A probe in the far corner dominated only by a tiny cluster: the
  // traversal should visit far fewer nodes than the tree has.
  Dataset ds(2);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    ds.Add({0.5 + 0.5 * rng.NextDouble(), 0.5 + 0.5 * rng.NextDouble()});
  }
  ds.Add({0.01, 0.01});
  Result<FlatRTree> tree = FlatRTree::BulkLoad(ds, 16);
  ASSERT_TRUE(tree.ok());
  const std::vector<double> t = {0.05, 0.05};
  ProbeStats stats;
  std::vector<PointId> sky = DominatingSkyline(tree.value(), t.data(), &stats);
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_LT(stats.nodes_visited, tree->node_count() / 4);
}

// The shared tile traversal vs the per-query probe, compared as *value
// sets* (the tile contract): the same dominator coordinate multiset per
// member, independent of accept order and of which row represents a
// coordinate-duplicate group.
std::vector<std::vector<double>> ValueSet(const Dataset& ds,
                                          const std::vector<PointId>& ids) {
  std::vector<std::vector<double>> values;
  values.reserve(ids.size());
  for (PointId id : ids) {
    const double* p = ds.data(id);
    values.emplace_back(p, p + ds.dims());
  }
  std::sort(values.begin(), values.end());
  return values;
}

TEST(DominatingSkylineTileTest, TileMatchesSoloProbesAsValueSets) {
  Rng rng(20260806);
  for (int rep = 0; rep < 30; ++rep) {
    const size_t dims = 2 + static_cast<size_t>(rng.NextUint64(3));
    const size_t n = 1 + static_cast<size_t>(rng.NextUint64(300));
    const bool tie_heavy = rep % 3 == 0;
    Dataset ds(dims);
    std::vector<double> p(dims);
    for (size_t i = 0; i < n; ++i) {
      for (double& c : p) {
        c = tie_heavy ? 0.25 * static_cast<double>(1 + rng.NextUint64(4))
                      : rng.NextDouble();
      }
      ds.Add(p);
    }
    Result<FlatRTree> tree =
        FlatRTree::BulkLoad(ds, 2 + static_cast<size_t>(rng.NextUint64(7)));
    ASSERT_TRUE(tree.ok());
    const FlatRTree& flat = tree.value();

    // Kill a random subset through the caller-side mask — the tile
    // traversal skips it exactly like the solo probe.
    std::vector<uint8_t> dead(n, 0);
    for (size_t i = 0; i < n; ++i) dead[i] = rng.NextUint64(4) == 0;
    const uint8_t* mask = rep % 2 == 0 ? dead.data() : nullptr;

    // Tile widths across the chunk boundaries; members mix fresh random
    // points with exact copies of dataset rows (equal-coordinate stress).
    const size_t tile_count =
        1 + static_cast<size_t>(rng.NextUint64(kMaxDominanceTile));
    std::vector<std::vector<double>> points(tile_count);
    std::vector<const double*> tile(tile_count);
    for (size_t j = 0; j < tile_count; ++j) {
      if (rng.NextUint64(4) == 0) {
        const double* row =
            ds.data(static_cast<PointId>(rng.NextUint64(n)));
        points[j].assign(row, row + dims);
      } else {
        points[j].resize(dims);
        for (double& c : points[j]) c = rng.NextDouble(0.0, 1.2);
      }
      tile[j] = points[j].data();
    }

    std::vector<std::vector<PointId>> results(tile_count);
    ProbeStats tile_stats;
    DominatingSkylineTileInto(flat, tile.data(), tile_count, mask,
                              results.data(), &tile_stats);

    std::vector<PointId> solo;
    for (size_t j = 0; j < tile_count; ++j) {
      DominatingSkylineInto(flat, tile[j], mask, &solo);
      EXPECT_EQ(ValueSet(ds, results[j]), ValueSet(ds, solo))
          << "rep " << rep << " member " << j;
      for (PointId id : results[j]) {
        EXPECT_EQ(mask != nullptr && dead[static_cast<size_t>(id)], false)
            << "masked row " << id << " surfaced, rep " << rep;
      }
    }
  }
}

TEST(DominatingSkylineTileTest, SharedTraversalVisitsFewerNodesThanSolo) {
  // The point of the tile: one traversal over 64 near-identical probes
  // must touch far fewer nodes than 64 separate traversals.
  Dataset ds(2);
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    ds.Add({rng.NextDouble(), rng.NextDouble()});
  }
  Result<FlatRTree> tree = FlatRTree::BulkLoad(ds, 8);
  ASSERT_TRUE(tree.ok());
  const FlatRTree& flat = tree.value();

  std::vector<std::vector<double>> points(kMaxDominanceTile);
  std::vector<const double*> tile(kMaxDominanceTile);
  for (size_t j = 0; j < kMaxDominanceTile; ++j) {
    points[j] = {0.8 + 0.2 * rng.NextDouble(), 0.8 + 0.2 * rng.NextDouble()};
    tile[j] = points[j].data();
  }
  std::vector<std::vector<PointId>> results(kMaxDominanceTile);
  ProbeStats shared;
  DominatingSkylineTileInto(flat, tile.data(), kMaxDominanceTile, nullptr,
                            results.data(), &shared);
  ProbeStats solo_total;
  std::vector<PointId> solo;
  for (size_t j = 0; j < kMaxDominanceTile; ++j) {
    ProbeStats one;
    DominatingSkylineInto(flat, tile[j], nullptr, &solo, &one);
    solo_total.nodes_visited += one.nodes_visited;
  }
  EXPECT_LT(shared.nodes_visited, solo_total.nodes_visited / 4);
}

}  // namespace
}  // namespace skyup
