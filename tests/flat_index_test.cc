// Tests for the flat arena R-tree (rtree/flat_rtree.h) and the batched
// traversals built on it: structural invariants via Validate(), dead-row
// masks, and agreement with brute force — dominating-skyline probes, BBS,
// and full improved-probing top-k (bit-identical at every thread count) —
// across dims 2..6, distributions, tie-heavy catalogs, and exact-duplicate
// catalogs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dominance.h"
#include "core/planner.h"
#include "core/probing.h"
#include "data/generator.h"
#include "flat_rtree_test_peer.h"
#include "rtree/flat_rtree.h"
#include "skyline/dominating_skyline.h"
#include "skyline/skyline.h"

namespace skyup {
namespace {

Dataset MakeData(size_t n, size_t dims, Distribution distribution,
                 uint64_t seed) {
  Result<Dataset> data = GenerateCompetitors(n, dims, distribution, seed);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

// Every point duplicated `copies` times: ties on all dimensions at once,
// the adversarial case for ordering and tie-break drift.
Dataset Duplicated(const Dataset& base, size_t copies) {
  Dataset out(base.dims());
  for (size_t c = 0; c < copies; ++c) {
    for (size_t i = 0; i < base.size(); ++i) {
      out.Add(base.data(static_cast<PointId>(i)));
    }
  }
  return out;
}

// Coordinates snapped to a coarse grid: many partial ties without full
// duplication.
Dataset TieHeavy(const Dataset& base) {
  Dataset out(base.dims());
  std::vector<double> p(base.dims());
  for (size_t i = 0; i < base.size(); ++i) {
    const double* row = base.data(static_cast<PointId>(i));
    for (size_t d = 0; d < base.dims(); ++d) {
      p[d] = 0.125 * static_cast<int>(row[d] * 8.0);
    }
    out.Add(p.data());
  }
  return out;
}

void ExpectBitIdentical(const std::vector<UpgradeResult>& a,
                        const std::vector<UpgradeResult>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].product_id, b[i].product_id) << label << " rank " << i;
    // Bit-level, not approximate: the tiled gather must hand Algorithm 1
    // the same dominator values as the oracle's linear scan.
    ASSERT_EQ(a[i].cost, b[i].cost) << label << " rank " << i;
    ASSERT_EQ(a[i].upgraded, b[i].upgraded) << label << " rank " << i;
    ASSERT_EQ(a[i].already_competitive, b[i].already_competitive)
        << label << " rank " << i;
  }
}

TEST(FlatRTreeTest, ValidatesAcrossShapes) {
  for (size_t dims = 2; dims <= 6; ++dims) {
    for (size_t n : {1u, 2u, 5u, 64u, 65u, 500u}) {
      for (size_t fanout : {4u, 16u, 64u}) {
        const Dataset data =
            MakeData(n, dims, Distribution::kAntiCorrelated, 11 * dims + n);
        Result<FlatRTree> flat = FlatRTree::BulkLoad(data, fanout);
        ASSERT_TRUE(flat.ok());
        const Status st = flat.value().Validate();
        EXPECT_TRUE(st.ok()) << "dims=" << dims << " n=" << n
                             << " fanout=" << fanout << ": " << st.message();
        EXPECT_EQ(flat.value().size(), n);
        EXPECT_EQ(flat.value().dims(), dims);
      }
    }
  }
}

// Validate() must not just fail on a corrupted arena — its message must
// name the first violated invariant, so a paranoid-level abort points
// straight at the broken structure. One fresh snapshot per corruption.
TEST(FlatRTreeTest, ValidateNamesTheViolatedInvariant) {
  const Dataset data = MakeData(200, 3, Distribution::kIndependent, 7);
  const size_t fanout = 8;  // several levels, so internal nodes exist
  const auto build = [&]() {
    Result<FlatRTree> flat = FlatRTree::BulkLoad(data, fanout);
    EXPECT_TRUE(flat.ok());
    return std::move(flat).value();
  };
  const auto message = [](const FlatRTree& t) {
    const Status st = t.Validate();
    EXPECT_FALSE(st.ok());
    return std::string(st.message());
  };

  {
    FlatRTree t = build();
    FlatRTreeTestPeer::hi_aos(&t)[1] += 0.25;  // AoS only: mirrors disagree
    EXPECT_NE(message(t).find("SoA/AoS corner mismatch at node 0"),
              std::string::npos)
        << message(t);
  }
  {
    FlatRTree t = build();
    FlatRTreeTestPeer::key(&t)[0] += 1.0;
    EXPECT_NE(message(t).find("stale best-first key at node 0"),
              std::string::npos)
        << message(t);
  }
  {
    FlatRTree t = build();
    // Swapping two slot ids desynchronizes the cached coordinates from the
    // dataset rows they claim to mirror.
    auto& ids = FlatRTreeTestPeer::point_ids(&t);
    ASSERT_GE(ids.size(), 2u);
    std::swap(ids.front(), ids.back());
    EXPECT_NE(message(t).find("stale leaf coordinates at slot"),
              std::string::npos)
        << message(t);
  }
  {
    FlatRTree t = build();
    ASSERT_FALSE(t.is_leaf(FlatRTree::kRoot));
    FlatRTreeTestPeer::end(&t)[0] = 0;  // root's child run becomes empty
    EXPECT_NE(message(t).find("child range malformed at node 0"),
              std::string::npos)
        << message(t);
  }
  {
    FlatRTree t = build();
    // Demoting the last node's level breaks the parent's level-1 contract.
    FlatRTreeTestPeer::level(&t).back() -= 1;
    EXPECT_NE(message(t).find("child level skew at node"), std::string::npos)
        << message(t);
  }
  {
    FlatRTree t = build();
    // Growing a child's box past its parent breaks containment; patch all
    // three mirrors (SoA, AoS, key) so containment is the *first* failure.
    const uint32_t child = t.child_begin(FlatRTree::kRoot);
    const size_t n = t.node_count();
    FlatRTreeTestPeer::lo_aos(&t)[child * 3] -= 1.0;
    FlatRTreeTestPeer::lo_soa(&t)[child] -= 1.0;  // d=0 lane
    FlatRTreeTestPeer::key(&t)[child] -= 1.0;
    ASSERT_EQ(FlatRTreeTestPeer::lo_soa(&t).size(), 3 * n);
    EXPECT_NE(message(t).find("child MBR escapes parent at node"),
              std::string::npos)
        << message(t);
  }
}

// The index no longer carries tombstones: a dead row is a mask until the
// next STR re-pack, so every box covers exactly the rows it holds. The
// tombstone-era invariant that survives is that exact-union contract the
// serve prune leans on, and Validate() must still name it.
TEST(FlatRTreeTest, ValidateNamesTombstoneInvariants) {
  const Dataset data = MakeData(200, 3, Distribution::kIndependent, 7);
  Result<FlatRTree> flat = FlatRTree::BulkLoad(data, /*fanout=*/8);
  ASSERT_TRUE(flat.ok());
  FlatRTree t = std::move(flat).value();
  ASSERT_TRUE(t.Validate().ok());
  // Growing the root box (both mirrors; the key is a min-corner sum, so
  // the max-side inflation leaves it alone) breaks the exact union.
  const size_t n = t.node_count();
  FlatRTreeTestPeer::hi_aos(&t)[0 * 3 + 0] += 0.5;
  FlatRTreeTestPeer::hi_soa(&t)[0 * n + 0] += 0.5;
  const Status st = t.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(std::string(st.message())
                .find("MBR not tight over its content at node 0"),
            std::string::npos)
      << st.message();
}

// Rows as a sorted coordinate value set. Comparisons against the oracles
// are value-based: which of several coordinate-duplicate rows represents a
// skyline member is a tie-break, the answer's values are not.
std::vector<std::vector<double>> ValueSet(const Dataset& data,
                                          const std::vector<PointId>& rows) {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size());
  for (PointId id : rows) {
    const double* p = data.data(id);
    out.emplace_back(p, p + data.dims());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Brute-force oracle: skyline of the live strict dominators of `q`.
std::vector<std::vector<double>> BruteDominatorValueSet(
    const Dataset& data, const std::vector<uint8_t>& alive, const double* q) {
  std::vector<const double*> doms;
  for (size_t i = 0; i < data.size(); ++i) {
    const double* row = data.data(static_cast<PointId>(i));
    if (alive[i] && Dominates(row, q, data.dims())) {
      doms.push_back(row);
    }
  }
  SkylineOfPointers(&doms, data.dims());
  std::vector<std::vector<double>> out;
  out.reserve(doms.size());
  for (const double* p : doms) {
    out.emplace_back(p, p + data.dims());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Masked probe: rows whose `dead_rows` byte is set are treated as erased.
std::vector<PointId> MaskedProbe(const FlatRTree& flat, const double* q,
                                 const std::vector<uint8_t>& alive) {
  std::vector<uint8_t> dead(alive.size());
  for (size_t i = 0; i < alive.size(); ++i) dead[i] = alive[i] == 0;
  std::vector<PointId> out;
  DominatingSkylineInto(flat, q, dead.data(), &out);
  return out;
}

// As rows die one by one, probing through the `dead_rows` mask answers
// exactly like brute force over the surviving rows.
TEST(FlatProbeTest, DeadRowMaskMatchesBruteForce) {
  for (size_t dims : {2u, 3u}) {
    const size_t n = 220;
    const Dataset data =
        MakeData(n, dims, Distribution::kAntiCorrelated, 29 + dims);
    const Dataset queries =
        MakeData(24, dims, Distribution::kIndependent, 91 + dims);
    Result<FlatRTree> flat = FlatRTree::BulkLoad(data, 8);
    ASSERT_TRUE(flat.ok());
    std::vector<uint8_t> alive(n, 1);
    for (size_t r = 0; r < 140; ++r) {
      alive[(r * 37 + 11) % n] = 0;
      if (r % 10 != 9) continue;  // probe every tenth erase
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const double* q = queries.data(static_cast<PointId>(qi));
        ASSERT_EQ(ValueSet(data, MaskedProbe(*flat, q, alive)),
                  BruteDominatorValueSet(data, alive, q))
            << "dims=" << dims << " round=" << r << " query=" << qi;
      }
    }
  }
}

// Masking every slot of one leaf keeps queries exact; masking every row
// leaves every probe empty.
TEST(FlatProbeTest, MaskingALeafThenEverythingStaysExact) {
  const size_t n = 96;
  const Dataset data = MakeData(n, 3, Distribution::kIndependent, 53);
  const Dataset queries = MakeData(12, 3, Distribution::kIndependent, 54);
  Result<FlatRTree> flat = FlatRTree::BulkLoad(data, /*fanout=*/8);
  ASSERT_TRUE(flat.ok());
  std::vector<uint8_t> alive(n, 1);

  uint32_t leaf = 0;
  while (!flat->is_leaf(leaf)) ++leaf;
  for (uint32_t j = flat->point_begin(leaf); j < flat->point_end(leaf); ++j) {
    alive[static_cast<size_t>(flat->point_ids()[j])] = 0;
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const double* q = queries.data(static_cast<PointId>(qi));
    ASSERT_EQ(ValueSet(data, MaskedProbe(*flat, q, alive)),
              BruteDominatorValueSet(data, alive, q))
        << "query " << qi << " after masking leaf " << leaf;
  }

  std::fill(alive.begin(), alive.end(), 0);
  const double q[3] = {0.99, 0.99, 0.99};
  EXPECT_TRUE(MaskedProbe(*flat, q, alive).empty());
}

TEST(FlatRTreeTest, RootMbrIsTheDataBoundingBox) {
  const Dataset data = MakeData(200, 4, Distribution::kCorrelated, 5);
  Result<FlatRTree> flat = FlatRTree::BulkLoad(data);
  ASSERT_TRUE(flat.ok());
  const Mbr root = flat->root_mbr();
  ASSERT_FALSE(root.IsEmpty());
  const std::vector<double> lo = data.MinCorner();
  const std::vector<double> hi = data.MaxCorner();
  for (size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(root.min_data()[d], lo[d]);
    EXPECT_EQ(root.max_data()[d], hi[d]);
  }
}

TEST(FlatProbeTest, DominatingSkylineMatchesBruteForce) {
  for (size_t dims = 2; dims <= 6; ++dims) {
    for (Distribution distribution :
         {Distribution::kIndependent, Distribution::kAntiCorrelated}) {
      const Dataset base = MakeData(400, dims, distribution, 31 * dims);
      for (int variant = 0; variant < 3; ++variant) {
        const Dataset data = variant == 0   ? MakeData(400, dims, distribution,
                                                       31 * dims)
                             : variant == 1 ? TieHeavy(base)
                                            : Duplicated(base, 3);
        Result<FlatRTree> flat = FlatRTree::BulkLoad(data);
        ASSERT_TRUE(flat.ok());
        const std::vector<uint8_t> alive(data.size(), 1);
        const Dataset queries =
            MakeData(40, dims, Distribution::kIndependent, 7 * dims + variant);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          const double* t = queries.data(static_cast<PointId>(qi));
          ProbeStats stats;
          ASSERT_EQ(ValueSet(data, DominatingSkyline(*flat, t, &stats)),
                    BruteDominatorValueSet(data, alive, t))
              << "dims=" << dims << " variant=" << variant << " q=" << qi;
          if (stats.nodes_visited > 0) {
            EXPECT_GT(stats.block_kernel_calls, 0u);
          }
        }
      }
    }
  }
}

TEST(FlatProbeTest, BbsMatchesBnl) {
  for (size_t dims = 2; dims <= 6; ++dims) {
    const Dataset base = MakeData(500, dims, Distribution::kAntiCorrelated,
                                  17 * dims);
    for (int variant = 0; variant < 3; ++variant) {
      const Dataset data = variant == 0   ? MakeData(500, dims,
                                                     Distribution::kIndependent,
                                                     17 * dims)
                           : variant == 1 ? TieHeavy(base)
                                          : Duplicated(base, 2);
      Result<FlatRTree> flat = FlatRTree::BulkLoad(data);
      ASSERT_TRUE(flat.ok());
      EXPECT_EQ(ValueSet(data, SkylineBbs(*flat)),
                ValueSet(data, SkylineBnl(data)))
          << "bbs dims=" << dims << " variant=" << variant;
    }
  }
}

TEST(FlatTopKTest, ImprovedProbingBitIdenticalAtEveryThreadCount) {
  for (size_t dims : {2u, 3u, 5u}) {
    const Dataset base = MakeData(300, dims, Distribution::kAntiCorrelated,
                                  41 * dims);
    for (int variant = 0; variant < 2; ++variant) {
      const Dataset competitors = variant == 0 ? TieHeavy(base)
                                               : Duplicated(base, 2);
      const Dataset products =
          MakeData(60, dims, Distribution::kIndependent, 43 * dims + variant);
      const ProductCostFunction cost_fn =
          ProductCostFunction::ReciprocalSum(dims, 1e-3);
      Result<FlatRTree> built = FlatRTree::BulkLoad(competitors);
      ASSERT_TRUE(built.ok());
      const FlatRTree& flat = built.value();
      const size_t k = 10;

      Result<std::vector<UpgradeResult>> expect =
          TopKBruteForce(competitors, products, cost_fn, k);
      ASSERT_TRUE(expect.ok());

      ExecStats seq_stats;
      Result<std::vector<UpgradeResult>> flat_seq =
          TopKImprovedProbing(flat, products, cost_fn, k, 1e-6, 1, &seq_stats);
      ASSERT_TRUE(flat_seq.ok());
      ExpectBitIdentical(flat_seq.value(), expect.value(),
                         "flat-seq dims=" + std::to_string(dims) +
                             " variant=" + std::to_string(variant));
      EXPECT_GT(seq_stats.block_kernel_calls, 0u);

      for (size_t threads : {1u, 2u, 7u, 0u}) {
        ExecStats par_stats;
        Result<std::vector<UpgradeResult>> flat_par = TopKImprovedProbing(
            flat, products, cost_fn, k, 1e-6, threads, &par_stats);
        ASSERT_TRUE(flat_par.ok());
        ExpectBitIdentical(flat_par.value(), expect.value(),
                           "flat-par dims=" + std::to_string(dims) +
                               " variant=" + std::to_string(variant) +
                               " threads=" + std::to_string(threads));
        EXPECT_EQ(par_stats.upgrade_calls + par_stats.candidates_pruned,
                  par_stats.products_processed);
      }
    }
  }
}

TEST(FlatIndexTest, BulkLoadEmptyDatasetAnswersNoDominators) {
  // The serving rebuild path must survive an empty competitor table — no
  // node arena, but dims and dataset binding intact.
  Dataset empty(3);
  Result<FlatRTree> tree = FlatRTree::BulkLoad(empty);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const double probe[] = {0.5, 0.5, 0.5};
  EXPECT_TRUE(DominatingSkyline(*tree, probe, nullptr).empty());
  EXPECT_TRUE(SkylineBbs(*tree).empty());
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(FlatTopKTest, ProductAppendAfterBulkLoadKeepsQueriesValid) {
  // Regression: the flat index pins the *competitor* dataset, but T is
  // free to grow between queries. Appending products — including
  // self-appends, which used to hit the Dataset::Add aliasing bug — must
  // leave the index probes and a re-run query fully valid.
  const Dataset competitors =
      MakeData(300, 3, Distribution::kAntiCorrelated, 11);
  Dataset products = MakeData(40, 3, Distribution::kIndependent, 12);
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(3, 1e-3);
  Result<FlatRTree> flat = FlatRTree::BulkLoad(competitors);
  ASSERT_TRUE(flat.ok());

  Result<std::vector<UpgradeResult>> before = TopKImprovedProbing(
      *flat, products, cost_fn, 5, 1e-6, 2, nullptr);
  ASSERT_TRUE(before.ok());

  // Grow T after the index was built: fresh rows and a self-append that
  // forces reallocation of the products storage.
  for (int i = 0; i < 100; ++i) {
    products.Add(products.data(static_cast<PointId>(i % products.size())));
  }
  Result<std::vector<UpgradeResult>> after = TopKImprovedProbing(
      *flat, products, cost_fn, 5, 1e-6, 2, nullptr);
  ASSERT_TRUE(after.ok());

  // The appended rows are duplicates of existing products, so the top-5
  // costs cannot change (ids may differ across tied duplicates only if
  // ranks tie — costs are the invariant here).
  ASSERT_EQ(after->size(), before->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*after)[i].cost, (*before)[i].cost) << "rank " << i;
  }
}

}  // namespace
}  // namespace skyup
