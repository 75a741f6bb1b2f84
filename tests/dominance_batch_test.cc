// Randomized equivalence suite for the batched dominance kernels
// (core/dominance_batch.h): the dispatched entry points (AVX2 when the
// build and the CPU provide it) must agree bit for bit with the scalar
// oracle and with per-lane first-principles dominance tests — on uniform
// random blocks, tie-heavy blocks drawn from a tiny value alphabet, and
// blocks of exact duplicates, across dims 2..6 and lane counts that
// exercise every 4-lane-group/tail split.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/dominance.h"
#include "core/dominance_batch.h"

namespace skyup {
namespace {

enum class BlockKind { kUniform, kTieHeavy, kDuplicates };

const char* KindName(BlockKind kind) {
  switch (kind) {
    case BlockKind::kUniform:
      return "uniform";
    case BlockKind::kTieHeavy:
      return "tie-heavy";
    case BlockKind::kDuplicates:
      return "duplicates";
  }
  return "?";
}

// A block plus an independently generated query point. Tie-heavy data draws
// every coordinate from {0.25, 0.5, 0.75}, so equal-on-some-dimensions and
// equal-on-all-dimensions lanes are common rather than measure-zero.
struct Case {
  SoaBlock block;
  std::vector<double> query;
};

Case MakeCase(size_t dims, size_t count, BlockKind kind, std::mt19937_64* rng) {
  Case c{SoaBlock(dims), std::vector<double>(dims)};
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::uniform_int_distribution<int> coarse(1, 3);
  std::vector<double> p(dims);
  auto draw = [&](std::vector<double>* out) {
    for (size_t d = 0; d < dims; ++d) {
      (*out)[d] = kind == BlockKind::kUniform ? uniform(*rng)
                                              : 0.25 * coarse(*rng);
    }
  };
  draw(&c.query);
  draw(&p);
  for (size_t i = 0; i < count; ++i) {
    if (kind != BlockKind::kDuplicates) draw(&p);
    c.block.Append(p.data());
  }
  return c;
}

TEST(SoaBlockTest, AppendClearAndViewRoundTrip) {
  SoaBlock block(3);
  EXPECT_TRUE(block.empty());
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {4.0, 5.0, 6.0};
  block.Append(a);
  block.Append(b);
  ASSERT_EQ(block.size(), 2u);
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(block.at(0, d), a[d]);
    EXPECT_EQ(block.at(1, d), b[d]);
  }
  const SoaView view = block.view();
  ASSERT_EQ(view.count, 2u);
  ASSERT_EQ(view.dims, 3u);
  ASSERT_GE(view.stride, view.count);
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(view.dim(d)[0], a[d]);
    EXPECT_EQ(view.dim(d)[1], b[d]);
  }
  block.Clear();
  EXPECT_TRUE(block.empty());
  block.Append(b);
  EXPECT_EQ(block.at(0, 2), 6.0);
}

TEST(SoaBlockTest, LaneIndicesSurviveGrowth) {
  // Append enough lanes to force several capacity doublings and check that
  // earlier lanes keep their index and values.
  SoaBlock block(4);
  std::vector<std::vector<double>> rows;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  for (size_t i = 0; i < 300; ++i) {
    std::vector<double> p(4);
    for (double& x : p) x = uniform(rng);
    block.Append(p.data());
    rows.push_back(std::move(p));
  }
  ASSERT_EQ(block.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t d = 0; d < 4; ++d) {
      ASSERT_EQ(block.at(i, d), rows[i][d]) << "lane " << i << " dim " << d;
    }
  }
}

TEST(DominanceBatchTest, KernelNameIsKnown) {
  const std::string name = BatchKernelName();
  EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
}

// The core equivalence sweep: dispatched == scalar oracle == per-lane
// first-principles answer, for every kernel, on every block shape.
TEST(DominanceBatchTest, DispatchedMatchesScalarAndFirstPrinciples) {
  std::mt19937_64 rng(20260805);
  const size_t counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 67};
  for (size_t dims = 2; dims <= 6; ++dims) {
    for (BlockKind kind :
         {BlockKind::kUniform, BlockKind::kTieHeavy, BlockKind::kDuplicates}) {
      for (size_t count : counts) {
        for (int rep = 0; rep < 8; ++rep) {
          const Case c = MakeCase(dims, count, kind, &rng);
          const SoaView view = c.block.view();
          const double* q = c.query.data();
          SCOPED_TRACE(std::string(KindName(kind)) + " dims=" +
                       std::to_string(dims) + " count=" +
                       std::to_string(count) + " rep=" + std::to_string(rep));

          // DominatesAny: any lane <= q on all dimensions.
          bool expect_any = false;
          std::vector<double> lane(dims);
          for (size_t i = 0; i < count && !expect_any; ++i) {
            for (size_t d = 0; d < dims; ++d) lane[d] = c.block.at(i, d);
            expect_any = DominatesOrEqual(lane.data(), q, dims);
          }
          EXPECT_EQ(DominatesAny(view, q), expect_any);
          EXPECT_EQ(DominatesAnyScalar(view, q), expect_any);

          // FilterDominated, strict and non-strict: exact ascending index
          // lists.
          for (bool strict : {true, false}) {
            std::vector<uint32_t> expect;
            for (size_t i = 0; i < count; ++i) {
              for (size_t d = 0; d < dims; ++d) lane[d] = c.block.at(i, d);
              const bool keep = strict ? Dominates(lane.data(), q, dims)
                                       : DominatesOrEqual(lane.data(), q, dims);
              if (keep) expect.push_back(static_cast<uint32_t>(i));
            }
            std::vector<uint32_t> got, got_scalar;
            EXPECT_EQ(FilterDominated(view, q, &got, strict), expect.size());
            EXPECT_EQ(FilterDominatedScalar(view, q, &got_scalar, strict),
                      expect.size());
            EXPECT_EQ(got, expect) << "strict=" << strict;
            EXPECT_EQ(got_scalar, expect) << "strict=" << strict;
          }
        }
      }
    }
  }
}

// FilterDominated must *append* (callers reuse one scratch vector per
// traversal) and report only the newly appended count.
TEST(DominanceBatchTest, FilterDominatedAppendsToExistingOutput) {
  SoaBlock block(2);
  const double lo[] = {0.1, 0.1};
  const double hi[] = {0.9, 0.9};
  block.Append(lo);
  block.Append(hi);
  const double q[] = {0.5, 0.5};
  std::vector<uint32_t> out = {77};
  EXPECT_EQ(FilterDominated(block.view(), q, &out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 77u);
  EXPECT_EQ(out[1], 0u);
}

// A strided view (capacity > count, as FlatRTree node ranges produce) must
// read the right lanes — a regression guard for stride/count mix-ups.
TEST(DominanceBatchTest, StridedViewReadsCorrectLanes) {
  // Manual dimension-major buffer: stride 8, 3 live lanes, 2 dims.
  std::vector<double> data(2 * 8, -1.0);
  const double lanes[3][2] = {{0.2, 0.2}, {0.6, 0.6}, {0.3, 0.9}};
  for (size_t i = 0; i < 3; ++i) {
    data[0 * 8 + i] = lanes[i][0];
    data[1 * 8 + i] = lanes[i][1];
  }
  const SoaView view{data.data(), 8, 3, 2};
  const double q[] = {0.5, 0.5};
  std::vector<uint32_t> out;
  EXPECT_EQ(FilterDominated(view, q, &out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_TRUE(DominatesAny(view, q));
}

// The multi-query tile kernel: dispatched == scalar oracle == per-pair
// first-principles dominance, in both orientations, over tile widths that
// exercise the 4-member register-block chunks and their tails.
TEST(DominanceBatchTest, TileMasksMatchScalarAndFirstPrinciples) {
  std::mt19937_64 rng(20260807);
  const size_t lane_counts[] = {0, 1, 3, 4, 5, 8, 17, 64, 67};
  const size_t tile_counts[] = {1, 2, 3, 4, 5, 8, 9, 16, 63, 64};
  for (size_t dims = 2; dims <= 5; ++dims) {
    for (BlockKind kind :
         {BlockKind::kUniform, BlockKind::kTieHeavy, BlockKind::kDuplicates}) {
      for (size_t lanes : lane_counts) {
        for (size_t tiles : tile_counts) {
          const Case c = MakeCase(dims, lanes, kind, &rng);
          // Tile points drawn the same way as block lanes, so tie-heavy
          // cases produce exact lane==tile coordinate matches (the strict
          // vs non-strict boundary).
          std::vector<Case> extra;
          std::vector<const double*> tile(tiles);
          for (size_t j = 0; j < tiles; ++j) {
            extra.push_back(MakeCase(dims, 0, kind, &rng));
            tile[j] = extra.back().query.data();
          }
          const SoaView view = c.block.view();
          for (bool strict : {true, false}) {
            SCOPED_TRACE(std::string(KindName(kind)) + " dims=" +
                         std::to_string(dims) + " lanes=" +
                         std::to_string(lanes) + " tiles=" +
                         std::to_string(tiles) +
                         (strict ? " strict" : " non-strict"));
            std::vector<uint64_t> got(lanes, ~uint64_t{0});
            std::vector<uint64_t> oracle(lanes, 0);
            TileDominanceMasks(view, tile.data(), tiles, strict, got.data());
            TileDominanceMasksScalar(view, tile.data(), tiles, strict,
                                     oracle.data());
            std::vector<double> lane(dims);
            for (size_t i = 0; i < lanes; ++i) {
              ASSERT_EQ(got[i], oracle[i]) << "lane " << i;
              for (size_t d = 0; d < dims; ++d) lane[d] = c.block.at(i, d);
              for (size_t j = 0; j < tiles; ++j) {
                const bool expect =
                    strict ? Dominates(lane.data(), tile[j], dims)
                           : DominatesOrEqual(lane.data(), tile[j], dims);
                ASSERT_EQ((got[i] >> j) & 1u, expect ? 1u : 0u)
                    << "lane " << i << " tile " << j;
              }
            }
          }
        }
      }
    }
  }
}

// For any fixed tile member, the tile kernel's bit column must reproduce
// the single-query FilterDominated decisions exactly (the contract the
// tile traversal's per-member pruning relies on).
TEST(DominanceBatchTest, TileMaskColumnsMatchSingleQueryFilter) {
  std::mt19937_64 rng(977);
  for (int rep = 0; rep < 20; ++rep) {
    const size_t dims = 2 + rep % 4;
    const Case c = MakeCase(dims, 33, BlockKind::kTieHeavy, &rng);
    std::vector<Case> extra;
    std::vector<const double*> tile;
    for (size_t j = 0; j < 7; ++j) {
      extra.push_back(MakeCase(dims, 0, BlockKind::kTieHeavy, &rng));
      tile.push_back(extra.back().query.data());
    }
    const SoaView view = c.block.view();
    std::vector<uint64_t> masks(view.count, 0);
    TileDominanceMasks(view, tile.data(), tile.size(), /*strict=*/true,
                       masks.data());
    for (size_t j = 0; j < tile.size(); ++j) {
      std::vector<uint32_t> solo;
      FilterDominated(view, tile[j], &solo, /*strict=*/true);
      std::vector<uint32_t> from_tile;
      for (size_t i = 0; i < view.count; ++i) {
        if ((masks[i] >> j) & 1u) {
          from_tile.push_back(static_cast<uint32_t>(i));
        }
      }
      EXPECT_EQ(from_tile, solo) << "tile member " << j;
    }
  }
}

}  // namespace
}  // namespace skyup
