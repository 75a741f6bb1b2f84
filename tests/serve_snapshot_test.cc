// Tests for versioned serving snapshots (serve/snapshot.h): construction
// invariants and stable-id round trips.

#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "skyline/dominating_skyline.h"

namespace skyup {
namespace {

Result<std::shared_ptr<const Snapshot>> MakeSnapshot(uint64_t epoch) {
  Dataset competitors(2);
  competitors.Add({0.1, 0.2});
  competitors.Add({0.5, 0.1});
  Dataset products(2);
  products.Add({0.9, 0.9});
  return Snapshot::Create(epoch, std::move(competitors), {1, 2},
                          std::move(products), {1});
}

TEST(SnapshotTest, CreateBindsIndexAndIds) {
  Result<std::shared_ptr<const Snapshot>> snapshot = MakeSnapshot(1);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const Snapshot& s = **snapshot;
  EXPECT_EQ(s.epoch(), 1u);
  EXPECT_EQ(s.dims(), 2u);
  EXPECT_EQ(s.competitors().size(), 2u);
  EXPECT_EQ(s.products().size(), 1u);
  EXPECT_EQ(s.competitor_id(0), 1u);
  EXPECT_EQ(s.competitor_id(1), 2u);
  EXPECT_EQ(s.product_id(0), 1u);
  EXPECT_EQ(s.CompetitorRow(1), 0);
  EXPECT_EQ(s.CompetitorRow(2), 1);
  EXPECT_EQ(s.CompetitorRow(0), kInvalidPointId);
  EXPECT_EQ(s.CompetitorRow(99), kInvalidPointId);
  EXPECT_EQ(s.ProductRow(1), 0);
  EXPECT_EQ(s.ProductRow(99), kInvalidPointId);

  // The bundled index probes the bundled competitor dataset.
  const double probe[] = {0.9, 0.9};
  std::vector<PointId> sky = DominatingSkyline(s.index(), probe, nullptr);
  EXPECT_EQ(sky.size(), 2u);
}

TEST(SnapshotTest, EmptyTablesAreValid) {
  Result<std::shared_ptr<const Snapshot>> snapshot =
      Snapshot::Create(1, Dataset(3), {}, Dataset(3), {});
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ((*snapshot)->competitors().size(), 0u);
  const double probe[] = {0.5, 0.5, 0.5};
  EXPECT_TRUE(DominatingSkyline((*snapshot)->index(), probe, nullptr).empty());
}

TEST(SnapshotTest, CreateRejectsMalformedInputs) {
  {
    // id count != row count
    Dataset p(2);
    p.Add({0.1, 0.2});
    Result<std::shared_ptr<const Snapshot>> s =
        Snapshot::Create(1, std::move(p), {1, 2}, Dataset(2), {});
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // ids must be strictly ascending
    Dataset p(2);
    p.Add({0.1, 0.2});
    p.Add({0.3, 0.4});
    Result<std::shared_ptr<const Snapshot>> s =
        Snapshot::Create(1, std::move(p), {5, 5}, Dataset(2), {});
    EXPECT_FALSE(s.ok());
  }
  {
    // dims mismatch between tables
    Result<std::shared_ptr<const Snapshot>> s =
        Snapshot::Create(1, Dataset(2), {}, Dataset(3), {});
    EXPECT_FALSE(s.ok());
  }
}

}  // namespace
}  // namespace skyup
