// Tests for the versioned upgrade-result cache (serve/upgrade_cache.h):
// the store/lookup contract (version gating, epsilon match, the admit-hint
// payload elision), the dominance-based invalidation rules for competitor
// inserts and erases, product-op handling, and an end-to-end differential
// under table churn — every query answered partly from cache must equal
// the same query recomputed with the cache detached.

#include "serve/upgrade_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "serve/rebuilder.h"
#include "serve/shard/shard_query.h"
#include "serve/shard/sharded_table.h"
#include "util/random.h"

namespace skyup {
namespace {

DeltaOp CompetitorInsert(uint64_t id, std::vector<double> coords) {
  return DeltaOp{DeltaTarget::kCompetitor, DeltaKind::kInsert, id,
                 std::move(coords)};
}

DeltaOp CompetitorErase(uint64_t id) {
  return DeltaOp{DeltaTarget::kCompetitor, DeltaKind::kErase, id, {}};
}

// Stores an entry for `product_id` with the given cost and skyline values.
void StoreEntry(UpgradeCache* cache, uint64_t product_id,
                const std::vector<double>& coords, double cost,
                const std::vector<std::vector<double>>& skyline,
                double epsilon = 1e-6) {
  UpgradeOutcome outcome;
  outcome.cost = cost;
  outcome.upgraded = coords;  // payload content is irrelevant here
  outcome.already_competitive = skyline.empty();
  std::vector<const double*> members;
  members.reserve(skyline.size());
  for (const auto& m : skyline) members.push_back(m.data());
  cache->Store(product_id, coords.data(), cache->version(), epsilon,
               outcome, members);
}

bool Hits(const UpgradeCache& cache, uint64_t product_id,
          double epsilon = 1e-6) {
  UpgradeCache::Hit hit;
  return cache.Lookup(product_id, cache.version(), epsilon,
                      /*admit_hint=*/1e300, &hit);
}

TEST(UpgradeCacheTest, StoreLookupRoundTripAndGates) {
  UpgradeCache cache(2);
  const std::vector<double> t = {5.0, 5.0};
  StoreEntry(&cache, 7, t, 1.25, {{2.0, 2.0}});
  ASSERT_EQ(cache.size(), 1u);

  UpgradeCache::Hit hit;
  ASSERT_TRUE(cache.Lookup(7, cache.version(), 1e-6, 10.0, &hit));
  EXPECT_EQ(hit.cost, 1.25);
  EXPECT_FALSE(hit.already_competitive);
  EXPECT_TRUE(hit.payload_copied);
  EXPECT_EQ(hit.upgraded, t);

  // A losing candidate still hits, but skips the payload copy.
  ASSERT_TRUE(cache.Lookup(7, cache.version(), 1e-6, 1.0, &hit));
  EXPECT_EQ(hit.cost, 1.25);
  EXPECT_FALSE(hit.payload_copied);

  // Different epsilon is a different query: miss.
  EXPECT_FALSE(cache.Lookup(7, cache.version(), 1e-3, 10.0, &hit));
  // Unknown product: miss.
  EXPECT_FALSE(cache.Lookup(8, cache.version(), 1e-6, 10.0, &hit));
}

TEST(UpgradeCacheTest, EntriesFromTheFutureAreInvisibleToStaleViews) {
  UpgradeCache cache(2);
  const uint64_t stale_version = cache.version();
  cache.OnDeltaOp(CompetitorInsert(1, {9.0, 9.0}));
  StoreEntry(&cache, 7, {5.0, 5.0}, 1.0, {});
  // The entry was computed after the stale view's ops: it must not serve
  // that view, but does serve the current one.
  UpgradeCache::Hit hit;
  EXPECT_FALSE(cache.Lookup(7, stale_version, 1e-6, 10.0, &hit));
  EXPECT_TRUE(cache.Lookup(7, cache.version(), 1e-6, 10.0, &hit));
}

TEST(UpgradeCacheTest, StoreFromAnOutdatedViewIsDropped) {
  UpgradeCache cache(2);
  const uint64_t old_version = cache.version();
  cache.OnDeltaOp(CompetitorInsert(1, {1.0, 1.0}));
  UpgradeOutcome outcome;
  outcome.cost = 1.0;
  const std::vector<double> t = {5.0, 5.0};
  cache.Store(7, t.data(), old_version, 1e-6, outcome, {});
  EXPECT_EQ(cache.size(), 0u);
}

TEST(UpgradeCacheTest, InsertInvalidatesOnlyUncoveredDominators) {
  UpgradeCache cache(2);
  StoreEntry(&cache, 7, {5.0, 5.0}, 2.0, {{2.0, 2.0}});

  // Dominates the product but is covered by the stored member (2,2):
  // the skyline value set cannot change, the entry survives.
  cache.OnDeltaOp(CompetitorInsert(1, {3.0, 3.0}));
  EXPECT_TRUE(Hits(cache, 7));

  // Does not dominate the product at all (worse in dim 0): survives.
  cache.OnDeltaOp(CompetitorInsert(2, {6.0, 1.0}));
  EXPECT_TRUE(Hits(cache, 7));

  // Dominates the product and escapes the member ((2,2) is worse in
  // dim 0): it enters the skyline, so the entry must go.
  cache.OnDeltaOp(CompetitorInsert(3, {1.0, 3.0}));
  EXPECT_FALSE(Hits(cache, 7));
}

TEST(UpgradeCacheTest, EraseInvalidatesUnlessStrictlyShadowed) {
  UpgradeCache cache(2);
  cache.OnDeltaOp(CompetitorInsert(1, {1.0, 1.0}));
  cache.OnDeltaOp(CompetitorInsert(2, {2.0, 2.0}));
  cache.OnDeltaOp(CompetitorInsert(3, {1.0, 1.0}));
  StoreEntry(&cache, 7, {5.0, 5.0}, 2.0, {{1.0, 1.0}});

  // (2,2) was shadowed by the member (1,1) strictly: its erase cannot
  // surface anything new, the entry survives.
  cache.OnDeltaOp(CompetitorErase(2));
  EXPECT_TRUE(Hits(cache, 7));

  // (1,1) ties the member's value: only DominatesOrEqual holds, so the
  // conservative rule invalidates (a duplicate of a member could BE the
  // stored skyline value).
  cache.OnDeltaOp(CompetitorErase(3));
  EXPECT_FALSE(Hits(cache, 7));
}

TEST(UpgradeCacheTest, ProductOpsDropOnlyTheirOwnEntry) {
  UpgradeCache cache(2);
  StoreEntry(&cache, 7, {5.0, 5.0}, 1.0, {});
  StoreEntry(&cache, 8, {6.0, 6.0}, 2.0, {});
  cache.OnDeltaOp(DeltaOp{DeltaTarget::kProduct, DeltaKind::kErase, 7, {}});
  EXPECT_FALSE(Hits(cache, 7));
  EXPECT_TRUE(Hits(cache, 8));
  cache.OnDeltaOp(
      DeltaOp{DeltaTarget::kProduct, DeltaKind::kInsert, 9, {4.0, 4.0}});
  EXPECT_TRUE(Hits(cache, 8));
  EXPECT_FALSE(Hits(cache, 9));
}

// End-to-end: random churn through a two-shard table (the cache sees the
// cross-shard op stream), querying after every few ops. Each query runs
// twice over the same view — once with the table's cache, once with the
// cache detached — and the answers must be identical. By the end the
// cached run must actually have hit.
TEST(UpgradeCacheTest, CachedQueriesMatchUncachedUnderChurn) {
  const size_t dims = 3;
  ShardedTableOptions options;
  options.dims = dims;
  options.shards = 2;
  options.rtree_fanout = 4;
  Result<std::unique_ptr<ShardedTable>> table = ShardedTable::Create(options);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(dims, 1e-3);
  auto top_k = [&](const ShardedView& view, size_t k, ServeStats* stats) {
    std::vector<BatchQueryResult> out;
    TopKShardedBatch(view, cost_fn, {BatchQuery{k, nullptr}}, 1e-6,
                     /*threads=*/0, &out, stats);
    EXPECT_TRUE(out.front().status.ok()) << out.front().status.ToString();
    return std::move(out.front().results);
  };
  RebuildPolicy policy;
  policy.threshold_ops = 6;

  Rng rng(2024);
  std::vector<uint64_t> competitors;
  std::vector<uint64_t> products;
  uint64_t hits = 0;
  for (int step = 0; step < 240; ++step) {
    const uint64_t roll = rng.NextUint64(100);
    std::vector<double> coords(dims);
    for (double& c : coords) c = rng.NextDouble(0.0, 4.0);
    if (roll < 35 || competitors.empty()) {
      Result<uint64_t> id = t.InsertCompetitor(coords);
      ASSERT_TRUE(id.ok());
      competitors.push_back(*id);
    } else if (roll < 55 || products.empty()) {
      Result<uint64_t> id = t.InsertProduct(coords);
      ASSERT_TRUE(id.ok());
      products.push_back(*id);
    } else if (roll < 70) {
      const size_t pick = rng.NextUint64(competitors.size());
      ASSERT_TRUE(t.EraseCompetitor(competitors[pick]).ok());
      competitors.erase(competitors.begin() + static_cast<long>(pick));
    } else if (roll < 80) {
      const size_t pick = rng.NextUint64(products.size());
      ASSERT_TRUE(t.EraseProduct(products[pick]).ok());
      products.erase(products.begin() + static_cast<long>(pick));
    } else {
      const size_t k = 1 + rng.NextUint64(5);
      const ShardedView cached_view = t.AcquireViews();
      ShardedView plain_view = cached_view;
      plain_view.cache.reset();
      ServeStats stats;
      const std::vector<UpgradeResult> with_cache =
          top_k(cached_view, k, &stats);
      const std::vector<UpgradeResult> without_cache =
          top_k(plain_view, k, nullptr);
      hits += stats.cache_hits;
      ASSERT_EQ(with_cache.size(), without_cache.size()) << "step " << step;
      for (size_t i = 0; i < with_cache.size(); ++i) {
        EXPECT_EQ(with_cache[i].product_id, without_cache[i].product_id)
            << "step " << step << " rank " << i;
        // lint: float-eq-ok (cache reuse must be bit-exact, not close)
        EXPECT_EQ(with_cache[i].cost, without_cache[i].cost)
            << "step " << step << " rank " << i;
        EXPECT_EQ(with_cache[i].upgraded, without_cache[i].upgraded)
            << "step " << step << " rank " << i;
      }
    }
    ASSERT_TRUE(t.MaybePublishInline(policy).ok());
  }
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace skyup
