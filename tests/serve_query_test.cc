// Tests for the serve tier's top-k engine (serve/shard/shard_query.h)
// over a captured snapshot + delta overlay: exactness against a
// rebuild-from-scratch oracle (including pending erases served by the
// mask-aware probe, with no fallback rescan), empty-table behavior,
// argument validation, cancellation, the sound-prune face gate, and the
// serve stat counters. Queries run the way `Server::Query` runs them: a
// group of one through TopKShardedBatch.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/rebuilder.h"
#include "serve/shard/shard_query.h"
#include "serve/shard/sharded_table.h"
#include "util/random.h"

namespace skyup {
namespace {

Result<std::unique_ptr<ShardedTable>> MakeTable(size_t dims,
                                                size_t shards = 1) {
  ShardedTableOptions options;
  options.dims = dims;
  options.shards = shards;
  return ShardedTable::Create(options);
}

ProductCostFunction CostFn(size_t dims) {
  return ProductCostFunction::ReciprocalSum(dims, 1e-3);
}

// One query, alone, through the serve engine.
Result<std::vector<UpgradeResult>> TopK(const ShardedView& view,
                                        const ProductCostFunction& cost_fn,
                                        size_t k, double epsilon = 1e-6,
                                        const QueryControl* control = nullptr,
                                        ServeStats* stats = nullptr) {
  std::vector<BatchQueryResult> out;
  TopKShardedBatch(view, cost_fn, {BatchQuery{k, control}}, epsilon,
                   /*threads=*/0, &out, stats);
  if (!out.front().status.ok()) return out.front().status;
  return std::move(out.front().results);
}

// Forces one full compaction so every pending delta lands in a freshly
// bulk-loaded snapshot (a 0% tombstone threshold makes every shard's
// publish a major one).
void RebuildNow(ShardedTable* table) {
  RebuildPolicy compact;
  compact.threshold_ops = 1;
  compact.compact_tombstone_pct = 0;
  ASSERT_TRUE(table->MaybePublishInline(compact).ok());
}

// The oracle's view: everything compacted, no overlay, and no upgrade
// cache, so every candidate is recomputed from scratch.
ShardedView CleanView(ShardedTable* table) {
  RebuildNow(table);
  ShardedView clean = table->AcquireViews();
  for (const ReadView& view : clean.views) EXPECT_TRUE(view.deltas.empty());
  clean.cache.reset();
  return clean;
}

void ExpectExactlyEqual(const std::vector<UpgradeResult>& a,
                        const std::vector<UpgradeResult>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].product_id, b[i].product_id) << label << " rank " << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << label << " rank " << i;
    EXPECT_EQ(a[i].upgraded, b[i].upgraded) << label << " rank " << i;
  }
}

TEST(TopKOverlayTest, EmptyLiveProductSetYieldsEmptyResult) {
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->InsertCompetitor({0.1, 0.1}).ok());
  Result<std::vector<UpgradeResult>> top =
      TopK((*table)->AcquireViews(), CostFn(2), 3);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_TRUE(top->empty());
}

TEST(TopKOverlayTest, ValidatesArguments) {
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ShardedView view = (*table)->AcquireViews();
  EXPECT_EQ(TopK(view, CostFn(2), 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TopK(view, CostFn(2), 1, -1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TopK(view, CostFn(3), 1).status().code(),
            StatusCode::kInvalidArgument);
  ShardedView null_view;
  EXPECT_EQ(TopK(null_view, CostFn(2), 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TopKOverlayTest, ResultsCarryStableIds) {
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  ASSERT_TRUE(t.InsertCompetitor({0.1, 0.1}).ok());
  Result<uint64_t> p1 = t.InsertProduct({0.9, 0.9});
  Result<uint64_t> p2 = t.InsertProduct({0.8, 0.8});
  ASSERT_TRUE(p1.ok() && p2.ok());
  ASSERT_TRUE(t.EraseProduct(*p1).ok());

  Result<std::vector<UpgradeResult>> top =
      TopK(t.AcquireViews(), CostFn(2), 5);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);  // only p2 is live
  EXPECT_EQ(static_cast<uint64_t>((*top)[0].product_id), *p2);
}

// The load-bearing property: for random interleavings of inserts/erases
// with rebuilds at arbitrary points, the overlay path must return exactly
// what a freshly rebuilt (no overlay, no cache) query returns — at one
// shard and at several.
TEST(TopKOverlayTest, OverlayMatchesRebuildOracleOnRandomWorkloads) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 1299709);
    const size_t dims = 2 + static_cast<size_t>(rng.NextUint64(3));
    Result<std::unique_ptr<ShardedTable>> table =
        MakeTable(dims, /*shards=*/1 + seed % 3);
    ASSERT_TRUE(table.ok());
    ShardedTable& t = **table;
    std::vector<uint64_t> live_p, live_t;
    std::vector<double> coords(dims);

    for (int step = 0; step < 220; ++step) {
      const uint64_t roll = rng.NextUint64(100);
      if (roll < 40 || (roll < 70 && live_p.size() < 3)) {
        for (double& c : coords) c = rng.NextDouble();
        Result<uint64_t> id = t.InsertCompetitor(coords);
        ASSERT_TRUE(id.ok());
        live_p.push_back(*id);
      } else if (roll < 55) {
        for (double& c : coords) c = rng.NextDouble();
        Result<uint64_t> id = t.InsertProduct(coords);
        ASSERT_TRUE(id.ok());
        live_t.push_back(*id);
      } else if (roll < 70 && !live_p.empty()) {
        const size_t at = static_cast<size_t>(rng.NextUint64(live_p.size()));
        ASSERT_TRUE(t.EraseCompetitor(live_p[at]).ok());
        live_p[at] = live_p.back();
        live_p.pop_back();
      } else if (roll < 80 && !live_t.empty()) {
        const size_t at = static_cast<size_t>(rng.NextUint64(live_t.size()));
        ASSERT_TRUE(t.EraseProduct(live_t[at]).ok());
        live_t[at] = live_t.back();
        live_t.pop_back();
      } else if (roll < 85) {
        RebuildNow(&t);
      } else {
        const size_t k = 1 + static_cast<size_t>(rng.NextUint64(8));
        ServeStats stats;
        Result<std::vector<UpgradeResult>> overlay_top = TopK(
            t.AcquireViews(), CostFn(dims), k, 1e-6, nullptr, &stats);
        ASSERT_TRUE(overlay_top.ok()) << overlay_top.status().ToString();

        // Oracle: fold everything into a fresh snapshot, query with an
        // empty overlay and no cache.
        Result<std::vector<UpgradeResult>> oracle_top =
            TopK(CleanView(&t), CostFn(dims), k);
        ASSERT_TRUE(oracle_top.ok());
        ExpectExactlyEqual(*overlay_top, *oracle_top,
                           "seed=" + std::to_string(seed) +
                               " step=" + std::to_string(step));
      }
    }
  }
}

TEST(TopKOverlayTest, MaskAwareProbeServesSkylineMemberDeathWithoutRescan) {
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  // One dominating competitor, one dominated one; snapshot them.
  Result<uint64_t> strong = t.InsertCompetitor({0.1, 0.1});
  ASSERT_TRUE(strong.ok());
  ASSERT_TRUE(t.InsertCompetitor({0.4, 0.4}).ok());
  ASSERT_TRUE(t.InsertProduct({0.9, 0.9}).ok());
  RebuildNow(&t);

  // Killing the skyline member after the snapshot used to force a full
  // linear rescan; the mask-aware probe now surfaces the competitor it
  // was masking directly from the index, with no fallback.
  ASSERT_TRUE(t.EraseCompetitor(*strong).ok());
  ServeStats stats;
  Result<std::vector<UpgradeResult>> top =
      TopK(t.AcquireViews(), CostFn(2), 1, 1e-6, nullptr, &stats);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(stats.erase_fallback_scans, 0u);
  EXPECT_EQ(stats.candidates_evaluated, 1u);
  // The dead row attains the live box's min corner, so this query must
  // have sat out the prune rather than trusting a stale face.
  EXPECT_EQ(stats.prune_disabled_queries, 1u);

  // And the surviving competitor now drives the upgrade target.
  ASSERT_EQ(top->size(), 1u);
  Result<std::vector<UpgradeResult>> oracle =
      TopK(CleanView(&t), CostFn(2), 1);
  ASSERT_TRUE(oracle.ok());
  ExpectExactlyEqual(*top, *oracle, "post-erase");
}

TEST(TopKOverlayTest, SoundPrunePreservesExactTopKAcrossPatchedEpochs) {
  // A workload big enough for the prune to actually fire: many dominated
  // products, small k, erases and inserts folded through patch publishes.
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  Rng rng(20260807);
  std::vector<uint64_t> competitor_ids;
  std::vector<double> coords(2);
  for (int i = 0; i < 64; ++i) {
    for (double& c : coords) c = rng.NextDouble(0.1, 1.0);
    Result<uint64_t> id = t.InsertCompetitor(coords);
    ASSERT_TRUE(id.ok());
    competitor_ids.push_back(*id);
  }
  for (int i = 0; i < 32; ++i) {
    for (double& c : coords) c = rng.NextDouble(1.0, 2.0);
    ASSERT_TRUE(t.InsertProduct(coords).ok());
  }
  RebuildNow(&t);

  RebuildPolicy policy;
  policy.threshold_ops = 2;
  const uint64_t patches_before = t.patches_published();
  for (int round = 0; round < 12; ++round) {
    const size_t at =
        static_cast<size_t>(rng.NextUint64(competitor_ids.size()));
    ASSERT_TRUE(t.EraseCompetitor(competitor_ids[at]).ok());
    competitor_ids[at] = competitor_ids.back();
    competitor_ids.pop_back();
    for (double& c : coords) c = rng.NextDouble(0.1, 1.0);
    Result<uint64_t> id = t.InsertCompetitor(coords);
    ASSERT_TRUE(id.ok());
    competitor_ids.push_back(*id);
    ASSERT_TRUE(t.MaybePublishInline(policy).ok());

    ServeStats stats;
    Result<std::vector<UpgradeResult>> pruned = TopK(
        t.AcquireViews(), CostFn(2), 2, 1e-6, nullptr, &stats);
    ASSERT_TRUE(pruned.ok());
    Result<std::vector<UpgradeResult>> oracle =
        TopK(CleanView(&t), CostFn(2), 2);
    ASSERT_TRUE(oracle.ok());
    ExpectExactlyEqual(*pruned, *oracle,
                       "round=" + std::to_string(round));
    EXPECT_EQ(stats.erase_fallback_scans, 0u);
  }
  // Every round's 2-op backlog crossed the threshold against a well-fed
  // indexed base, so the publishes above really were patches.
  EXPECT_GT(t.patches_published(), patches_before);
}

TEST(TopKOverlayTest, CancelledControlUnwinds) {
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  ASSERT_TRUE(t.InsertCompetitor({0.1, 0.1}).ok());
  ASSERT_TRUE(t.InsertProduct({0.9, 0.9}).ok());
  QueryControl control;
  control.Cancel();
  Result<std::vector<UpgradeResult>> top =
      TopK(t.AcquireViews(), CostFn(2), 1, 1e-6, &control);
  ASSERT_FALSE(top.ok());
  EXPECT_EQ(top.status().code(), StatusCode::kCancelled);
}

TEST(TopKOverlayTest, StatsCountDeltaScans) {
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.InsertCompetitor({0.2 + 0.1 * i, 0.8 - 0.1 * i}).ok());
  }
  ASSERT_TRUE(t.InsertProduct({0.9, 0.9}).ok());
  ServeStats stats;
  ASSERT_TRUE(
      TopK(t.AcquireViews(), CostFn(2), 1, 1e-6, nullptr, &stats).ok());
  EXPECT_EQ(stats.delta_ops_scanned, 5u);
  EXPECT_EQ(stats.candidates_evaluated, 1u);
  EXPECT_EQ(stats.erase_fallback_scans, 0u);
}

}  // namespace
}  // namespace skyup
