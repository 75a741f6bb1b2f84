// Tests for the serve tier's scatter-gather top-k (serve/shard/
// shard_query.h): the query is a pure function of the live value set, so
// results must not depend on publish state, worker count, or whether a
// query runs alone or inside a group — each checked bit-for-bit. Also
// pins the counter semantics (shard_queries/shard_fanout bump, cache
// counters track the GLOBAL upgrade cache — per-shard caches do not
// exist), the flight-recorder attribution struct, and the per-phase laps
// a solo query reports. Exactness against a from-scratch oracle at random
// shard counts lives in fuzz/fuzz_serve.cc and tests/serve_query_test.cc.

#include "serve/shard/shard_query.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost_function.h"
#include "util/random.h"

namespace skyup {
namespace {

constexpr double kEps = 1e-6;

// Drives a random op stream into an N-shard table.
std::unique_ptr<ShardedTable> BuildTable(size_t shards, uint64_t seed,
                                         int steps, size_t dims = 2) {
  ShardedTableOptions so;
  so.dims = dims;
  so.shards = shards;
  so.partition_fit_after = 16;
  auto table = ShardedTable::Create(so);
  EXPECT_TRUE(table.ok());

  Rng rng(seed);
  std::vector<uint64_t> live_p;
  std::vector<uint64_t> live_t;
  for (int i = 0; i < steps; ++i) {
    const uint64_t roll = rng.NextUint64(10);
    std::vector<double> coords(dims);
    for (double& c : coords) c = rng.NextDouble(0, 2);
    if (roll < 4 || live_p.size() < 2) {
      auto id = (*table)->InsertCompetitor(coords);
      EXPECT_TRUE(id.ok());
      live_p.push_back(*id);
    } else if (roll < 7) {
      auto id = (*table)->InsertProduct(coords);
      EXPECT_TRUE(id.ok());
      live_t.push_back(*id);
    } else if (roll < 9 && !live_p.empty()) {
      const size_t at = static_cast<size_t>(rng.NextUint64(live_p.size()));
      EXPECT_TRUE((*table)->EraseCompetitor(live_p[at]).ok());
      live_p[at] = live_p.back();
      live_p.pop_back();
    } else if (!live_t.empty()) {
      const size_t at = static_cast<size_t>(rng.NextUint64(live_t.size()));
      EXPECT_TRUE((*table)->EraseProduct(live_t[at]).ok());
      live_t[at] = live_t.back();
      live_t.pop_back();
    }
  }
  return std::move(*table);
}

// One query, alone — a group of one, the way Server::Query runs it.
Result<std::vector<UpgradeResult>> Solo(
    const ShardedView& view, const ProductCostFunction& cost_fn, size_t k,
    size_t threads = 0, ServeStats* stats = nullptr,
    QueryTelemetry* telemetry = nullptr, ShardQueryInfo* info = nullptr) {
  std::vector<BatchQueryResult> out;
  TopKShardedBatch(view, cost_fn, {BatchQuery{k, nullptr}}, kEps, threads,
                   &out, stats, telemetry, info);
  if (!out.front().status.ok()) return out.front().status;
  return std::move(out.front().results);
}

// The same view set with the upgrade cache detached: every candidate is
// recomputed from the shards.
ShardedView Uncached(ShardedView view) {
  view.cache.reset();
  return view;
}

void ExpectSameResults(const std::vector<UpgradeResult>& want,
                       const std::vector<UpgradeResult>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].product_id, want[i].product_id) << "rank " << i;
    // lint: float-eq-ok (differential: the same live value set must give
    // bit-identical answers)
    EXPECT_EQ(got[i].cost, want[i].cost) << "rank " << i;
    EXPECT_EQ(got[i].upgraded, want[i].upgraded) << "rank " << i;
    EXPECT_EQ(got[i].already_competitive, want[i].already_competitive)
        << "rank " << i;
  }
}

TEST(ShardQueryTest, PublishStateDoesNotChangeResults) {
  // Publishing moves rows from overlay to snapshot; the live value set —
  // and therefore the query answer — is unchanged. Query the all-overlay
  // state, publish, and query again without the cache.
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(3, 1e-3);
  std::unique_ptr<ShardedTable> table =
      BuildTable(/*shards=*/4, /*seed=*/77, /*steps=*/150, /*dims=*/3);
  auto want = Solo(Uncached(table->AcquireViews()), cost_fn, 10);
  ASSERT_TRUE(want.ok());
  RebuildPolicy policy;
  policy.threshold_ops = 1;
  auto published = table->MaybePublishInline(policy);
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 4u);
  auto got = Solo(Uncached(table->AcquireViews()), cost_fn, 10);
  ASSERT_TRUE(got.ok());
  ExpectSameResults(*want, *got);
}

TEST(ShardQueryTest, WorkerCountDoesNotChangeResults) {
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(2, 1e-3);
  std::unique_ptr<ShardedTable> table =
      BuildTable(/*shards=*/5, /*seed=*/13, /*steps=*/140);
  const ShardedView view = Uncached(table->AcquireViews());
  auto serial = Solo(view, cost_fn, 6, /*threads=*/1);
  ASSERT_TRUE(serial.ok());
  for (const size_t threads : {0u, 2u, 3u, 16u}) {
    auto got = Solo(view, cost_fn, 6, threads);
    ASSERT_TRUE(got.ok()) << "threads=" << threads;
    ExpectSameResults(*serial, *got);
  }
}

TEST(ShardQueryTest, EmptyProductSetYieldsEmptyResult) {
  ShardedTableOptions so;
  so.dims = 2;
  so.shards = 3;
  auto sharded = ShardedTable::Create(so);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->InsertCompetitor({0.5, 0.5}).ok());
  auto got = Solo((*sharded)->AcquireViews(),
                  ProductCostFunction::ReciprocalSum(2, 1e-3), 5);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(ShardQueryTest, BatchMembersMatchTheirSoloRuns) {
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(2, 1e-3);
  std::unique_ptr<ShardedTable> table =
      BuildTable(/*shards=*/3, /*seed=*/33, /*steps=*/140);
  const ShardedView view = Uncached(table->AcquireViews());
  // Mixed ks (duplicates included) plus one malformed member: the group
  // must resolve each member to exactly its solo outcome, and a bad
  // member fails alone without poisoning the group.
  std::vector<BatchQuery> batch;
  for (const size_t k : {1u, 4u, 4u, 9u, 100u}) {
    BatchQuery q;
    q.k = k;
    batch.push_back(q);
  }
  batch.push_back(BatchQuery{/*k=*/0, /*control=*/nullptr});
  for (const size_t threads : {0u, 1u, 2u, 8u}) {
    std::vector<BatchQueryResult> out;
    ServeStats stats;
    TopKShardedBatch(view, cost_fn, batch, kEps, threads, &out, &stats);
    ASSERT_EQ(out.size(), batch.size());
    for (size_t i = 0; i + 1 < out.size(); ++i) {
      ASSERT_TRUE(out[i].status.ok()) << "member " << i;
      auto solo = Solo(view, cost_fn, batch[i].k, /*threads=*/1);
      ASSERT_TRUE(solo.ok());
      ExpectSameResults(*solo, out[i].results);
    }
    EXPECT_EQ(out.back().status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.back().results.empty());
    EXPECT_EQ(stats.shard_queries, 5u) << "threads=" << threads;
    EXPECT_EQ(stats.shard_fanout, 15u) << "threads=" << threads;
  }
}

TEST(ShardQueryTest, CountersBumpAndGlobalCacheServesRepeats) {
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(2, 1e-3);
  std::unique_ptr<ShardedTable> table =
      BuildTable(/*shards=*/3, /*seed=*/21, /*steps=*/100);
  const ShardedView view = table->AcquireViews();
  // Per-shard caches do not exist (they would memoize shard-local
  // dominators); the global cache on the sharded view replaces them.
  ASSERT_NE(view.cache, nullptr);
  ServeStats stats;
  QueryTelemetry telemetry;
  ShardQueryInfo info;
  auto got = Solo(view, cost_fn, 4, /*threads=*/0, &stats, &telemetry,
                  &info);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.shard_queries, 1u);
  EXPECT_EQ(stats.shard_fanout, 3u);
  EXPECT_GT(stats.candidates_evaluated, 0u);
  // A cold cache: every live product misses, every outcome is stored.
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, stats.candidates_evaluated);
  EXPECT_EQ(info.shard_count, 3u);
  EXPECT_LT(info.slowest_shard, 3u);
  EXPECT_GE(info.slowest_shard_seconds, 0.0);
  // A solo query with telemetry laps its phases on every shard worker:
  // one breakdown row per shard, and the cold probes took time.
  EXPECT_EQ(telemetry.phases.per_shard.size(), 3u);
  EXPECT_GT(telemetry.phases.total.probe_seconds, 0.0);
  EXPECT_GT(telemetry.phases.total.upgrade_seconds, 0.0);

  // A repeat of the same query is served wholly from the cache — zero
  // candidate evaluations — and stays byte-identical.
  ServeStats repeat_stats;
  auto repeat = Solo(table->AcquireViews(), cost_fn, 4, /*threads=*/0,
                     &repeat_stats);
  ASSERT_TRUE(repeat.ok());
  ExpectSameResults(*got, *repeat);
  EXPECT_EQ(repeat_stats.cache_hits, stats.cache_misses);
  EXPECT_EQ(repeat_stats.cache_misses, 0u);
  EXPECT_EQ(repeat_stats.candidates_evaluated, 0u);

  // An update that can change dominator skylines invalidates through the
  // routed op stream: the next query recomputes (some misses) yet still
  // matches an uncached query over the updated state.
  ASSERT_TRUE(table->InsertCompetitor({0.01, 0.01}).ok());
  const ShardedView updated = table->AcquireViews();
  ServeStats warm_stats;
  auto warm = Solo(updated, cost_fn, 4, /*threads=*/0, &warm_stats);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm_stats.cache_misses, 0u);
  auto expect = Solo(Uncached(updated), cost_fn, 4);
  ASSERT_TRUE(expect.ok());
  ExpectSameResults(*expect, *warm);
}

}  // namespace
}  // namespace skyup
