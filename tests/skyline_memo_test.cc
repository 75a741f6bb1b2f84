// The epoch-scoped skyline memo (serve/skyline_memo.h): exact-match
// semantics under key collisions, the three coordinates of the cache key
// (epoch, probe point, erased-indexed count), publish invalidation, the
// byte-budget eviction bound, and concurrent hit/store safety (run under
// TSan via the "serve" label's sanitizer legs).

#include "serve/skyline_memo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "serve/live_table.h"
#include "serve/rebuilder.h"
#include "util/random.h"

namespace skyup {
namespace {

std::vector<PointId> Rows(std::initializer_list<PointId> ids) {
  return std::vector<PointId>(ids);
}

TEST(SkylineMemoTest, HitRequiresExactEpochPointAndEraseCount) {
  SkylineMemo memo(/*dims=*/2, /*max_bytes=*/1 << 20);
  const std::vector<double> t = {0.25, 0.75};
  memo.Store(/*epoch=*/3, t.data(), /*erased_indexed=*/2, Rows({5, 9}));

  std::vector<PointId> rows;
  EXPECT_TRUE(memo.Lookup(3, t.data(), 2, &rows));
  EXPECT_EQ(rows, Rows({5, 9}));

  // Any single coordinate of the key off by one -> miss, not a wrong hit.
  EXPECT_FALSE(memo.Lookup(4, t.data(), 2, &rows));
  EXPECT_FALSE(memo.Lookup(3, t.data(), 3, &rows));
  const std::vector<double> nearby = {0.25, 0.7500000001};
  EXPECT_FALSE(memo.Lookup(3, nearby.data(), 2, &rows));
}

TEST(SkylineMemoTest, QuantizationCollisionsStayExact) {
  // The bucket key truncates mantissas, so points that differ only in low
  // mantissa bits collide into one bucket. Collisions must never alias:
  // each stored point answers only for its exact coordinates.
  SkylineMemo memo(2, 1 << 20);
  const double base = 0.333333333333333;
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 8; ++i) {
    // Perturb far below the 32-bit mantissa truncation granularity.
    points.push_back({base + static_cast<double>(i) * 1e-13, 0.5});
  }
  for (size_t i = 0; i < points.size(); ++i) {
    memo.Store(1, points[i].data(), 0, Rows({static_cast<PointId>(i)}));
  }
  std::vector<PointId> rows;
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(memo.Lookup(1, points[i].data(), 0, &rows)) << i;
    EXPECT_EQ(rows, Rows({static_cast<PointId>(i)})) << i;
  }
  // Signed zero: -0.0 == 0.0 under IEEE comparison, and the probe cannot
  // distinguish them either, so a hit across the two is sound. The key
  // must therefore collapse them (a split would be a needless miss, a
  // crash would be a bug); accept either result value but require that a
  // lookup with one spelling after storing the other does not alias some
  // unrelated entry.
  const std::vector<double> pos = {0.0, 0.5};
  const std::vector<double> neg = {-0.0, 0.5};
  memo.Store(1, pos.data(), 0, Rows({100}));
  ASSERT_TRUE(memo.Lookup(1, neg.data(), 0, &rows));
  EXPECT_EQ(rows, Rows({100}));
}

TEST(SkylineMemoTest, PublishDropsEverything) {
  SkylineMemo memo(2, 1 << 20);
  Rng rng(7);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.NextDouble(), rng.NextDouble()});
    memo.Store(1, points.back().data(), 0, Rows({static_cast<PointId>(i)}));
  }
  EXPECT_EQ(memo.entry_count(), 50u);
  memo.OnPublish();
  EXPECT_EQ(memo.entry_count(), 0u);
  EXPECT_EQ(memo.bytes_used(), 0u);
  std::vector<PointId> rows;
  for (const auto& p : points) {
    EXPECT_FALSE(memo.Lookup(1, p.data(), 0, &rows));
  }
}

TEST(SkylineMemoTest, EvictionKeepsBytesBounded) {
  // A deliberately tiny budget: stores far beyond it must evict rather
  // than grow. The bound is enforced per shard, so allow one in-flight
  // entry of slack per shard above the configured budget.
  const size_t budget = 8 << 10;
  SkylineMemo memo(3, budget);
  Rng rng(99);
  std::vector<double> t(3);
  std::vector<PointId> payload(64);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<PointId>(i);
  }
  for (int i = 0; i < 5000; ++i) {
    for (double& c : t) c = rng.NextDouble();
    memo.Store(1, t.data(), 0, payload);
  }
  EXPECT_GT(memo.evictions(), 0u);
  // Per-shard budget is max_bytes/16 + 1; eviction runs until under
  // budget *before* inserting the new entry, so the high-water mark is
  // one entry per shard above the budget.
  const size_t slack = 16 * (sizeof(void*) * 64 + 1024);
  EXPECT_LE(memo.bytes_used(), budget + slack);
  // The cache still works after heavy eviction churn.
  for (double& c : t) c = 0.5;
  memo.Store(1, t.data(), 0, Rows({42}));
  std::vector<PointId> rows;
  EXPECT_TRUE(memo.Lookup(1, t.data(), 0, &rows));
  EXPECT_EQ(rows, Rows({42}));
}

TEST(SkylineMemoTest, ConcurrentHitsStoresAndPublishes) {
  // Hammer one memo from several threads mixing stores, lookups, and
  // publishes; under TSan this is the data-race check, under plain builds
  // it checks that hits always return the value stored for that exact
  // key (epoch tag in the payload makes cross-epoch aliasing visible).
  SkylineMemo memo(2, 64 << 10);
  std::atomic<uint64_t> epoch{1};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};

  auto worker = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<PointId> rows;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t e = epoch.load(std::memory_order_relaxed);
      // A small point alphabet so threads genuinely share entries.
      std::vector<double> t = {
          0.1 * static_cast<double>(rng.NextUint64(16)),
          0.1 * static_cast<double>(rng.NextUint64(16))};
      if (memo.Lookup(e, t.data(), 0, &rows)) {
        hits.fetch_add(1, std::memory_order_relaxed);
        ASSERT_EQ(rows.size(), 3u);
        // Payload encodes its key: a hit from the wrong epoch or the
        // wrong point would be visible immediately.
        EXPECT_EQ(rows[0], static_cast<PointId>(e));
        EXPECT_EQ(rows[1], static_cast<PointId>(t[0] * 10.0 + 0.5));
        EXPECT_EQ(rows[2], static_cast<PointId>(t[1] * 10.0 + 0.5));
      } else {
        memo.Store(e, t.data(), 0,
                   Rows({static_cast<PointId>(e),
                         static_cast<PointId>(t[0] * 10.0 + 0.5),
                         static_cast<PointId>(t[1] * 10.0 + 0.5)}));
      }
    }
  };

  std::vector<std::thread> threads;
  for (uint64_t i = 0; i < 4; ++i) threads.emplace_back(worker, 1000 + i);
  for (int roll = 0; roll < 10; ++roll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    epoch.fetch_add(1, std::memory_order_relaxed);
    memo.OnPublish();
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_GT(hits.load(), 0u);
}

TEST(SkylineMemoTest, LiveTablePublishRollsTheMemo) {
  // End-to-end: the table-owned memo is dropped by CompleteRebuild, and
  // views carry the shared memo pointer.
  LiveTableOptions options;
  options.dims = 2;
  options.memo_cache_bytes = 1 << 20;
  Result<std::unique_ptr<LiveTable>> table = LiveTable::Create(options);
  ASSERT_TRUE(table.ok());
  LiveTable& t = **table;
  ASSERT_TRUE(t.InsertCompetitor({0.1, 0.2}).ok());
  ASSERT_TRUE(t.InsertProduct({0.9, 0.9}).ok());

  ReadView view = t.AcquireView();
  ASSERT_NE(view.memo, nullptr);
  const std::vector<double> probe = {0.5, 0.5};
  view.memo->Store(view.epoch(), probe.data(), 0, Rows({1}));
  std::vector<PointId> rows;
  EXPECT_TRUE(view.memo->Lookup(view.epoch(), probe.data(), 0, &rows));

  std::optional<LiveTable::RebuildJob> job = t.BeginRebuild();
  ASSERT_TRUE(job.has_value());
  Result<std::shared_ptr<const Snapshot>> merged = MergeSnapshot(
      *job->base, job->ops, job->next_epoch, t.index_options());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  t.CompleteRebuild(*merged);
  EXPECT_EQ(view.memo->entry_count(), 0u);
  EXPECT_FALSE(view.memo->Lookup(view.epoch(), probe.data(), 0, &rows));
  // The new view shares the same memo object.
  ReadView fresh = t.AcquireView();
  EXPECT_EQ(fresh.memo.get(), view.memo.get());
  EXPECT_GT(fresh.epoch(), view.epoch());
}

}  // namespace
}  // namespace skyup
