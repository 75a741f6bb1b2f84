// Snapshot-lifetime stress under concurrency (built for the TSan CI leg
// via the "serve" ctest label): reader threads continuously acquire views
// and query them while a writer thread churns updates and the table's
// background coordinator publishes fresh snapshots. Asserts that every
// query observes exactly one consistent epoch, that superseded snapshots
// stay fully usable while held (no use-after-free for TSan/ASan to find),
// and that epochs only move forward.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "serve/rebuilder.h"
#include "serve/server.h"
#include "serve/shard/shard_query.h"
#include "serve/shard/sharded_table.h"
#include "util/random.h"

namespace skyup {
namespace {

TEST(SnapshotLifetimeTest, ReadersHoldSnapshotsAcrossRebuildPublishes) {
  ShardedTableOptions table_options;
  table_options.dims = 3;
  Result<std::unique_ptr<ShardedTable>> table =
      ShardedTable::Create(table_options);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(3, 1e-3);
  auto top_k = [&](const ShardedView& view, size_t k) {
    std::vector<BatchQueryResult> out;
    TopKShardedBatch(view, cost_fn, {BatchQuery{k, nullptr}}, 1e-6, &out);
    return out.front().status;
  };

  // Seed some state so first views have work to do.
  {
    Rng rng(7);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(
          t.InsertCompetitor(
               {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
              .ok());
    }
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          t.InsertProduct(
               {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
              .ok());
    }
  }

  RebuildPolicy policy;
  policy.threshold_ops = 16;
  policy.poll_interval_seconds = 0.001;
  t.Start(policy);

  constexpr int kReaders = 4;
  constexpr uint64_t kTargetPublishes = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + static_cast<uint64_t>(r));
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const ShardedView view = t.AcquireViews();
        const uint64_t epoch_before = view.epoch;
        // Epochs a single reader observes never move backwards.
        if (epoch_before < last_epoch) {
          ++reader_failures;
          return;
        }
        last_epoch = epoch_before;
        const size_t k = 1 + static_cast<size_t>(rng.NextUint64(5));
        if (!top_k(view, k).ok()) {
          ++reader_failures;
          return;
        }
        // The view pins exactly one epoch for the whole query, no matter
        // how many publishes landed meanwhile.
        if (view.views.front().epoch() != epoch_before) {
          ++reader_failures;
          return;
        }
      }
    });
  }

  // One long-lived holder keeps the *initial* snapshot alive across every
  // publish; its data must stay intact (UAF would trip ASan/TSan and the
  // size check below).
  const ShardedView pinned = t.AcquireViews();
  const uint64_t pinned_epoch = pinned.epoch;
  const size_t pinned_rows =
      pinned.views.front().snapshot->competitors().size();

  // Writer churn on this thread until the coordinator has published at
  // least kTargetPublishes major compactions. The writer throttles on
  // backlog — otherwise it outruns the coordinator, every merge swallows
  // an enormous log, and overlay queries slow to a crawl before 3
  // compactions land.
  Rng rng(99);
  uint64_t writes = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (t.rebuilds_published() < kTargetPublishes &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(
        t.InsertCompetitor(
             {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
            .ok());
    ++writes;
    if (writes % 16 == 0) t.Nudge();
    while (t.delta_backlog() > 64 &&
           t.rebuilds_published() < kTargetPublishes &&
           std::chrono::steady_clock::now() < deadline) {
      t.Nudge();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_GE(t.rebuilds_published(), kTargetPublishes);

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  t.Stop();

  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_TRUE(t.last_error().ok()) << t.last_error().ToString();

  // The pinned view still answers queries against its original epoch.
  EXPECT_EQ(pinned.views.front().epoch(), pinned_epoch);
  EXPECT_EQ(pinned.views.front().snapshot->competitors().size(), pinned_rows);
  EXPECT_TRUE(top_k(pinned, 3).ok());
  EXPECT_LT(pinned_epoch, t.epoch());
}

TEST(SnapshotLifetimeTest, ServerSubmitStormAcrossRebuilds) {
  // End-to-end variant through the Server: concurrent Submit() traffic
  // while updates stream in and the background coordinator publishes.
  ServerOptions options;
  options.dims = 2;
  options.query_threads = 3;
  options.max_pending = 256;
  options.rebuild_threshold_ops = 32;
  options.background_rebuild = true;
  Result<std::unique_ptr<Server>> server = Server::Create(
      ProductCostFunction::ReciprocalSum(2, 1e-3), options);
  ASSERT_TRUE(server.ok());
  Server& s = **server;

  Rng rng(5);
  std::vector<std::future<QueryResponse>> pending;
  for (int round = 0; round < 400; ++round) {
    ASSERT_TRUE(
        s.InsertCompetitor({rng.NextDouble(), rng.NextDouble()}).ok());
    if (round % 3 == 0) {
      ASSERT_TRUE(
          s.InsertProduct({rng.NextDouble(), rng.NextDouble()}).ok());
    }
    QueryRequest request;
    request.k = 2;
    pending.push_back(s.Submit(request));
    if (pending.size() >= 64) {
      for (std::future<QueryResponse>& f : pending) {
        QueryResponse response = f.get();
        // Admission may reject under load; anything else must succeed.
        ASSERT_TRUE(response.status.ok() ||
                    response.status.code() ==
                        StatusCode::kResourceExhausted)
            << response.status.ToString();
      }
      pending.clear();
    }
  }
  for (std::future<QueryResponse>& f : pending) f.get();

  ServeStats stats = s.stats();
  EXPECT_GT(stats.queries_executed, 0u);
  EXPECT_GT(stats.rebuilds_published, 0u);
}

}  // namespace
}  // namespace skyup
