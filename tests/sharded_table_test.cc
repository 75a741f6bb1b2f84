// Tests for the shard-per-core live state (serve/shard/sharded_table.h):
// option validation, global stable-id allocation in op order, erase
// routing through the id maps, the deterministic inline publish trigger
// on *total* backlog, the cross-shard epoch invariant (every captured
// view set is all-old or all-new and exactly one prefix of the op stream
// — including under concurrent publish cycles, which is the TSan-facing
// stress here), the upgrade-cache version stamp on captured views, the
// background coordinator's start-up publish, and aggregated diagnostics.

#include "serve/shard/sharded_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "util/random.h"

namespace skyup {
namespace {

ShardedTableOptions SmallOptions(size_t shards) {
  ShardedTableOptions options;
  options.dims = 2;
  options.shards = shards;
  options.partition_fit_after = 8;
  return options;
}

TEST(ShardedTableTest, CreateValidatesOptions) {
  ShardedTableOptions bad;
  bad.dims = 0;
  bad.shards = 2;
  EXPECT_FALSE(ShardedTable::Create(bad).ok());
  bad.dims = 2;
  bad.shards = 0;
  EXPECT_FALSE(ShardedTable::Create(bad).ok());
  bad.shards = kMaxShards + 1;
  EXPECT_FALSE(ShardedTable::Create(bad).ok());
  bad.shards = 2;
  bad.rtree_fanout = 1;
  EXPECT_FALSE(ShardedTable::Create(bad).ok());
  bad.rtree_fanout = 2;
  bad.shards = kMaxShards;
  EXPECT_TRUE(ShardedTable::Create(bad).ok());
}

// The view set's version stamp is the upgrade cache's validity clock: the
// count of ops the table had accepted when the views were captured. A
// publish empties the deltas but must not rewind the stamp (it is
// monotone), and the next accepted op — erases count too — moves the
// stamp and the captured deltas together.
TEST(ShardedTableTest, ViewVersionStampMatchesCapturedDeltas) {
  auto table = ShardedTable::Create(SmallOptions(2));
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  auto total_deltas = [](const ShardedView& views) {
    size_t n = 0;
    for (const ReadView& view : views.views) n += view.deltas.size();
    return n;
  };

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.InsertCompetitor({0.1 * (i + 1), 0.9 - 0.1 * i}).ok());
  }
  const ShardedView before = t.AcquireViews();
  EXPECT_EQ(before.version, 3u);
  EXPECT_EQ(total_deltas(before), 3u);
  ASSERT_NE(before.cache, nullptr);

  RebuildPolicy policy;
  policy.threshold_ops = 1;
  ASSERT_TRUE(t.MaybePublishInline(policy).ok());
  const ShardedView after = t.AcquireViews();
  EXPECT_EQ(after.version, 3u);
  EXPECT_EQ(total_deltas(after), 0u);

  ASSERT_TRUE(t.EraseCompetitor(1).ok());
  const ShardedView next = t.AcquireViews();
  EXPECT_EQ(next.version, 4u);
  EXPECT_EQ(total_deltas(next), 1u);
  // Earlier views are unaffected (capture-time consistency).
  EXPECT_EQ(before.version, 3u);
  EXPECT_EQ(total_deltas(before), 3u);
}

// A backlog that is already due when the coordinator starts — or that a
// nudge reported while a cycle was running — publishes right away, not
// one poll interval later.
TEST(ShardedTableTest, StartPublishesADueBacklogWithoutWaitingForThePoll) {
  auto table = ShardedTable::Create(SmallOptions(2));
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  RebuildPolicy policy;
  policy.threshold_ops = 4;
  policy.poll_interval_seconds = 30.0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.InsertCompetitor({0.1 * (i + 1), 0.9 - 0.1 * i}).ok());
  }
  const auto start = std::chrono::steady_clock::now();
  t.Start(policy);
  while (t.epoch() == 1 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_EQ(t.delta_backlog(), 0u);
  t.Stop();
}

TEST(ShardedTableTest, AllocatesGlobalIdsInOpOrder) {
  auto table = ShardedTable::Create(SmallOptions(3));
  ASSERT_TRUE(table.ok());
  Rng rng(1);
  // Competitors and products each count from 1, regardless of which
  // shard the rows land on — the single-table id sequence.
  for (uint64_t i = 1; i <= 20; ++i) {
    auto id = (*table)->InsertCompetitor(
        {rng.NextDouble(0, 1), rng.NextDouble(0, 1)});
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, i);
  }
  for (uint64_t i = 1; i <= 10; ++i) {
    auto id = (*table)->InsertProduct(
        {rng.NextDouble(0, 1), rng.NextDouble(0, 1)});
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, i);
  }
}

TEST(ShardedTableTest, ErasesRouteToTheOwningShard) {
  auto table = ShardedTable::Create(SmallOptions(4));
  ASSERT_TRUE(table.ok());
  Rng rng(2);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 40; ++i) {
    auto id = (*table)->InsertCompetitor(
        {rng.NextDouble(0, 1), rng.NextDouble(0, 1)});
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Every id erases exactly once; a second erase is kNotFound, and the
  // live counts confirm the rows really left their owning shards.
  for (const uint64_t id : ids) {
    EXPECT_TRUE((*table)->EraseCompetitor(id).ok()) << "id " << id;
    EXPECT_EQ((*table)->EraseCompetitor(id).code(), StatusCode::kNotFound);
  }
  EXPECT_EQ((*table)->SampleDiagnostics().live_competitors, 0u);
  EXPECT_EQ((*table)->EraseCompetitor(999).code(), StatusCode::kNotFound);
  EXPECT_EQ((*table)->EraseProduct(1).code(), StatusCode::kNotFound);
}

TEST(ShardedTableTest, RejectsArityMismatch) {
  auto table = ShardedTable::Create(SmallOptions(2));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->InsertCompetitor({0.5}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*table)->InsertProduct({0.1, 0.2, 0.3}).status().code(),
            StatusCode::kInvalidArgument);
}

// NaN breaks every dominance test and ±inf every cost; a refused insert
// allocates no id and leaves no op behind.
TEST(ShardedTableTest, RejectsNonFiniteCoordinates) {
  auto table = ShardedTable::Create(SmallOptions(2));
  ASSERT_TRUE(table.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& bad :
       {std::vector<double>{nan, 0.5}, {0.5, inf}, {-inf, 0.5}, {nan, nan}}) {
    EXPECT_EQ((*table)->InsertCompetitor(bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((*table)->InsertProduct(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ((*table)->delta_backlog(), 0u);
  auto id = (*table)->InsertCompetitor({0.5, 0.5});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1u);
}

TEST(ShardedTableTest, InlinePublishFiresOnTotalBacklog) {
  auto table = ShardedTable::Create(SmallOptions(3));
  ASSERT_TRUE(table.ok());
  RebuildPolicy policy;
  policy.threshold_ops = 10;
  Rng rng(3);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE((*table)
                    ->InsertCompetitor(
                        {rng.NextDouble(0, 1), rng.NextDouble(0, 1)})
                    .ok());
    auto published = (*table)->MaybePublishInline(policy);
    ASSERT_TRUE(published.ok());
    EXPECT_EQ(*published, 0u) << "below threshold at op " << i;
  }
  EXPECT_EQ((*table)->delta_backlog(), 9u);
  ASSERT_TRUE((*table)->InsertProduct({0.9, 0.9}).ok());
  auto published = (*table)->MaybePublishInline(policy);
  ASSERT_TRUE(published.ok());
  // One cycle publishes EVERY shard, including idle ones.
  EXPECT_EQ(*published, 3u);
  EXPECT_EQ((*table)->delta_backlog(), 0u);
  EXPECT_EQ((*table)->publish_cycles(), 1u);
  EXPECT_EQ((*table)->rebuilds_published(), 3u);
}

TEST(ShardedTableTest, EpochAdvancesInLockStepAcrossShards) {
  auto table = ShardedTable::Create(SmallOptions(5));
  ASSERT_TRUE(table.ok());
  RebuildPolicy policy;
  policy.threshold_ops = 4;
  const uint64_t epoch0 = (*table)->epoch();
  Rng rng(4);
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*table)
                      ->InsertCompetitor(
                          {rng.NextDouble(0, 1), rng.NextDouble(0, 1)})
                      .ok());
    }
    ASSERT_TRUE((*table)->MaybePublishInline(policy).ok());
    EXPECT_EQ((*table)->epoch(), epoch0 + 1 + cycle);
    const ShardedView view = (*table)->AcquireViews();
    ASSERT_EQ(view.views.size(), 5u);
    for (const ReadView& v : view.views) {
      EXPECT_EQ(v.epoch(), view.epoch) << "shard epoch diverged";
    }
  }
}

TEST(ShardedTableTest, ViewsPinTheirEpochAcrossLaterPublishes) {
  auto table = ShardedTable::Create(SmallOptions(2));
  ASSERT_TRUE(table.ok());
  RebuildPolicy policy;
  policy.threshold_ops = 1;
  ASSERT_TRUE((*table)->InsertCompetitor({0.4, 0.6}).ok());
  ASSERT_TRUE((*table)->MaybePublishInline(policy).ok());
  const ShardedView old_view = (*table)->AcquireViews();
  ASSERT_TRUE((*table)->InsertCompetitor({0.6, 0.4}).ok());
  ASSERT_TRUE((*table)->MaybePublishInline(policy).ok());
  EXPECT_EQ((*table)->epoch(), old_view.epoch + 1);
  for (const ReadView& v : old_view.views) {
    EXPECT_EQ(v.epoch(), old_view.epoch);
  }
}

TEST(ShardedTableTest, DiagnosticsAggregateAcrossShards) {
  auto table = ShardedTable::Create(SmallOptions(3));
  ASSERT_TRUE(table.ok());
  Rng rng(6);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*table)
                    ->InsertCompetitor(
                        {rng.NextDouble(0, 1), rng.NextDouble(0, 1)})
                    .ok());
  }
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        (*table)
            ->InsertProduct({rng.NextDouble(0, 1), rng.NextDouble(0, 1)})
            .ok());
  }
  const ShardedTable::Diagnostics diag = (*table)->SampleDiagnostics();
  EXPECT_EQ(diag.live_competitors, 30u);
  EXPECT_EQ(diag.live_products, 7u);
  EXPECT_EQ(diag.delta_backlog, 37u);
  EXPECT_EQ(diag.epoch, (*table)->epoch());
}

// The cross-shard epoch fence under fire: a writer pushes updates while
// a coordinator publishes cycles and readers continuously capture view
// sets. A reader must NEVER observe two shards at different epochs in
// one capture, and every capture must be exactly the first `version` ops
// of the stream — its live competitors, summed over shards, equal the
// precomputed count after that prefix, whether the cut fell before,
// inside or after a freeze/install. That is the all-old-or-all-new
// guarantee of the one fence. Run under TSan via the "parallel" label to
// also check the fence is data-race-free.
TEST(ShardedTableStressTest, ReadersNeverObserveMixedEpochs) {
  // The op stream, with the ids the table allocates (they count from 1
  // in op order), and live_after[v]: the live competitors after the
  // first v ops.
  struct Op {
    bool erase;
    uint64_t id;
    std::vector<double> coords;
  };
  Rng rng(7);
  std::vector<Op> ops;
  std::vector<uint64_t> live;
  std::vector<size_t> live_after = {0};
  uint64_t next_id = 1;
  for (int i = 0; i < 3000; ++i) {
    if (!live.empty() && rng.NextUint64(4) == 0) {
      const size_t at = static_cast<size_t>(rng.NextUint64(live.size()));
      ops.push_back(Op{true, live[at], {}});
      live[at] = live.back();
      live.pop_back();
    } else {
      ops.push_back(
          Op{false, next_id, {rng.NextDouble(0, 1), rng.NextDouble(0, 1)}});
      live.push_back(next_id++);
    }
    live_after.push_back(live.size());
  }

  auto table = ShardedTable::Create(SmallOptions(4));
  ASSERT_TRUE(table.ok());
  RebuildPolicy policy;
  policy.threshold_ops = 8;
  policy.poll_interval_seconds = 0.001;
  (*table)->Start(policy);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> captures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      DeltaMasks masks;
      while (!stop.load(std::memory_order_relaxed)) {
        const ShardedView view = (*table)->AcquireViews();
        size_t live_competitors = 0;
        for (const ReadView& v : view.views) {
          ASSERT_EQ(v.epoch(), view.epoch)
              << "mixed-epoch capture: shard at " << v.epoch()
              << " inside a view set stamped " << view.epoch;
          masks.Build(*v.snapshot, v.deltas);
          live_competitors +=
              masks.Live(DeltaTarget::kCompetitor, *v.snapshot, v.deltas);
        }
        ASSERT_LT(view.version, live_after.size());
        ASSERT_EQ(live_competitors, live_after[view.version])
            << "view set at version " << view.version << ", epoch "
            << view.epoch << " is not the first " << view.version << " ops";
        captures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.erase) {
      ASSERT_TRUE((*table)->EraseCompetitor(op.id).ok());
    } else {
      auto id = (*table)->InsertCompetitor(op.coords);
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(*id, op.id);
    }
    if (i % 256 == 0) (*table)->Nudge();
  }
  // The writer can outrun the coordinator's first poll; give it a
  // bounded window to publish at least one cycle before stopping (the
  // backlog is far above threshold, so a poll MUST fire a cycle).
  for (int spin = 0; spin < 5000 && (*table)->publish_cycles() == 0;
       ++spin) {
    (*table)->Nudge();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*table)->Stop();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(captures.load(), 0u);
  EXPECT_TRUE((*table)->last_error().ok());
  EXPECT_GT((*table)->publish_cycles(), 0u);
  EXPECT_EQ((*table)->SampleDiagnostics().live_competitors, live.size());
}

}  // namespace
}  // namespace skyup
