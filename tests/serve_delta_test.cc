// Tests for the delta pipeline (serve/delta_log.h, serve/rebuilder.h)
// and the live table that drives it (serve/shard/sharded_table.h at one
// shard): resolution of ops at append, captured prefixes that later
// appends never disturb, the per-reader erase masks (insert/erase
// cancellation, snapshot erase masks), update semantics, the
// freeze/merge/install publish step including carry-over, and the inline
// publish trigger that drives it.

#include "serve/delta_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "serve/rebuilder.h"
#include "serve/shard/sharded_table.h"

namespace skyup {
namespace {

constexpr size_t kFanout = 64;

// The live table at one shard: every op lands in one log.
Result<std::unique_ptr<ShardedTable>> MakeTable(size_t dims) {
  ShardedTableOptions options;
  options.dims = dims;
  return ShardedTable::Create(options);
}

ReadView View(const ShardedTable& t) { return t.AcquireViews().views[0]; }

std::shared_ptr<const Snapshot> EmptySnapshot(size_t dims) {
  Result<std::shared_ptr<const Snapshot>> snapshot =
      Snapshot::Create(1, Dataset(dims), {}, Dataset(dims), {});
  EXPECT_TRUE(snapshot.ok());
  return *snapshot;
}

// Folds the table's whole backlog into its next epoch.
void Publish(ShardedTable* t) {
  RebuildPolicy policy;
  policy.threshold_ops = 1;
  Result<size_t> published = t->MaybePublishInline(policy);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  ASSERT_EQ(*published, 1u);
}

// Appends an erase of `id` the way the table does: resolved once, at
// append.
void AppendErase(DeltaLog* log, DeltaTarget target, uint64_t id) {
  const std::optional<DeltaErase> erase = log->Resolve(target, id);
  ASSERT_TRUE(erase.has_value()) << "id " << id << " is not live";
  log->AppendErase(*erase);
}

TEST(DeltaLogTest, CapturedPrefixIgnoresLaterAppends) {
  DeltaLog log(EmptySnapshot(2));
  // Cross a chunk boundary so later appends replace the chunk list.
  const size_t first = kDeltaChunkRows + 3;
  for (size_t i = 0; i < first; ++i) {
    const double coords[2] = {0.001 * static_cast<double>(i), 0.5};
    log.AppendInsert(DeltaTarget::kCompetitor, i + 1, coords);
  }
  const DeltaPrefix captured = log.prefix();
  for (size_t i = first; i < 3 * kDeltaChunkRows; ++i) {
    const double coords[2] = {0.001 * static_cast<double>(i), 0.25};
    log.AppendInsert(DeltaTarget::kCompetitor, i + 1, coords);
  }
  std::optional<DeltaErase> erase = log.Resolve(DeltaTarget::kCompetitor, 2);
  ASSERT_TRUE(erase.has_value());
  log.AppendErase(*erase);

  // The capture keeps its counts and its chunk list; the rows below its
  // counts read back exactly as appended, in id order.
  EXPECT_EQ(captured.size(), first);
  EXPECT_EQ(captured.competitors, first);
  EXPECT_EQ(captured.erases, 0u);
  EXPECT_EQ(captured.competitor_chunks(), 2u);
  EXPECT_EQ(captured.competitor_lanes(1).count, 3u);
  for (size_t i = 0; i < first; ++i) {
    EXPECT_EQ(captured.id(DeltaTarget::kCompetitor, i), i + 1);
    EXPECT_EQ(captured.row(DeltaTarget::kCompetitor, i)[1], 0.5);
    EXPECT_EQ(captured.competitor_lanes(i / kDeltaChunkRows)
                  .dim(0)[i % kDeltaChunkRows],
              0.001 * static_cast<double>(i));
  }
  EXPECT_EQ(log.size(), 3 * kDeltaChunkRows + 1);
  EXPECT_EQ(log.prefix().competitor_chunks(), 3u);
  EXPECT_EQ(log.prefix().erases, 1u);
}

TEST(DeltaLogTest, ResolvesIdsOnceAtAppend) {
  DeltaLog log(EmptySnapshot(1));
  for (uint64_t id = 10; id < 10 + 2 * kDeltaChunkRows; id += 2) {
    const double coords[1] = {static_cast<double>(id)};
    log.AppendInsert(DeltaTarget::kProduct, id, coords);
  }
  // Inserted ids are found by binary search across chunks; ids between
  // them, below them, or of the other table resolve to nothing.
  std::optional<DeltaErase> hit = log.Resolve(DeltaTarget::kProduct, 300);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->inserted);
  EXPECT_EQ(hit->row, 145);
  EXPECT_EQ(hit->target, DeltaTarget::kProduct);
  EXPECT_FALSE(log.Resolve(DeltaTarget::kProduct, 301).has_value());
  EXPECT_FALSE(log.Resolve(DeltaTarget::kProduct, 5).has_value());
  EXPECT_FALSE(log.Resolve(DeltaTarget::kCompetitor, 300).has_value());
  EXPECT_FALSE(log.AcceptsId(DeltaTarget::kProduct, 500));
  EXPECT_TRUE(log.AcceptsId(DeltaTarget::kProduct, 523));
  EXPECT_TRUE(log.AcceptsId(DeltaTarget::kCompetitor, 1));
}

// The live table's update semantics, at one shard so every op lands in
// the same log.
TEST(LiveTableTest, InsertEraseSemantics) {
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;

  Result<uint64_t> c1 = t.InsertCompetitor({0.1, 0.9});
  Result<uint64_t> c2 = t.InsertCompetitor({0.9, 0.1});
  Result<uint64_t> p1 = t.InsertProduct({0.5, 0.5});
  ASSERT_TRUE(c1.ok() && c2.ok() && p1.ok());
  EXPECT_EQ(*c1, 1u);
  EXPECT_EQ(*c2, 2u);
  EXPECT_EQ(*p1, 1u);  // per-table id spaces
  EXPECT_EQ(t.SampleDiagnostics().live_competitors, 2u);
  EXPECT_EQ(t.SampleDiagnostics().live_products, 1u);

  // Arity mismatches are rejected and change nothing.
  EXPECT_EQ(t.InsertCompetitor({0.1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.InsertProduct({0.1, 0.2, 0.3}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.SampleDiagnostics().live_competitors, 2u);
  EXPECT_EQ(t.delta_backlog(), 3u);

  EXPECT_TRUE(t.EraseCompetitor(1).ok());
  EXPECT_EQ(t.SampleDiagnostics().live_competitors, 1u);
  // Ids no live row carries — never allocated, or already erased — are
  // kNotFound and append nothing.
  EXPECT_EQ(t.EraseProduct(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(t.EraseCompetitor(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(t.EraseCompetitor(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(t.delta_backlog(), 4u);

  // After a publish the ids resolve against the snapshot instead, and new
  // ids keep counting past the snapshot's.
  Publish(&t);
  EXPECT_TRUE(t.EraseCompetitor(2).ok());
  EXPECT_EQ(t.EraseCompetitor(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(t.SampleDiagnostics().live_competitors, 0u);
  EXPECT_EQ(t.SampleDiagnostics().live_products, 1u);
  Result<uint64_t> c3 = t.InsertCompetitor({0.3, 0.3});
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ(*c3, 3u);
}

TEST(LiveTableTest, ViewIsConsistentAtCaptureTime) {
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  ASSERT_TRUE(t.InsertCompetitor({0.2, 0.2}).ok());

  const ReadView view = View(t);
  EXPECT_EQ(view.deltas.size(), 1u);

  // Later updates do not leak into the captured view.
  ASSERT_TRUE(t.InsertCompetitor({0.3, 0.3}).ok());
  ASSERT_TRUE(t.EraseCompetitor(1).ok());
  EXPECT_EQ(view.deltas.size(), 1u);
  EXPECT_EQ(view.deltas.competitors, 1u);
  EXPECT_EQ(view.deltas.erases, 0u);
  EXPECT_EQ(View(t).deltas.size(), 3u);
  DeltaMasks masks;
  masks.Build(*view.snapshot, view.deltas);
  EXPECT_EQ(masks.Live(DeltaTarget::kCompetitor, *view.snapshot, view.deltas),
            1u);
}

TEST(DeltaMasksTest, InsertThenEraseCancels) {
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  ASSERT_TRUE(t.InsertCompetitor({0.1, 0.1}).ok());
  ASSERT_TRUE(t.InsertCompetitor({0.2, 0.2}).ok());
  ASSERT_TRUE(t.EraseCompetitor(1).ok());

  const ReadView view = View(t);
  DeltaMasks masks;
  masks.Build(*view.snapshot, view.deltas);
  ASSERT_EQ(view.deltas.competitors, 2u);
  EXPECT_NE(masks.inserted_mask(DeltaTarget::kCompetitor)[0], 0);
  EXPECT_EQ(masks.inserted_mask(DeltaTarget::kCompetitor)[1], 0);
  EXPECT_EQ(view.deltas.id(DeltaTarget::kCompetitor, 1), 2u);
  EXPECT_EQ(view.deltas.row(DeltaTarget::kCompetitor, 1)[0], 0.2);
  // The erased insert never reached the snapshot, so no snapshot mask
  // entry and no erased-indexed tick.
  EXPECT_EQ(masks.snapshot_erased(DeltaTarget::kCompetitor), 0u);
  EXPECT_EQ(masks.inserted_erased(DeltaTarget::kCompetitor), 1u);
  EXPECT_EQ(view.deltas.erased_indexed, 0u);
  EXPECT_EQ(masks.Live(DeltaTarget::kCompetitor, *view.snapshot, view.deltas),
            1u);
}

TEST(DeltaMasksTest, EraseOfBaseRowSetsMask) {
  Result<std::unique_ptr<ShardedTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  ASSERT_TRUE(t.InsertCompetitor({0.1, 0.1}).ok());
  ASSERT_TRUE(t.InsertCompetitor({0.2, 0.2}).ok());

  // Absorb both inserts into a snapshot, then erase one of them.
  Publish(&t);
  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_EQ(t.delta_backlog(), 0u);

  ASSERT_TRUE(t.EraseCompetitor(1).ok());
  const ReadView view = View(t);
  DeltaMasks masks;
  masks.Build(*view.snapshot, view.deltas);
  EXPECT_EQ(masks.snapshot_erased(DeltaTarget::kCompetitor), 1u);
  // Row 0 is id 1 (rows are id-sorted).
  EXPECT_NE(masks.snapshot_mask(DeltaTarget::kCompetitor)[0], 0);
  EXPECT_EQ(masks.snapshot_mask(DeltaTarget::kCompetitor)[1], 0);
  // The first publish compacts, so both rows are indexed and the erase
  // ticks the memo's clock.
  EXPECT_EQ(view.deltas.erased_indexed, 1u);
  EXPECT_EQ(masks.Live(DeltaTarget::kCompetitor, *view.snapshot, view.deltas),
            1u);
}

// One shard's publish step by step, on the log itself: the freeze is a
// prefix (counts, no copy), the merge folds it outside any lock, and the
// install starts the next epoch's log with the ops appended past the
// freeze carried over.
TEST(RebuildProtocolTest, FreezeMergePublishAbsorbsBacklog) {
  DeltaLog log(EmptySnapshot(2));
  for (uint64_t i = 0; i < 5; ++i) {
    const double coords[2] = {0.1 * static_cast<double>(i + 1),
                              0.9 - 0.1 * static_cast<double>(i)};
    log.AppendInsert(DeltaTarget::kCompetitor, i + 1, coords);
  }
  const double product[2] = {0.5, 0.5};
  log.AppendInsert(DeltaTarget::kProduct, 1, product);
  AppendErase(&log, DeltaTarget::kCompetitor, 2);
  EXPECT_EQ(log.size(), 7u);

  const DeltaPrefix frozen = log.prefix();
  // Updates during the merge stay visible and pending — an insert, an
  // erase of a frozen insert, and an erase of an insert made mid-merge.
  const double late[2][2] = {{0.7, 0.7}, {0.8, 0.05}};
  log.AppendInsert(DeltaTarget::kCompetitor, 6, late[0]);
  log.AppendInsert(DeltaTarget::kCompetitor, 7, late[1]);
  AppendErase(&log, DeltaTarget::kCompetitor, 3);
  AppendErase(&log, DeltaTarget::kCompetitor, 7);
  EXPECT_EQ(log.size(), 11u);
  EXPECT_EQ(frozen.size(), 7u);

  Result<std::shared_ptr<const Snapshot>> merged =
      MergeSnapshot(*log.base(), frozen, /*next_epoch=*/2, kFanout);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ((*merged)->competitors().size(), 4u);  // 5 inserted - 1 erased
  EXPECT_EQ((*merged)->competitor_ids(), (std::vector<uint64_t>{1, 3, 4, 5}));
  EXPECT_EQ((*merged)->products().size(), 1u);
  DeltaLog next(*merged);
  next.CarryOver(log, frozen);

  // Only the four mid-merge ops remain, carried into the new epoch's log:
  // the erase of id 3 now names its snapshot row, the erase of id 7 the
  // carried insert.
  EXPECT_EQ(next.base()->epoch(), 2u);
  EXPECT_EQ(next.size(), 4u);
  const DeltaPrefix& carried = next.prefix();
  EXPECT_EQ(carried.competitors, 2u);
  ASSERT_EQ(carried.erases, 2u);
  EXPECT_FALSE(carried.erase(0).inserted);
  EXPECT_EQ(carried.erase(0).row, 1);  // id 3 is snapshot row 1
  EXPECT_TRUE(carried.erase(1).inserted);
  EXPECT_EQ(carried.erase(1).row, 1);  // id 7 is carried row 1
  EXPECT_EQ(carried.erased_indexed, 1u);
  DeltaMasks masks;
  masks.Build(*next.base(), carried);
  EXPECT_EQ(masks.Live(DeltaTarget::kCompetitor, *next.base(), carried),
            4u);  // 1, 4, 5, 6

  // The next publish folds the carried ops like any others.
  Result<std::shared_ptr<const Snapshot>> again =
      MergeSnapshot(*next.base(), carried, /*next_epoch=*/3, kFanout);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->competitor_ids(), (std::vector<uint64_t>{1, 4, 5, 6}));
}

// A merge over erases of indexed rows plus inserts indexes exactly the
// live rows: the index holds every one of them, ids ascend, and the root
// MBR is their exact bounding box — what the serve prune relies on at the
// start of every epoch.
TEST(RebuildProtocolTest, MergeIndexesExactlyTheLiveRows) {
  DeltaLog log(EmptySnapshot(2));
  const double first[4][2] = {
      {0.05, 0.9}, {0.3, 0.3}, {0.9, 0.02}, {0.5, 0.6}};
  for (uint64_t i = 0; i < 4; ++i) {
    log.AppendInsert(DeltaTarget::kCompetitor, i + 1, first[i]);
  }
  Result<std::shared_ptr<const Snapshot>> base =
      MergeSnapshot(*log.base(), log.prefix(), /*next_epoch=*/2, kFanout);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ((*base)->index().size(), 4u);

  // Erase the rows that attain three of the four faces, then insert two.
  DeltaLog next(*base);
  AppendErase(&next, DeltaTarget::kCompetitor, 1);
  AppendErase(&next, DeltaTarget::kCompetitor, 3);
  const double late[2][2] = {{0.4, 0.2}, {0.7, 0.45}};
  next.AppendInsert(DeltaTarget::kCompetitor, 5, late[0]);
  next.AppendInsert(DeltaTarget::kCompetitor, 6, late[1]);
  Result<std::shared_ptr<const Snapshot>> merged =
      MergeSnapshot(**base, next.prefix(), /*next_epoch=*/3, kFanout);
  ASSERT_TRUE(merged.ok());
  const Snapshot& snap = **merged;

  EXPECT_EQ(snap.index().size(), 4u);  // 2, 4, 5, 6
  EXPECT_EQ(snap.competitor_ids(), (std::vector<uint64_t>{2, 4, 5, 6}));
  EXPECT_TRUE(snap.index().Validate().ok());
  const Mbr root = snap.index().root_mbr();
  EXPECT_EQ(root.min(0), 0.3);
  EXPECT_EQ(root.min(1), 0.2);
  EXPECT_EQ(root.max(0), 0.7);
  EXPECT_EQ(root.max(1), 0.6);
}

// The deterministic serving mode's publish step: nothing below the
// threshold, then one STR merge per shard.
TEST(RebuildProtocolTest, InlinePublishHonorsThreshold) {
  ShardedTableOptions options;
  options.dims = 2;
  Result<std::unique_ptr<ShardedTable>> table = ShardedTable::Create(options);
  ASSERT_TRUE(table.ok());
  ShardedTable& t = **table;
  RebuildPolicy policy;
  policy.threshold_ops = 3;

  ASSERT_TRUE(t.InsertCompetitor({0.1, 0.1}).ok());
  Result<size_t> below = t.MaybePublishInline(policy);
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(*below, 0u);
  EXPECT_EQ(t.epoch(), 1u);

  ASSERT_TRUE(t.InsertCompetitor({0.2, 0.2}).ok());
  ASSERT_TRUE(t.InsertCompetitor({0.3, 0.3}).ok());
  Result<size_t> at = t.MaybePublishInline(policy);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(*at, 1u);
  EXPECT_EQ(t.rebuilds_published(), 1u);
  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_EQ(t.delta_backlog(), 0u);

  ASSERT_TRUE(t.InsertCompetitor({0.4, 0.4}).ok());
  ASSERT_TRUE(t.InsertProduct({0.6, 0.6}).ok());
  ASSERT_TRUE(t.InsertProduct({0.7, 0.7}).ok());
  Result<size_t> again = t.MaybePublishInline(policy);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 1u);
  EXPECT_EQ(t.rebuilds_published(), 2u);
  EXPECT_EQ(t.epoch(), 3u);
  EXPECT_EQ(t.delta_backlog(), 0u);
  ShardedTable::Diagnostics diag = t.SampleDiagnostics();
  EXPECT_EQ(diag.live_competitors, 4u);
  EXPECT_EQ(diag.live_products, 2u);
  EXPECT_EQ(diag.tombstone_pct, 0.0);

  // A pending erase of one of the four indexed rows: a quarter of the
  // index is what queries must mask.
  ASSERT_TRUE(t.EraseCompetitor(1).ok());
  diag = t.SampleDiagnostics();
  EXPECT_EQ(diag.live_competitors, 3u);
  EXPECT_EQ(diag.tombstone_pct, 25.0);
}

}  // namespace
}  // namespace skyup
