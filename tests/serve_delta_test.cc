// Tests for the delta pipeline (serve/delta_log.h, serve/live_table.h,
// serve/rebuilder.h): write-ahead hook ordering, overlay folding
// (insert/erase cancellation, erase bitmaps, SoA mirror), live-table
// update semantics, the freeze/merge/publish rebuild protocol including
// abandonment, and the inline publish step that drives it.

#include "serve/delta_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "serve/live_table.h"
#include "serve/rebuilder.h"
#include "serve/shard/sharded_table.h"

namespace skyup {
namespace {

Result<std::unique_ptr<LiveTable>> MakeTable(size_t dims) {
  LiveTableOptions options;
  options.dims = dims;
  return LiveTable::Create(options);
}

TEST(DeltaLogTest, AppendHookRunsBeforeVisibility) {
  DeltaLog log;
  std::vector<size_t> sizes_at_hook;
  log.SetAppendHook([&](const DeltaOp& op) {
    // Write-ahead contract: at hook time the op is NOT yet readable.
    sizes_at_hook.push_back(log.size());
    EXPECT_EQ(op.kind, DeltaKind::kInsert);
  });
  for (int i = 0; i < 3; ++i) {
    DeltaOp op;
    op.target = DeltaTarget::kCompetitor;
    op.kind = DeltaKind::kInsert;
    op.id = static_cast<uint64_t>(i + 1);
    op.coords = {0.1, 0.2};
    log.Append(std::move(op));
  }
  EXPECT_EQ(sizes_at_hook, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(log.size(), 3u);
}

TEST(DeltaLogTest, CopyPrefixClampsAndPreservesOrder) {
  DeltaLog log;
  for (uint64_t id = 1; id <= 4; ++id) {
    DeltaOp op;
    op.kind = DeltaKind::kErase;
    op.id = id;
    log.Append(std::move(op));
  }
  std::vector<DeltaOp> prefix = log.CopyPrefix(2);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[0].id, 1u);
  EXPECT_EQ(prefix[1].id, 2u);
  EXPECT_EQ(log.CopyPrefix(99).size(), 4u);
  log.Clear();
  EXPECT_TRUE(log.empty());
}

TEST(LiveTableTest, InsertEraseSemantics) {
  Result<std::unique_ptr<LiveTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  LiveTable& t = **table;

  Result<uint64_t> c1 = t.InsertCompetitor({0.1, 0.9});
  Result<uint64_t> c2 = t.InsertCompetitor({0.9, 0.1});
  Result<uint64_t> p1 = t.InsertProduct({0.5, 0.5});
  ASSERT_TRUE(c1.ok() && c2.ok() && p1.ok());
  EXPECT_EQ(*c1, 1u);
  EXPECT_EQ(*c2, 2u);
  EXPECT_EQ(*p1, 1u);  // per-table id spaces
  EXPECT_EQ(t.SampleDiagnostics().live_competitors, 2u);
  EXPECT_EQ(t.SampleDiagnostics().live_products, 1u);

  // Arity mismatch is rejected and changes nothing.
  EXPECT_EQ(t.InsertCompetitor({0.1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.SampleDiagnostics().live_competitors, 2u);

  EXPECT_TRUE(t.EraseCompetitor(1).ok());
  EXPECT_EQ(t.SampleDiagnostics().live_competitors, 1u);
  // Double-erase and unknown ids are kNotFound.
  EXPECT_EQ(t.EraseCompetitor(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(t.EraseProduct(42).code(), StatusCode::kNotFound);
}

TEST(LiveTableTest, ViewIsConsistentAtCaptureTime) {
  Result<std::unique_ptr<LiveTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  LiveTable& t = **table;
  ASSERT_TRUE(t.InsertCompetitor({0.2, 0.2}).ok());

  ReadView view = t.AcquireView();
  EXPECT_EQ(view.deltas.size(), 1u);

  // Later updates do not leak into the captured view.
  ASSERT_TRUE(t.InsertCompetitor({0.3, 0.3}).ok());
  EXPECT_EQ(view.deltas.size(), 1u);
  EXPECT_EQ(t.AcquireView().deltas.size(), 2u);
}

TEST(BuildOverlayTest, InsertThenEraseCancels) {
  Result<std::unique_ptr<LiveTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  LiveTable& t = **table;
  Result<uint64_t> a = t.InsertCompetitor({0.1, 0.1});
  Result<uint64_t> b = t.InsertCompetitor({0.2, 0.2});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(t.EraseCompetitor(*a).ok());

  DeltaOverlay overlay = BuildOverlay(t.AcquireView());
  ASSERT_EQ(overlay.inserted_competitors.size(), 1u);
  EXPECT_EQ(overlay.inserted_competitor_ids[0], *b);
  EXPECT_EQ(overlay.inserted_competitors.data(0)[0], 0.2);
  // The erased insert never reached the snapshot, so no bitmap entry.
  EXPECT_EQ(overlay.competitors_erased, 0u);
  // SoA mirror tracks the alive inserts.
  EXPECT_EQ(overlay.competitor_block.size(), 1u);
}

TEST(BuildOverlayTest, EraseOfBaseRowSetsBitmap) {
  Result<std::unique_ptr<LiveTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  LiveTable& t = **table;
  Result<uint64_t> a = t.InsertCompetitor({0.1, 0.1});
  Result<uint64_t> b = t.InsertCompetitor({0.2, 0.2});
  ASSERT_TRUE(a.ok() && b.ok());

  // Absorb both inserts into a snapshot, then erase one of them.
  std::optional<LiveTable::RebuildJob> job = t.BeginRebuild();
  ASSERT_TRUE(job.has_value());
  Result<std::shared_ptr<const Snapshot>> merged = MergeSnapshot(
      *job->base, job->ops, job->next_epoch, t.index_options());
  ASSERT_TRUE(merged.ok());
  t.CompleteRebuild(*merged);
  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_EQ(t.delta_backlog(), 0u);

  ASSERT_TRUE(t.EraseCompetitor(*a).ok());
  DeltaOverlay overlay = BuildOverlay(t.AcquireView());
  ASSERT_EQ(overlay.competitor_erased.size(), 2u);
  EXPECT_EQ(overlay.competitors_erased, 1u);
  EXPECT_NE(overlay.competitor_erased[0], 0);  // row 0 is id *a (id-sorted)
  EXPECT_EQ(overlay.competitor_erased[1], 0);
  EXPECT_EQ(overlay.live_competitors(*t.AcquireView().snapshot), 1u);
}

TEST(RebuildProtocolTest, FreezeMergePublishAbsorbsBacklog) {
  Result<std::unique_ptr<LiveTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  LiveTable& t = **table;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        t.InsertCompetitor({0.1 * (i + 1), 0.9 - 0.1 * i}).ok());
  }
  ASSERT_TRUE(t.InsertProduct({0.5, 0.5}).ok());
  ASSERT_TRUE(t.EraseCompetitor(2).ok());
  EXPECT_EQ(t.delta_backlog(), 7u);

  std::optional<LiveTable::RebuildJob> job = t.BeginRebuild();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->ops.size(), 7u);
  EXPECT_EQ(job->next_epoch, 2u);
  // A second BeginRebuild while one is in flight is refused.
  EXPECT_FALSE(t.BeginRebuild().has_value());

  // Updates during the merge stay visible and pending.
  ASSERT_TRUE(t.InsertCompetitor({0.7, 0.7}).ok());
  EXPECT_EQ(t.delta_backlog(), 8u);

  Result<std::shared_ptr<const Snapshot>> merged = MergeSnapshot(
      *job->base, job->ops, job->next_epoch, t.index_options());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ((*merged)->competitors().size(), 4u);  // 5 inserted - 1 erased
  EXPECT_EQ((*merged)->products().size(), 1u);
  t.CompleteRebuild(*merged);

  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_EQ(t.delta_backlog(), 1u);  // only the mid-merge insert remains
  EXPECT_EQ(t.SampleDiagnostics().live_competitors, 5u);
}

TEST(RebuildProtocolTest, AbandonReoffersFrozenOps) {
  Result<std::unique_ptr<LiveTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  LiveTable& t = **table;
  ASSERT_TRUE(t.InsertCompetitor({0.4, 0.4}).ok());

  std::optional<LiveTable::RebuildJob> job = t.BeginRebuild();
  ASSERT_TRUE(job.has_value());
  t.AbandonRebuild();
  EXPECT_EQ(t.epoch(), 1u);
  EXPECT_EQ(t.delta_backlog(), 1u);

  // The next rebuild sees the same op again.
  std::optional<LiveTable::RebuildJob> retry = t.BeginRebuild();
  ASSERT_TRUE(retry.has_value());
  ASSERT_EQ(retry->ops.size(), 1u);
  EXPECT_EQ(retry->ops[0].id, job->ops[0].id);
  t.AbandonRebuild();
}

// The deterministic serving mode's publish step: nothing below the
// threshold, then a major compaction or a patch per the policy.
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
  // The base snapshot has no indexed rows yet, so the first publish is
  // always a major compaction.
  Result<size_t> at = t.MaybePublishInline(policy);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(*at, 1u);
  EXPECT_EQ(t.rebuilds_published(), 1u);
  EXPECT_EQ(t.patches_published(), 0u);
  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_EQ(t.delta_backlog(), 0u);

  // A small backlog against an indexed base (1 tail row on 3 indexed is
  // under the 50% tail threshold) patches instead of rebuilding.
  ASSERT_TRUE(t.InsertCompetitor({0.4, 0.4}).ok());
  ASSERT_TRUE(t.InsertProduct({0.6, 0.6}).ok());
  ASSERT_TRUE(t.InsertProduct({0.7, 0.7}).ok());
  Result<size_t> patched = t.MaybePublishInline(policy);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(*patched, 1u);
  EXPECT_EQ(t.rebuilds_published(), 1u);
  EXPECT_EQ(t.patches_published(), 1u);
  EXPECT_EQ(t.epoch(), 3u);
  EXPECT_EQ(t.delta_backlog(), 0u);
  const LiveTable::Diagnostics diag = t.SampleDiagnostics();
  EXPECT_EQ(diag.live_competitors, 4u);
  EXPECT_EQ(diag.live_products, 2u);
}

TEST(LiveTableTest, WriteAheadHookObservesEveryAcceptedUpdate) {
  Result<std::unique_ptr<LiveTable>> table = MakeTable(2);
  ASSERT_TRUE(table.ok());
  LiveTable& t = **table;
  std::vector<DeltaOp> wal;
  t.SetAppendHook([&](const DeltaOp& op) { wal.push_back(op); });

  ASSERT_TRUE(t.InsertCompetitor({0.1, 0.2}).ok());
  ASSERT_TRUE(t.InsertProduct({0.3, 0.4}).ok());
  EXPECT_EQ(t.InsertProduct({0.3}).status().code(),
            StatusCode::kInvalidArgument);  // rejected: not logged
  ASSERT_TRUE(t.EraseCompetitor(1).ok());

  ASSERT_EQ(wal.size(), 3u);
  EXPECT_EQ(wal[0].target, DeltaTarget::kCompetitor);
  EXPECT_EQ(wal[0].kind, DeltaKind::kInsert);
  EXPECT_EQ(wal[1].target, DeltaTarget::kProduct);
  EXPECT_EQ(wal[2].kind, DeltaKind::kErase);
  EXPECT_EQ(wal[2].id, 1u);
}

}  // namespace
}  // namespace skyup
