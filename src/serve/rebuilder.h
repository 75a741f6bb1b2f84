#ifndef SKYUP_SERVE_REBUILDER_H_
#define SKYUP_SERVE_REBUILDER_H_

// Snapshot publication: folding a frozen delta-log prefix into the next
// epoch. ShardedTable drives it — one publish cycle freezes, merges and
// installs every shard, either inline after an update (the deterministic
// mode replay uses) or on its coordinator thread. Publication is atomic
// via `LiveTable::CompleteRebuild`; in-flight queries keep their pinned
// epochs until they drop them.
//
// Two publish flavors share the pipeline:
//   - *patch* (`PatchSnapshot`): O(rows) clone of the base — erases
//     become index tombstones with condensed MBRs, competitor inserts
//     join an unindexed tail, products are compacted. The common case.
//   - *major* (`MergeSnapshot`): full merge + STR bulk load. Demoted to
//     occasional compaction, triggered when the patched index would carry
//     too many tombstones or too large a tail (`RebuildPolicy`).

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/delta_log.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace skyup {

/// Pure merge: applies `ops` (append order) over `base` and bulk-loads the
/// result as epoch `next_epoch`. Rows of the result are ordered ascending
/// by stable id, so merge output is a deterministic function of
/// (base, ops) — the replay-determinism and differential-fuzz anchor.
/// Skips base rows the base snapshot itself already tombstoned.
Result<std::shared_ptr<const Snapshot>> MergeSnapshot(
    const Snapshot& base, const std::vector<DeltaOp>& ops,
    uint64_t next_epoch, RTreeOptions index_options);

/// What one publish cycle produced. Queries behave identically either
/// way; the distinction is purely cost/bookkeeping (ServeStats keeps
/// separate `patches_published` / `rebuilds_published` counters).
enum class PublishKind : uint8_t {
  kPatch,  ///< incremental PatchSnapshot publish
  kMajor,  ///< full MergeSnapshot compaction
};

/// When to fold the delta log into the next snapshot, and when a publish
/// must be a major compaction instead of a patch.
struct RebuildPolicy {
  /// Publish once the backlog holds at least this many ops.
  size_t threshold_ops = 1024;
  /// Also publish a non-empty backlog once the snapshot is older than
  /// this many seconds (<= 0 disables the age trigger — required for
  /// deterministic replay). Only the background coordinator applies it.
  double max_age_seconds = 0.0;
  /// Background coordinator poll interval between nudges.
  double poll_interval_seconds = 0.05;
  /// Storm hysteresis, background coordinator only: the age trigger never
  /// fires below this backlog, and no publish (either trigger) happens
  /// within this many seconds of the previous one. The op-count threshold
  /// still wins eventually, so a sustained burst is bounded by
  /// `threshold_ops`, not starved.
  size_t min_publish_backlog = 1;
  double min_publish_interval_seconds = 0.0;
  /// Patch-vs-major decision: publish a major compaction when the patched
  /// index would be at least this % tombstones, or the unindexed tail
  /// would reach this % of the indexed slot count. A base with no indexed
  /// rows always compacts (first publish, or everything previously
  /// erased). The defaults let the index carry half its slots as
  /// tombstones and a tail 1.5x its size before paying a full STR
  /// rebuild — the mask-aware probe and batched tail scan keep queries
  /// exact and fast well past these points, so compactions stay rare
  /// (single digits on the 20k-op churn bench).
  size_t compact_tombstone_pct = 50;
  size_t compact_tail_pct = 150;
};

/// Pure decision function for one publish cycle (exposed for tests and
/// the fuzzer): whether folding `ops` over `base` should patch or
/// compact, per `policy`.
PublishKind ChoosePublish(const Snapshot& base,
                          const std::vector<DeltaOp>& ops,
                          const RebuildPolicy& policy);

}  // namespace skyup

#endif  // SKYUP_SERVE_REBUILDER_H_
