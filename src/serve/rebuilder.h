#ifndef SKYUP_SERVE_REBUILDER_H_
#define SKYUP_SERVE_REBUILDER_H_

// Snapshot publication: folding a frozen delta-log prefix into the next
// epoch. The prefix is already resolved (serve/delta_log.h): erases name
// the rows they kill, so a publish digests it with the same `DeltaMasks`
// a query uses and never maps an id. ShardedTable drives it — one
// publish cycle freezes, merges and installs every shard, either inline
// after an update (the deterministic mode replay uses) or on its
// coordinator thread. Publication is atomic: every shard installs under
// the writer side of the table fence (serve/shard/sharded_table.h);
// in-flight queries keep their pinned epochs until they drop them.
//
// Every publish is a major merge (`MergeSnapshot`): the live rows of the
// base and the prefix are re-packed with an STR bulk load, so each epoch
// starts with every competitor row indexed, live, and covered by an exact
// root MBR.

#include <cstdint>
#include <memory>

#include "serve/delta_log.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace skyup {

/// Pure merge: folds the resolved log prefix `ops` (of `base`'s epoch)
/// over `base` and bulk-loads the result as epoch `next_epoch`. Rows of
/// the result are ordered ascending by stable id — the base's live rows,
/// then the prefix's live inserts, whose ids are all larger — so merge
/// output is a deterministic function of (base, ops): the
/// replay-determinism and differential-fuzz anchor.
Result<std::shared_ptr<const Snapshot>> MergeSnapshot(
    const Snapshot& base, const DeltaPrefix& ops, uint64_t next_epoch,
    size_t rtree_fanout);

/// When to fold the delta log into the next snapshot.
struct RebuildPolicy {
  /// Publish once the backlog holds at least this many ops.
  size_t threshold_ops = 1024;
  /// Background coordinator poll interval between nudges.
  double poll_interval_seconds = 0.05;
};

}  // namespace skyup

#endif  // SKYUP_SERVE_REBUILDER_H_
