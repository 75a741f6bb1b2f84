#ifndef SKYUP_SERVE_LIVE_TABLE_H_
#define SKYUP_SERVE_LIVE_TABLE_H_

// The mutable heart of the serving layer: current snapshot + delta logs +
// stable-id allocation, with the freeze/merge/publish protocol the
// rebuilder drives.
//
// Concurrency model: one mutex guards all mutable state (snapshot pointer,
// frozen/active logs, id counters, live-id sets). Updates and view capture
// are short critical sections; queries run entirely outside the lock
// against their captured `ReadView`; the rebuild merge runs outside the
// lock against frozen data. Old snapshots are reclaimed by shared_ptr when
// the last in-flight view drops. The discipline is machine-checked: every
// guarded member carries SKYUP_GUARDED_BY(mu_) and `mu_` sits in the
// kTable band of the global lock order (util/lock_order.h), above the
// substructure locks (delta log, memo shards) it nests.
//
// A LiveTable is one shard of a `ShardedTable` (serve/shard/
// sharded_table.h), which allocates the stable ids, routes each op to its
// shard, drives the publish cycles, and owns the upgrade-result cache.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "rtree/rtree.h"
#include "serve/delta_log.h"
#include "serve/snapshot.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace skyup {

class SkylineMemo;

struct LiveTableOptions {
  size_t dims = 0;  ///< required, >= 1
  /// Fanout of the per-snapshot STR bulk load.
  size_t rtree_fanout = 64;
  /// Byte budget of the epoch-scoped skyline memo cache
  /// (serve/skyline_memo.h) handed to every view; 0 disables memoization.
  size_t memo_cache_bytes = 0;
};

class LiveTable {
 public:
  /// Starts empty at epoch 1 (an empty snapshot is published immediately,
  /// so `AcquireView` never returns a null snapshot).
  static Result<std::unique_ptr<LiveTable>> Create(LiveTableOptions options);

  LiveTable(const LiveTable&) = delete;
  LiveTable& operator=(const LiveTable&) = delete;

  /// Accepted updates return the new row's stable id; erases of unknown or
  /// already-erased ids return `kNotFound`, arity mismatches
  /// `kInvalidArgument`. Every accepted update is in the delta log (and
  /// visible to subsequently captured views) before the call returns.
  Result<uint64_t> InsertCompetitor(const std::vector<double>& coords);
  Result<uint64_t> InsertProduct(const std::vector<double>& coords);
  Status EraseCompetitor(uint64_t id);
  Status EraseProduct(uint64_t id);

  /// Insert with a caller-chosen stable id — the sharded table allocates
  /// ids globally (in op order, across shards) and routes each row to one
  /// shard, so per-shard counters cannot be the id authority. The id must
  /// be unique within this table (the caller's routing map guarantees it);
  /// the local counter advances past it so the auto-allocating inserts
  /// above stay collision-free if mixed.
  Result<uint64_t> InsertCompetitorWithId(uint64_t id,
                                          const std::vector<double>& coords);
  Result<uint64_t> InsertProductWithId(uint64_t id,
                                       const std::vector<double>& coords);

  /// Captures a consistent point-in-time view: the current snapshot plus
  /// every delta accepted so far. The view (and the epoch it pins) stays
  /// valid until dropped, across any number of later publishes.
  ReadView AcquireView() const;

  /// Write-ahead hook on the *active* log (serve/delta_log.h). Install
  /// before concurrent use.
  void SetAppendHook(DeltaLog::AppendHook hook);

  uint64_t epoch() const;
  /// Delta ops not yet absorbed by a published snapshot (frozen + active).
  size_t delta_backlog() const;
  /// Seconds since the current snapshot was built.
  double snapshot_age_seconds() const;
  size_t dims() const { return options_.dims; }

  /// One consistent health snapshot for the flight recorder's periodic
  /// system samples — everything the individual accessors above report,
  /// plus the snapshot index's tombstone fraction and the skyline memo's
  /// footprint, all read under ONE lock acquisition so the fields
  /// describe the same instant.
  struct Diagnostics {
    uint64_t epoch = 0;
    double snapshot_age_seconds = 0;
    uint64_t delta_backlog = 0;
    double tombstone_pct = 0;  ///< dead fraction of indexed slots, in %
    uint64_t memo_bytes = 0;   ///< 0 when memoization is disabled
    uint64_t live_competitors = 0;
    uint64_t live_products = 0;
  };
  Diagnostics SampleDiagnostics() const;

  /// One rebuild cycle's input, captured by `BeginRebuild`.
  struct RebuildJob {
    std::shared_ptr<const Snapshot> base;
    std::vector<DeltaOp> ops;  ///< everything frozen for this rebuild
    uint64_t next_epoch = 0;
  };

  /// Freezes the active log into the frozen log and hands back a merge
  /// job, or nullopt when a rebuild is already in flight or there is
  /// nothing to absorb. While the job is outstanding, new updates keep
  /// accumulating in the (reset) active log and remain query-visible via
  /// `AcquireView`. `allow_empty` offers a job even with no pending ops —
  /// the sharded table bumps every shard's epoch in lock-step, including
  /// shards that saw no traffic this cycle.
  std::optional<RebuildJob> BeginRebuild(bool allow_empty = false);

  /// Publishes the merged snapshot and drops the frozen ops it absorbed.
  /// `snapshot` must be the merge of the outstanding job.
  void CompleteRebuild(std::shared_ptr<const Snapshot> snapshot);

  /// Abandons the outstanding job (merge failed); the frozen ops stay
  /// pending and the next `BeginRebuild` re-offers them.
  void AbandonRebuild();

  const RTreeOptions& index_options() const { return index_options_; }

 private:
  explicit LiveTable(LiveTableOptions options);

  /// `forced_id` 0 = allocate from the local counter.
  Result<uint64_t> Insert(DeltaTarget target,
                          const std::vector<double>& coords,
                          uint64_t forced_id);
  Status Erase(DeltaTarget target, uint64_t id);

  LiveTableOptions options_;
  RTreeOptions index_options_;

  mutable Mutex mu_ SKYUP_ACQUIRED_AFTER(lock_order::kTable)
      SKYUP_ACQUIRED_BEFORE(lock_order::kTableSub);
  std::shared_ptr<const Snapshot> snapshot_ SKYUP_GUARDED_BY(mu_);
  /// Ops offered to the in-flight rebuild.
  std::vector<DeltaOp> frozen_ SKYUP_GUARDED_BY(mu_);
  /// The active log has its own internal lock, but every access (append,
  /// freeze, view copy, hook install) happens under `mu_` — that external
  /// serialization is what DeltaLog::Append's write-ahead contract relies
  /// on, so the member is guarded too.
  DeltaLog active_ SKYUP_GUARDED_BY(mu_);
  bool rebuild_in_flight_ SKYUP_GUARDED_BY(mu_) = false;
  uint64_t next_competitor_id_ SKYUP_GUARDED_BY(mu_) = 1;
  uint64_t next_product_id_ SKYUP_GUARDED_BY(mu_) = 1;
  std::unordered_set<uint64_t> live_competitors_ SKYUP_GUARDED_BY(mu_);
  std::unordered_set<uint64_t> live_products_ SKYUP_GUARDED_BY(mu_);
  /// Shared epoch-scoped skyline memo; dropped wholesale on every publish
  /// under `mu_`. Null when `memo_cache_bytes == 0`.
  std::shared_ptr<SkylineMemo> memo_ SKYUP_GUARDED_BY(mu_);
};

}  // namespace skyup

#endif  // SKYUP_SERVE_LIVE_TABLE_H_
