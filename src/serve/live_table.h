#ifndef SKYUP_SERVE_LIVE_TABLE_H_
#define SKYUP_SERVE_LIVE_TABLE_H_

// The mutable heart of the serving layer: the current epoch's delta log
// (which carries its base snapshot), with the freeze/merge/publish
// protocol the rebuilder drives.
//
// Concurrency model: one mutex guards all mutable state (the epoch's log,
// the freeze point, the append hook). Updates append under it; a view is
// captured under it as pointers and counts (the snapshot, the log's chunk
// list, the prefix counts, the memo), so capture copies no op. Queries
// then read the snapshot and the log prefix in place, entirely outside
// the lock: the log never rewrites anything below a count, and every row
// below the captured counts was written before the capture released the
// mutex — point-in-time visibility is nothing more than the counts taken
// under the lock (serve/delta_log.h). The rebuild merge runs outside the
// lock against a frozen prefix of the same log. Old snapshots and old
// logs are reclaimed by shared_ptr when the last in-flight view drops.
// The discipline is machine-checked: every guarded member carries
// SKYUP_GUARDED_BY(mu_) and `mu_` sits in the kTable band of the global
// lock order (util/lock_order.h), above the substructure locks (memo
// shards) it nests.
//
// A LiveTable is one shard of a `ShardedTable` (serve/shard/
// sharded_table.h), the only id authority: it allocates the stable ids,
// validates erases against its routing maps, routes each op to its
// shard, drives the publish cycles, and owns the upgrade-result cache.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

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
  /// Write-ahead hook: observes every accepted op before any view can
  /// include it (a durability seam — tests assert on it, a real
  /// deployment would fsync a WAL record in it). Runs under the table
  /// mutex, so it must not call back into the table.
  using AppendHook = std::function<void(const DeltaOp&)>;

  /// Starts empty at epoch 1 (an empty snapshot is published immediately,
  /// so `AcquireView` never returns a null snapshot).
  static Result<std::unique_ptr<LiveTable>> Create(LiveTableOptions options);

  LiveTable(const LiveTable&) = delete;
  LiveTable& operator=(const LiveTable&) = delete;

  /// Inserts under a caller-chosen stable id and returns it. The sharded
  /// table allocates ids globally, in op order; here an id must exceed
  /// every id of its table this shard has seen (`kInvalidArgument`
  /// otherwise, as for id 0 and an arity mismatch). Every accepted update
  /// is in the delta log (and visible to subsequently captured views)
  /// before the call returns.
  Result<uint64_t> InsertCompetitorWithId(uint64_t id,
                                          const std::vector<double>& coords);
  Result<uint64_t> InsertProductWithId(uint64_t id,
                                       const std::vector<double>& coords);
  /// Erases a live row. An id that names no row of the snapshot or the
  /// log returns `kNotFound`; liveness itself is the caller's contract
  /// (the sharded table's routing maps drop an id at its erase), so an id
  /// must not be erased twice.
  Status EraseCompetitor(uint64_t id);
  Status EraseProduct(uint64_t id);

  /// Captures a consistent point-in-time view: the current snapshot plus
  /// every delta accepted so far, as pointers and counts. The view (and
  /// the epoch it pins) stays valid until dropped, across any number of
  /// later appends and publishes.
  ReadView AcquireView() const;

  /// Installs the write-ahead hook (null to clear).
  void SetAppendHook(AppendHook hook);

  uint64_t epoch() const;
  /// Delta ops not yet absorbed by a published snapshot.
  size_t delta_backlog() const;
  /// Seconds since the current snapshot was built.
  double snapshot_age_seconds() const;
  size_t dims() const { return options_.dims; }

  /// One consistent health snapshot for the flight recorder's periodic
  /// system samples — everything the individual accessors above report,
  /// plus the snapshot index's tombstone fraction, the skyline memo's
  /// footprint and the live row counts (snapshot plus digested view),
  /// all taken under ONE lock acquisition so the fields describe the
  /// same instant.
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
    DeltaPrefix ops;  ///< the frozen prefix of the epoch's log
    uint64_t next_epoch = 0;
  };

  /// Records a freeze point at the log's current end and hands back a
  /// merge job over the prefix before it, or nullopt when a rebuild is
  /// already in flight or there is nothing to absorb. While the job is
  /// outstanding, new updates keep appending to the same log past the
  /// freeze and remain query-visible via `AcquireView`. `allow_empty`
  /// offers a job even with no pending ops — the sharded table bumps
  /// every shard's epoch in lock-step, including shards that saw no
  /// traffic this cycle.
  std::optional<RebuildJob> BeginRebuild(bool allow_empty = false);

  /// Publishes the merged snapshot and starts its epoch's log, carrying
  /// over the ops appended past the freeze (erases re-resolved against
  /// `snapshot`). `snapshot` must be the merge of the outstanding job.
  void CompleteRebuild(std::shared_ptr<const Snapshot> snapshot);

  /// Abandons the outstanding job (merge failed); its ops stay pending
  /// and the next `BeginRebuild` re-offers them.
  void AbandonRebuild();

  size_t rtree_fanout() const { return options_.rtree_fanout; }

 private:
  LiveTable(LiveTableOptions options, std::shared_ptr<const Snapshot> initial);

  Result<uint64_t> Insert(DeltaTarget target, uint64_t id,
                          const std::vector<double>& coords);
  Status Erase(DeltaTarget target, uint64_t id);

  LiveTableOptions options_;

  mutable Mutex mu_ SKYUP_ACQUIRED_AFTER(lock_order::kTable)
      SKYUP_ACQUIRED_BEFORE(lock_order::kTableSub);
  /// The current epoch's log; its base is the current snapshot.
  DeltaLog log_ SKYUP_GUARDED_BY(mu_);
  /// The prefix offered to the in-flight rebuild; set iff one is.
  std::optional<DeltaPrefix> frozen_ SKYUP_GUARDED_BY(mu_);
  AppendHook hook_ SKYUP_GUARDED_BY(mu_);
  /// Shared epoch-scoped skyline memo; dropped wholesale on every publish
  /// under `mu_`. Null when `memo_cache_bytes == 0`.
  std::shared_ptr<SkylineMemo> memo_ SKYUP_GUARDED_BY(mu_);
};

}  // namespace skyup

#endif  // SKYUP_SERVE_LIVE_TABLE_H_
