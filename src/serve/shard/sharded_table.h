#ifndef SKYUP_SERVE_SHARD_SHARDED_TABLE_H_
#define SKYUP_SERVE_SHARD_SHARDED_TABLE_H_

// The serve tier's live state: N spatial shards (each its epoch's delta
// log, which carries the base snapshot, and a skyline memo) behind one
// id space, one spatial router, one cross-shard epoch, one *global*
// upgrade-result cache and one lock. Every `Server` holds exactly one;
// N = 1 is the single-table case.
//
// Invariants this file owns:
//
//   * Global stable ids. Ids are allocated here, in op order, from one
//     pair of counters (competitors and products each count from 1) —
//     independent of the shard count, which is what keeps `--shards N`
//     replays byte-identical to `--shards 1`. This table is the only id
//     authority: a routing map remembers each live id's shard, so erases
//     find their row and an erase of a dead id never reaches a shard.
//
//   * One fence, one cut. `route_mu_` is the only lock on shard state.
//     Every op holds its writer side from id allocation through the cache
//     feed to the log append, and every publish installs all shards under
//     it; `AcquireViews` stamps the cache clock and captures every shard
//     under the reader side. A view set is therefore one cut of the op
//     stream — exactly the first `version` ops, every shard at one epoch
//     — and a query sees all-old or all-new, never a mix. Capture copies
//     pointers and counts only (serve/delta_log.h), so the shared section
//     is short. Publishes are *cycles*: every shard is frozen at one cut
//     (a view capture), merged outside the fence, then installed together,
//     so per-shard epochs never diverge (idle shards re-pack their rows
//     to keep step).
//
//   * Deterministic publish instants. The inline trigger fires on the
//     *total* backlog across shards, so cycle boundaries in `--replay`
//     are a pure function of the op stream, independent of shard count.
//
//   * One upgrade cache, global dominators. A per-shard cache would hold
//     outcomes derived from shard-local dominator sets — unsound to serve
//     as global answers — so this table feeds a single cache with the
//     routed op stream instead, under `route_mu_` in id-allocation order,
//     *before* the op reaches its shard. An entry therefore survives only
//     ops that provably leave its global dominator skyline unchanged
//     (serve/upgrade_cache.h). Because the clock is stamped inside the
//     same cut as the views, a view at `version` contains exactly the ops
//     the clock counted, and `Store`'s no-op-landed check makes an
//     entry's version exact.
//
// Old snapshots and old logs are reclaimed by shared_ptr when the last
// in-flight view drops. The scatter-gather query engine over the captured
// views lives in serve/shard/shard_query.h.

#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/delta_log.h"
#include "serve/rebuilder.h"
#include "serve/shard/partitioner.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace skyup {

class UpgradeCache;

/// Upper bound on `ShardedTableOptions::shards`: every shard holds its own
/// snapshot, log and memo (and a query scatters one task per shard), so a
/// shard count is bounded by hardware, not by the caller.
inline constexpr size_t kMaxShards = 256;

struct ShardedTableOptions {
  size_t dims = 0;    ///< required, >= 1
  size_t shards = 1;  ///< required, in [1, kMaxShards]
  /// Fanout of the per-snapshot STR bulk load; required, >= 2.
  size_t rtree_fanout = 64;
  /// Total byte budget of the epoch-scoped skyline memos
  /// (serve/skyline_memo.h), split evenly across shards; 0 disables
  /// memoization.
  size_t memo_cache_bytes = 0;
  /// Competitor inserts routed to shard 0 before the STR tiles are fitted
  /// (serve/shard/partitioner.h).
  size_t partition_fit_after = 256;
};

/// All shard views of one epoch, captured atomically with respect to
/// publish cycles.
struct ShardedView {
  std::vector<ReadView> views;  ///< views[s] is shard s
  uint64_t epoch = 0;           ///< common epoch of every view
  /// The table's global upgrade-result cache and its validity clock at
  /// capture: the count of ops the table had accepted, over the
  /// cross-shard op stream (serve/upgrade_cache.h). A null cache disables
  /// caching for queries through this view set.
  uint64_t version = 0;
  std::shared_ptr<UpgradeCache> cache;
};

class ShardedTable {
 public:
  /// Starts empty at epoch 1 (every shard on an empty snapshot, so a
  /// view never holds a null snapshot).
  static Result<std::unique_ptr<ShardedTable>> Create(
      ShardedTableOptions options);
  ~ShardedTable();

  ShardedTable(const ShardedTable&) = delete;
  ShardedTable& operator=(const ShardedTable&) = delete;

  /// Update API: global stable ids in op order, `kNotFound` for dead
  /// ids, `kInvalidArgument` for arity or a NaN/±inf coordinate. Every
  /// accepted update is in its shard's log (and visible to subsequently
  /// captured views) before the call returns.
  Result<uint64_t> InsertCompetitor(const std::vector<double>& coords);
  Result<uint64_t> InsertProduct(const std::vector<double>& coords);
  Status EraseCompetitor(uint64_t id);
  Status EraseProduct(uint64_t id);

  /// Captures one consistent view of every shard: all at the same epoch
  /// and holding exactly the first `version` accepted ops (ops and
  /// publish installs are excluded for the duration of the capture). The
  /// views stay valid until dropped, across any number of later appends
  /// and publishes.
  ShardedView AcquireViews() const;

  /// Deterministic-mode publish check: one cycle when the total backlog
  /// reaches `policy.threshold_ops`. Returns the number of shard
  /// publishes performed (0 = below threshold).
  Result<size_t> MaybePublishInline(const RebuildPolicy& policy);

  /// Background coordination: a coordinator thread publishes a cycle
  /// whenever the backlog reaches `policy.threshold_ops` — checked at
  /// start-up, after every cycle, on every Nudge and every
  /// `poll_interval_seconds`. Start/Stop are externally serialized;
  /// Nudge wakes the loop early.
  void Start(const RebuildPolicy& policy);
  void Stop();
  void Nudge();

  /// Common epoch of all shards.
  uint64_t epoch() const;
  /// Total delta ops not yet absorbed, across shards.
  size_t delta_backlog() const;

  /// One consistent health sample for the flight recorder's periodic
  /// system samples and the metrics gauges, taken from one view set so
  /// the fields describe the same cut (the memo footprint is read just
  /// after it): the common epoch and its snapshot age, sums of backlog,
  /// memo footprint and live rows (snapshot plus log) over shards, and
  /// the largest share of any shard's index that pending erases mask.
  struct Diagnostics {
    uint64_t epoch = 0;
    double snapshot_age_seconds = 0;
    uint64_t delta_backlog = 0;
    double tombstone_pct = 0;  ///< masked share of indexed rows, in %
    uint64_t memo_bytes = 0;   ///< 0 when memoization is disabled
    uint64_t live_competitors = 0;
    uint64_t live_products = 0;
  };
  Diagnostics SampleDiagnostics() const;

  /// Shard publishes (STR merges), summed over cycles (one cycle
  /// publishes every shard).
  uint64_t rebuilds_published() const;
  uint64_t publish_cycles() const;
  Status last_error() const;

 private:
  /// One spatial shard. Unsynchronized: `route_mu_` guards it.
  struct Shard {
    /// The current epoch's log; its base is the current snapshot.
    DeltaLog log;
    /// Epoch-scoped skyline memo shared by every view of this shard;
    /// dropped wholesale at each install. Null when memoization is off.
    std::shared_ptr<SkylineMemo> memo;
  };

  explicit ShardedTable(ShardedTableOptions options);

  Result<uint64_t> Insert(DeltaTarget target,
                          const std::vector<double>& coords);
  Status Erase(DeltaTarget target, uint64_t id);
  Result<size_t> PublishCycle() SKYUP_REQUIRES(coord_mu_);
  bool ShouldPublish(const RebuildPolicy& policy) const;
  void Loop() SKYUP_EXCLUDES(coord_mu_);

  ShardedTableOptions options_;

  /// The global upgrade-result cache (see the class comment). Set once in
  /// Create and never reseated; the cache is internally synchronized, so
  /// only the *feed order* needs `route_mu_` (OnDeltaOp is called while
  /// it is held).
  std::shared_ptr<UpgradeCache> cache_;

  /// The table fence (see the class comment): writer side for id
  /// allocation, routing, the cache feed and the log append of one op,
  /// and for a publish install; reader side for view capture. kShardTable
  /// band: held while the memo and cache substructure locks are taken.
  mutable SharedMutex route_mu_ SKYUP_ACQUIRED_AFTER(lock_order::kShardTable)
      SKYUP_ACQUIRED_BEFORE(lock_order::kTableSub);
  std::vector<Shard> shards_ SKYUP_GUARDED_BY(route_mu_);
  std::unique_ptr<ShardPartitioner> partitioner_ SKYUP_GUARDED_BY(route_mu_);
  uint64_t next_competitor_id_ SKYUP_GUARDED_BY(route_mu_) = 1;
  uint64_t next_product_id_ SKYUP_GUARDED_BY(route_mu_) = 1;
  std::unordered_map<uint64_t, uint32_t> competitor_shard_
      SKYUP_GUARDED_BY(route_mu_);
  std::unordered_map<uint64_t, uint32_t> product_shard_
      SKYUP_GUARDED_BY(route_mu_);

  /// Publish-cycle serialization + coordinator handshake + counters. Sits
  /// above the kShardTable band: a cycle holds it across freeze, merge,
  /// and install (which take `route_mu_`).
  mutable Mutex coord_mu_ SKYUP_ACQUIRED_AFTER(lock_order::kRebuilder)
      SKYUP_ACQUIRED_BEFORE(lock_order::kShardTable);
  CondVar coord_cv_;
  bool running_ SKYUP_GUARDED_BY(coord_mu_) = false;
  bool stop_ SKYUP_GUARDED_BY(coord_mu_) = false;
  /// Written by Start() before the loop thread exists, read-only after —
  /// the thread's creation publishes it; no guard.
  RebuildPolicy policy_;
  uint64_t cycles_ SKYUP_GUARDED_BY(coord_mu_) = 0;
  Status last_error_ SKYUP_GUARDED_BY(coord_mu_);
  /// Start/Stop are externally serialized (class contract), no guard.
  std::thread coord_thread_;
};

}  // namespace skyup

#endif  // SKYUP_SERVE_SHARD_SHARDED_TABLE_H_
