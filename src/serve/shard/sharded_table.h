#ifndef SKYUP_SERVE_SHARD_SHARDED_TABLE_H_
#define SKYUP_SERVE_SHARD_SHARDED_TABLE_H_

// The serve tier's live state: N independent `LiveTable` shards (each
// with its own delta log, publish input, and skyline memo) behind one id
// space, one spatial router, one cross-shard epoch, and one *global*
// upgrade-result cache. Every `Server` holds exactly one; N = 1 is the
// single-table case.
//
// Invariants this file owns:
//
//   * Global stable ids. Ids are allocated here, in op order, from one
//     pair of counters (competitors and products each count from 1) —
//     independent of the shard count, which is what keeps `--shards N`
//     replays byte-identical to `--shards 1`.
//     A routing map remembers each id's shard so erases find their row.
//
//   * One epoch across all shards. Publishes are *cycles*: every shard is
//     frozen (two-phase: freeze all, merge all outside the locks, then
//     install all), and the install happens under the writer side of
//     `epoch_mu_` while `AcquireViews` captures all shard views under the
//     reader side — so every query sees either all-old or all-new, never
//     a mix, and per-shard epochs never diverge (idle shards publish an
//     O(rows) identity patch to keep step).
//
//   * Deterministic publish instants. The inline trigger fires on the
//     *total* backlog across shards, so cycle boundaries in `--replay`
//     are a pure function of the op stream, independent of shard count.
//
//   * One upgrade cache, global dominators. A shard's own UpgradeCache
//     would hold outcomes derived from shard-local dominator sets —
//     unsound to serve as global answers — so shards keep none and this
//     table feeds a single cache with the routed op stream instead, under
//     `route_mu_` in id-allocation order, *before* the op reaches its
//     shard. An entry therefore survives only ops that provably leave its
//     global dominator skyline unchanged; the per-op proofs are against
//     the entry's stored value set, so they hold for any subset of the
//     surviving ops a capture may have seen (serve/upgrade_cache.h).
//     `AcquireViews` stamps the cache clock before touching any shard,
//     which makes `Store`'s no-op-landed check imply the views were
//     captured at exactly the stamped version.
//
// The scatter-gather query engine over the captured views lives in
// serve/shard/shard_query.h.

#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/live_table.h"
#include "serve/rebuilder.h"
#include "serve/shard/partitioner.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace skyup {

class UpgradeCache;

/// Upper bound on `ShardedTableOptions::shards`: every shard is a full
/// LiveTable (and, with one worker per shard, a scatter thread per query),
/// so a shard count is bounded by hardware, not by the caller.
inline constexpr size_t kMaxShards = 256;

struct ShardedTableOptions {
  size_t dims = 0;    ///< required, >= 1
  size_t shards = 1;  ///< required, in [1, kMaxShards]
  size_t rtree_fanout = 64;
  /// Per-shard memo budget; the total across shards matches what the
  /// caller would have given a single table.
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
  static Result<std::unique_ptr<ShardedTable>> Create(
      ShardedTableOptions options);
  ~ShardedTable();

  ShardedTable(const ShardedTable&) = delete;
  ShardedTable& operator=(const ShardedTable&) = delete;

  /// Update API, same contract as LiveTable: global stable ids in op
  /// order, `kNotFound` for dead ids, `kInvalidArgument` for arity.
  Result<uint64_t> InsertCompetitor(const std::vector<double>& coords);
  Result<uint64_t> InsertProduct(const std::vector<double>& coords);
  Status EraseCompetitor(uint64_t id);
  Status EraseProduct(uint64_t id);

  /// Captures one consistent view of every shard: all at the same epoch
  /// (publish installs are excluded for the duration of the capture).
  ShardedView AcquireViews() const;

  /// Deterministic-mode publish check: one cycle when the total backlog
  /// reaches `policy.threshold_ops`. Returns the number of shard
  /// publishes performed (0 = below threshold).
  Result<size_t> MaybePublishInline(const RebuildPolicy& policy);

  /// Background coordination: a coordinator thread publishes a cycle
  /// whenever `ShouldPublish` holds — checked at start-up, after every
  /// cycle, on every Nudge and every `poll_interval_seconds`. Start/Stop
  /// are externally serialized; Nudge wakes the loop early.
  void Start(const RebuildPolicy& policy);
  void Stop();
  void Nudge();

  /// Common epoch of all shards.
  uint64_t epoch() const;
  /// Total delta ops not yet absorbed, across shards.
  size_t delta_backlog() const;
  /// Aggregated health sample: epoch/age from shard 0 (all shards publish
  /// together), sums for backlog/memo/live counts, max tombstone ratio.
  LiveTable::Diagnostics SampleDiagnostics() const;

  /// Shard publishes by kind, summed over cycles (one cycle publishes
  /// every shard).
  uint64_t rebuilds_published() const;
  uint64_t patches_published() const;
  uint64_t publish_cycles() const;
  Status last_error() const;

  size_t shards() const { return tables_.size(); }
  size_t dims() const { return options_.dims; }
  LiveTable& shard(size_t s) { return *tables_[s]; }
  static const char* partitioner_kind() { return ShardPartitioner::kind(); }

 private:
  explicit ShardedTable(ShardedTableOptions options);

  Result<size_t> PublishCycle(const RebuildPolicy& policy)
      SKYUP_REQUIRES(coord_mu_);
  bool ShouldPublish(const RebuildPolicy& policy) const;
  void Loop() SKYUP_EXCLUDES(coord_mu_);

  ShardedTableOptions options_;
  std::vector<std::unique_ptr<LiveTable>> tables_;

  /// The global upgrade-result cache (see the class comment). Set once in
  /// Create and never reseated; the cache is internally synchronized, so
  /// only the *feed order* needs `route_mu_` (OnDeltaOp is called while
  /// it is held).
  std::shared_ptr<UpgradeCache> cache_;

  /// Id allocation + spatial routing. kShardTable band: held while the
  /// target shard's kTable lock is taken inside the insert, never
  /// together with `epoch_mu_`.
  mutable Mutex route_mu_ SKYUP_ACQUIRED_AFTER(lock_order::kShardTable)
      SKYUP_ACQUIRED_BEFORE(lock_order::kTable);
  std::unique_ptr<ShardPartitioner> partitioner_ SKYUP_GUARDED_BY(route_mu_);
  uint64_t next_competitor_id_ SKYUP_GUARDED_BY(route_mu_) = 1;
  uint64_t next_product_id_ SKYUP_GUARDED_BY(route_mu_) = 1;
  std::unordered_map<uint64_t, uint32_t> competitor_shard_
      SKYUP_GUARDED_BY(route_mu_);
  std::unordered_map<uint64_t, uint32_t> product_shard_
      SKYUP_GUARDED_BY(route_mu_);

  /// The cross-shard epoch fence: readers capture all views under the
  /// shared side, a publish cycle installs all shards under the exclusive
  /// side. Same band as `route_mu_` (mutually non-nesting).
  // A fence, not a data guard: the shard state it orders lives behind
  // each LiveTable's own mutex.
  // lint: guarded-by-ok (excludes publish installs during AcquireViews)
  mutable SharedMutex epoch_mu_ SKYUP_ACQUIRED_AFTER(lock_order::kShardTable)
      SKYUP_ACQUIRED_BEFORE(lock_order::kTable);

  /// Publish-cycle serialization + coordinator handshake + counters. Sits
  /// above the kShardTable band: a cycle holds it across freeze, merge,
  /// and install (which takes `epoch_mu_` and every shard's table lock).
  mutable Mutex coord_mu_ SKYUP_ACQUIRED_AFTER(lock_order::kRebuilder)
      SKYUP_ACQUIRED_BEFORE(lock_order::kShardTable);
  CondVar coord_cv_;
  bool running_ SKYUP_GUARDED_BY(coord_mu_) = false;
  bool stop_ SKYUP_GUARDED_BY(coord_mu_) = false;
  /// Written by Start() before the loop thread exists, read-only after —
  /// the thread's creation publishes it; no guard.
  RebuildPolicy policy_;
  uint64_t majors_ SKYUP_GUARDED_BY(coord_mu_) = 0;
  uint64_t patches_ SKYUP_GUARDED_BY(coord_mu_) = 0;
  uint64_t cycles_ SKYUP_GUARDED_BY(coord_mu_) = 0;
  Status last_error_ SKYUP_GUARDED_BY(coord_mu_);
  /// Start/Stop are externally serialized (class contract), no guard.
  std::thread coord_thread_;
};

}  // namespace skyup

#endif  // SKYUP_SERVE_SHARD_SHARDED_TABLE_H_
