#ifndef SKYUP_SERVE_SERVE_STATS_H_
#define SKYUP_SERVE_SERVE_STATS_H_

// Serving-layer work counters — the `ExecStats` of src/serve/: how many
// queries ran/were rejected/timed out, how many updates were applied, how
// much delta-overlay work queries paid, and how often rebuilds published.
// Aggregated with the same merge-tripwire convention as `ExecStats` and
// `PhaseTimings` (tools/lint.py cross-checks fields vs MergeFrom lines vs
// the static_assert multiplier).

#include <cstdint>

#include "obs/metrics.h"

namespace skyup {

struct ServeStats {
  uint64_t queries_executed = 0;    ///< queries that ran to completion
  uint64_t queries_rejected = 0;    ///< admission-control rejections
  uint64_t queries_timed_out = 0;   ///< deadline fired (queued or running)
  uint64_t updates_applied = 0;     ///< inserts/erases accepted into the log
  uint64_t updates_rejected = 0;    ///< invalid updates (bad id, bad arity)
  uint64_t rebuilds_published = 0;  ///< major compactions (full STR rebuild)
  uint64_t patches_published = 0;   ///< incremental patch publishes
  uint64_t delta_ops_scanned = 0;   ///< delta ops folded into query overlays
  uint64_t erase_fallback_scans = 0;  ///< probes invalidated by a P-erase
  uint64_t candidates_evaluated = 0;  ///< Algorithm-1 calls across queries
  uint64_t candidates_pruned = 0;     ///< skipped via the sound box bound
  uint64_t prune_disabled_queries = 0;  ///< pending erase touched a box face
  uint64_t cache_hits = 0;    ///< candidates served from the upgrade cache
  uint64_t cache_misses = 0;  ///< candidates recomputed (and re-cached)
  uint64_t memo_hits = 0;     ///< index probes served from the skyline memo
  uint64_t memo_misses = 0;   ///< index probes run (and memoized)
  uint64_t batches_executed = 0;  ///< grouped executions (incl. singletons)
  uint64_t batched_queries = 0;   ///< queries that ran inside a group of >=2
  uint64_t shard_queries = 0;     ///< queries served by scatter-gather
  uint64_t shard_fanout = 0;      ///< shard probes issued by sharded queries

  /// Config echoes, not counters: the server stamps its effective policy
  /// here once at creation so a stats dump documents the knobs it ran
  /// under. Query-local stats leave them zero, so the MergeFrom sum is a
  /// no-op for them.
  uint64_t rebuild_threshold_ops = 0;     ///< publish at this backlog
  uint64_t publish_min_backlog = 0;       ///< age trigger needs this many ops
  uint64_t publish_min_interval_ms = 0;   ///< publish rate cap (hysteresis)
  uint64_t compact_tombstone_pct = 0;     ///< major when tombstones reach %
  uint64_t compact_tail_pct = 0;          ///< major when tail reaches %
  uint64_t batch_max_queries = 0;         ///< grouped-execution width cap
  uint64_t batch_wait_us = 0;             ///< max batch-fill wait
  uint64_t memo_cache_mb = 0;             ///< skyline-memo byte budget (MB)
  uint64_t shards = 0;                    ///< shard count (>= 1)

  /// Field-wise sum. Same tripwire as ExecStats: adding a counter changes
  /// the struct size, which trips the assert until the new field is summed
  /// below — and tools/lint.py cross-checks all three.
  ServeStats& MergeFrom(const ServeStats& other) {
    static_assert(sizeof(ServeStats) == 29 * sizeof(uint64_t),
                  "ServeStats gained/lost a counter: update MergeFrom");
    auto add = [](uint64_t* into, uint64_t delta) { *into += delta; };
    add(&queries_executed, other.queries_executed);
    add(&queries_rejected, other.queries_rejected);
    add(&queries_timed_out, other.queries_timed_out);
    add(&updates_applied, other.updates_applied);
    add(&updates_rejected, other.updates_rejected);
    add(&rebuilds_published, other.rebuilds_published);
    add(&patches_published, other.patches_published);
    add(&delta_ops_scanned, other.delta_ops_scanned);
    add(&erase_fallback_scans, other.erase_fallback_scans);
    add(&candidates_evaluated, other.candidates_evaluated);
    add(&candidates_pruned, other.candidates_pruned);
    add(&prune_disabled_queries, other.prune_disabled_queries);
    add(&cache_hits, other.cache_hits);
    add(&cache_misses, other.cache_misses);
    add(&memo_hits, other.memo_hits);
    add(&memo_misses, other.memo_misses);
    add(&batches_executed, other.batches_executed);
    add(&batched_queries, other.batched_queries);
    add(&shard_queries, other.shard_queries);
    add(&shard_fanout, other.shard_fanout);
    add(&rebuild_threshold_ops, other.rebuild_threshold_ops);
    add(&publish_min_backlog, other.publish_min_backlog);
    add(&publish_min_interval_ms, other.publish_min_interval_ms);
    add(&compact_tombstone_pct, other.compact_tombstone_pct);
    add(&compact_tail_pct, other.compact_tail_pct);
    add(&batch_max_queries, other.batch_max_queries);
    add(&batch_wait_us, other.batch_wait_us);
    add(&memo_cache_mb, other.memo_cache_mb);
    add(&shards, other.shards);
    return *this;
  }
};

/// Registers every ServeStats counter as `skyup_serve_<field>_total`.
void AddServeStatsMetrics(const ServeStats& stats, MetricsRegistry* registry);

}  // namespace skyup

#endif  // SKYUP_SERVE_SERVE_STATS_H_
