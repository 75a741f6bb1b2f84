#include "serve/serve_stats.h"

namespace skyup {

void AddServeStatsMetrics(const ServeStats& stats,
                          MetricsRegistry* registry) {
  // Tripwire (the ExecStats pattern): a new ServeStats counter changes the
  // struct size and breaks this assert until it gets registered below.
  static_assert(sizeof(ServeStats) == 29 * sizeof(uint64_t),
                "ServeStats gained/lost a counter: register it here");
  auto add = [registry](const char* name, const char* help, uint64_t value) {
    registry->AddCounter(name, help)->Increment(value);
  };
  auto echo = [registry](const char* name, const char* help,
                         uint64_t value) {
    registry->AddGauge(name, help)->Set(static_cast<double>(value));
  };
  add("skyup_serve_queries_executed_total",
      "serve queries that ran to completion", stats.queries_executed);
  add("skyup_serve_queries_rejected_total",
      "serve queries rejected by admission control",
      stats.queries_rejected);
  add("skyup_serve_queries_timed_out_total",
      "serve queries whose deadline fired", stats.queries_timed_out);
  add("skyup_serve_updates_applied_total",
      "inserts/erases accepted into the delta log", stats.updates_applied);
  add("skyup_serve_updates_rejected_total",
      "invalid updates rejected (unknown id, bad arity)",
      stats.updates_rejected);
  add("skyup_serve_rebuilds_published_total",
      "major compactions published by the rebuilder",
      stats.rebuilds_published);
  add("skyup_serve_patches_published_total",
      "incremental snapshot patches published by the rebuilder",
      stats.patches_published);
  add("skyup_serve_delta_ops_scanned_total",
      "delta ops folded into per-query overlays", stats.delta_ops_scanned);
  add("skyup_serve_erase_fallback_scans_total",
      "index probes invalidated by a competitor erase (linear rescan)",
      stats.erase_fallback_scans);
  add("skyup_serve_candidates_evaluated_total",
      "Algorithm-1 evaluations across serve queries",
      stats.candidates_evaluated);
  add("skyup_serve_candidates_pruned_total",
      "candidates skipped by the sound box lower bound",
      stats.candidates_pruned);
  add("skyup_serve_prune_disabled_queries_total",
      "queries whose prune was disabled by a face-touching pending erase",
      stats.prune_disabled_queries);
  add("skyup_serve_cache_hits_total",
      "candidates answered from the upgrade-result cache",
      stats.cache_hits);
  add("skyup_serve_cache_misses_total",
      "candidates recomputed and stored in the upgrade-result cache",
      stats.cache_misses);
  add("skyup_serve_memo_hits_total",
      "index probes answered from the epoch-scoped skyline memo",
      stats.memo_hits);
  add("skyup_serve_memo_misses_total",
      "index probes run and stored in the skyline memo",
      stats.memo_misses);
  add("skyup_serve_batches_executed_total",
      "grouped executions drained from the queue (singletons included)",
      stats.batches_executed);
  add("skyup_serve_batched_queries_total",
      "queries executed inside a group of two or more",
      stats.batched_queries);
  add("skyup_serve_shard_queries_total",
      "queries served by the sharded scatter-gather engine",
      stats.shard_queries);
  add("skyup_serve_shard_fanout_total",
      "per-shard probes issued by sharded queries (fanout x shard_queries)",
      stats.shard_fanout);
  echo("skyup_serve_rebuild_threshold_ops",
       "configured backlog size that forces a publish",
       stats.rebuild_threshold_ops);
  echo("skyup_serve_publish_min_backlog",
       "configured minimum backlog for the age-triggered publish",
       stats.publish_min_backlog);
  echo("skyup_serve_publish_min_interval_ms",
       "configured minimum milliseconds between publishes",
       stats.publish_min_interval_ms);
  echo("skyup_serve_compact_tombstone_pct",
       "configured tombstone %% that escalates a patch to a compaction",
       stats.compact_tombstone_pct);
  echo("skyup_serve_compact_tail_pct",
       "configured unindexed-tail %% that escalates a patch to a compaction",
       stats.compact_tail_pct);
  echo("skyup_serve_batch_max_queries",
       "configured grouped-execution width cap (1 = per-query execution)",
       stats.batch_max_queries);
  echo("skyup_serve_batch_wait_us",
       "configured max microseconds a worker waits to fill a batch",
       stats.batch_wait_us);
  echo("skyup_serve_memo_cache_mb",
       "configured skyline-memo byte budget in MB (0 = memo disabled)",
       stats.memo_cache_mb);
  echo("skyup_serve_shards",
       "configured shard count (1 = a single table)", stats.shards);
}

}  // namespace skyup
