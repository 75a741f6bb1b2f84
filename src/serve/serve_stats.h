#ifndef SKYUP_SERVE_SERVE_STATS_H_
#define SKYUP_SERVE_SERVE_STATS_H_

// Serving-layer work counters — the `ExecStats` of src/serve/: how many
// queries ran/were rejected/timed out, how many updates were applied, how
// much delta-overlay work queries paid, and how often rebuilds published.

#include <cstdint>

#include "obs/metrics.h"
#include "util/field_table.h"

namespace skyup {

// X(field, metric, help): every ServeStats counter, declared once. The
// list generates the struct's fields and `kServeStatsFields`, and through
// them MergeFrom, the metrics export, the wire `stats` response
// (serve/shard/front_door.cc) and the load generator's reading of it.
// clang-format off
#define SKYUP_SERVE_STATS_FIELDS(X)                                      \
  X(queries_executed, "skyup_serve_queries_executed_total",              \
    "serve queries that ran to completion")                              \
  X(queries_rejected, "skyup_serve_queries_rejected_total",              \
    "serve queries rejected by admission control")                       \
  X(queries_timed_out, "skyup_serve_queries_timed_out_total",            \
    "serve queries whose deadline fired")                                \
  X(updates_applied, "skyup_serve_updates_applied_total",                \
    "inserts/erases accepted into the delta log")                        \
  X(updates_rejected, "skyup_serve_updates_rejected_total",              \
    "invalid updates rejected (unknown id, bad arity)")                  \
  X(rebuilds_published, "skyup_serve_rebuilds_published_total",          \
    "major compactions published by the rebuilder")                      \
  X(patches_published, "skyup_serve_patches_published_total",            \
    "always 0: every publish is an STR merge (rebuilds_published)")      \
  X(delta_ops_scanned, "skyup_serve_delta_ops_scanned_total",            \
    "delta ops folded into per-query overlays")                          \
  X(candidates_evaluated, "skyup_serve_candidates_evaluated_total",      \
    "Algorithm-1 evaluations across serve queries")                      \
  X(candidates_pruned, "skyup_serve_candidates_pruned_total",            \
    "candidates skipped by the sound box lower bound")                   \
  X(prune_disabled_queries, "skyup_serve_prune_disabled_queries_total",  \
    "queries whose prune was disabled by a face-touching pending erase") \
  X(cache_hits, "skyup_serve_cache_hits_total",                          \
    "candidates answered from the upgrade-result cache")                 \
  X(cache_misses, "skyup_serve_cache_misses_total",                      \
    "candidates recomputed and stored in the upgrade-result cache")      \
  X(memo_hits, "skyup_serve_memo_hits_total",                            \
    "index probes answered from the epoch-scoped skyline memo")          \
  X(memo_misses, "skyup_serve_memo_misses_total",                        \
    "index probes run and stored in the skyline memo")                   \
  X(batches_executed, "skyup_serve_batches_executed_total",              \
    "grouped executions drained from the queue (singletons included)")   \
  X(batched_queries, "skyup_serve_batched_queries_total",                \
    "queries executed inside a group of two or more")                    \
  X(shard_queries, "skyup_serve_shard_queries_total",                    \
    "queries served by the sharded scatter-gather engine")               \
  X(shard_fanout, "skyup_serve_shard_fanout_total",                      \
    "per-shard probes issued by sharded queries (fanout x shard_queries)")
// clang-format on

struct ServeStats {
#define SKYUP_SERVE_STATS_MEMBER(field, metric, help) uint64_t field = 0;
  SKYUP_SERVE_STATS_FIELDS(SKYUP_SERVE_STATS_MEMBER)
#undef SKYUP_SERVE_STATS_MEMBER

  /// Field-wise sum.
  ServeStats& MergeFrom(const ServeStats& other);
};

inline constexpr FieldSpec<ServeStats, uint64_t> kServeStatsFields[] = {
#define SKYUP_SERVE_STATS_ROW(field, metric, help) \
  {#field, metric, help, &ServeStats::field},
    SKYUP_SERVE_STATS_FIELDS(SKYUP_SERVE_STATS_ROW)
#undef SKYUP_SERVE_STATS_ROW
};

inline ServeStats& ServeStats::MergeFrom(const ServeStats& other) {
  for (const auto& field : kServeStatsFields) {
    this->*field.member += other.*field.member;
  }
  return *this;
}

/// Registers every ServeStats counter under its list entry's metric name.
void AddServeStatsMetrics(const ServeStats& stats, MetricsRegistry* registry);

}  // namespace skyup

#endif  // SKYUP_SERVE_SERVE_STATS_H_
