#ifndef SKYUP_SERVE_SHARD_SHARD_QUERY_H_
#define SKYUP_SERVE_SHARD_SHARD_QUERY_H_

// The serve tier's one top-k engine: scatter-gather over a consistent set
// of shard views. Every `Server` query runs here — a solo query as a
// group of one, a drained admission group as one shared sweep.
//
// Each shard worker sweeps the products *owned by its shard*; for every
// candidate it gathers the global dominator skyline by probing every
// shard's index (mask-aware, memoized per shard) and folding the
// per-shard skylines member by member (skyline/incremental.h) — skyline
// of a union equals the skyline of the per-part skylines, and Algorithm 1
// is a pure function of the dominator *value set*, so each candidate's
// outcome is independent of how P is partitioned. Workers share the PR-1
// lock-free CAS-min cost threshold: a cheap upgrade found on one shard
// immediately tightens the sound box prune on all others. Results merge
// under the cost-then-id total order, which is offer-order independent —
// so the final top-k is byte-identical for every shard count and
// interleaving (fuzz/fuzz_serve.cc checks it against a from-scratch
// oracle at random shard counts, and the `--shards N` replay guard
// compares against a golden log).
//
// Caching: a *shard-local* upgrade cache would memoize outcomes against
// shard-local dominators — not the global answer — so the shards keep
// none. Instead each candidate consults the table's single GLOBAL cache
// (`ShardedView::cache`), fed with the cross-shard op stream by
// ShardedTable, whose hits are the exact Algorithm-1 outcome against the
// full competitor set and skip the whole per-shard gather. The per-shard
// skyline memos ARE sound and accelerate the cache-miss path — they
// memoize exact per-shard index-probe value sets keyed by epoch and
// erased-prefix length (docs/algorithms.md, "Sharded serving & wire
// protocol").
//
// The sound box lower-bound prune starts from the union of the per-shard
// live boxes (index root MBR, kept exact over live rows by tombstone
// condensation, expanded by live tail rows and overlay inserts). The one
// hole — a *pending* overlay erase whose row still props up a face of the
// box, breaking kSound's face-attainment guarantee — is closed per view
// set by disabling the prune when any pending erased indexed row touches
// a face (`prune_disabled_queries` counts these).

#include <cstdint>
#include <vector>

#include "core/cost_function.h"
#include "core/query_control.h"
#include "core/upgrade_result.h"
#include "obs/phase_timings.h"
#include "serve/serve_stats.h"
#include "serve/shard/sharded_table.h"
#include "util/status.h"

namespace skyup {

/// Maximum number of queries one grouped execution accepts (per-candidate
/// participation masks are one `uint64_t`).
inline constexpr size_t kMaxServeBatch = 64;

/// One member of a grouped execution. All members share the view, the cost
/// function, and epsilon; `k` and the cancel/deadline token are per query.
struct BatchQuery {
  size_t k = 1;
  const QueryControl* control = nullptr;  ///< may be null
};

/// Outcome slot for one member: exactly what the member would get if it
/// ran as a group of one.
struct BatchQueryResult {
  Status status;
  std::vector<UpgradeResult> results;
};

/// Wall-time attribution across shard workers, for the flight recorder's
/// "which shard dominated this query" story. Always cheap to fill (two
/// clock reads per worker).
struct ShardQueryInfo {
  uint32_t shard_count = 0;
  uint32_t slowest_shard = 0;  ///< arg-max of per-worker wall time
  double slowest_shard_seconds = 0.0;
};

/// Top-k upgrades for every query in `queries` over one captured view set,
/// as ONE candidate sweep: the per-shard contexts, the global live box and
/// — per candidate — the global-cache lookup, the dominator gather, and
/// the upgrade are paid once per group. Resolved candidates are offered to
/// every participating member's collector in candidate order, and
/// per-member prune cutoffs (min of the worker's k-th cost and the
/// member's cross-shard threshold) upper-bound that member's final k-th
/// cost, so `(*out)[i]` is bit-identical to running `queries[i]` alone
/// (docs/algorithms.md, "Cross-query amortization").
///
/// `threads` workers sweep the shards (0 = one per shard, capped by the
/// shard count). Candidates are every live product (base rows not erased
/// + overlay inserts); ids in the results are stable ids, and an empty
/// live product set yields an empty result. `stats` (may be null) gets
/// `delta_ops_scanned`, `candidates_evaluated`, `candidates_pruned`,
/// `prune_disabled_queries`, the cache and memo counters, and
/// `shard_queries`/`shard_fanout`; shared work counts once per group.
///
/// `telemetry` and `info` (may be null) describe a solo query: the
/// per-phase wall breakdown via per-candidate clock laps, and the slowest
/// shard worker. Callers pass null for groups of two or more, whose laps
/// are not attributable to one member; null keeps the hot path free of
/// clock reads.
///
/// `out` is resized to `queries.size()`; `out[i]` corresponds to
/// `queries[i]`. `queries.size()` must be in [1, kMaxServeBatch].
void TopKShardedBatch(const ShardedView& sharded,
                      const ProductCostFunction& cost_fn,
                      const std::vector<BatchQuery>& queries, double epsilon,
                      size_t threads, std::vector<BatchQueryResult>* out,
                      ServeStats* stats = nullptr,
                      QueryTelemetry* telemetry = nullptr,
                      ShardQueryInfo* info = nullptr);

}  // namespace skyup

#endif  // SKYUP_SERVE_SHARD_SHARD_QUERY_H_
