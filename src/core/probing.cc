#include "core/probing.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dominance.h"
#include "core/dominance_batch.h"
#include "core/lower_bounds.h"
#include "core/single_upgrade.h"
#include "core/topk_common.h"
#include "obs/trace.h"
#include "rtree/mbr.h"
#include "skyline/dominating_skyline.h"
#include "skyline/skyline.h"
#include "util/mutex.h"
#include "util/parallel.h"

namespace skyup {

namespace {

// Per-shard buffers a gather step fills, sized to the tile capacity and
// reused across tiles: `skylines[j]` receives the dominator-skyline rows of
// tile member j; `ids[j]` is id scratch for gathers that work in point ids.
struct GatherBuffers {
  explicit GatherBuffers(size_t tile) : skylines(tile), ids(tile) {}
  std::vector<std::vector<const double*>> skylines;
  std::vector<std::vector<PointId>> ids;
};

struct ShardState {
  ShardState(size_t k, size_t tile) : collector(k), buffers(tile) {}
  TopKCollector collector;
  ExecStats stats;
  GatherBuffers buffers;
  // Allocated inside the worker (not here) so the phase clock's first lap
  // starts when the shard starts, not when the engine sets up.
  std::unique_ptr<ShardTelemetry> telemetry;
};

void AddProbeStats(const ProbeStats& probe, ExecStats* stats) {
  stats->heap_pops += probe.heap_pops;
  stats->nodes_visited += probe.nodes_visited;
  stats->points_scanned += probe.points_scanned;
  stats->block_kernel_calls += probe.block_kernel_calls;
}

// Resolves dominator-skyline ids to competitor rows.
void IdsToRows(const Dataset& competitors, const std::vector<PointId>& ids,
               std::vector<const double*>* rows, ExecStats* stats) {
  rows->clear();
  for (PointId id : ids) rows->push_back(competitors.data(id));
  stats->dominators_fetched += ids.size();
  stats->skyline_points_total += ids.size();
}

// The one candidate loop behind every probing entry point.
//
// `gather(tile, count, &buffers, &stats, tel)` fills
// `buffers.skylines[0, count)` with the dominator skylines of the `count`
// candidates in `tile` (at most `tile_capacity`) and laps `tel` after each
// phase it owns. The loop does the rest: sharding, the sound pruning bound
// against the competitors' bounding `box` (an empty box disables it),
// Algorithm 1 per tile member in candidate order, admission into the
// shard's collector, the shared threshold, control polling and the final
// merge.
//
// Exactness of the pruning: the shared threshold tau is the minimum over
// shards of each shard's local k-th-best cost, hence tau never drops below
// the final global k-th-best cost c*. A candidate is skipped only when
// bound > tau >= c*, and a sound bound never exceeds the true cost, so the
// true cost is strictly greater than c* and the candidate cannot place —
// even under ties, which sit at equality and are never pruned.
template <typename GatherFn>
Result<std::vector<UpgradeResult>> RunTopK(
    const Dataset& products, const ProductCostFunction& cost_fn, size_t k,
    double epsilon, size_t threads, const Mbr& box, size_t tile_capacity,
    const GatherFn& gather, ExecStats* stats, QueryTelemetry* telemetry,
    const QueryControl* control) {
  const size_t dims = products.dims();
  const bool have_box = !box.IsEmpty();
  threads = ResolveThreadCount(threads, products.size());
  std::vector<ShardState> shards;
  shards.reserve(threads);
  for (size_t s = 0; s < threads; ++s) shards.emplace_back(k, tile_capacity);
  AtomicCostThreshold threshold;

  // Cancellation/deadline plumbing: the first shard whose `Check()` fires
  // records the reason (under the mutex) and raises `stop`; every other
  // shard sees the relaxed flag before its next gather and unwinds. The
  // ParallelFor join orders all of this before the status is read below.
  std::atomic<bool> stop{false};
  // lint: guarded-by-ok (function-local: GUARDED_BY only applies to
  // members/globals; the ParallelFor join orders the final unlocked read)
  Mutex stop_mu;
  Status stop_status;

  ParallelFor(
      products.size(), threads,
      [&](size_t shard, size_t begin, size_t end) {
        SKYUP_DCHECK(shard < shards.size());
        SKYUP_DCHECK(begin <= end && end <= products.size());
        SKYUP_TRACE_SPAN("topk/shard");
        // Shard 0 runs on the calling thread (util/parallel.h) — leave
        // that track's name alone; spawned workers get a shard track.
        if (shard != 0 && TraceEnabled()) {
          SetTraceThreadName("shard " + std::to_string(shard));
        }
        ShardState& state = shards[shard];
        if (telemetry != nullptr) {
          state.telemetry = std::make_unique<ShardTelemetry>();
        }
        ShardTelemetry* tel = state.telemetry.get();
        std::vector<const double*> tile(tile_capacity);
        std::vector<PointId> tile_ids(tile_capacity);
        size_t pending = 0;
        size_t since_poll = QueryControl::kPollStride;
        for (size_t i = begin; i < end; ++i) {
          // Poll only between tiles and before the candidate is counted as
          // processed, so the accounting identity below holds on early
          // unwind too.
          if (control != nullptr && pending == 0) {
            // lint: relaxed-ok (the reason travels under stop_mu, not the
            // flag; a late observation costs at most one extra tile)
            if (stop.load(std::memory_order_relaxed)) break;
            if (since_poll >= QueryControl::kPollStride) {
              since_poll = 0;
              Status st = control->Check();
              if (!st.ok()) {
                MutexLock lock(stop_mu);
                if (stop_status.ok()) stop_status = std::move(st);
                // lint: relaxed-ok (see the load above)
                stop.store(true, std::memory_order_relaxed);
                break;
              }
            }
          }
          ++since_poll;
          const PointId tid = static_cast<PointId>(i);
          const double* t = products.data(tid);
          ++state.stats.products_processed;

          // Cheap sound bound first: a candidate the bound already rules
          // out never reaches the gather or Algorithm 1. `LbcPair` in
          // sound mode charges only escapes from dominators the box is
          // guaranteed to contain (derivation in core/lower_bounds.cc).
          bool pruned = false;
          if (have_box) {
            ++state.stats.lbc_evaluations;
            pruned = LbcPair(t, box.min_data(), box.max_data(), dims, cost_fn,
                             BoundMode::kSound) > threshold.Get();
          }
          LapPrune(tel);
          if (pruned) {
            ++state.stats.candidates_pruned;
          } else {
            tile[pending] = t;
            tile_ids[pending] = tid;
            ++pending;
          }
          // Gather once the tile is full or the shard's range is done.
          if (pending == 0 || (pending < tile_capacity && i + 1 < end)) {
            continue;
          }

          gather(tile.data(), pending, &state.buffers, &state.stats, tel);
          for (size_t j = 0; j < pending; ++j) {
            ++state.stats.upgrade_calls;
            UpgradeOutcome outcome =
                UpgradeProduct(state.buffers.skylines[j], tile[j], dims,
                               cost_fn, epsilon);
            LapUpgrade(tel);
            // Admission before building the result payload: both the
            // shared threshold and the shard's own k-th best must admit
            // the cost. Equal costs pass through — the (cost, id)
            // tie-break decides.
            if (outcome.cost > threshold.Get() ||
                !state.collector.Admits(outcome.cost)) {
              continue;
            }
            state.collector.Add(UpgradeResult{tile_ids[j], outcome.cost,
                                              std::move(outcome.upgraded),
                                              outcome.already_competitive});
            if (threshold.RelaxTo(state.collector.KthCost())) {
              ++state.stats.threshold_updates;
            }
          }
          pending = 0;
        }
        LapOther(tel);
      });

  // A fired control token invalidates the whole query: partial shard
  // output is never merged, only the stop reason escapes. (The join above
  // already synchronized every shard's writes.)
  if (!stop_status.ok()) {
    if (stats != nullptr) {
      ExecStats total;
      for (const ShardState& shard : shards) total.MergeFrom(shard.stats);
      SKYUP_DCHECK(total.upgrade_calls + total.candidates_pruned ==
                   total.products_processed);
      *stats = total;
    }
    return stop_status;
  }

  // Engine-side merge: the only phase that runs outside the shards, so it
  // is clocked separately and folded into the query roll-up (per-shard
  // entries stay pure worker time).
  PhaseTimings merge_timings;
  std::vector<UpgradeResult> merged;
  ExecStats total;
  {
    SKYUP_TRACE_SPAN("topk/merge");
    PhaseClock merge_clock(telemetry != nullptr ? &merge_timings : nullptr);
    for (ShardState& shard : shards) {
      std::vector<UpgradeResult> local = shard.collector.Finish();
      for (UpgradeResult& r : local) merged.push_back(std::move(r));
      total.MergeFrom(shard.stats);
    }
    std::sort(merged.begin(), merged.end(), UpgradeResultBefore);
    if (merged.size() > k) merged.resize(k);
    merge_clock.Lap(&PhaseTimings::merge_seconds);
  }
  if (telemetry != nullptr) {
    for (const ShardState& shard : shards) {
      // A shard stays telemetry-less only if ParallelFor never ran its
      // body (empty input).
      if (shard.telemetry != nullptr) shard.telemetry->FlushInto(telemetry);
    }
    telemetry->phases.total.merge_seconds += merge_timings.merge_seconds;
  }
  SKYUP_DCHECK(total.upgrade_calls + total.candidates_pruned ==
               total.products_processed);
  if (stats != nullptr) *stats = total;
  return merged;
}

}  // namespace

Result<std::vector<UpgradeResult>> TopKBruteForce(
    const Dataset& competitors, const Dataset& products,
    const ProductCostFunction& cost_fn, size_t k, double epsilon,
    size_t threads, ExecStats* stats, QueryTelemetry* telemetry,
    const QueryControl* control) {
  SKYUP_RETURN_IF_ERROR(
      ValidateTopKArgs(competitors.dims(), products, cost_fn, k, epsilon));
  SKYUP_PARANOID_OK(SpotCheckCostMonotonicity(cost_fn, products));
  SKYUP_TRACE_SPAN("topk/brute-force");
  const size_t dims = products.dims();
  // MinCorner/MaxCorner span a tight box over P — the same guarantee an
  // R-tree root MBR gives, so the sound pruning bound applies unchanged.
  const Mbr box = competitors.empty()
                      ? Mbr(dims)
                      : Mbr::FromCorners(competitors.MinCorner().data(),
                                         competitors.MaxCorner().data(), dims);
  auto gather = [&](const double* const* tile, size_t count,
                    GatherBuffers* buffers, ExecStats* st,
                    ShardTelemetry* tel) {
    SKYUP_DCHECK(count == 1);
    const double* t = tile[0];
    std::vector<const double*>& dominators = buffers->skylines[0];
    dominators.clear();
    for (size_t j = 0; j < competitors.size(); ++j) {
      const double* q = competitors.data(static_cast<PointId>(j));
      if (Dominates(q, t, dims)) dominators.push_back(q);
    }
    st->dominators_fetched += dominators.size();
    LapProbe(tel);

    SkylineOfPointers(&dominators, dims);
    st->skyline_points_total += dominators.size();
    LapSkyline(tel);
  };
  return RunTopK(products, cost_fn, k, epsilon, threads, box,
                 /*tile_capacity=*/1, gather, stats, telemetry, control);
}

Result<std::vector<UpgradeResult>> TopKBasicProbing(
    const FlatRTree& competitors_index, const Dataset& products,
    const ProductCostFunction& cost_fn, size_t k, double epsilon,
    size_t threads, ExecStats* stats, QueryTelemetry* telemetry,
    const QueryControl* control) {
  SKYUP_RETURN_IF_ERROR(ValidateTopKArgs(competitors_index.dataset().dims(),
                                         products, cost_fn, k, epsilon));
  // Once per query, not per probe: index structure and cost-function
  // monotonicity are what every per-probe prune relies on.
  SKYUP_PARANOID_OK(competitors_index.Validate());
  SKYUP_PARANOID_OK(SpotCheckCostMonotonicity(cost_fn, products));
  SKYUP_TRACE_SPAN("topk/basic-probing");
  const Dataset& competitors = competitors_index.dataset();
  const size_t dims = products.dims();
  // Lower corner of the anti-dominant region ADR(t) = (-inf, t].
  const std::vector<double> adr_lo(dims,
                                   -std::numeric_limits<double>::infinity());
  auto gather = [&](const double* const* tile, size_t count,
                    GatherBuffers* buffers, ExecStats* st,
                    ShardTelemetry* tel) {
    SKYUP_DCHECK(count == 1);
    const double* t = tile[0];
    std::vector<PointId>& dominator_ids = buffers->ids[0];
    dominator_ids.clear();
    competitors_index.RangeQuery(Mbr::FromCorners(adr_lo.data(), t, dims),
                                 &dominator_ids);

    std::vector<const double*>& dominators = buffers->skylines[0];
    dominators.clear();
    for (PointId id : dominator_ids) {
      const double* q = competitors.data(id);
      // The ADR box also contains points equal to t on all dimensions;
      // those do not dominate it.
      if (Dominates(q, t, dims)) dominators.push_back(q);
    }
    st->dominators_fetched += dominators.size();
    LapProbe(tel);

    SkylineOfPointers(&dominators, dims);
    st->skyline_points_total += dominators.size();
    LapSkyline(tel);
  };
  return RunTopK(products, cost_fn, k, epsilon, threads,
                 competitors_index.root_mbr(), /*tile_capacity=*/1, gather,
                 stats, telemetry, control);
}

Result<std::vector<UpgradeResult>> TopKImprovedProbing(
    const FlatRTree& competitors_index, const Dataset& products,
    const ProductCostFunction& cost_fn, size_t k, double epsilon,
    size_t threads, ExecStats* stats, QueryTelemetry* telemetry,
    const QueryControl* control) {
  SKYUP_RETURN_IF_ERROR(ValidateTopKArgs(competitors_index.dataset().dims(),
                                         products, cost_fn, k, epsilon));
  SKYUP_PARANOID_OK(competitors_index.Validate());
  SKYUP_PARANOID_OK(SpotCheckCostMonotonicity(cost_fn, products));
  SKYUP_TRACE_SPAN("topk/improved-probing");
  const Dataset& competitors = competitors_index.dataset();
  auto gather = [&](const double* const* tile, size_t count,
                    GatherBuffers* buffers, ExecStats* st,
                    ShardTelemetry* tel) {
    ProbeStats probe;
    DominatingSkylineTileInto(competitors_index, tile, count,
                              /*dead_rows=*/nullptr, buffers->ids.data(),
                              &probe);
    AddProbeStats(probe, st);
    for (size_t j = 0; j < count; ++j) {
      IdsToRows(competitors, buffers->ids[j], &buffers->skylines[j], st);
    }
    LapProbe(tel);
  };
  return RunTopK(products, cost_fn, k, epsilon, threads,
                 competitors_index.root_mbr(), kMaxDominanceTile, gather,
                 stats, telemetry, control);
}

}  // namespace skyup
