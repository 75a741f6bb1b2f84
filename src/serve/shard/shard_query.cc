#include "serve/shard/shard_query.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <utility>

#include "core/dominance_batch.h"
#include "core/lower_bounds.h"
#include "core/single_upgrade.h"
#include "core/topk_common.h"
#include "obs/trace.h"
#include "rtree/mbr.h"
#include "serve/skyline_memo.h"
#include "serve/upgrade_cache.h"
#include "skyline/dominating_skyline.h"
#include "skyline/incremental.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace skyup {

namespace {

// Read-only per-shard context shared by every worker: the view's log
// prefix is digested into erase masks once on the issuing thread, then
// only read concurrently. Inserted rows are read in place from the log.
struct ShardContext {
  DeltaMasks masks;
  const uint8_t* erase_mask = nullptr;  ///< null when no snapshot row died
};

// Shared query-time state over one captured view set: the per-shard
// contexts plus the global live box and its prune soundness gate. Built
// once per group, which is where grouped execution's amortization starts.
struct ShardGather {
  explicit ShardGather(size_t dims) : live_box(dims) {}
  std::vector<ShardContext> ctx;
  Mbr live_box;
  bool have_box = false;
  bool prune_ok = true;
};

// Global live box = union of the per-shard live boxes: each shard's index
// root MBR (exact: every publish re-bulk-loads only live rows) and its
// overlay inserts. Overlay-erased snapshot rows cannot be subtracted from
// a box, which is what the face-touch gate is for: kSound's per-dimension
// escape assumes every *min* face of the box is attained by a live
// competitor, so a pending snapshot erase on any shard that touches a
// face of the union sits the prune out for every worker (conservative:
// max faces only need containment, but the check covers both).
ShardGather BuildShardGather(const ShardedView& sharded, size_t dims,
                             ServeStats* shared_stats) {
  const size_t num_shards = sharded.views.size();
  ShardGather g(dims);
  g.ctx.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const ReadView& view = sharded.views[s];
    const Snapshot& base = *view.snapshot;
    const DeltaPrefix& log = view.deltas;
    ShardContext& c = g.ctx[s];
    c.masks.Build(base, log);
    c.erase_mask = c.masks.snapshot_erased(DeltaTarget::kCompetitor) > 0
                       ? c.masks.snapshot_mask(DeltaTarget::kCompetitor)
                       : nullptr;
    shared_stats->delta_ops_scanned += log.size();

    const Mbr root = base.index().root_mbr();
    if (!root.IsEmpty()) g.live_box.Expand(root);
    const uint8_t* dead = c.masks.inserted_mask(DeltaTarget::kCompetitor);
    for (size_t i = 0; i < log.competitors; ++i) {
      if (dead[i] == 0) g.live_box.Expand(log.row(DeltaTarget::kCompetitor, i));
    }
  }
  g.have_box = !g.live_box.IsEmpty();
  if (g.have_box) {
    for (size_t s = 0; s < num_shards && g.prune_ok; ++s) {
      const Snapshot& base = *sharded.views[s].snapshot;
      const DeltaPrefix& log = sharded.views[s].deltas;
      const ShardContext& c = g.ctx[s];
      if (c.erase_mask == nullptr) continue;
      for (size_t i = 0; i < log.erases && g.prune_ok; ++i) {
        const DeltaErase& erase = log.erase(i);
        if (erase.target != DeltaTarget::kCompetitor || erase.inserted) {
          continue;
        }
        const double* q = base.competitors().data(erase.row);
        for (size_t d = 0; d < dims && g.prune_ok; ++d) {
          // lint: float-eq-ok (exact face-touch test: box faces are
          // copies of competitor coordinates, equality is the precise
          // attainment predicate)
          if (q[d] == g.live_box.min(d) || q[d] == g.live_box.max(d)) {
            g.prune_ok = false;
          }
        }
      }
    }
    if (!g.prune_ok) ++shared_stats->prune_disabled_queries;
  }
  return g;
}

}  // namespace

// Grouped scatter-gather; a solo query is a group of one. Exactness for
// every member rests on two properties:
//  1. Offer order: each worker offers a candidate's outcome to every
//     participating member collector in candidate order, so each
//     collector sees exactly the offers it would see alone.
//  2. Prune safety: a member's skip cutoff is min(the worker's k-th cost
//     for it, its cross-shard CAS-min threshold). Both only shrink and
//     both upper-bound the member's final global k-th cost, so a pruned
//     candidate (sound lower bound above the cutoff) is provably outside
//     that member's top-k — prune differences never reach a result.
// The final per-member merge is under the cost-then-id total order,
// which is offer-order independent across workers.
void TopKShardedBatch(const ShardedView& sharded,
                      const ProductCostFunction& cost_fn,
                      const std::vector<BatchQuery>& queries, double epsilon,
                      std::vector<BatchQueryResult>* out,
                      ServeStats* stats, QueryTelemetry* telemetry,
                      ShardQueryInfo* info) {
  SKYUP_CHECK(out != nullptr);
  SKYUP_CHECK(queries.size() >= 1 && queries.size() <= kMaxServeBatch)
      << "batch width out of range";
  const size_t n_members = queries.size();
  out->clear();
  out->resize(n_members);
  const size_t num_shards = sharded.views.size();
  Status view_status;
  if (num_shards == 0) {
    view_status = Status::InvalidArgument("sharded view has no shards");
  }
  for (const ReadView& view : sharded.views) {
    if (view.snapshot == nullptr) {
      view_status = Status::InvalidArgument("shard view has no snapshot");
      break;
    }
  }
  if (!view_status.ok()) {
    for (BatchQueryResult& r : *out) r.status = view_status;
    return;
  }
  const size_t dims = sharded.views.front().snapshot->dims();
  // A solo query's spans carry its id, so a slow-query log can pick them
  // out of the worker's trace ring; a group's spans are shared.
  const uint64_t query_id =
      n_members == 1 && queries.front().control != nullptr
          ? queries.front().control->query_id()
          : 0;
  SKYUP_TRACE_SPAN_Q("serve/topk-shard", query_id);

  ServeStats shared_stats;
  uint64_t live_init = 0;
  for (size_t i = 0; i < n_members; ++i) {
    Status shape = ValidateTopKQueryShape(dims, cost_fn, queries[i].k,
                                          epsilon);
    if (!shape.ok()) {
      (*out)[i].status = std::move(shape);
      continue;
    }
    live_init |= uint64_t{1} << i;
  }
  const uint64_t participants =
      static_cast<uint64_t>(__builtin_popcountll(live_init));
  shared_stats.shard_queries = participants;
  shared_stats.shard_fanout = participants * num_shards;
  if (live_init == 0) {
    if (stats != nullptr) stats->MergeFrom(shared_stats);
    return;
  }

  const ShardGather gather = BuildShardGather(sharded, dims, &shared_stats);
  const std::vector<ShardContext>& ctx = gather.ctx;

  // Per-member cross-shard thresholds (one CAS-min each, exactly the solo
  // engine's), a shared live mask (bits drop when a member's control
  // fires), and first-error-wins per-member stop status.
  std::vector<AtomicCostThreshold> thresholds(n_members);
  std::atomic<uint64_t> live{live_init};
  // lint: guarded-by-ok (function-local: GUARDED_BY only applies to
  // members/globals; the ParallelFor join orders the final unlocked read)
  Mutex stop_mu;
  std::vector<Status> member_stop(n_members);

  // Per-worker output slots, written only by the owning worker; the
  // ParallelFor join is the happens-before edge for the merge below.
  struct WorkerState {
    std::vector<TopKCollector> collectors;  ///< one per member
    ServeStats stats;
    double wall_seconds = 0.0;
  };
  std::vector<WorkerState> workers(num_shards);
  for (WorkerState& w : workers) {
    w.collectors.reserve(n_members);
    for (size_t i = 0; i < n_members; ++i) {
      // Dead members get a placeholder that never participates.
      w.collectors.emplace_back((live_init >> i) & 1 ? queries[i].k : 1);
    }
  }
  // Built by the worker when it reaches the shard, so the first lap
  // starts there and not at scatter time.
  std::vector<std::unique_ptr<ShardTelemetry>> worker_telemetry(num_shards);

  // min(shards, hardware threads) workers; each folds a contiguous run of
  // shards, so a wide table never spawns a thread per shard.
  ParallelFor(
      num_shards, /*threads=*/0, [&](size_t, size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          SKYUP_TRACE_SPAN_Q("serve/shard-worker", query_id);
          Timer worker_wall;
          WorkerState& w = workers[s];
          if (telemetry != nullptr) {
            worker_telemetry[s] = std::make_unique<ShardTelemetry>();
          }
          ShardTelemetry* const tel = worker_telemetry[s].get();
          const Snapshot& own = *sharded.views[s].snapshot;
          const ShardContext& own_ctx = ctx[s];
          const DeltaPrefix& own_log = sharded.views[s].deltas;

          size_t since_poll = 0;
          auto poll = [&]() {
            if (since_poll++ % QueryControl::kPollStride != 0) return;
            // lint: relaxed-ok (advisory liveness mask; the join publishes)
            uint64_t mask = live.load(std::memory_order_relaxed);
            for (uint64_t m = mask; m != 0; m &= m - 1) {
              const size_t i = static_cast<size_t>(__builtin_ctzll(m));
              const QueryControl* const control = queries[i].control;
              if (control == nullptr) continue;
              Status st = control->Check();
              if (st.ok()) continue;
              {
                MutexLock lock(stop_mu);
                if (member_stop[i].ok()) member_stop[i] = std::move(st);
              }
              // lint: relaxed-ok (advisory early-out; the join publishes)
              live.fetch_and(~(uint64_t{1} << i),
                             std::memory_order_relaxed);
            }
          };

          // Scratch reused across candidates (worker-local).
          std::vector<PointId> sky_rows;
          std::vector<uint32_t> scan_hits;
          std::vector<const double*> dominators;
          UpgradeCache* const cache = sharded.cache.get();
          UpgradeCache::Hit hit;
          // A run of cache-served candidates laps `other` once, when the
          // run ends (at the next miss or before the merge lap), so a warm
          // cache pays no clock read per hit.
          bool hits_unlapped = false;

          auto offer = [&](uint64_t mask, uint64_t stable_id, double cost,
                           const std::vector<double>& upgraded,
                           bool already_competitive) {
            for (uint64_t m = mask; m != 0; m &= m - 1) {
              const size_t i = static_cast<size_t>(__builtin_ctzll(m));
              TopKCollector& collector = w.collectors[i];
              if (collector.Admits(cost)) {
                collector.Add(UpgradeResult{static_cast<PointId>(stable_id),
                                            cost, upgraded,
                                            already_competitive});
                thresholds[i].RelaxTo(collector.KthCost());
              }
            }
          };

          auto evaluate = [&](uint64_t stable_id, const double* t) {
            // lint: relaxed-ok (advisory liveness mask; the join publishes)
            uint64_t mask = live.load(std::memory_order_relaxed);
            if (mask == 0) return;
            // Global cache first: a hit is the exact Algorithm-1 outcome
            // for this product against the FULL competitor set at the
            // view set's version, and skips the whole per-shard gather.
            // The admit hint is the max k-th over this worker's live
            // members, so any member that admits the hit had the payload
            // copied.
            if (cache != nullptr) {
              double hint = -std::numeric_limits<double>::infinity();
              for (uint64_t m = mask; m != 0; m &= m - 1) {
                const double kth =
                    w.collectors[static_cast<size_t>(__builtin_ctzll(m))]
                        .KthCost();
                if (kth > hint) hint = kth;
              }
              if (cache->Lookup(stable_id, sharded.version, epsilon, hint,
                                &hit)) {
                ++w.stats.cache_hits;
                offer(mask, stable_id, hit.cost, hit.upgraded,
                      hit.already_competitive);
                hits_unlapped = true;  // no probe/upgrade to charge
                return;
              }
              ++w.stats.cache_misses;
              if (hits_unlapped) {
                LapOther(tel);
                hits_unlapped = false;
              }
            }

            if (gather.prune_ok && gather.have_box) {
              const double bound =
                  LbcPair(t, gather.live_box.min_data(),
                          gather.live_box.max_data(), dims, cost_fn,
                          BoundMode::kSound);
              uint64_t keep = 0;
              for (uint64_t m = mask; m != 0; m &= m - 1) {
                const size_t i = static_cast<size_t>(__builtin_ctzll(m));
                const double cutoff = std::min(w.collectors[i].KthCost(),
                                               thresholds[i].Get());
                if (!(bound > cutoff)) keep |= uint64_t{1} << i;
              }
              LapPrune(tel);
              w.stats.candidates_pruned += static_cast<uint64_t>(
                  __builtin_popcountll(mask & ~keep));
              mask = keep;
              if (mask == 0) return;
            }

            // Gather: probe every shard's index (memoized per shard), seed
            // the skyline with the first shard's probe rows (an index
            // probe already returns a skyline), then fold every further
            // member point by point. Folding preserves value-set
            // semantics, and skyline(union) = skyline(union of
            // skylines), so `dominators` ends as the exact global
            // dominator skyline of t.
            dominators.clear();
            for (size_t v = 0; v < num_shards; ++v) {
              const Snapshot& base = *sharded.views[v].snapshot;
              const DeltaPrefix& log = sharded.views[v].deltas;
              const ShardContext& c = ctx[v];
              SkylineMemo* const memo = sharded.views[v].memo.get();
              if (memo != nullptr &&
                  memo->Lookup(sharded.epoch, t, log.erased_indexed,
                               &sky_rows)) {
                ++w.stats.memo_hits;
              } else {
                if (memo != nullptr) ++w.stats.memo_misses;
                DominatingSkylineInto(base.index(), t, c.erase_mask,
                                      &sky_rows);
                if (memo != nullptr) {
                  memo->Store(sharded.epoch, t, log.erased_indexed,
                              sky_rows);
                }
              }
              if (dominators.empty()) {
                for (PointId row : sky_rows) {
                  dominators.push_back(base.competitors().data(row));
                }
              } else {
                for (PointId row : sky_rows) {
                  PatchSkylineInsert(&dominators,
                                     base.competitors().data(row), dims);
                }
              }
              LapProbe(tel);
              const uint8_t* const dead =
                  c.masks.inserted_mask(DeltaTarget::kCompetitor);
              for (size_t chunk = 0; chunk < log.competitor_chunks();
                   ++chunk) {
                scan_hits.clear();
                FilterDominated(log.competitor_lanes(chunk), t, &scan_hits,
                                /*strict=*/true);
                for (uint32_t j : scan_hits) {
                  const size_t row = chunk * kDeltaChunkRows + j;
                  if (dead[row] != 0) continue;
                  PatchSkylineInsert(
                      &dominators, log.row(DeltaTarget::kCompetitor, row),
                      dims);
                }
              }
              LapSkyline(tel);
            }

            ++w.stats.candidates_evaluated;
            UpgradeOutcome outcome =
                UpgradeProduct(dominators, t, dims, cost_fn, epsilon);
            if (cache != nullptr) {
              // `dominators` is the exact GLOBAL dominator skyline, which
              // is precisely the value set the cache's invalidation
              // proofs run against.
              cache->Store(stable_id, t, sharded.version, epsilon, outcome,
                           dominators);
            }
            offer(mask, stable_id, outcome.cost, outcome.upgraded,
                  outcome.already_competitive);
            LapUpgrade(tel);
          };

          const Dataset& own_products = own.products();
          const uint8_t* const erased_products =
              own_ctx.masks.snapshot_mask(DeltaTarget::kProduct);
          for (size_t i = 0;
               i < own_products.size() &&
               // lint: relaxed-ok (advisory early-out; the join publishes)
               live.load(std::memory_order_relaxed) != 0;
               ++i) {
            poll();
            if (erased_products[i] != 0) continue;
            evaluate(own.product_id(static_cast<PointId>(i)),
                     own_products.data(static_cast<PointId>(i)));
          }
          const uint8_t* const dead_products =
              own_ctx.masks.inserted_mask(DeltaTarget::kProduct);
          for (size_t j = 0;
               j < own_log.products &&
               // lint: relaxed-ok (advisory early-out; the join publishes)
               live.load(std::memory_order_relaxed) != 0;
               ++j) {
            if (dead_products[j] != 0) continue;
            poll();
            evaluate(own_log.id(DeltaTarget::kProduct, j),
                     own_log.row(DeltaTarget::kProduct, j));
          }
          // Residual loop/collector time since the last lap — charged on
          // both exits, so a cancelled worker still reports its phases.
          if (hits_unlapped) LapOther(tel);
          LapMerge(tel);
          w.wall_seconds = worker_wall.ElapsedSeconds();
        }
      });

  // The join above synchronized every worker's writes and control verdict.
  if (info != nullptr) {
    info->shard_count = static_cast<uint32_t>(num_shards);
    info->slowest_shard = 0;
    info->slowest_shard_seconds = workers.front().wall_seconds;
    for (size_t s = 1; s < num_shards; ++s) {
      if (workers[s].wall_seconds > info->slowest_shard_seconds) {
        info->slowest_shard = static_cast<uint32_t>(s);
        info->slowest_shard_seconds = workers[s].wall_seconds;
      }
    }
  }
  if (telemetry != nullptr) {
    for (const std::unique_ptr<ShardTelemetry>& tel : worker_telemetry) {
      tel->FlushInto(telemetry);
    }
  }
  for (WorkerState& w : workers) shared_stats.MergeFrom(w.stats);
  if (stats != nullptr) stats->MergeFrom(shared_stats);
  for (size_t i = 0; i < n_members; ++i) {
    if (((live_init >> i) & 1) == 0) continue;  // shape error, already set
    if (!member_stop[i].ok()) {
      (*out)[i].status = member_stop[i];
      continue;
    }
    TopKCollector merged(queries[i].k);
    for (WorkerState& w : workers) {
      for (UpgradeResult& r : w.collectors[i].Finish()) {
        if (merged.Admits(r.cost)) merged.Add(std::move(r));
      }
    }
    (*out)[i].results = merged.Finish();
  }
}

}  // namespace skyup
