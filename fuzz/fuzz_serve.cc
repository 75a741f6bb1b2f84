// Differential fuzz of the live serving layer: random interleavings of
// inserts/erases on P and T, inline snapshot publishes at a random
// threshold, and top-k queries through the serve engine (a `Server` over
// a ShardedTable of random shard count N in 1..8, which is often more
// shards than live competitors) — checked for exact equality against an
// independent from-scratch oracle that never sees a snapshot, an index,
// a shard, or an overlay: a plain map of live rows, a linear dominator
// scan, a skyline reduction, and Algorithm 1 per candidate.
//
// Also stresses the serving-specific hazards:
//   * stale views: a view set captured mid-stream is re-queried after
//     more updates and publishes land — its results must match the
//     oracle state at capture time, not the current state;
//   * post-rebuild agreement: after a forced final publish (empty
//     overlay, upgrade cache detached), the same query must return the
//     same results it returned through the overlay;
//   * the cross-shard epoch protocol: publish cycles fire on the total
//     backlog, so after every op the server's epoch and backlog must be
//     what the oracle's own op count predicts, for any N; rejected
//     updates (erases of unknown ids) count toward neither.

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/cost_function.h"
#include "core/dominance.h"
#include "core/single_upgrade.h"
#include "core/topk_common.h"
#include "fuzz_common.h"
#include "serve/rebuilder.h"
#include "serve/server.h"
#include "serve/shard/shard_query.h"
#include "skyline/skyline.h"

namespace skyup {
namespace fuzz {
namespace {

// Oracle state: live rows by stable id. std::map keeps iteration in id
// order, matching the enumeration order the serving engine guarantees.
using OracleTable = std::map<uint64_t, std::vector<double>>;

std::vector<UpgradeResult> OracleTopK(const OracleTable& live_p,
                                      const OracleTable& live_t,
                                      const ProductCostFunction& cost_fn,
                                      size_t dims, size_t k,
                                      double epsilon) {
  TopKCollector collector(k);
  for (const auto& [tid, t] : live_t) {
    std::vector<const double*> dominators;
    for (const auto& [pid, p] : live_p) {
      if (Dominates(p.data(), t.data(), dims)) {
        dominators.push_back(p.data());
      }
    }
    SkylineOfPointers(&dominators, dims);
    UpgradeOutcome outcome =
        UpgradeProduct(dominators, t.data(), dims, cost_fn, epsilon);
    if (collector.Admits(outcome.cost)) {
      collector.Add(UpgradeResult{static_cast<PointId>(tid), outcome.cost,
                                  std::move(outcome.upgraded),
                                  outcome.already_competitive});
    }
  }
  return collector.Finish();
}

void CheckSameResults(const std::vector<UpgradeResult>& oracle,
                      const std::vector<UpgradeResult>& got,
                      const char* where, uint64_t seed, int step) {
  SKYUP_CHECK(got.size() == oracle.size())
      << where << " returned " << got.size() << " results vs oracle "
      << oracle.size() << ", seed=" << seed << " step=" << step;
  for (size_t i = 0; i < oracle.size(); ++i) {
    SKYUP_CHECK(got[i].product_id == oracle[i].product_id)
        << where << " rank " << i << ": product " << got[i].product_id
        << " vs oracle " << oracle[i].product_id << ", seed=" << seed
        << " step=" << step;
    // lint: float-eq-ok (differential oracle: the serve engine must
    // agree bit-exactly with the from-scratch computation)
    SKYUP_CHECK(got[i].cost == oracle[i].cost)
        << where << " rank " << i << ": cost " << got[i].cost
        << " vs oracle " << oracle[i].cost << ", seed=" << seed
        << " step=" << step;
    SKYUP_CHECK(got[i].upgraded == oracle[i].upgraded)
        << where << " rank " << i << ": upgraded vector diverges, seed="
        << seed << " step=" << step;
    SKYUP_CHECK(got[i].already_competitive == oracle[i].already_competitive)
        << where << " rank " << i << ": competitive flag diverges, seed="
        << seed << " step=" << step;
  }
}

// One query, alone, through the serve engine.
std::vector<UpgradeResult> EngineTopK(const ShardedView& views,
                                      const ProductCostFunction& cost_fn,
                                      size_t k, double epsilon,
                                      uint64_t seed) {
  std::vector<BatchQueryResult> out;
  TopKShardedBatch(views, cost_fn, {BatchQuery{k, nullptr}}, epsilon, &out);
  SKYUP_CHECK(out.front().status.ok())
      << out.front().status.ToString() << " seed=" << seed;
  return std::move(out.front().results);
}

// A stale view set plus the oracle state frozen at capture time.
struct StaleCheck {
  ShardedView views;
  OracleTable live_p;
  OracleTable live_t;
  int captured_at = 0;
};

void RunOne(uint64_t seed) {
  Rng rng(seed);
  const size_t dims = 2 + static_cast<size_t>(rng.NextUint64(3));
  const double epsilon = 1e-6;
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(dims, 1e-3);

  ServerOptions options;
  options.dims = dims;
  options.shards = 1 + static_cast<size_t>(rng.NextUint64(8));
  options.default_epsilon = epsilon;
  // Tiny fanouts + thresholds exercise deep trees and frequent publishes.
  options.rtree_fanout = 2 + static_cast<size_t>(rng.NextUint64(7));
  options.rebuild_threshold_ops = 1 + static_cast<size_t>(rng.NextUint64(16));
  options.memo_cache_mb = rng.NextUint64(2);
  options.background_rebuild = false;  // deterministic inline publishes
  options.query_threads = 1;
  options.flight_recorder = false;
  Result<std::unique_ptr<Server>> created = Server::Create(cost_fn, options);
  SKYUP_CHECK(created.ok()) << created.status().ToString()
                            << " seed=" << seed;
  Server& server = **created;

  // A quarter of the seeds run erase-heavy: queries carry many pending
  // erases, which is what the mask-aware probe and the prune face-disable
  // path need to see.
  const bool erase_heavy = rng.NextUint64(4) == 0;
  const uint64_t p_ins_below = erase_heavy ? 20 : 30;
  const uint64_t t_ins_below = p_ins_below + 15;
  const uint64_t p_del_below = t_ins_below + (erase_heavy ? 25 : 13);
  const uint64_t t_del_below = p_del_below + 10;
  const uint64_t bogus_below = t_del_below + 3;
  const uint64_t capture_below = bogus_below + 4;

  OracleTable live_p;
  OracleTable live_t;
  std::vector<StaleCheck> stale;
  // The epoch protocol the oracle predicts: every accepted op grows the
  // backlog, and a publish cycle (epoch + 1) absorbs it at the threshold.
  uint64_t expect_epoch = server.CurrentEpoch();
  size_t expect_backlog = 0;
  auto accepted = [&] {
    if (++expect_backlog >= options.rebuild_threshold_ops) {
      ++expect_epoch;
      expect_backlog = 0;
    }
  };

  const int steps = 30 + static_cast<int>(rng.NextUint64(60));
  for (int step = 0; step < steps; ++step) {
    const uint64_t roll = rng.NextUint64(100);
    if (roll < p_ins_below || (roll < 60 && live_p.empty())) {
      // Insert competitor. Sometimes duplicate an existing row exactly
      // (tie stress for the skyline reduction).
      std::vector<double> coords(dims);
      if (!live_p.empty() && rng.NextUint64(4) == 0) {
        coords = live_p.begin()->second;
      } else {
        for (double& c : coords) c = rng.NextDouble(0.0, 4.0);
      }
      Result<uint64_t> id = server.InsertCompetitor(coords);
      SKYUP_CHECK(id.ok()) << id.status().ToString() << " seed=" << seed;
      SKYUP_CHECK(live_p.count(*id) == 0) << "id reused, seed=" << seed;
      live_p.emplace(*id, std::move(coords));
      accepted();
    } else if (roll < t_ins_below) {
      std::vector<double> coords(dims);
      for (double& c : coords) c = rng.NextDouble(0.0, 4.0);
      Result<uint64_t> id = server.InsertProduct(coords);
      SKYUP_CHECK(id.ok()) << id.status().ToString() << " seed=" << seed;
      SKYUP_CHECK(live_t.count(*id) == 0) << "id reused, seed=" << seed;
      live_t.emplace(*id, std::move(coords));
      accepted();
    } else if (roll < p_del_below && !live_p.empty()) {
      auto victim = live_p.begin();
      std::advance(victim,
                   static_cast<long>(rng.NextUint64(live_p.size())));
      SKYUP_CHECK(server.EraseCompetitor(victim->first).ok())
          << "seed=" << seed;
      live_p.erase(victim);
      accepted();
    } else if (roll < t_del_below && !live_t.empty()) {
      auto victim = live_t.begin();
      std::advance(victim,
                   static_cast<long>(rng.NextUint64(live_t.size())));
      SKYUP_CHECK(server.EraseProduct(victim->first).ok())
          << "seed=" << seed;
      live_t.erase(victim);
      accepted();
    } else if (roll < bogus_below) {
      // An id that never existed: rejected, and the id router must not
      // leak state for it.
      const uint64_t bogus = 1000000 + rng.NextUint64(1000);
      SKYUP_CHECK(server.EraseCompetitor(bogus).code() ==
                  StatusCode::kNotFound)
          << "seed=" << seed << " step=" << step;
    } else if (roll < capture_below) {
      // Capture a view set to re-query later, against today's oracle.
      stale.push_back(
          StaleCheck{server.table().AcquireViews(), live_p, live_t, step});
    } else {
      QueryRequest request;
      request.k = 1 + static_cast<size_t>(rng.NextUint64(6));
      const QueryResponse got = server.Query(request);
      SKYUP_CHECK(got.status.ok()) << got.status.ToString()
                                   << " seed=" << seed;
      SKYUP_CHECK(got.epoch == expect_epoch)
          << "query ran at epoch " << got.epoch << ", expected "
          << expect_epoch << ", seed=" << seed << " step=" << step;
      CheckSameResults(OracleTopK(live_p, live_t, cost_fn, dims, request.k,
                                  epsilon),
                       got.results, "serve", seed, step);
    }
    SKYUP_CHECK(server.CurrentEpoch() == expect_epoch)
        << "epoch " << server.CurrentEpoch() << ", expected "
        << expect_epoch << ", seed=" << seed << " step=" << step
        << " shards=" << options.shards;
    SKYUP_CHECK(server.DeltaBacklog() == expect_backlog)
        << "backlog " << server.DeltaBacklog() << ", expected "
        << expect_backlog << ", seed=" << seed << " step=" << step
        << " shards=" << options.shards;
  }

  // Stale views answer as of their capture instant, however many
  // publishes have landed since.
  for (const StaleCheck& check : stale) {
    const size_t k = 1 + static_cast<size_t>(rng.NextUint64(6));
    CheckSameResults(
        OracleTopK(check.live_p, check.live_t, cost_fn, dims, k, epsilon),
        EngineTopK(check.views, cost_fn, k, epsilon, seed),
        "stale-view", seed, check.captured_at);
  }

  // Force a final publish: the clean (no-overlay) query must agree with
  // both the oracle and the overlay answer for the same state.
  const size_t k = 1 + static_cast<size_t>(rng.NextUint64(6));
  const std::vector<UpgradeResult> via_overlay = EngineTopK(
      server.table().AcquireViews(), cost_fn, k, epsilon, seed);
  RebuildPolicy compact;
  compact.threshold_ops = 1;
  Result<size_t> published = server.table().MaybePublishInline(compact);
  SKYUP_CHECK(published.ok()) << published.status().ToString()
                              << " seed=" << seed;
  ShardedView clean = server.table().AcquireViews();
  for (const ReadView& view : clean.views) {
    SKYUP_CHECK(view.deltas.empty()) << "seed=" << seed;
  }
  // Detach the upgrade cache from this view set: the clean query then
  // recomputes every candidate from scratch, so the agreement check below
  // is also a cache-on vs cache-off differential (the overlay answer was
  // free to reuse cached results for the same state).
  clean.cache.reset();
  const std::vector<UpgradeResult> via_snapshot =
      EngineTopK(clean, cost_fn, k, epsilon, seed);
  CheckSameResults(via_overlay, via_snapshot, "post-rebuild", seed, steps);
  CheckSameResults(OracleTopK(live_p, live_t, cost_fn, dims, k, epsilon),
                   via_snapshot, "final-oracle", seed, steps);
}

}  // namespace
}  // namespace fuzz
}  // namespace skyup

SKYUP_FUZZ_DRIVER("fuzz_serve", skyup::fuzz::RunOne)
