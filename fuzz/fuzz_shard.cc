// Differential fuzz of shard-count independence: the same interleaved
// stream of inserts/erases/queries/publishes runs against a server of N
// spatial shards (scatter-gather behind one cross-shard epoch) and
// against a one-shard server as oracle (shards=1, the single-table case,
// which fuzz_serve pins to a from-scratch oracle). Results must agree
// exactly — sharding is a partition of pure work, so it may never change
// a byte of output.
//
// Shard counts deliberately include 1 (the oracle's own partition, run
// with the other scatter mode) and counts larger than the competitor set
// (empty shards must freeze/publish as identity patches without
// desynchronizing the cross-shard epoch). Beyond results, the fuzz also
// pins the epoch protocol: after every op, the N-shard server's epoch
// and total delta backlog must equal the one-shard server's — publish
// cycles fire on the same op counts.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/cost_function.h"
#include "fuzz_common.h"
#include "serve/server.h"

namespace skyup {
namespace fuzz {
namespace {

void CheckSameResults(const std::vector<UpgradeResult>& oracle,
                      const std::vector<UpgradeResult>& got, size_t shards,
                      uint64_t seed, int step) {
  SKYUP_CHECK(got.size() == oracle.size())
      << "sharded(" << shards << ") returned " << got.size()
      << " results vs one-shard " << oracle.size() << ", seed=" << seed
      << " step=" << step;
  for (size_t i = 0; i < oracle.size(); ++i) {
    SKYUP_CHECK(got[i].product_id == oracle[i].product_id)
        << "shards=" << shards << " rank " << i << ": product "
        << got[i].product_id << " vs " << oracle[i].product_id
        << ", seed=" << seed << " step=" << step;
    // lint: float-eq-ok (differential oracle: scatter-gather must agree
    // bit-exactly with the one-shard server)
    SKYUP_CHECK(got[i].cost == oracle[i].cost)
        << "shards=" << shards << " rank " << i << ": cost " << got[i].cost
        << " vs " << oracle[i].cost << ", seed=" << seed << " step=" << step;
    SKYUP_CHECK(got[i].upgraded == oracle[i].upgraded)
        << "shards=" << shards << " rank " << i
        << ": upgraded vector diverges, seed=" << seed << " step=" << step;
    SKYUP_CHECK(got[i].already_competitive == oracle[i].already_competitive)
        << "shards=" << shards << " rank " << i
        << ": competitive flag diverges, seed=" << seed << " step=" << step;
  }
}

void RunOne(uint64_t seed) {
  Rng rng(seed);
  const size_t dims = 2 + static_cast<size_t>(rng.NextUint64(3));
  // 1 and 9 matter: the oracle's partition under the other scatter mode,
  // and more shards than the table will hold rows for most of the run.
  constexpr size_t kShardChoices[] = {1, 2, 3, 5, 9};
  const size_t shards = kShardChoices[rng.NextUint64(5)];
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(dims, 1e-3);

  ServerOptions base;
  base.dims = dims;
  base.shards = 1;
  base.shard_query_threads = 0;
  base.background_rebuild = false;  // deterministic inline publishes
  base.rebuild_threshold_ops = 1 + static_cast<size_t>(rng.NextUint64(16));
  base.compact_tombstone_pct = 5 + static_cast<size_t>(rng.NextUint64(96));
  base.compact_tail_pct = 10 + static_cast<size_t>(rng.NextUint64(191));
  base.memo_cache_mb = rng.NextUint64(2) == 0 ? 0 : 1;
  base.query_threads = 1;
  base.flight_recorder = false;

  ServerOptions sharded_options = base;
  sharded_options.shards = shards;
  // Exercise both scatter modes: one worker per shard and serial scatter.
  // At one shard only serial scatter differs from the oracle.
  sharded_options.shard_query_threads =
      shards == 1 || rng.NextUint64(2) == 1 ? 1 : 0;

  Result<std::unique_ptr<Server>> oracle = Server::Create(cost_fn, base);
  SKYUP_CHECK(oracle.ok()) << oracle.status().ToString() << " seed=" << seed;
  Result<std::unique_ptr<Server>> sharded =
      Server::Create(cost_fn, sharded_options);
  SKYUP_CHECK(sharded.ok()) << sharded.status().ToString()
                            << " seed=" << seed;

  std::vector<uint64_t> live_p;
  std::vector<uint64_t> live_t;

  const int steps = 40 + static_cast<int>(rng.NextUint64(60));
  for (int step = 0; step < steps; ++step) {
    const uint64_t roll = rng.NextUint64(100);
    if (roll < 30 || (roll < 65 && live_p.empty())) {
      std::vector<double> coords(dims);
      for (double& c : coords) c = rng.NextDouble(0.0, 4.0);
      Result<uint64_t> a = (*oracle)->InsertCompetitor(coords);
      Result<uint64_t> b = (*sharded)->InsertCompetitor(coords);
      SKYUP_CHECK(a.ok() && b.ok()) << "seed=" << seed << " step=" << step;
      SKYUP_CHECK(*a == *b) << "competitor id diverges: " << *a << " vs "
                            << *b << ", seed=" << seed << " step=" << step;
      live_p.push_back(*a);
    } else if (roll < 45) {
      std::vector<double> coords(dims);
      for (double& c : coords) c = rng.NextDouble(0.0, 4.0);
      Result<uint64_t> a = (*oracle)->InsertProduct(coords);
      Result<uint64_t> b = (*sharded)->InsertProduct(coords);
      SKYUP_CHECK(a.ok() && b.ok()) << "seed=" << seed << " step=" << step;
      SKYUP_CHECK(*a == *b) << "product id diverges: " << *a << " vs " << *b
                            << ", seed=" << seed << " step=" << step;
      live_t.push_back(*a);
    } else if (roll < 58 && !live_p.empty()) {
      const size_t at = static_cast<size_t>(rng.NextUint64(live_p.size()));
      const uint64_t id = live_p[at];
      live_p[at] = live_p.back();
      live_p.pop_back();
      const Status a = (*oracle)->EraseCompetitor(id);
      const Status b = (*sharded)->EraseCompetitor(id);
      SKYUP_CHECK(a.code() == b.code())
          << "erase p " << id << ": " << a.ToString() << " vs "
          << b.ToString() << ", seed=" << seed << " step=" << step;
    } else if (roll < 68 && !live_t.empty()) {
      const size_t at = static_cast<size_t>(rng.NextUint64(live_t.size()));
      const uint64_t id = live_t[at];
      live_t[at] = live_t.back();
      live_t.pop_back();
      const Status a = (*oracle)->EraseProduct(id);
      const Status b = (*sharded)->EraseProduct(id);
      SKYUP_CHECK(a.code() == b.code())
          << "erase t " << id << ": " << a.ToString() << " vs "
          << b.ToString() << ", seed=" << seed << " step=" << step;
    } else if (roll < 72) {
      // Erase an id that never existed (or is long gone): both modes
      // must agree on the rejection, and the sharded id router must not
      // leak state for it.
      const uint64_t bogus = 1000000 + rng.NextUint64(1000);
      const Status a = (*oracle)->EraseCompetitor(bogus);
      const Status b = (*sharded)->EraseCompetitor(bogus);
      SKYUP_CHECK(a.code() == b.code())
          << "bogus erase: " << a.ToString() << " vs " << b.ToString()
          << ", seed=" << seed << " step=" << step;
    } else {
      QueryRequest request;
      request.k = 1 + static_cast<size_t>(rng.NextUint64(6));
      const QueryResponse a = (*oracle)->Query(request);
      const QueryResponse b = (*sharded)->Query(request);
      SKYUP_CHECK(a.status.ok()) << a.status.ToString() << " seed=" << seed;
      SKYUP_CHECK(b.status.ok()) << b.status.ToString() << " seed=" << seed;
      CheckSameResults(a.results, b.results, shards, seed, step);
      SKYUP_CHECK(a.epoch == b.epoch)
          << "query epoch diverges: " << a.epoch << " vs " << b.epoch
          << ", seed=" << seed << " step=" << step;
    }
    // The cross-shard epoch protocol must stay in lockstep with the
    // one-shard server: publish cycles fire on the same total op counts.
    SKYUP_CHECK((*oracle)->CurrentEpoch() == (*sharded)->CurrentEpoch())
        << "epoch diverges: " << (*oracle)->CurrentEpoch() << " vs "
        << (*sharded)->CurrentEpoch() << ", seed=" << seed
        << " step=" << step << " shards=" << shards;
    SKYUP_CHECK((*oracle)->DeltaBacklog() == (*sharded)->DeltaBacklog())
        << "backlog diverges: " << (*oracle)->DeltaBacklog() << " vs "
        << (*sharded)->DeltaBacklog() << ", seed=" << seed
        << " step=" << step << " shards=" << shards;
  }

  // Final sweep: a batch of query sizes over the settled state.
  for (size_t k = 1; k <= 8; ++k) {
    QueryRequest request;
    request.k = k;
    const QueryResponse a = (*oracle)->Query(request);
    const QueryResponse b = (*sharded)->Query(request);
    SKYUP_CHECK(a.status.ok() && b.status.ok()) << "seed=" << seed;
    CheckSameResults(a.results, b.results, shards, seed, steps);
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace skyup

SKYUP_FUZZ_DRIVER("fuzz_shard", skyup::fuzz::RunOne)
