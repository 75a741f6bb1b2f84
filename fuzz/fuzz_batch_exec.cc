// Differential fuzz of cross-query amortization: grouped execution
// (`TopKShardedBatch` over a whole group) with the epoch-scoped skyline
// memo enabled vs a batch of one per query on the SAME view set with the
// memo and the upgrade cache stripped. Both run against identical live
// state, so every ranked answer must agree exactly — ids, costs (bit for
// bit), upgraded vectors, flags. The table has a random shard count, so
// per-shard memos and the cross-shard gather are in play too.
//
// Stress axes the amortization layers add on top of fuzz_serve:
//   * memo reuse across queries and epochs: tiny byte budgets force
//     evictions; inline rebuilds roll the epoch and must invalidate
//     (a stale hit would surface instantly as a divergence);
//   * overlay churn between batches within one epoch: erases of indexed
//     rows advance the memo's erased-count clock, inserts must not
//     perturb cached probes;
//   * batch-boundary shuffles: the same query list re-executed under a
//     different random split into groups (including all-solo) must
//     reproduce the grouped answers;
//   * repeat execution: an identical batch re-run on a warmed memo (hit
//     path) must reproduce the cold answers.

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "core/cost_function.h"
#include "fuzz_common.h"
#include "serve/rebuilder.h"
#include "serve/shard/shard_query.h"
#include "serve/shard/sharded_table.h"

namespace skyup {
namespace fuzz {
namespace {

void CheckSameMember(const std::vector<UpgradeResult>& want,
                     const std::vector<UpgradeResult>& got, const char* where,
                     uint64_t seed, int step, size_t member) {
  SKYUP_CHECK(got.size() == want.size())
      << where << " member " << member << ": " << got.size()
      << " results vs " << want.size() << ", seed=" << seed
      << " step=" << step;
  for (size_t i = 0; i < want.size(); ++i) {
    SKYUP_CHECK(got[i].product_id == want[i].product_id)
        << where << " member " << member << " rank " << i << ": product "
        << got[i].product_id << " vs " << want[i].product_id
        << ", seed=" << seed << " step=" << step;
    // lint: float-eq-ok (differential oracle: grouped + memoized execution
    // must agree bit-exactly with the per-query memo-off engine)
    SKYUP_CHECK(got[i].cost == want[i].cost)
        << where << " member " << member << " rank " << i << ": cost "
        << got[i].cost << " vs " << want[i].cost << ", seed=" << seed
        << " step=" << step;
    SKYUP_CHECK(got[i].upgraded == want[i].upgraded)
        << where << " member " << member << " rank " << i
        << ": upgraded vector diverges, seed=" << seed << " step=" << step;
    SKYUP_CHECK(got[i].already_competitive == want[i].already_competitive)
        << where << " member " << member << " rank " << i
        << ": competitive flag diverges, seed=" << seed << " step=" << step;
  }
}

void RunOne(uint64_t seed) {
  Rng rng(seed);
  const size_t dims = 2 + static_cast<size_t>(rng.NextUint64(3));
  const double epsilon = 1e-6;
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(dims, 1e-3);

  ShardedTableOptions options;
  options.dims = dims;
  options.shards = 1 + static_cast<size_t>(rng.NextUint64(4));
  options.rtree_fanout = 2 + static_cast<size_t>(rng.NextUint64(7));
  // 256 B .. 128 KB per shard: the low end holds almost nothing, so
  // eviction and the store-after-evict path run constantly; the high end
  // keeps entries alive across whole epochs.
  const size_t memo_per_shard = size_t{1} << (8 + rng.NextUint64(10));
  options.memo_cache_bytes = options.shards * memo_per_shard;
  Result<std::unique_ptr<ShardedTable>> table = ShardedTable::Create(options);
  SKYUP_CHECK(table.ok()) << table.status().ToString() << " seed=" << seed;
  ShardedTable& t = **table;
  auto run = [&](const ShardedView& views,
                 const std::vector<BatchQuery>& group) {
    std::vector<BatchQueryResult> out;
    TopKShardedBatch(views, cost_fn, group, epsilon, &out);
    SKYUP_CHECK(out.size() == group.size()) << "seed=" << seed;
    for (const BatchQueryResult& r : out) {
      SKYUP_CHECK(r.status.ok()) << r.status.ToString() << " seed=" << seed;
    }
    return out;
  };

  RebuildPolicy policy;
  policy.threshold_ops = 1 + static_cast<size_t>(rng.NextUint64(16));

  std::vector<uint64_t> live_p;
  std::vector<uint64_t> live_t;

  const int steps = 25 + static_cast<int>(rng.NextUint64(40));
  for (int step = 0; step < steps; ++step) {
    const uint64_t roll = rng.NextUint64(100);
    if (roll < 30 || live_p.empty()) {
      std::vector<double> coords(dims);
      for (double& c : coords) c = rng.NextDouble(0.0, 4.0);
      Result<uint64_t> id = t.InsertCompetitor(coords);
      SKYUP_CHECK(id.ok()) << id.status().ToString() << " seed=" << seed;
      live_p.push_back(*id);
    } else if (roll < 45) {
      std::vector<double> coords(dims);
      for (double& c : coords) c = rng.NextDouble(0.0, 4.0);
      Result<uint64_t> id = t.InsertProduct(coords);
      SKYUP_CHECK(id.ok()) << id.status().ToString() << " seed=" << seed;
      live_t.push_back(*id);
    } else if (roll < 60 && !live_p.empty()) {
      // Erase-heavy on P by design: erases of *indexed* rows are what
      // advance the memo's erased-count clock mid-epoch.
      const size_t at = static_cast<size_t>(rng.NextUint64(live_p.size()));
      SKYUP_CHECK(t.EraseCompetitor(live_p[at]).ok()) << "seed=" << seed;
      live_p[at] = live_p.back();
      live_p.pop_back();
    } else if (roll < 67 && !live_t.empty()) {
      const size_t at = static_cast<size_t>(rng.NextUint64(live_t.size()));
      SKYUP_CHECK(t.EraseProduct(live_t[at]).ok()) << "seed=" << seed;
      live_t[at] = live_t.back();
      live_t.pop_back();
    } else {
      // Grouped execution vs the batch-of-one memo-off oracle, same
      // state.
      const size_t n = 1 + static_cast<size_t>(rng.NextUint64(12));
      std::vector<BatchQuery> queries(n);
      for (BatchQuery& q : queries) {
        q.k = 1 + static_cast<size_t>(rng.NextUint64(6));
      }
      const ShardedView view = t.AcquireViews();
      ShardedView plain = view;
      for (ReadView& shard_view : plain.views) shard_view.memo.reset();
      // The memo-off oracle also drops the shared upgrade cache so its
      // answers are recomputed from scratch (and so the grouped engine's
      // cache hits are cross-checked, not mirrored).
      plain.cache.reset();

      std::vector<std::vector<UpgradeResult>> oracle(n);
      for (size_t i = 0; i < n; ++i) {
        oracle[i] = std::move(run(plain, {queries[i]}).front().results);
      }

      const std::vector<BatchQueryResult> batched = run(view, queries);
      for (size_t i = 0; i < n; ++i) {
        CheckSameMember(oracle[i], batched[i].results, "grouped", seed, step,
                        i);
      }

      // Re-run the identical group on the now-warmed memo: the hit path
      // must reproduce the cold answers.
      const std::vector<BatchQueryResult> warmed = run(view, queries);
      for (size_t i = 0; i < n; ++i) {
        CheckSameMember(oracle[i], warmed[i].results, "warmed", seed, step,
                        i);
      }

      // Batch-boundary shuffle: the same query list split into random
      // contiguous groups (size 1 = solo memo-on execution) must agree.
      size_t begin = 0;
      while (begin < n) {
        const size_t width =
            1 + static_cast<size_t>(rng.NextUint64(n - begin));
        const std::vector<BatchQuery> part(queries.begin() + begin,
                                           queries.begin() + begin + width);
        const std::vector<BatchQueryResult> split = run(view, part);
        for (size_t i = 0; i < width; ++i) {
          CheckSameMember(oracle[begin + i], split[i].results, "split", seed,
                          step, begin + i);
        }
        begin += width;
      }
    }
    // Inline epoch rolls: every publish must invalidate the memo (the
    // next batch would otherwise consume probes from the old epoch).
    Result<size_t> published = t.MaybePublishInline(policy);
    SKYUP_CHECK(published.ok()) << published.status().ToString()
                                << " seed=" << seed;
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace skyup

SKYUP_FUZZ_DRIVER("fuzz_batch_exec", skyup::fuzz::RunOne)
