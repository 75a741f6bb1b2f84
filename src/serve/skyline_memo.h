#ifndef SKYUP_SERVE_SKYLINE_MEMO_H_
#define SKYUP_SERVE_SKYLINE_MEMO_H_

// Epoch-scoped dominator-skyline memo cache (ROADMAP item 2). Nearby
// candidates have heavily overlapping anti-dominant regions and recompute
// near-identical dominator skylines; within one snapshot epoch the indexed
// part of that computation is a pure function of (epoch, probe point,
// erased-indexed-row count), so its result can be memoized and shared
// across the whole query stream.
//
// Soundness argument (also in docs/algorithms.md):
//  - The probe `DominatingSkylineInto(snapshot.index(), t, erase_mask, ..)`
//    reads only the immutable snapshot index and the erase mask over its
//    (all indexed) rows. Within an epoch the delta log is append-only, so
//    the set of erased indexed rows visible to a view is fully described by
//    its *count*: a view with the same epoch and the same count has seen
//    exactly the same prefix of erase operations (erases of overlay rows
//    never affect the indexed probe and are excluded from the count).
//  - Keys quantize the probe coordinates only to pick a bucket; every entry
//    stores the exact coordinates and is compared exactly on lookup, so
//    key collisions can cause misses, never wrong results.
//  - Publishing a new snapshot changes the epoch; entries self-describe
//    their epoch and never match a different one, and `OnPublish` drops the
//    whole cache — invalidation is free, there is nothing to diff.
//
// A hit returns the memoized dominator rows; the caller replays its own
// overlay deltas on top (insert folds via `PatchSkylineInsert`), so
// overlay churn needs no invalidation either. Hit results may order
// equal-key members differently than a fresh probe would for a different
// caller; all consumers are invariant to that (see DominatingSkylineTileInto
// docs).
//
// Concurrency: 16-way sharded by key hash, one mutex per shard; lookups and
// stores from concurrent server workers contend only within a shard.
// Memory is bounded per shard; eviction drops whole buckets FIFO by
// creation order (LRU-ish: freshly created buckets — the ones the live
// query mix is touching — survive longest).

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/point.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace skyup {

class SkylineMemo {
 public:
  /// `dims` is the coordinate count of every probe point; `max_bytes` is
  /// the total payload budget across all shards (>= 1; entries beyond it
  /// evict oldest-bucket-first per shard).
  SkylineMemo(size_t dims, size_t max_bytes);

  SkylineMemo(const SkylineMemo&) = delete;
  SkylineMemo& operator=(const SkylineMemo&) = delete;

  /// Looks up the memoized indexed-dominator skyline for probe point `t`
  /// (exact coordinate match) under snapshot `epoch` with
  /// `erased_indexed` erased indexed rows visible. On a hit, fills `rows`
  /// (cleared first) and returns true.
  bool Lookup(uint64_t epoch, const double* t, uint64_t erased_indexed,
              std::vector<PointId>* rows);

  /// Memoizes a probe result. Safe to call with a result computed under a
  /// stale view after a publish: the entry can only ever match readers of
  /// the same (epoch, erased_indexed) view, for which it is exact.
  void Store(uint64_t epoch, const double* t, uint64_t erased_indexed,
             const std::vector<PointId>& rows);

  /// Epoch rollover: drops every entry. Called under the table's publish
  /// lock; entries from the old epoch could never match new-epoch lookups
  /// anyway (see Lookup), so this only reclaims memory.
  void OnPublish();

  size_t max_bytes() const { return max_bytes_; }

  /// Diagnostics (aggregated across shards under the shard locks).
  size_t entry_count() const;
  size_t bytes_used() const;
  uint64_t evictions() const;

 private:
  struct Entry {
    uint64_t epoch = 0;
    uint64_t erased_indexed = 0;
    std::vector<double> t;
    std::vector<PointId> rows;
  };
  struct Bucket {
    std::vector<Entry> entries;
  };
  // Shard locks sit in the table-substructure band: OnPublish runs while
  // the table fence (ShardedTable::route_mu_) is held, and shards are
  // only ever locked one at a time (the diagnostics aggregate
  // sequentially).
  struct Shard {
    mutable Mutex mu SKYUP_ACQUIRED_AFTER(lock_order::kTableSub)
        SKYUP_ACQUIRED_BEFORE(lock_order::kObsRegistry);
    std::unordered_map<uint64_t, Bucket> buckets SKYUP_GUARDED_BY(mu);
    std::vector<uint64_t> fifo
        SKYUP_GUARDED_BY(mu);        // bucket keys in creation order
    size_t fifo_head SKYUP_GUARDED_BY(mu) = 0;  // evicted prefix of `fifo`
    size_t bytes SKYUP_GUARDED_BY(mu) = 0;
    uint64_t evictions SKYUP_GUARDED_BY(mu) = 0;
  };

  static constexpr size_t kShards = 16;

  uint64_t KeyOf(const double* t) const;
  static size_t EntryBytes(const Entry& e);
  void EvictLocked(Shard* shard) SKYUP_REQUIRES(shard->mu);

  const size_t dims_;
  const size_t max_bytes_;
  const size_t shard_budget_;
  Shard shards_[kShards];
};

}  // namespace skyup

#endif  // SKYUP_SERVE_SKYLINE_MEMO_H_
