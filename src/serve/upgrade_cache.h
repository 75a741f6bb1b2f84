#ifndef SKYUP_SERVE_UPGRADE_CACHE_H_
#define SKYUP_SERVE_UPGRADE_CACHE_H_

// Versioned per-product cache of Algorithm-1 results with dominance-based
// invalidation, shared by every query view set of one ShardedTable.
//
// A product's upgrade result is a pure function of its coordinates, the
// cost function, epsilon, and the *value set* of its dominator skyline.
// Updates that provably leave that value set unchanged therefore cannot
// change the result, so the cache keeps each entry until an accepted op
// actually threatens its skyline:
//   - competitor insert q invalidates t's entry iff q dominates t and no
//     stored skyline member dominates-or-equals q (a member covering q
//     keeps q out of the skyline; transitivity covers everything q would
//     have shadowed);
//   - competitor erase r invalidates t's entry iff r dominates t and no
//     stored member *strictly* dominates r (a strict dominator proves r
//     was never a skyline value and that r's shadow stays covered; an
//     erase of a member — or of a duplicate of one — conservatively
//     invalidates);
//   - product erase drops the entry; product insert starts uncached.
//
// Versioning makes reuse sound across stale views: `version()` counts the
// accepted ops observed (the table calls OnDeltaOp under its routing
// mutex, in acceptance order, before the op is visible to any reader),
// every ShardedView stamps the count at capture, and a hit requires
// `entry.version <= view.version` — an entry that survived invalidation
// through the current version has an unchanged skyline at every version
// since it was stored, including the view's. `Store` drops results whose
// view is no longer current, so a slow query can never publish a stale
// entry.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/single_upgrade.h"
#include "serve/delta_log.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace skyup {

class UpgradeCache {
 public:
  explicit UpgradeCache(size_t dims);

  UpgradeCache(const UpgradeCache&) = delete;
  UpgradeCache& operator=(const UpgradeCache&) = delete;

  /// Observes one accepted op. Must be called in acceptance order, before
  /// any reader can see the op (ShardedTable calls this under its routing
  /// mutex, before the op reaches its shard). Erase ops carry no
  /// coordinates, so the cache keeps its own id -> coords map of live
  /// competitors, fed by the same op stream.
  void OnDeltaOp(const DeltaOp& op);

  /// Number of ops observed so far (the view-version clock).
  uint64_t version() const;

  struct Hit {
    double cost = 0.0;
    bool already_competitive = false;
    /// True iff `upgraded` was filled (cost <= the admit hint). The cost
    /// alone decides admission, so losers skip the vector copy.
    bool payload_copied = false;
    std::vector<double> upgraded;
  };

  /// Looks up the cached result for `product_id`, valid at `view_version`
  /// under exactly this `epsilon`. On a hit, `out->upgraded` is copied
  /// only when the cached cost is <= `admit_hint` (pass the collector's
  /// current k-th cost).
  bool Lookup(uint64_t product_id, uint64_t view_version, double epsilon,
              double admit_hint, Hit* out) const;

  /// Stores a freshly computed result together with the dominator-skyline
  /// values it was derived from. Dropped silently when an op landed after
  /// `view_version` — the result may already be stale.
  void Store(uint64_t product_id, const double* coords,
             uint64_t view_version, double epsilon,
             const UpgradeOutcome& outcome,
             const std::vector<const double*>& skyline);

  size_t size() const;
  size_t dims() const { return dims_; }

 private:
  struct Entry {
    std::vector<double> coords;   ///< the product's coordinates
    std::vector<double> skyline;  ///< flattened dominator-skyline values
    std::vector<double> upgraded;
    double cost = 0.0;
    double epsilon = 0.0;
    bool already_competitive = false;
    uint64_t version = 0;  ///< ops observed when the entry was computed
  };

  const size_t dims_;
  mutable Mutex mu_ SKYUP_ACQUIRED_AFTER(lock_order::kTableSub)
      SKYUP_ACQUIRED_BEFORE(lock_order::kObsRegistry);
  uint64_t version_ SKYUP_GUARDED_BY(mu_) = 0;
  std::unordered_map<uint64_t, Entry> entries_ SKYUP_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::vector<double>> competitor_coords_
      SKYUP_GUARDED_BY(mu_);
};

}  // namespace skyup

#endif  // SKYUP_SERVE_UPGRADE_CACHE_H_
