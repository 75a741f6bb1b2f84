#ifndef SKYUP_SERVE_SNAPSHOT_H_
#define SKYUP_SERVE_SNAPSHOT_H_

// Versioned, immutable serving snapshots.
//
// A `Snapshot` bundles everything one epoch of the live state needs to
// answer queries: the competitor set P (plus its flat arena index), the
// candidate set T, and the row <-> stable-id maps that connect dataset
// rows to the ids the serving API speaks. Snapshots are reference-counted
// (`shared_ptr`) and never mutated after publication — readers capture one
// in a view (serve/delta_log.h), run against it for as long as they like,
// and drop it; the last release of a superseded epoch frees it. That is the
// entire reclamation protocol: no epochs to retire by hand, no hazard
// pointers (docs/algorithms.md, "Serving & online updates").
//
// Every snapshot is built by `Create` (directly, or through the publish
// merge in serve/rebuilder.h): every row of both datasets is live, and
// every competitor row is indexed. Erases that land after the snapshot
// reach queries through the delta log's masks, never through the index.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/point.h"
#include "rtree/flat_rtree.h"
#include "util/status.h"
#include "util/timer.h"

namespace skyup {

/// One immutable epoch of serving state. Rows of both datasets are ordered
/// ascending by stable id, so any scan in row order is deterministic and
/// id-ordered by construction.
class Snapshot {
 public:
  /// Builds a snapshot from id-ordered rows. `competitor_ids[i]` /
  /// `product_ids[i]` is the stable id of row `i`; both vectors must be
  /// strictly ascending and sized to their dataset. Empty datasets are
  /// legal (a live table can have everything erased).
  static Result<std::shared_ptr<const Snapshot>> Create(
      uint64_t epoch, Dataset competitors,
      std::vector<uint64_t> competitor_ids, Dataset products,
      std::vector<uint64_t> product_ids, size_t rtree_fanout = 64);

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  uint64_t epoch() const { return epoch_; }
  const Dataset& competitors() const { return *competitors_; }
  const Dataset& products() const { return *products_; }
  const FlatRTree& index() const { return index_; }
  size_t dims() const { return competitors_->dims(); }

  /// Stable id of a competitor/product row.
  uint64_t competitor_id(PointId row) const {
    return competitor_ids_[static_cast<size_t>(row)];
  }
  uint64_t product_id(PointId row) const {
    return product_ids_[static_cast<size_t>(row)];
  }
  const std::vector<uint64_t>& competitor_ids() const {
    return competitor_ids_;
  }
  const std::vector<uint64_t>& product_ids() const { return product_ids_; }

  /// Row of a stable id, or `kInvalidPointId` if the id is not in this
  /// snapshot (it may still be live via the delta log). A binary search:
  /// `Create` proved both id vectors strictly ascending.
  PointId CompetitorRow(uint64_t id) const {
    return RowOf(competitor_ids_, id);
  }
  PointId ProductRow(uint64_t id) const { return RowOf(product_ids_, id); }

  /// Steady-clock instant `Create` finished (snapshot-age metric).
  SteadyClock::time_point published_at() const { return published_at_; }

 private:
  Snapshot() = default;

  static PointId RowOf(const std::vector<uint64_t>& ids, uint64_t id);

  uint64_t epoch_ = 0;
  // unique_ptr keeps dataset addresses stable: the flat index holds a raw
  // `const Dataset*` into competitors_.
  std::unique_ptr<Dataset> competitors_;
  std::unique_ptr<Dataset> products_;
  std::vector<uint64_t> competitor_ids_;
  std::vector<uint64_t> product_ids_;
  FlatRTree index_;
  SteadyClock::time_point published_at_;
};

}  // namespace skyup

#endif  // SKYUP_SERVE_SNAPSHOT_H_
