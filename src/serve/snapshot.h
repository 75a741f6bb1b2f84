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
// Snapshots come in two flavors sharing one representation:
//   - a *major* snapshot (Snapshot::Create / MergeSnapshot): every
//     competitor row is indexed and live, no tail;
//   - a *patched* snapshot (PatchSnapshot, serve/rebuilder.cc): cloned
//     from a base snapshot in O(rows) without an index rebuild. Erased
//     indexed competitors become index tombstones (their dataset rows and
//     ids stay in place — the cloned arena references rows by number);
//     inserted competitors live in an unindexed, compacted *tail*
//     `[indexed_competitors(), competitors().size())` mirrored into an
//     SoA block for the batched kernels. Products carry no index, so the
//     product table is simply compacted: every product row is live.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "core/dominance_batch.h"
#include "core/point.h"
#include "rtree/flat_rtree.h"
#include "util/status.h"
#include "util/timer.h"

namespace skyup {

struct DeltaPrefix;
class Snapshot;

/// Declared here (defined in serve/rebuilder.cc) so it can be a friend.
Result<std::shared_ptr<const Snapshot>> PatchSnapshot(
    const Snapshot& base, const DeltaPrefix& ops, uint64_t next_epoch);

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

  /// Competitor rows `[0, indexed_competitors())` are covered by the flat
  /// index (possibly tombstoned); rows from there on are the live,
  /// unindexed tail a patch appended.
  size_t indexed_competitors() const { return index_.size(); }
  size_t tail_competitors() const {
    return competitors_->size() - index_.size();
  }
  /// SoA mirror of the tail rows; lane `j` is row
  /// `indexed_competitors() + j`.
  SoaView tail_view() const { return tail_block_.view(); }

  /// Liveness of a competitor row: tail rows are always live, indexed
  /// rows are live unless tombstoned.
  bool competitor_alive(PointId row) const {
    return static_cast<size_t>(row) >= index_.size() ||
           index_.row_alive(row);
  }
  size_t live_competitors() const {
    return index_.live_size() + tail_competitors();
  }
  /// Every product row is live (patches compact the product table).
  size_t live_products() const { return products_->size(); }

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
  /// snapshot (it may still be live via the delta log).
  PointId CompetitorRow(uint64_t id) const {
    auto it = competitor_rows_.find(id);
    return it == competitor_rows_.end() ? kInvalidPointId : it->second;
  }
  PointId ProductRow(uint64_t id) const {
    auto it = product_rows_.find(id);
    return it == product_rows_.end() ? kInvalidPointId : it->second;
  }

  /// Steady-clock instant `Create` finished (snapshot-age metric).
  SteadyClock::time_point published_at() const { return published_at_; }

 private:
  // The patch path needs the private constructor plus write access to the
  // index clone and tail block while assembling the next epoch.
  friend Result<std::shared_ptr<const Snapshot>> PatchSnapshot(
      const Snapshot& base, const DeltaPrefix& ops, uint64_t next_epoch);

  Snapshot(uint64_t epoch, std::unique_ptr<Dataset> competitors,
           std::vector<uint64_t> competitor_ids,
           std::unique_ptr<Dataset> products,
           std::vector<uint64_t> product_ids);

  uint64_t epoch_;
  // unique_ptr keeps dataset addresses stable: the flat index holds a raw
  // `const Dataset*` into competitors_.
  std::unique_ptr<Dataset> competitors_;
  std::unique_ptr<Dataset> products_;
  std::vector<uint64_t> competitor_ids_;
  std::vector<uint64_t> product_ids_;
  std::unordered_map<uint64_t, PointId> competitor_rows_;
  std::unordered_map<uint64_t, PointId> product_rows_;
  FlatRTree index_;
  SoaBlock tail_block_;
  SteadyClock::time_point published_at_;
};

}  // namespace skyup

#endif  // SKYUP_SERVE_SNAPSHOT_H_
