#ifndef SKYUP_RTREE_FLAT_RTREE_H_
#define SKYUP_RTREE_FLAT_RTREE_H_

// The R-tree every algorithm runs on: every node lives in one contiguous
// arena (breadth-first order, so the children of a node are a consecutive
// index range), MBR corners are stored structure-of-arrays per dimension,
// and all leaf point ids (plus their coordinates, SoA) form one flat span.
// Best-first traversal over this layout touches sequential memory, and a
// node's child range or leaf range is directly a `SoaView` the batched
// dominance kernels (core/dominance_batch.h) can cull four lanes at a time.
//
// `BulkLoad` packs the rows with Sort-Tile-Recursive and copies the packed
// tree breadth-first, keeping its child and leaf order. The arena is
// immutable: there is no in-place insert or delete. To change the point
// set, bulk-load again (the serve tier re-packs every epoch,
// src/serve/rebuilder.h, and masks pending erases per probe with
// `dead_rows`). Every node's MBR is the *exact* union of its content, so
// the root MBR is the data's bounding box; the serve tier's box
// lower-bound prune (src/serve/shard/shard_query.cc) depends on that, and
// `Validate()` proves it.

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/dominance_batch.h"
#include "core/point.h"
#include "rtree/mbr.h"
#include "util/status.h"

namespace skyup {

struct RTreeNode;

class FlatRTree {
 public:
  /// Packs every row of `dataset` with Sort-Tile-Recursive into nodes of
  /// at most `fanout` entries. An empty dataset — legal while a live table
  /// has everything erased — yields the empty index bound to `dataset`,
  /// which answers every probe with "no dominators". Fails on a fanout
  /// below 2 or more than `kMaxDims` dimensions.
  static Result<FlatRTree> BulkLoad(const Dataset& dataset,
                                    size_t fanout = 64);

  FlatRTree() = default;
  FlatRTree(FlatRTree&&) = default;
  FlatRTree& operator=(FlatRTree&&) = default;
  FlatRTree(const FlatRTree&) = delete;
  FlatRTree& operator=(const FlatRTree&) = delete;

  size_t dims() const { return dims_; }
  /// Number of indexed points.
  size_t size() const { return point_ids_.size(); }
  bool empty() const { return point_ids_.empty(); }
  size_t node_count() const { return begin_.size(); }
  const Dataset& dataset() const { return *dataset_; }

  /// The root is always node 0 of a non-empty tree.
  static constexpr uint32_t kRoot = 0;

  bool is_leaf(uint32_t n) const { return level_[n] == 0; }
  int32_t level(uint32_t n) const { return level_[n]; }

  /// Child node index range [child_begin, child_end) of an internal node;
  /// children are consecutive in the arena.
  uint32_t child_begin(uint32_t n) const { return begin_[n]; }
  uint32_t child_end(uint32_t n) const { return end_[n]; }

  /// Leaf slot range [point_begin, point_end) into `point_ids()`.
  uint32_t point_begin(uint32_t n) const { return begin_[n]; }
  uint32_t point_end(uint32_t n) const { return end_[n]; }
  const PointId* point_ids() const { return point_ids_.data(); }

  /// MBR corners of node `n`, contiguous per node (AoS mirror).
  const double* min_corner(uint32_t n) const {
    return lo_aos_.data() + static_cast<size_t>(n) * dims_;
  }
  const double* max_corner(uint32_t n) const {
    return hi_aos_.data() + static_cast<size_t>(n) * dims_;
  }

  /// Precomputed sum of min-corner coordinates (the best-first key).
  double min_corner_sum(uint32_t n) const { return key_[n]; }

  /// Coordinates of leaf slot `j` (same index space as `point_ids()`),
  /// contiguous per point.
  const double* slot_coords(uint32_t j) const {
    return pt_aos_.data() + static_cast<size_t>(j) * dims_;
  }

  /// SoA view over the MBR *min* corners of the node range [b, e) — the
  /// lanes the batched ADR-overlap / skyline-prune kernels consume when
  /// expanding an internal node.
  SoaView min_corner_block(uint32_t b, uint32_t e) const {
    return SoaView{lo_soa_.data() + b, node_count(),
                   static_cast<size_t>(e - b), dims_};
  }

  /// SoA view over the coordinates of leaf slot range [b, e).
  SoaView point_block(uint32_t b, uint32_t e) const {
    return SoaView{pt_soa_.data() + b, point_ids_.size(),
                   static_cast<size_t>(e - b), dims_};
  }

  /// Appends the ids of all points inside `box` (closed) to `out`,
  /// walking child ranges depth-first.
  void RangeQuery(const Mbr& box, std::vector<PointId>* out) const;

  /// Root MBR: the exact bounding box of the indexed points (an empty box
  /// for an empty tree), which the serving-layer prune depends on.
  Mbr root_mbr() const;

  /// Structural invariants: BFS child contiguity, MBR containment, SoA/AoS
  /// agreement, leaf coordinates matching the dataset, and every MBR being
  /// the exact union of its content.
  Status Validate() const;

 private:
  // Test-only backdoor (tests/flat_rtree_test_peer.h): corrupts arenas to
  // prove Validate() and the paranoid checks actually fire.
  friend class FlatRTreeTestPeer;

  // Copies the STR scaffold rooted at `root` (built over `dataset`) into
  // the arena, breadth-first, keeping child and leaf order.
  static FlatRTree FromTree(const Dataset& dataset, const RTreeNode& root);

  size_t dims_ = 0;
  const Dataset* dataset_ = nullptr;

  // Per node, BFS order. `begin_`/`end_` are child node indices for
  // internal nodes and leaf slot indices for leaves.
  std::vector<int32_t> level_;
  std::vector<uint32_t> begin_;
  std::vector<uint32_t> end_;
  std::vector<double> lo_soa_;  // [d * node_count + n]
  std::vector<double> hi_soa_;
  std::vector<double> lo_aos_;  // [n * dims + d]
  std::vector<double> hi_aos_;
  std::vector<double> key_;

  // Leaf slots, in leaf BFS order.
  std::vector<PointId> point_ids_;
  std::vector<double> pt_soa_;  // [d * size + j]
  std::vector<double> pt_aos_;  // [j * dims + d]
};

}  // namespace skyup

#endif  // SKYUP_RTREE_FLAT_RTREE_H_
