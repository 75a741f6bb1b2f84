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
// tree breadth-first, keeping its child and leaf order. The arena's *shape*
// is immutable — there is no in-place insert; bulk-load again to add
// points — but the structure supports in-place deletes via per-slot
// tombstones: `Erase(row)` marks the slot dead, decrements live counts
// along the leaf-to-root path, and re-tightens (condenses) every ancestor
// MBR whose union shrank, so live-node MBRs stay *exact* unions of their
// live content. That tightness is what keeps the serving layer's box
// lower-bound prune sound under deletes
// (src/serve/shard/shard_query.cc), and `Validate()` proves it. Dead
// nodes (live_count == 0) keep their stale MBRs and are skipped by
// traversals. DESIGN.md discusses the trade-off.

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
  FlatRTree& operator=(const FlatRTree&) = delete;

  /// Deep copy of the arena (including tombstone state) re-bound to
  /// `dataset`, which must hold the same rows this index was built over —
  /// typically a clone of the original dataset (src/serve patch-publish).
  FlatRTree Clone(const Dataset* dataset) const {
    FlatRTree copy(*this);
    copy.dataset_ = dataset;
    return copy;
  }

  size_t dims() const { return dims_; }
  /// Number of indexed slots, dead or alive.
  size_t size() const { return point_ids_.size(); }
  bool empty() const { return point_ids_.empty(); }
  size_t node_count() const { return begin_.size(); }
  const Dataset& dataset() const { return *dataset_; }

  /// Number of indexed points still alive.
  size_t live_size() const { return empty() ? 0 : live_count_[kRoot]; }
  /// Number of erased (tombstoned) slots.
  size_t tombstones() const { return tombstones_; }
  bool has_tombstones() const { return tombstones_ != 0; }

  /// Tombstones a point by its dataset row. Marks the slot dead,
  /// propagates live-count decrements leaf-to-root, and re-tightens every
  /// ancestor MBR whose union over live content shrank (both SoA/AoS
  /// mirrors and the best-first key). O(height * fanout * dims). Returns
  /// false — and changes nothing — if `row` is out of range, was never
  /// indexed, or is already dead.
  bool Erase(PointId row);

  /// Liveness of leaf slot `j` (same index space as `point_ids()`).
  bool slot_alive(uint32_t j) const { return slot_live_[j] != 0; }
  /// Liveness of dataset row `row` (false when not indexed).
  bool row_alive(PointId row) const {
    if (row < 0 || static_cast<size_t>(row) >= slot_of_row_.size()) {
      return false;
    }
    const uint32_t j = slot_of_row_[static_cast<size_t>(row)];
    return j != kNoSlot && slot_live_[j] != 0;
  }
  /// Number of live points under node `n`'s subtree (0 = dead node,
  /// skipped by traversals).
  uint32_t node_live_count(uint32_t n) const { return live_count_[n]; }

  /// The root is always node 0 of a non-empty tree.
  static constexpr uint32_t kRoot = 0;
  /// Sentinels: the root's parent link / an unindexed dataset row.
  static constexpr uint32_t kNoParent = UINT32_MAX;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

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

  /// Appends the ids of all live points inside `box` (closed) to `out`,
  /// walking child ranges depth-first and skipping dead nodes and slots.
  void RangeQuery(const Mbr& box, std::vector<PointId>* out) const;

  /// Root MBR (empty box for an empty or fully-erased tree). For a live
  /// tree this is an *exact* union of the live points — Erase re-tightens
  /// it — which the serving-layer prune depends on.
  Mbr root_mbr() const;

  /// Structural invariants: BFS child contiguity, MBR containment, SoA/AoS
  /// agreement, leaf coordinates matching the dataset, plus the tombstone
  /// layer — live-count sums, parent links, slot/row maps, the tombstone
  /// tally, and live-node MBRs being exact unions of live content.
  Status Validate() const;

 private:
  // Test-only backdoor (tests/flat_rtree_test_peer.h): corrupts arenas to
  // prove Validate() and the paranoid checks actually fire.
  friend class FlatRTreeTestPeer;

  // Copying is reserved for Clone(): a copy that still points at the
  // original dataset aliases mutable state across snapshots.
  FlatRTree(const FlatRTree&) = default;

  // Copies the STR scaffold rooted at `root` (built over `dataset`) into
  // the arena, breadth-first, keeping child and leaf order.
  static FlatRTree FromTree(const Dataset& dataset, const RTreeNode& root);

  // Recomputes node `n`'s MBR as the exact union of its live content
  // (slots for a leaf, live children for an internal node), updating both
  // mirrors and the best-first key. Returns true iff the stored MBR
  // changed or the node just died — i.e. iff the parent's union may have
  // shrunk too.
  bool CondenseMbr(uint32_t n);

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

  // Tombstone layer. `slot_live_` is 1/0 per leaf slot; `live_count_` is
  // the number of live points under each node's subtree; `parent_` links
  // each node upward (kNoParent at the root) so Erase can walk the
  // condense path without a search; `leaf_of_slot_` maps a slot to its
  // leaf; `slot_of_row_` maps a dataset row to its slot (kNoSlot when the
  // row is not indexed).
  std::vector<uint8_t> slot_live_;
  std::vector<uint32_t> live_count_;
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> leaf_of_slot_;
  std::vector<uint32_t> slot_of_row_;
  size_t tombstones_ = 0;
};

}  // namespace skyup

#endif  // SKYUP_RTREE_FLAT_RTREE_H_
