#include "rtree/flat_rtree.h"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <string>

#include "rtree/rtree.h"
#include "util/check.h"

namespace skyup {

FlatRTree FlatRTree::FromTree(const Dataset& dataset, const RTreeNode& root) {
  FlatRTree flat;
  flat.dims_ = dataset.dims();
  flat.dataset_ = &dataset;

  // Pass 1: BFS to assign arena indices — children of a node become a
  // consecutive run, in the scaffold's child order.
  std::deque<const RTreeNode*> order;
  order.push_back(&root);
  std::vector<const RTreeNode*> nodes;
  while (!order.empty()) {
    const RTreeNode* node = order.front();
    order.pop_front();
    nodes.push_back(node);
    for (const auto& child : node->children) order.push_back(child.get());
  }

  const size_t n = nodes.size();
  const size_t dims = flat.dims_;
  flat.level_.resize(n);
  flat.begin_.resize(n);
  flat.end_.resize(n);
  flat.lo_soa_.resize(dims * n);
  flat.hi_soa_.resize(dims * n);
  flat.lo_aos_.resize(n * dims);
  flat.hi_aos_.resize(n * dims);
  flat.key_.resize(n);
  flat.parent_.assign(n, kNoParent);
  flat.live_count_.assign(n, 0);
  flat.point_ids_.reserve(dataset.size());
  flat.leaf_of_slot_.reserve(dataset.size());

  // Pass 2: fill the arena. BFS index arithmetic: the children of nodes[i]
  // start right after every child of nodes[0..i).
  uint32_t next_child = 1;
  for (size_t i = 0; i < n; ++i) {
    const RTreeNode* node = nodes[i];
    flat.level_[i] = node->level;
    const double* lo = node->mbr.min_data();
    const double* hi = node->mbr.max_data();
    for (size_t d = 0; d < dims; ++d) {
      flat.lo_soa_[d * n + i] = lo[d];
      flat.hi_soa_[d * n + i] = hi[d];
      flat.lo_aos_[i * dims + d] = lo[d];
      flat.hi_aos_[i * dims + d] = hi[d];
    }
    flat.key_[i] = node->mbr.MinCornerSum();
    if (node->is_leaf()) {
      flat.begin_[i] = static_cast<uint32_t>(flat.point_ids_.size());
      for (PointId id : node->points) {
        flat.point_ids_.push_back(id);
        flat.leaf_of_slot_.push_back(static_cast<uint32_t>(i));
      }
      flat.end_[i] = static_cast<uint32_t>(flat.point_ids_.size());
    } else {
      flat.begin_[i] = next_child;
      next_child += static_cast<uint32_t>(node->children.size());
      flat.end_[i] = next_child;
      for (uint32_t c = flat.begin_[i]; c < flat.end_[i]; ++c) {
        flat.parent_[c] = static_cast<uint32_t>(i);
      }
    }
  }

  // Every arena slot except the root must have been claimed as exactly one
  // node's child run — the BFS index arithmetic above depends on it.
  SKYUP_CHECK(next_child == static_cast<uint32_t>(n))
      << "flat arena child runs cover " << next_child << " of " << n
      << " nodes";

  const size_t p = flat.point_ids_.size();
  flat.pt_soa_.resize(dims * p);
  flat.pt_aos_.resize(p * dims);
  flat.slot_live_.assign(p, 1);
  flat.slot_of_row_.assign(flat.dataset_->size(), kNoSlot);
  for (size_t j = 0; j < p; ++j) {
    const double* coords = flat.dataset_->data(flat.point_ids_[j]);
    for (size_t d = 0; d < dims; ++d) {
      flat.pt_soa_[d * p + j] = coords[d];
      flat.pt_aos_[j * dims + d] = coords[d];
    }
    flat.slot_of_row_[static_cast<size_t>(flat.point_ids_[j])] =
        static_cast<uint32_t>(j);
  }

  // Live counts bottom-up; BFS order guarantees children have larger
  // indices than their parent, so one reverse sweep suffices.
  for (size_t i = n; i-- > 0;) {
    if (flat.level_[i] == 0) {
      flat.live_count_[i] = flat.end_[i] - flat.begin_[i];
    } else {
      uint32_t sum = 0;
      for (uint32_t c = flat.begin_[i]; c < flat.end_[i]; ++c) {
        sum += flat.live_count_[c];
      }
      flat.live_count_[i] = sum;
    }
  }
  SKYUP_PARANOID_OK(flat.Validate());
  return flat;
}

bool FlatRTree::CondenseMbr(uint32_t node) {
  // A node whose last live descendant just died keeps its stale MBR (no
  // live content to tighten over); traversals skip it via live_count == 0.
  // Report "changed" so the parent still re-unions without it.
  if (live_count_[node] == 0) return true;
  std::array<double, kMaxDims> lo;
  std::array<double, kMaxDims> hi;
  for (size_t d = 0; d < dims_; ++d) {
    lo[d] = std::numeric_limits<double>::infinity();
    hi[d] = -std::numeric_limits<double>::infinity();
  }
  if (is_leaf(node)) {
    for (uint32_t j = point_begin(node); j < point_end(node); ++j) {
      if (slot_live_[j] == 0) continue;
      const double* c = slot_coords(j);
      for (size_t d = 0; d < dims_; ++d) {
        lo[d] = std::min(lo[d], c[d]);
        hi[d] = std::max(hi[d], c[d]);
      }
    }
  } else {
    for (uint32_t c = child_begin(node); c < child_end(node); ++c) {
      if (live_count_[c] == 0) continue;
      for (size_t d = 0; d < dims_; ++d) {
        lo[d] = std::min(lo[d], min_corner(c)[d]);
        hi[d] = std::max(hi[d], max_corner(c)[d]);
      }
    }
  }
  bool changed = false;
  for (size_t d = 0; d < dims_; ++d) {
    if (lo_aos_[node * dims_ + d] != lo[d] ||
        hi_aos_[node * dims_ + d] != hi[d]) {
      changed = true;
      break;
    }
  }
  if (!changed) return false;
  const size_t n = node_count();
  double key = 0.0;
  for (size_t d = 0; d < dims_; ++d) {
    lo_aos_[node * dims_ + d] = lo[d];
    hi_aos_[node * dims_ + d] = hi[d];
    lo_soa_[d * n + node] = lo[d];
    hi_soa_[d * n + node] = hi[d];
    key += lo[d];
  }
  key_[node] = key;
  return true;
}

bool FlatRTree::Erase(PointId row) {
  if (row < 0 || static_cast<size_t>(row) >= slot_of_row_.size()) {
    return false;
  }
  const uint32_t slot = slot_of_row_[static_cast<size_t>(row)];
  if (slot == kNoSlot || slot_live_[slot] == 0) return false;
  slot_live_[slot] = 0;
  ++tombstones_;
  // Walk the condense path. Live counts decrement all the way to the
  // root; MBR re-tightening stops early once an ancestor's union is
  // unchanged (the dead point was interior there, so it is interior in
  // every ancestor above too).
  bool shrink = true;
  for (uint32_t node = leaf_of_slot_[slot];;) {
    SKYUP_DCHECK(live_count_[node] > 0);
    --live_count_[node];
    if (shrink) shrink = CondenseMbr(node);
    const uint32_t up = parent_[node];
    if (up == kNoParent) break;
    node = up;
  }
  return true;
}

Result<FlatRTree> FlatRTree::BulkLoad(const Dataset& dataset, size_t fanout) {
  if (fanout < 2) {
    return Status::InvalidArgument("R-tree fanout must be at least 2");
  }
  if (dataset.dims() > kMaxDims) {
    return Status::InvalidArgument("dataset dimensionality exceeds kMaxDims");
  }
  if (dataset.empty()) {
    FlatRTree flat;
    flat.dims_ = dataset.dims();
    flat.dataset_ = &dataset;
    return flat;
  }
  // The pointer tree is a scaffold; FromTree copies everything the flat
  // form needs and the scaffold is freed on return.
  return FromTree(dataset, *StrBulkLoad(dataset, fanout));
}

void FlatRTree::RangeQuery(const Mbr& box, std::vector<PointId>* out) const {
  SKYUP_CHECK(out != nullptr);
  if (live_size() == 0) return;
  // Closed-interval overlap of node `n`'s MBR with `box`.
  const auto intersects = [&](uint32_t n) {
    for (size_t d = 0; d < dims_; ++d) {
      if (min_corner(n)[d] > box.max(d) || box.min(d) > max_corner(n)[d]) {
        return false;
      }
    }
    return true;
  };
  std::vector<uint32_t> stack = {kRoot};
  while (!stack.empty()) {
    const uint32_t node = stack.back();
    stack.pop_back();
    if (live_count_[node] == 0 || !intersects(node)) continue;
    if (is_leaf(node)) {
      for (uint32_t j = point_begin(node); j < point_end(node); ++j) {
        if (slot_live_[j] != 0 && box.Contains(slot_coords(j))) {
          out->push_back(point_ids_[j]);
        }
      }
    } else {
      for (uint32_t c = child_begin(node); c < child_end(node); ++c) {
        stack.push_back(c);
      }
    }
  }
}

Mbr FlatRTree::root_mbr() const {
  // A fully-erased tree keeps a stale root box; report it as empty so
  // callers (e.g. the serve prune) never trust a box over zero points.
  if (empty() || live_count_[kRoot] == 0) return Mbr(dims_);
  return Mbr::FromCorners(min_corner(kRoot), max_corner(kRoot), dims_);
}

Status FlatRTree::Validate() const {
  if (empty()) {
    if (node_count() != 0) {
      return Status::Internal("empty flat tree has nodes");
    }
    return Status::OK();
  }
  const size_t n = node_count();
  const size_t p = point_ids_.size();
  // `slot_of_row_` covers the dataset rows that existed at build time; the
  // dataset may legitimately have grown since (appended rows are simply
  // not indexed), so only an *oversized* map is corrupt.
  if (slot_live_.size() != p || leaf_of_slot_.size() != p ||
      live_count_.size() != n || parent_.size() != n ||
      slot_of_row_.size() > dataset_->size()) {
    return Status::Internal("tombstone arenas out of shape");
  }
  if (parent_[kRoot] != kNoParent) {
    return Status::Internal("root node has a parent link");
  }
  size_t dead = 0;
  for (uint32_t j = 0; j < p; ++j) {
    if (slot_live_[j] == 0) ++dead;
  }
  if (dead != tombstones_) {
    return Status::Internal("tombstone tally out of sync");
  }
  size_t points_seen = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims_; ++d) {
      if (lo_soa_[d * n + i] != min_corner(i)[d] ||
          hi_soa_[d * n + i] != max_corner(i)[d]) {
        return Status::Internal("SoA/AoS corner mismatch at node " +
                                std::to_string(i));
      }
      if (min_corner(i)[d] > max_corner(i)[d]) {
        return Status::Internal("inverted MBR at node " + std::to_string(i));
      }
    }
    // Recomputed in the same d-ascending order Mbr::MinCornerSum uses, so
    // a correct cache compares exactly equal — no tolerance needed.
    double key = 0.0;
    for (size_t d = 0; d < dims_; ++d) key += min_corner(i)[d];
    if (key_[i] != key) {
      return Status::Internal("stale best-first key at node " +
                              std::to_string(i));
    }
    if (is_leaf(i)) {
      if (point_begin(i) > point_end(i) || point_end(i) > point_ids_.size()) {
        return Status::Internal("leaf range out of bounds at node " +
                                std::to_string(i));
      }
      points_seen += point_end(i) - point_begin(i);
      uint32_t live = 0;
      Mbr tight(dims_);
      for (uint32_t j = point_begin(i); j < point_end(i); ++j) {
        const double* coords = dataset_->data(point_ids_[j]);
        for (size_t d = 0; d < dims_; ++d) {
          if (slot_coords(j)[d] != coords[d] ||
              pt_soa_[d * point_ids_.size() + j] != coords[d]) {
            return Status::Internal("stale leaf coordinates at slot " +
                                    std::to_string(j));
          }
          if (slot_live_[j] != 0 &&
              (coords[d] < min_corner(i)[d] || coords[d] > max_corner(i)[d])) {
            return Status::Internal("leaf point escapes its MBR at slot " +
                                    std::to_string(j));
          }
        }
        if (slot_live_[j] != 0) {
          ++live;
          tight.Expand(coords);
        }
      }
      if (live != live_count_[i]) {
        return Status::Internal("leaf live count out of sync at node " +
                                std::to_string(i));
      }
      // A live leaf's MBR is the *exact* union of its live points (Erase
      // re-tightens); dead leaves keep stale boxes and are exempt.
      if (live != 0) {
        for (size_t d = 0; d < dims_; ++d) {
          if (tight.min(d) != min_corner(i)[d] ||
              tight.max(d) != max_corner(i)[d]) {
            return Status::Internal("MBR not tight over live points at node " +
                                    std::to_string(i));
          }
        }
      }
    } else {
      if (child_begin(i) >= child_end(i) || child_end(i) > n ||
          child_begin(i) <= i) {
        return Status::Internal("child range malformed at node " +
                                std::to_string(i));
      }
      uint32_t live = 0;
      Mbr tight(dims_);
      for (uint32_t c = child_begin(i); c < child_end(i); ++c) {
        if (level_[c] != level_[i] - 1) {
          return Status::Internal("child level skew at node " +
                                  std::to_string(i));
        }
        if (parent_[c] != i) {
          return Status::Internal("parent link wrong at node " +
                                  std::to_string(c));
        }
        if (live_count_[c] == 0) continue;  // dead subtree: stale MBR exempt
        live += live_count_[c];
        for (size_t d = 0; d < dims_; ++d) {
          if (min_corner(c)[d] < min_corner(i)[d] ||
              max_corner(c)[d] > max_corner(i)[d]) {
            return Status::Internal("child MBR escapes parent at node " +
                                    std::to_string(c));
          }
        }
        tight.Expand(Mbr::FromCorners(min_corner(c), max_corner(c), dims_));
      }
      if (live != live_count_[i]) {
        return Status::Internal("internal live count out of sync at node " +
                                std::to_string(i));
      }
      if (live != 0) {
        for (size_t d = 0; d < dims_; ++d) {
          if (tight.min(d) != min_corner(i)[d] ||
              tight.max(d) != max_corner(i)[d]) {
            return Status::Internal("MBR not tight over live points at node " +
                                    std::to_string(i));
          }
        }
      }
    }
  }
  if (points_seen != point_ids_.size()) {
    return Status::Internal("leaf ranges do not tile the point span");
  }
  // Slot/row maps last: the node sweep above reports more specific damage
  // first (stale coordinates, level skew) when an arena is corrupted.
  for (uint32_t j = 0; j < p; ++j) {
    if (leaf_of_slot_[j] >= n || !is_leaf(leaf_of_slot_[j]) ||
        point_begin(leaf_of_slot_[j]) > j ||
        j >= point_end(leaf_of_slot_[j])) {
      return Status::Internal("leaf-of-slot map wrong at slot " +
                              std::to_string(j));
    }
    const PointId row = point_ids_[j];
    if (row < 0 || static_cast<size_t>(row) >= slot_of_row_.size() ||
        slot_of_row_[static_cast<size_t>(row)] != j) {
      return Status::Internal("slot-of-row map wrong at slot " +
                              std::to_string(j));
    }
  }
  return Status::OK();
}

}  // namespace skyup
