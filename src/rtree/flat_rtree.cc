#include "rtree/flat_rtree.h"

#include <deque>
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
  flat.point_ids_.reserve(dataset.size());

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
      flat.point_ids_.insert(flat.point_ids_.end(), node->points.begin(),
                             node->points.end());
      flat.end_[i] = static_cast<uint32_t>(flat.point_ids_.size());
    } else {
      flat.begin_[i] = next_child;
      next_child += static_cast<uint32_t>(node->children.size());
      flat.end_[i] = next_child;
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
  for (size_t j = 0; j < p; ++j) {
    const double* coords = flat.dataset_->data(flat.point_ids_[j]);
    for (size_t d = 0; d < dims; ++d) {
      flat.pt_soa_[d * p + j] = coords[d];
      flat.pt_aos_[j * dims + d] = coords[d];
    }
  }

  SKYUP_PARANOID_OK(flat.Validate());
  return flat;
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
  if (empty()) return;
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
    if (!intersects(node)) continue;
    if (is_leaf(node)) {
      for (uint32_t j = point_begin(node); j < point_end(node); ++j) {
        if (box.Contains(slot_coords(j))) {
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
  if (empty()) return Mbr(dims_);
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
    Mbr tight(dims_);
    if (is_leaf(i)) {
      if (point_begin(i) > point_end(i) || point_end(i) > point_ids_.size()) {
        return Status::Internal("leaf range out of bounds at node " +
                                std::to_string(i));
      }
      points_seen += point_end(i) - point_begin(i);
      for (uint32_t j = point_begin(i); j < point_end(i); ++j) {
        const double* coords = dataset_->data(point_ids_[j]);
        for (size_t d = 0; d < dims_; ++d) {
          if (slot_coords(j)[d] != coords[d] ||
              pt_soa_[d * point_ids_.size() + j] != coords[d]) {
            return Status::Internal("stale leaf coordinates at slot " +
                                    std::to_string(j));
          }
          if (coords[d] < min_corner(i)[d] || coords[d] > max_corner(i)[d]) {
            return Status::Internal("leaf point escapes its MBR at slot " +
                                    std::to_string(j));
          }
        }
        tight.Expand(coords);
      }
    } else {
      if (child_begin(i) >= child_end(i) || child_end(i) > n ||
          child_begin(i) <= i) {
        return Status::Internal("child range malformed at node " +
                                std::to_string(i));
      }
      for (uint32_t c = child_begin(i); c < child_end(i); ++c) {
        if (level_[c] != level_[i] - 1) {
          return Status::Internal("child level skew at node " +
                                  std::to_string(i));
        }
        for (size_t d = 0; d < dims_; ++d) {
          if (min_corner(c)[d] < min_corner(i)[d] ||
              max_corner(c)[d] > max_corner(i)[d]) {
            return Status::Internal("child MBR escapes parent at node " +
                                    std::to_string(c));
          }
        }
        tight.Expand(Mbr::FromCorners(min_corner(c), max_corner(c), dims_));
      }
    }
    // The MBR is the *exact* union of the node's content.
    for (size_t d = 0; d < dims_; ++d) {
      if (tight.min(d) != min_corner(i)[d] ||
          tight.max(d) != max_corner(i)[d]) {
        return Status::Internal("MBR not tight over its content at node " +
                                std::to_string(i));
      }
    }
  }
  if (points_seen != point_ids_.size()) {
    return Status::Internal("leaf ranges do not tile the point span");
  }
  return Status::OK();
}

}  // namespace skyup
