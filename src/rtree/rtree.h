#ifndef SKYUP_RTREE_RTREE_H_
#define SKYUP_RTREE_RTREE_H_

// Private construction scaffold of `FlatRTree::BulkLoad`: the
// Sort-Tile-Recursive loader packs a pointer tree, which the flat arena
// then copies breadth-first. Nothing outside src/rtree/ includes this
// header; every index consumer works on `FlatRTree`.

#include <cstddef>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/point.h"
#include "rtree/mbr.h"

namespace skyup {

/// One node of the STR scaffold. Leaves (level 0) hold point ids into the
/// indexed `Dataset`; internal nodes hold child nodes. The node's `mbr`
/// bounds everything below it.
struct RTreeNode {
  Mbr mbr;
  int level = 0;  ///< 0 for leaves; parents are child level + 1.
  std::vector<PointId> points;
  std::vector<std::unique_ptr<RTreeNode>> children;

  bool is_leaf() const { return level == 0; }
};

/// Packs every row of the non-empty `dataset` into an STR tree of at most
/// `fanout` (>= 2) entries per node and returns its root. Child and leaf
/// order is the loader's tiling order, which the flat arena preserves.
std::unique_ptr<RTreeNode> StrBulkLoad(const Dataset& dataset, size_t fanout);

}  // namespace skyup

#endif  // SKYUP_RTREE_RTREE_H_
