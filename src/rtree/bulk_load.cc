#include "rtree/bulk_load.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "rtree/rtree.h"
#include "util/check.h"

namespace skyup {

size_t StrSlabCount(size_t n, size_t capacity, size_t dims_left) {
  SKYUP_CHECK(capacity >= 1 && dims_left >= 1);
  const size_t pages = (n + capacity - 1) / capacity;
  if (dims_left == 1) return pages;
  // The tiny bias guards against pow() returning e.g. 4.0000000001 for an
  // exact root, which would otherwise round a 4 up to 5 slabs.
  const double s = std::ceil(
      std::pow(static_cast<double>(pages), 1.0 / static_cast<double>(dims_left)) -
      1e-9);
  return std::max<size_t>(1, static_cast<size_t>(s));
}

namespace {

// Boundaries of `k` near-equal chunks of [0, n): sizes differ by at most 1,
// which keeps every chunk at least half the page capacity (>= min fill).
std::vector<size_t> EqualChunkOffsets(size_t n, size_t k) {
  SKYUP_CHECK(k >= 1 && k <= n);
  std::vector<size_t> offsets;
  offsets.reserve(k + 1);
  const size_t base = n / k;
  const size_t rem = n % k;
  size_t pos = 0;
  offsets.push_back(0);
  for (size_t i = 0; i < k; ++i) {
    pos += base + (i < rem ? 1 : 0);
    offsets.push_back(pos);
  }
  SKYUP_DCHECK(offsets.back() == n);
  return offsets;
}

/// Builds a packed R-tree with the Sort-Tile-Recursive algorithm of
/// Leutenegger, Edgington, and Lopez: sort by one dimension, cut into
/// slabs, recurse on the remaining dimensions, and pack pages bottom-up.
class StrBulkLoader {
 public:
  StrBulkLoader(const Dataset* dataset, size_t fanout)
      : dataset_(dataset), fanout_(fanout), dims_(dataset->dims()) {}

  std::unique_ptr<RTreeNode> Build() {
    std::vector<PointId> ids(dataset_->size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PointId>(i);

    std::vector<std::unique_ptr<RTreeNode>> level;
    TilePoints(ids.begin(), ids.end(), 0, &level);

    while (level.size() > 1) {
      std::vector<std::unique_ptr<RTreeNode>> parents;
      TileNodes(level.begin(), level.end(), 0, &parents);
      level = std::move(parents);
    }
    SKYUP_CHECK(level.size() == 1);
    return std::move(level[0]);
  }

 private:
  using IdIter = std::vector<PointId>::iterator;
  using NodeIter = std::vector<std::unique_ptr<RTreeNode>>::iterator;

  void TilePoints(IdIter begin, IdIter end, size_t dim,
                  std::vector<std::unique_ptr<RTreeNode>>* leaves) {
    const size_t n = static_cast<size_t>(end - begin);
    if (n <= fanout_) {
      auto leaf = std::make_unique<RTreeNode>();
      leaf->level = 0;
      leaf->mbr = Mbr(dims_);
      leaf->points.assign(begin, end);
      for (PointId id : leaf->points) leaf->mbr.Expand(dataset_->data(id));
      leaves->push_back(std::move(leaf));
      return;
    }

    const size_t dims_left = dims_ - dim;
    const Dataset* data = dataset_;
    std::sort(begin, end, [data, dim](PointId a, PointId b) {
      const double va = data->data(a)[dim];
      const double vb = data->data(b)[dim];
      if (va != vb) return va < vb;
      return a < b;
    });

    if (dims_left == 1) {
      // Last dimension: cut directly into near-equal pages.
      const size_t pages = StrSlabCount(n, fanout_, 1);
      const std::vector<size_t> offsets = EqualChunkOffsets(n, pages);
      for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        IdIter lo = begin + static_cast<ptrdiff_t>(offsets[i]);
        IdIter hi = begin + static_cast<ptrdiff_t>(offsets[i + 1]);
        auto leaf = std::make_unique<RTreeNode>();
        leaf->level = 0;
        leaf->mbr = Mbr(dims_);
        leaf->points.assign(lo, hi);
        for (PointId id : leaf->points) leaf->mbr.Expand(dataset_->data(id));
        leaves->push_back(std::move(leaf));
      }
      return;
    }

    const size_t slabs =
        std::min(n, StrSlabCount(n, fanout_, dims_left));
    const std::vector<size_t> offsets = EqualChunkOffsets(n, slabs);
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      TilePoints(begin + static_cast<ptrdiff_t>(offsets[i]),
                 begin + static_cast<ptrdiff_t>(offsets[i + 1]), dim + 1,
                 leaves);
    }
  }

  void TileNodes(NodeIter begin, NodeIter end, size_t dim,
                 std::vector<std::unique_ptr<RTreeNode>>* parents) {
    const size_t n = static_cast<size_t>(end - begin);
    if (n <= fanout_) {
      parents->push_back(MakeParent(begin, end));
      return;
    }

    const size_t dims_left = dims_ - dim;
    std::sort(begin, end,
              [dim](const std::unique_ptr<RTreeNode>& a,
                    const std::unique_ptr<RTreeNode>& b) {
                const double ca = (a->mbr.min(dim) + a->mbr.max(dim)) / 2;
                const double cb = (b->mbr.min(dim) + b->mbr.max(dim)) / 2;
                return ca < cb;
              });

    if (dims_left == 1) {
      const size_t pages = StrSlabCount(n, fanout_, 1);
      const std::vector<size_t> offsets = EqualChunkOffsets(n, pages);
      for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        parents->push_back(
            MakeParent(begin + static_cast<ptrdiff_t>(offsets[i]),
                       begin + static_cast<ptrdiff_t>(offsets[i + 1])));
      }
      return;
    }

    const size_t slabs =
        std::min(n, StrSlabCount(n, fanout_, dims_left));
    const std::vector<size_t> offsets = EqualChunkOffsets(n, slabs);
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      TileNodes(begin + static_cast<ptrdiff_t>(offsets[i]),
                begin + static_cast<ptrdiff_t>(offsets[i + 1]), dim + 1,
                parents);
    }
  }

  std::unique_ptr<RTreeNode> MakeParent(NodeIter begin, NodeIter end) {
    auto parent = std::make_unique<RTreeNode>();
    parent->level = (*begin)->level + 1;
    parent->mbr = Mbr(dims_);
    for (NodeIter it = begin; it != end; ++it) {
      SKYUP_DCHECK((*it)->level == parent->level - 1);
      parent->mbr.Expand((*it)->mbr);
      parent->children.push_back(std::move(*it));
    }
    return parent;
  }

  const Dataset* dataset_;
  size_t fanout_;
  size_t dims_;
};

}  // namespace

std::unique_ptr<RTreeNode> StrBulkLoad(const Dataset& dataset, size_t fanout) {
  SKYUP_CHECK(!dataset.empty() && fanout >= 2);
  return StrBulkLoader(&dataset, fanout).Build();
}

}  // namespace skyup
