#ifndef SKYUP_RTREE_BULK_LOAD_H_
#define SKYUP_RTREE_BULK_LOAD_H_

// Sort-Tile-Recursive bulk loading lives behind FlatRTree::BulkLoad; this
// header only exposes the helper used by tests to inspect the packing
// parameters.

#include <cstddef>

namespace skyup {

/// Number of vertical slabs STR uses at one recursion level when packing
/// `n` rectangles into pages of `capacity` across `dims_left` remaining
/// sort dimensions: ceil((ceil(n/capacity))^(1/dims_left)).
size_t StrSlabCount(size_t n, size_t capacity, size_t dims_left);

}  // namespace skyup

#endif  // SKYUP_RTREE_BULK_LOAD_H_
