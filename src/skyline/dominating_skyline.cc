#include "skyline/dominating_skyline.h"

#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "core/dominance.h"
#include "core/dominance_batch.h"
#include "obs/trace.h"
#include "skyline/skyline.h"
#include "util/check.h"

namespace skyup {

namespace {

// An R-tree entry can intersect ADR(t) = (-inf, t] iff its min corner is
// coordinatewise <= t.
bool OverlapsAdr(const double* min_corner, const double* t, size_t dims) {
  return DominatesOrEqual(min_corner, t, dims);
}

// Batched window prune: true iff some accepted skyline member dominates-or-
// equals `p` (a point or an MBR min corner). Counts one kernel call even
// for the empty window, so the counter tracks prune *sites*, not sizes.
bool PrunedBySkyline(const SoaBlock& window, const double* p,
                     ProbeStats* st) {
  ++st->block_kernel_calls;
  return !window.empty() && DominatesAny(window.view(), p);
}

// Paranoid per-probe postcondition: every returned member strictly
// dominates the probe point, and no member dominates-or-equals another.
// (Deliberately does NOT re-validate the index per probe — that is hoisted
// to the top-k entry points, where it runs once instead of once per
// product.)
Status CheckProbeResult(const Dataset& data, const double* t,
                        const std::vector<PointId>& result) {
  const size_t dims = data.dims();
  for (PointId id : result) {
    if (!Dominates(data.data(id), t, dims)) {
      return Status::Internal("probe member " + std::to_string(id) +
                              " does not dominate the probe point");
    }
  }
  for (size_t i = 0; i < result.size(); ++i) {
    for (size_t j = 0; j < result.size(); ++j) {
      if (i == j) continue;
      if (DominatesOrEqual(data.data(result[i]), data.data(result[j]), dims)) {
        return Status::Internal(
            "probe members " + std::to_string(result[i]) + " and " +
            std::to_string(result[j]) + " are not mutually incomparable");
      }
    }
  }
  return Status::OK();
}

// The one constrained-skyline traversal (Algorithm 3) behind
// `DominatingSkylineInto` and `DominatingSkylineFrom`: best-first by
// min-corner sum from the seed nodes `roots[0, root_count)` and the seed
// point ids `points[0, point_count)`, confined to ADR(t), pruned by the
// window of accepted members. Node expansion culls a child run or a leaf's
// slot range with one batched SoA sweep.
void ConstrainedSkyline(const FlatRTree& tree, const uint32_t* roots,
                        size_t root_count, const PointId* points,
                        size_t point_count, const double* t,
                        const uint8_t* dead_rows, std::vector<PointId>* result,
                        ProbeStats* stats) {
  result->clear();
  if (tree.empty()) return;
  const size_t dims = tree.dims();
  ProbeStats local;
  ProbeStats* st = stats != nullptr ? stats : &local;

  // Point entries carry node == kNoNode; (key, seq) fixes the pop — and
  // therefore accept — order, ties broken by push order.
  constexpr uint32_t kNoNode = UINT32_MAX;
  struct FlatEntry {
    double key;
    uint64_t seq;
    uint32_t node;
    PointId point;
    bool operator>(const FlatEntry& other) const {
      if (key != other.key) return key > other.key;
      return seq > other.seq;
    }
  };
  const auto point_key = [dims](const double* p) {
    double key = 0.0;
    for (size_t i = 0; i < dims; ++i) key += p[i];
    return key;
  };

  std::priority_queue<FlatEntry, std::vector<FlatEntry>,
                      std::greater<FlatEntry>>
      heap;
  uint64_t seq = 0;
  for (size_t r = 0; r < root_count; ++r) {
    const uint32_t node = roots[r];
    if (!OverlapsAdr(tree.min_corner(node), t, dims)) continue;
    heap.push({tree.min_corner_sum(node), seq++, node, kInvalidPointId});
  }
  for (size_t i = 0; i < point_count; ++i) {
    const PointId id = points[i];
    const double* p = tree.dataset().data(id);
    ++st->points_scanned;
    if (dead_rows != nullptr && dead_rows[id]) continue;
    if (!Dominates(p, t, dims)) continue;
    heap.push({point_key(p), seq++, kNoNode, id});
  }

  SoaBlock window(dims);
  std::vector<uint32_t> kept;  // batch-filter scratch, reused across nodes
  while (!heap.empty()) {
    const FlatEntry entry = heap.top();
    heap.pop();
    ++st->heap_pops;

    if (entry.node != kNoNode) {
      ++st->nodes_visited;
      if (PrunedBySkyline(window, tree.min_corner(entry.node), st)) continue;
      if (tree.is_leaf(entry.node)) {
        const uint32_t b = tree.point_begin(entry.node);
        const uint32_t e = tree.point_end(entry.node);
        st->points_scanned += e - b;
        // One SoA sweep keeps exactly the strict dominators of t (a point
        // equal to t does not dominate it), in leaf order.
        kept.clear();
        ++st->block_kernel_calls;
        FilterDominated(tree.point_block(b, e), t, &kept, /*strict=*/true);
        for (uint32_t lane : kept) {
          const uint32_t slot = b + lane;
          if (dead_rows != nullptr && dead_rows[tree.point_ids()[slot]]) {
            continue;
          }
          const double* p = tree.slot_coords(slot);
          if (PrunedBySkyline(window, p, st)) continue;
          heap.push({point_key(p), seq++, kNoNode, tree.point_ids()[slot]});
        }
      } else {
        const uint32_t b = tree.child_begin(entry.node);
        const uint32_t e = tree.child_end(entry.node);
        // ADR overlap over the contiguous child run: min corner <= t
        // (non-strict — equality still overlaps the closed region).
        kept.clear();
        ++st->block_kernel_calls;
        FilterDominated(tree.min_corner_block(b, e), t, &kept,
                        /*strict=*/false);
        for (uint32_t lane : kept) {
          const uint32_t child = b + lane;
          if (PrunedBySkyline(window, tree.min_corner(child), st)) continue;
          heap.push({tree.min_corner_sum(child), seq++, child,
                     kInvalidPointId});
        }
      }
    } else {
      const double* p = tree.dataset().data(entry.point);
      if (PrunedBySkyline(window, p, st)) continue;
      window.Append(p);
      result->push_back(entry.point);
    }
  }
  SKYUP_PARANOID_OK(CheckProbeResult(tree.dataset(), t, *result));
}

}  // namespace

void DominatingSkylineInto(const FlatRTree& tree, const double* t,
                           const uint8_t* dead_rows,
                           std::vector<PointId>* result, ProbeStats* stats) {
  SKYUP_TRACE_SPAN_VERBOSE("probe/dominating-skyline");
  const uint32_t root = FlatRTree::kRoot;
  ConstrainedSkyline(tree, &root, 1, nullptr, 0, t, dead_rows, result, stats);
}

std::vector<PointId> DominatingSkyline(const FlatRTree& tree, const double* t,
                                       ProbeStats* stats) {
  std::vector<PointId> result;
  DominatingSkylineInto(tree, t, /*dead_rows=*/nullptr, &result, stats);
  return result;
}

std::vector<PointId> DominatingSkylineFrom(const FlatRTree& tree,
                                           const std::vector<uint32_t>& roots,
                                           const std::vector<PointId>& points,
                                           const double* t,
                                           ProbeStats* stats) {
  SKYUP_TRACE_SPAN_VERBOSE("probe/dominating-skyline-from");
  std::vector<PointId> result;
  ConstrainedSkyline(tree, roots.data(), roots.size(), points.data(),
                     points.size(), t, /*dead_rows=*/nullptr, &result, stats);
  return result;
}

std::vector<PointId> SkylineBbs(const FlatRTree& tree) {
  std::vector<PointId> result;
  if (tree.empty()) return result;
  // The traversal trusts the arena's structural invariants (slot ranges,
  // containment, SoA/AoS mirror agreement); re-prove them under paranoid.
  SKYUP_PARANOID_OK(tree.Validate());
  // Every finite point strictly dominates (+inf, ..., +inf), so ADR(t) is
  // all of space and the probe is plain BBS: a deheaped undominated point
  // is a final skyline member (Papadias et al.).
  const std::vector<double> t(tree.dims(),
                              std::numeric_limits<double>::infinity());
  DominatingSkylineInto(tree, t.data(), /*dead_rows=*/nullptr, &result);
  SKYUP_PARANOID_OK([&]() -> Status {
    std::vector<PointId> all(tree.point_ids(), tree.point_ids() + tree.size());
    return CheckSkylineInvariants(tree.dataset(), &all, result);
  }());
  return result;
}

void DominatingSkylineTileInto(const FlatRTree& tree,
                               const double* const* tile, size_t tile_count,
                               const uint8_t* dead_rows,
                               std::vector<PointId>* results,
                               ProbeStats* stats) {
  SKYUP_TRACE_SPAN_VERBOSE("probe/dominating-skyline-tile");
  SKYUP_CHECK(tile_count >= 1 && tile_count <= kMaxDominanceTile)
      << "tile width out of range";
  for (size_t j = 0; j < tile_count; ++j) results[j].clear();
  if (tree.empty()) return;
  const size_t dims = tree.dims();
  ProbeStats local;
  ProbeStats* st = stats != nullptr ? stats : &local;

  // Same (key, seq) best-first order as the single-query traversal, plus a
  // bitmask of the tile members the entry is still live for. Bits are
  // cleared as per-member windows grow; an entry whose mask empties is
  // dropped without expansion.
  constexpr uint32_t kNoNode = UINT32_MAX;
  struct TileEntry {
    double key;
    uint64_t seq;
    uint32_t node;
    PointId point;
    uint64_t mask;
    bool operator>(const TileEntry& other) const {
      if (key != other.key) return key > other.key;
      return seq > other.seq;
    }
  };

  std::priority_queue<TileEntry, std::vector<TileEntry>,
                      std::greater<TileEntry>>
      heap;
  uint64_t seq = 0;
  {
    uint64_t mask = 0;
    for (size_t j = 0; j < tile_count; ++j) {
      if (OverlapsAdr(tree.min_corner(FlatRTree::kRoot), tile[j], dims)) {
        mask |= uint64_t{1} << j;
      }
    }
    if (mask != 0) {
      heap.push({tree.min_corner_sum(FlatRTree::kRoot), seq++,
                 FlatRTree::kRoot, kInvalidPointId, mask});
    }
  }

  std::vector<SoaBlock> windows;
  windows.reserve(tile_count);
  for (size_t j = 0; j < tile_count; ++j) windows.emplace_back(dims);
  std::vector<uint64_t> lane_masks;  // tile-filter scratch, reused

  // Clears from `mask` every member whose window already dominates `p`.
  auto window_prune = [&](uint64_t mask, const double* p) {
    uint64_t live = 0;
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      const size_t j = static_cast<size_t>(__builtin_ctzll(m));
      if (!PrunedBySkyline(windows[j], p, st)) live |= uint64_t{1} << j;
    }
    return live;
  };

  while (!heap.empty()) {
    const TileEntry entry = heap.top();
    heap.pop();
    ++st->heap_pops;

    if (entry.node != kNoNode) {
      ++st->nodes_visited;
      const uint64_t mask =
          window_prune(entry.mask, tree.min_corner(entry.node));
      if (mask == 0) continue;
      if (tree.is_leaf(entry.node)) {
        const uint32_t b = tree.point_begin(entry.node);
        const uint32_t e = tree.point_end(entry.node);
        st->points_scanned += e - b;
        lane_masks.resize(e - b);
        ++st->block_kernel_calls;
        TileDominanceMasks(tree.point_block(b, e), tile, tile_count,
                           /*strict=*/true, lane_masks.data());
        for (uint32_t lane = 0; lane < e - b; ++lane) {
          uint64_t lm = lane_masks[lane] & mask;
          if (lm == 0) continue;
          const uint32_t slot = b + lane;
          if (dead_rows != nullptr && dead_rows[tree.point_ids()[slot]]) {
            continue;
          }
          const double* p = tree.slot_coords(slot);
          lm = window_prune(lm, p);
          if (lm == 0) continue;
          double key = 0.0;
          for (size_t i = 0; i < dims; ++i) key += p[i];
          heap.push({key, seq++, kNoNode, tree.point_ids()[slot], lm});
        }
      } else {
        const uint32_t b = tree.child_begin(entry.node);
        const uint32_t e = tree.child_end(entry.node);
        lane_masks.resize(e - b);
        ++st->block_kernel_calls;
        // Non-strict: min corner == t still overlaps the closed ADR.
        TileDominanceMasks(tree.min_corner_block(b, e), tile, tile_count,
                           /*strict=*/false, lane_masks.data());
        for (uint32_t lane = 0; lane < e - b; ++lane) {
          uint64_t lm = lane_masks[lane] & mask;
          if (lm == 0) continue;
          const uint32_t child = b + lane;
          lm = window_prune(lm, tree.min_corner(child));
          if (lm == 0) continue;
          heap.push({tree.min_corner_sum(child), seq++, child,
                     kInvalidPointId, lm});
        }
      }
    } else {
      const double* p = tree.dataset().data(entry.point);
      for (uint64_t m = entry.mask; m != 0; m &= m - 1) {
        const size_t j = static_cast<size_t>(__builtin_ctzll(m));
        if (PrunedBySkyline(windows[j], p, st)) continue;
        windows[j].Append(p);
        results[j].push_back(entry.point);
      }
    }
  }
  for (size_t j = 0; j < tile_count; ++j) {
    SKYUP_PARANOID_OK(CheckProbeResult(tree.dataset(), tile[j], results[j]));
  }
}

}  // namespace skyup
