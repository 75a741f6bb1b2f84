#ifndef SKYUP_SKYLINE_DOMINATING_SKYLINE_H_
#define SKYUP_SKYLINE_DOMINATING_SKYLINE_H_

#include <vector>

#include "core/point.h"
#include "rtree/flat_rtree.h"

namespace skyup {

/// Counters for one constrained-skyline probe (Algorithm 3).
struct ProbeStats {
  size_t heap_pops = 0;
  size_t nodes_visited = 0;
  size_t points_scanned = 0;
  /// Batched dominance-kernel invocations (core/dominance_batch.h): window
  /// prunes, leaf filters, and child culls; makes the batched traversal
  /// observable end to end.
  size_t block_kernel_calls = 0;
};

/// `getDominatingSky` (Algorithm 3 of the paper): the skyline of the set of
/// points in `tree` that strictly dominate `t`, computed by a best-first
/// (BBS-style) traversal constrained to the anti-dominant region ADR(t).
/// Node expansion culls children with the batched SoA kernels and the
/// dominance window lives in one SoA block.
///
/// `t` must have `tree.dims()` coordinates. The returned ids are mutually
/// non-dominating, every one strictly dominates `t`, and together they
/// dominate every dominator of `t` in the tree — exactly the input
/// Algorithm 1 (single-product upgrade) requires.
std::vector<PointId> DominatingSkyline(const FlatRTree& tree, const double* t,
                                       ProbeStats* stats = nullptr);

/// Allocation-free, mask-aware form for hot serving loops. Appends nothing;
/// `result` is cleared and filled in best-first accept order. `dead_rows`,
/// when non-null, is a per-dataset-row byte mask (1 = treat as erased):
/// masked points never enter the traversal's dominance window, so live
/// dominators they would have masked are still found (no caller-side
/// rescan needed).
void DominatingSkylineInto(const FlatRTree& tree, const double* t,
                           const uint8_t* dead_rows,
                           std::vector<PointId>* result,
                           ProbeStats* stats = nullptr);

/// Tile probe: runs up to `kMaxDominanceTile` constrained-skyline probes as
/// ONE best-first traversal that shares node fetches. Heap entries carry a
/// bitmask of the tile members they are still relevant for; each fetched MBR
/// or point block is tested against the whole tile with one
/// `TileDominanceMasks` sweep, and per-member dominance windows prune the
/// mask independently. `results[j]` receives what `DominatingSkylineInto`
/// would produce for `tile[j]` as a *value set*: the same mutually
/// non-dominating dominator values, with only the accept order of equal-key
/// members (and the choice of representative among coordinate-duplicate
/// rows) possibly differing — distinctions every downstream consumer
/// (`UpgradeProduct` after value-canonical sorting, `PatchSkylineInsert`)
/// is invariant to. `tile[j]` must have `tree.dims()` coordinates;
/// `results` must hold `tile_count` vectors (each is cleared). Stats are
/// whole-traversal counts, not per-member sums.
void DominatingSkylineTileInto(const FlatRTree& tree,
                               const double* const* tile, size_t tile_count,
                               const uint8_t* dead_rows,
                               std::vector<PointId>* results,
                               ProbeStats* stats = nullptr);

/// Multi-source variant used by the join's leaf processing (Alg. 4 line 9):
/// the skyline of the dominators of `t` among the points below the
/// node indices `roots` plus the explicit point ids `points`, all of
/// `tree`. The same traversal as `DominatingSkylineInto`, seeded from
/// several entries at once (roots first, then points, in the given order).
std::vector<PointId> DominatingSkylineFrom(const FlatRTree& tree,
                                           const std::vector<uint32_t>& roots,
                                           const std::vector<PointId>& points,
                                           const double* t,
                                           ProbeStats* stats = nullptr);

}  // namespace skyup

#endif  // SKYUP_SKYLINE_DOMINATING_SKYLINE_H_
