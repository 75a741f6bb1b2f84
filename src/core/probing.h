#ifndef SKYUP_CORE_PROBING_H_
#define SKYUP_CORE_PROBING_H_

// The probing top-k algorithms and their index-free oracle, all run by one
// candidate loop (core/probing.cc) at every thread count.
//
// Candidates shard contiguously across `threads` workers (util/parallel.h;
// 1, the default, runs inline on the calling thread, 0 uses one worker per
// hardware thread). Every worker keeps a private `TopKCollector`, and all
// workers share one atomic cost threshold — the cheapest k-th-best cost any
// shard has proven so far, lowered lock-free with CAS-min. Before a
// candidate joins the next gather, the worker evaluates the *sound-mode*
// `LbcPair` bound against the competitors' bounding box and skips the
// candidate when the bound already exceeds the threshold
// (`ExecStats::candidates_pruned`). The bound never exceeds the true cost
// and the threshold never drops below the final k-th-best cost, so pruning
// is exact: results are bit-identical for every thread count.
// docs/algorithms.md has the full soundness argument.
//
// The algorithms differ only in how they gather a candidate's dominator
// skyline. Brute force and basic probing gather one candidate at a time;
// improved probing gathers up to `kMaxDominanceTile` surviving candidates
// with one shared tile traversal (`DominatingSkylineTileInto`), whose probe
// counters (`heap_pops`, `nodes_visited`, ...) count the shared work once
// per tile.
//
// Every entry point optionally reports `ExecStats` (aggregated over all
// workers; `upgrade_calls + candidates_pruned == products_processed`
// always holds) and, when `telemetry` is non-null, a per-shard phase
// breakdown plus probe/upgrade latency histograms (obs/phase_timings.h).
// With `control` non-null each worker polls the token between gathers,
// once `QueryControl::kPollStride` candidates have passed since its last
// poll, so a fired deadline or cancellation unwinds within one tile (at
// most `kMaxDominanceTile` = 64 candidates) with
// `kCancelled`/`kDeadlineExceeded`. A query that completes returns results
// identical to `control == nullptr`.
//
// All three require `k >= 1`, a finite positive `epsilon`, a non-empty
// `products` set and matching dimensionality; fewer than k results come
// back only if |products| < k. Results are sorted by (cost, product id).

#include <vector>

#include "core/cost_function.h"
#include "core/dataset.h"
#include "core/query_control.h"
#include "core/upgrade_result.h"
#include "obs/phase_timings.h"
#include "rtree/flat_rtree.h"
#include "util/status.h"

namespace skyup {

/// Index-free oracle: scans `competitors` linearly per candidate and
/// reduces the dominators to their skyline. Used as the ground truth in
/// tests and as the "no substrate" baseline in ablations;
/// O(|T| * |P| * d).
Result<std::vector<UpgradeResult>> TopKBruteForce(
    const Dataset& competitors, const Dataset& products,
    const ProductCostFunction& cost_fn, size_t k, double epsilon = 1e-6,
    size_t threads = 1, ExecStats* stats = nullptr,
    QueryTelemetry* telemetry = nullptr,
    const QueryControl* control = nullptr);

/// Basic probing (Algorithm 2, generalized to top-k): for every candidate
/// in `products`, fetch *all* of its dominators from `competitors_index`
/// with an ADR range query (`FlatRTree::RangeQuery`), reduce them to their
/// skyline, and apply Algorithm 1.
Result<std::vector<UpgradeResult>> TopKBasicProbing(
    const FlatRTree& competitors_index, const Dataset& products,
    const ProductCostFunction& cost_fn, size_t k, double epsilon = 1e-6,
    size_t threads = 1, ExecStats* stats = nullptr,
    QueryTelemetry* telemetry = nullptr,
    const QueryControl* control = nullptr);

/// Improved probing: Algorithm 2 with lines 3-4 replaced by
/// `getDominatingSky` (Algorithm 3), which computes the dominator skyline
/// directly on the R-tree instead of materializing all dominators.
/// Candidates are probed in tiles by one shared best-first traversal with
/// the batched SoA dominance kernels (`ExecStats::block_kernel_calls`
/// counts the kernel invocations). Each member's dominator skyline equals
/// its own `DominatingSkyline` as a value set, which Algorithm 1 maps to
/// the same upgrade, so results are bit-identical to the brute-force
/// oracle's.
Result<std::vector<UpgradeResult>> TopKImprovedProbing(
    const FlatRTree& competitors_index, const Dataset& products,
    const ProductCostFunction& cost_fn, size_t k, double epsilon = 1e-6,
    size_t threads = 1, ExecStats* stats = nullptr,
    QueryTelemetry* telemetry = nullptr,
    const QueryControl* control = nullptr);

}  // namespace skyup

#endif  // SKYUP_CORE_PROBING_H_
