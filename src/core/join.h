#ifndef SKYUP_CORE_JOIN_H_
#define SKYUP_CORE_JOIN_H_

#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "core/cost_function.h"
#include "core/lower_bounds.h"
#include "core/upgrade_result.h"
#include "obs/phase_timings.h"
#include "rtree/flat_rtree.h"
#include "util/status.h"

namespace skyup {

/// Tuning knobs of the join approach (Algorithm 4).
struct JoinOptions {
  /// Which join-list lower bound prioritizes the heap (Section III-B4).
  LowerBoundKind lower_bound = LowerBoundKind::kConservative;
  /// Pairwise bound formula. The provably-sound correction is the default
  /// (the join is then exact); the paper's formula is available for
  /// fidelity experiments but can prune the true answer. See `BoundMode`
  /// in lower_bounds.h and DESIGN.md finding #1.
  BoundMode bound_mode = BoundMode::kSound;
  /// The upgrade step ε passed to Algorithm 1.
  double epsilon = 1e-6;
  /// Mutual-dominance pruning of join-list entries (Alg. 4 lines 25-30).
  /// Disabling it is an ablation: results are unchanged, work increases.
  bool mutual_dominance_pruning = true;
  /// When a *product* (leaf T-entry) surfaces with a zero join-list bound
  /// — which happens for every product whenever T overlaps P's bounding
  /// box, e.g. the wine workload — Algorithm 4 as written immediately
  /// computes its exact cost, degenerating into probing every product.
  /// With this flag (a library improvement, on by default) such a leaf's
  /// join list is refined first, letting deep P-entries below the product
  /// yield positive bounds that defer or entirely skip the exact
  /// computation. Under the sound bound mode results are provably
  /// unchanged; set to false for the verbatim paper behaviour
  /// (bench_ablation quantifies the difference).
  bool refine_zero_bound_leaves = true;
};

/// Progressive executor of the join approach: results stream out cheapest
/// first, one per `Next()` call, without processing all of `T` — the
/// paper's key advantage over probing.
///
/// Both trees and the cost function must outlive the cursor.
class JoinCursor {
 public:
  /// Validates dimensionalities and seeds the traversal. Both trees must
  /// be non-empty and share the cost function's dimensionality.
  static Result<JoinCursor> Create(const FlatRTree* competitors_tree,
                                   const FlatRTree* products_tree,
                                   const ProductCostFunction* cost_fn,
                                   JoinOptions options = {});

  JoinCursor(JoinCursor&&) = default;
  JoinCursor& operator=(JoinCursor&&) = default;

  /// The next cheapest upgradable product, or nullopt once every product
  /// of `T` has been reported. Results come in nondecreasing cost order.
  std::optional<UpgradeResult> Next();

  const ExecStats& stats() const { return stats_; }

  /// Starts collecting phase timings and latency histograms. Off by
  /// default: the cursor's phase clock is chained, so between-`Next()`
  /// caller time would be attributed too — enable only when the cursor is
  /// driven to completion in one stretch (as `TopKJoin` does).
  void EnableTelemetry();

  /// Flushes collected telemetry (one shard: the cursor is sequential)
  /// into `out`; no-op unless `EnableTelemetry` was called.
  void FlushTelemetry(QueryTelemetry* out) const;

 private:
  /// A T-side or P-side R-tree entry: a flat node index, or a data point
  /// (leaf entry) by its dataset row.
  struct EntryRef {
    static constexpr uint32_t kNoNode = UINT32_MAX;
    uint32_t node = kNoNode;
    PointId point = kInvalidPointId;

    bool is_node() const { return node != kNoNode; }
  };

  /// One heap element: a T-side entry with its join list and priority.
  /// `exact` marks a product whose true upgrading cost has been computed
  /// (the paper's empty-join-list convention).
  struct HeapItem {
    double cost = 0.0;
    uint64_t seq = 0;
    bool exact = false;
    bool competitive = false;
    EntryRef et;
    std::vector<EntryRef> jl;
    std::vector<double> upgraded;
  };

  struct HeapGreater {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      // lint: float-eq-ok (deterministic heap tie-break on seq)
      if (a.cost != b.cost) return a.cost > b.cost;
      return a.seq > b.seq;
    }
  };

  JoinCursor(const FlatRTree* competitors_tree,
             const FlatRTree* products_tree,
             const ProductCostFunction* cost_fn, JoinOptions options);

  /// Calls `fn(EntryRef)` for each entry of `node` in arena order:
  /// the points of a leaf's slot range, or the nodes of a child range.
  template <typename Fn>
  static void ForEachEntry(const FlatRTree& tree, uint32_t node, Fn fn);

  const double* PMin(const EntryRef& e) const;
  const double* PMax(const EntryRef& e) const;
  const double* TMin(const EntryRef& e) const;
  const double* TMax(const EntryRef& e) const;

  double JoinListBound(const double* et_min, const std::vector<EntryRef>& jl,
                       std::vector<double>* pair_lbcs) const;

  /// Heuristic 1: replace e_T by its child entries, each with the filtered
  /// join list and fresh LBC priority (Alg. 4 lines 14-20).
  void ExpandT(HeapItem item);

  /// Heuristics 2-4: replace one P-side node of the join list by its
  /// children, with ADR filtering and mutual-dominance pruning (lines
  /// 22-32). `pick` indexes the chosen entry.
  void RefineJl(HeapItem item, size_t pick);

  /// Chooses the join-list node entry to refine, or nullopt to expand e_T
  /// instead. Implements Heuristics 3 and 4 plus the fallbacks documented
  /// in DESIGN.md.
  std::optional<size_t> ChooseJlEntry(const HeapItem& item) const;

  /// Computes the exact upgrading cost of a product-level entry and pushes
  /// it back as `exact` (lines 9-11).
  void ComputeExact(HeapItem item);

  void Push(HeapItem item) { heap_.push(std::move(item)); }

  const FlatRTree* rp_;
  const FlatRTree* rt_;
  const ProductCostFunction* cost_fn_;
  JoinOptions options_;
  size_t dims_;
  uint64_t seq_ = 0;
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapGreater> heap_;
  // Mutable: const helpers (bound computation, entry choice) account their
  // work here.
  mutable ExecStats stats_;
  // By pointer so the cursor stays movable (ShardTelemetry pins itself);
  // null until EnableTelemetry.
  std::unique_ptr<ShardTelemetry> telemetry_;
};

/// One-shot wrapper: runs the cursor until `k` results (or exhaustion of
/// T) and returns them sorted by (cost, product id).
Result<std::vector<UpgradeResult>> TopKJoin(const FlatRTree& competitors_tree,
                                            const FlatRTree& products_tree,
                                            const ProductCostFunction& cost_fn,
                                            size_t k, JoinOptions options = {},
                                            ExecStats* stats = nullptr,
                                            QueryTelemetry* telemetry = nullptr);

}  // namespace skyup

#endif  // SKYUP_CORE_JOIN_H_
