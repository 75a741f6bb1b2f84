#ifndef SKYUP_CORE_PLANNER_H_
#define SKYUP_CORE_PLANNER_H_

#include <memory>
#include <vector>

#include "core/cost_function.h"
#include "core/dataset.h"
#include "core/join.h"
#include "core/lower_bounds.h"
#include "core/probing.h"
#include "core/query_control.h"
#include "core/upgrade_result.h"
#include "obs/phase_timings.h"
#include "rtree/flat_rtree.h"
#include "util/status.h"

namespace skyup {

/// Algorithm selector for `UpgradePlanner::TopK`.
enum class Algorithm {
  kBruteForce,       ///< index-free oracle (linear scans)
  kBasicProbing,     ///< Algorithm 2
  kImprovedProbing,  ///< Algorithm 2 with getDominatingSky (Algorithm 3)
  kJoin,             ///< Algorithm 4
};

const char* AlgorithmName(Algorithm algorithm);

/// One query's full observability payload: the ranked answers plus the
/// work counters, phase breakdown, latency histograms, and wall time that
/// explain them. Returned by `UpgradePlanner::TopKWithReport`; the CLI's
/// `--profile` / `--metrics-out` and bench phase attribution feed on it.
struct TopKReport {
  std::vector<UpgradeResult> results;
  ExecStats stats;
  QueryTelemetry telemetry;
  /// End-to-end wall seconds of the query (`util/timer.h` steady clock),
  /// including engine overhead the phase laps do not attribute.
  double wall_seconds = 0.0;
  Algorithm algorithm = Algorithm::kImprovedProbing;
  size_t k = 0;
};

/// Facade configuration.
struct PlannerOptions {
  /// Upgrade step ε of Algorithm 1.
  double epsilon = 1e-6;
  /// Join-list lower bound used by the join algorithm.
  LowerBoundKind lower_bound = LowerBoundKind::kConservative;
  /// Pairwise bound formula for the join; see `BoundMode`. The sound
  /// default keeps the join exact.
  BoundMode bound_mode = BoundMode::kSound;
  /// R-tree fanout used when indexing P and T.
  size_t rtree_fanout = 64;
  /// Worker threads for the probing and brute-force algorithms: 1 (the
  /// default) runs the candidate loop inline on the calling thread, 0 uses
  /// one worker per hardware thread, any other value exactly that many
  /// workers. Results are identical across all settings (core/probing.h);
  /// the join algorithm is inherently sequential and ignores this.
  size_t threads = 1;
  /// If true, `Create` rejects cost functions that fail a randomized
  /// monotonicity check over the data's bounding box.
  bool validate_monotonicity = false;
  /// Join ablation switches; see `JoinOptions`.
  bool mutual_dominance_pruning = true;
  bool refine_zero_bound_leaves = true;
};

/// The library's front door: owns copies of the competitor set `P` and the
/// candidate set `T`, indexes both with R-trees, and answers top-k product
/// upgrading queries with any of the paper's algorithms.
///
/// Typical use:
///
///   auto planner = UpgradePlanner::Create(P, T, cost_fn);
///   auto top3 = planner->TopK(3, Algorithm::kJoin);
///
/// For streaming consumption, `OpenJoinCursor()` yields results one at a
/// time in nondecreasing cost order (the paper's progressiveness).
class UpgradePlanner {
 public:
  /// Validates inputs (non-empty, matching dims, every coordinate finite),
  /// copies the datasets, and bulk-loads both R-trees.
  static Result<UpgradePlanner> Create(Dataset competitors, Dataset products,
                                       ProductCostFunction cost_fn,
                                       PlannerOptions options = {});

  UpgradePlanner(UpgradePlanner&&) = default;
  UpgradePlanner& operator=(UpgradePlanner&&) = default;
  UpgradePlanner(const UpgradePlanner&) = delete;
  UpgradePlanner& operator=(const UpgradePlanner&) = delete;

  /// The k cheapest upgrades, ascending by (cost, product id). With
  /// `telemetry` non-null the engines additionally collect per-phase wall
  /// times and latency histograms (obs/phase_timings.h) — leave it null on
  /// hot paths that do not need them. With `control` non-null the query is
  /// cancellable: the probing and brute-force algorithms poll it mid-query
  /// at every thread count, so a deadline fires within one tile (at most
  /// `kMaxDominanceTile` = 64 candidates); the join checks it once up
  /// front.
  Result<std::vector<UpgradeResult>> TopK(
      size_t k, Algorithm algorithm, ExecStats* stats = nullptr,
      QueryTelemetry* telemetry = nullptr,
      const QueryControl* control = nullptr) const;

  /// `TopK` plus the full observability payload (stats, phase breakdown,
  /// histograms, wall time) in one call.
  Result<TopKReport> TopKWithReport(size_t k, Algorithm algorithm) const;

  /// Progressive join execution; the planner must outlive the cursor.
  Result<JoinCursor> OpenJoinCursor() const;

  /// The single-set variant (a "research direction" in the paper): ranks
  /// the products of `catalog` by the cost of upgrading each against all
  /// *other* catalog members. Already-undominated members come first at
  /// cost 0.
  static Result<std::vector<UpgradeResult>> TopKWithinSet(
      const Dataset& catalog, const ProductCostFunction& cost_fn, size_t k,
      PlannerOptions options = {});

  const Dataset& competitors() const { return *competitors_; }
  const Dataset& products() const { return *products_; }
  /// The R-tree over `P` (rtree/flat_rtree.h) every algorithm but brute
  /// force probes. Never null.
  const FlatRTree* competitors_flat() const { return rp_.get(); }
  const ProductCostFunction& cost_function() const { return *cost_fn_; }
  const PlannerOptions& options() const { return options_; }

 private:
  UpgradePlanner(std::unique_ptr<Dataset> competitors,
                 std::unique_ptr<Dataset> products,
                 std::unique_ptr<ProductCostFunction> cost_fn,
                 PlannerOptions options);

  // unique_ptr members keep dataset and index addresses stable across
  // planner moves (the R-trees hold raw pointers to the datasets, a join
  // cursor to the R-trees).
  std::unique_ptr<Dataset> competitors_;
  std::unique_ptr<Dataset> products_;
  std::unique_ptr<ProductCostFunction> cost_fn_;
  PlannerOptions options_;
  std::unique_ptr<FlatRTree> rp_;
  std::unique_ptr<FlatRTree> rt_;
};

}  // namespace skyup

#endif  // SKYUP_CORE_PLANNER_H_
