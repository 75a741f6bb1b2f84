#include "core/planner.h"

#include <algorithm>

#include "core/single_upgrade.h"
#include "core/topk_common.h"
#include "obs/trace.h"
#include "skyline/dominating_skyline.h"
#include "util/check.h"
#include "util/timer.h"

namespace skyup {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBruteForce:
      return "brute-force";
    case Algorithm::kBasicProbing:
      return "basic-probing";
    case Algorithm::kImprovedProbing:
      return "improved-probing";
    case Algorithm::kJoin:
      return "join";
  }
  return "?";
}

UpgradePlanner::UpgradePlanner(std::unique_ptr<Dataset> competitors,
                               std::unique_ptr<Dataset> products,
                               std::unique_ptr<ProductCostFunction> cost_fn,
                               PlannerOptions options)
    : competitors_(std::move(competitors)),
      products_(std::move(products)),
      cost_fn_(std::move(cost_fn)),
      options_(options) {}

Result<UpgradePlanner> UpgradePlanner::Create(Dataset competitors,
                                              Dataset products,
                                              ProductCostFunction cost_fn,
                                              PlannerOptions options) {
  if (competitors.empty()) {
    return Status::InvalidArgument("competitor set P is empty");
  }
  if (products.empty()) {
    return Status::InvalidArgument("product set T is empty");
  }
  if (competitors.dims() != products.dims()) {
    return Status::InvalidArgument(
        "P has " + std::to_string(competitors.dims()) + " dimensions, T has " +
        std::to_string(products.dims()));
  }
  if (cost_fn.dims() != competitors.dims()) {
    return Status::InvalidArgument(
        "cost function covers " + std::to_string(cost_fn.dims()) +
        " dimensions, data has " + std::to_string(competitors.dims()));
  }
  if (!IsValidEpsilon(options.epsilon)) {
    return Status::InvalidArgument("epsilon must be finite and positive");
  }
  if (options.rtree_fanout < 2) {
    return Status::InvalidArgument("R-tree fanout must be at least 2");
  }
  for (const Dataset* data : {&competitors, &products}) {
    for (size_t i = 0; i < data->size(); ++i) {
      if (!AllFinite(data->data(static_cast<PointId>(i)), data->dims())) {
        return Status::InvalidArgument(
            std::string(data == &competitors ? "P" : "T") + " row " +
            std::to_string(i) + " has a non-finite coordinate");
      }
    }
  }
  SKYUP_TRACE_SPAN("planner/create");

  if (options.validate_monotonicity) {
    std::vector<double> lo = competitors.MinCorner();
    std::vector<double> hi = products.MaxCorner();
    const std::vector<double> lo2 = products.MinCorner();
    const std::vector<double> hi2 = competitors.MaxCorner();
    for (size_t i = 0; i < lo.size(); ++i) {
      // Upgrades only ever go epsilon below the best competitor value, so
      // that margin is all the check needs to cover (a wider margin would
      // probe cost functions like 1/(x+delta) beyond their valid domain).
      lo[i] = std::min(lo[i], lo2[i]) - 10.0 * options.epsilon;
      hi[i] = std::max(hi[i], hi2[i]);
    }
    double span_lo = lo[0], span_hi = hi[0];
    for (size_t i = 1; i < lo.size(); ++i) {
      span_lo = std::min(span_lo, lo[i]);
      span_hi = std::max(span_hi, hi[i]);
    }
    SKYUP_RETURN_IF_ERROR(cost_fn.CheckMonotonicity(span_lo, span_hi));
  }

  UpgradePlanner planner(
      std::make_unique<Dataset>(std::move(competitors)),
      std::make_unique<Dataset>(std::move(products)),
      std::make_unique<ProductCostFunction>(std::move(cost_fn)), options);

  {
    SKYUP_TRACE_SPAN("planner/bulk-load");
    Result<FlatRTree> rp =
        FlatRTree::BulkLoad(*planner.competitors_, options.rtree_fanout);
    if (!rp.ok()) return rp.status();
    Result<FlatRTree> rt =
        FlatRTree::BulkLoad(*planner.products_, options.rtree_fanout);
    if (!rt.ok()) return rt.status();
    planner.rp_ = std::make_unique<FlatRTree>(std::move(rp).value());
    planner.rt_ = std::make_unique<FlatRTree>(std::move(rt).value());
  }
  return planner;
}

Result<std::vector<UpgradeResult>> UpgradePlanner::TopK(
    size_t k, Algorithm algorithm, ExecStats* stats,
    QueryTelemetry* telemetry, const QueryControl* control) const {
  switch (algorithm) {
    case Algorithm::kBruteForce:
      return TopKBruteForce(*competitors_, *products_, *cost_fn_, k,
                            options_.epsilon, options_.threads, stats,
                            telemetry, control);
    case Algorithm::kBasicProbing:
      return TopKBasicProbing(*rp_, *products_, *cost_fn_, k,
                              options_.epsilon, options_.threads, stats,
                              telemetry, control);
    case Algorithm::kImprovedProbing:
      return TopKImprovedProbing(*rp_, *products_, *cost_fn_, k,
                                 options_.epsilon, options_.threads, stats,
                                 telemetry, control);
    case Algorithm::kJoin: {
      // The join has no candidate loop to poll in, so a fired token is
      // honored once, before any work starts.
      if (control != nullptr) SKYUP_RETURN_IF_ERROR(control->Check());
      JoinOptions join_options;
      join_options.lower_bound = options_.lower_bound;
      join_options.bound_mode = options_.bound_mode;
      join_options.epsilon = options_.epsilon;
      join_options.mutual_dominance_pruning =
          options_.mutual_dominance_pruning;
      join_options.refine_zero_bound_leaves =
          options_.refine_zero_bound_leaves;
      return TopKJoin(*rp_, *rt_, *cost_fn_, k, join_options, stats,
                      telemetry);
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

Result<TopKReport> UpgradePlanner::TopKWithReport(size_t k,
                                                  Algorithm algorithm) const {
  TopKReport report;
  report.algorithm = algorithm;
  report.k = k;
  Timer wall;
  Result<std::vector<UpgradeResult>> results =
      TopK(k, algorithm, &report.stats, &report.telemetry);
  if (!results.ok()) return results.status();
  report.wall_seconds = wall.ElapsedSeconds();
  report.results = std::move(results).value();
  return report;
}

Result<JoinCursor> UpgradePlanner::OpenJoinCursor() const {
  JoinOptions join_options;
  join_options.lower_bound = options_.lower_bound;
  join_options.bound_mode = options_.bound_mode;
  join_options.epsilon = options_.epsilon;
  join_options.mutual_dominance_pruning = options_.mutual_dominance_pruning;
  join_options.refine_zero_bound_leaves = options_.refine_zero_bound_leaves;
  return JoinCursor::Create(rp_.get(), rt_.get(), cost_fn_.get(),
                            join_options);
}

Result<std::vector<UpgradeResult>> UpgradePlanner::TopKWithinSet(
    const Dataset& catalog, const ProductCostFunction& cost_fn, size_t k,
    PlannerOptions options) {
  if (catalog.empty()) {
    return Status::InvalidArgument("catalog is empty");
  }
  if (cost_fn.dims() != catalog.dims()) {
    return Status::InvalidArgument(
        "cost function dimensionality does not match the catalog");
  }
  Result<FlatRTree> tree = FlatRTree::BulkLoad(catalog, options.rtree_fanout);
  if (!tree.ok()) return tree.status();
  // A point never strictly dominates itself (or an identical twin), so
  // improved probing against the catalog's own tree yields exactly the
  // "all other members" semantics.
  return TopKImprovedProbing(tree.value(), catalog, cost_fn, k,
                             options.epsilon, options.threads);
}

}  // namespace skyup
