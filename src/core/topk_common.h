#ifndef SKYUP_CORE_TOPK_COMMON_H_
#define SKYUP_CORE_TOPK_COMMON_H_

// Internal building blocks shared by the offline top-k engine
// (core/probing.cc), the join (core/join.cc) and the serving engine
// (serve/shard/shard_query.cc): the canonical (cost, product id) result
// order, the bounded top-k collector, and the common argument validation.
// One definition of each, so result ordering and error diagnostics can
// never drift between the code paths.

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "core/cost_function.h"
#include "core/dataset.h"
#include "core/upgrade_result.h"
#include "util/check.h"
#include "util/status.h"

namespace skyup {

/// The canonical result order of every top-k API: ascending cost, ties
/// broken by ascending product id.
inline bool UpgradeResultBefore(const UpgradeResult& a,
                                const UpgradeResult& b) {
  // lint: float-eq-ok (deterministic tie-break; any inexactness only
  // routes to the id comparison, never misorders)
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.product_id < b.product_id;
}

/// Keeps the k cheapest (cost, id, outcome) candidates seen so far.
class TopKCollector {
 public:
  explicit TopKCollector(size_t k) : k_(k) {}

  /// True if a candidate with this cost could still enter the top-k; lets
  /// callers skip building result payloads for hopeless candidates.
  bool Admits(double cost) const {
    if (heap_.size() < k_) return true;
    // <= so that equal-cost candidates reach Add, where the id tie-break
    // decides.
    return cost <= heap_.top().result.cost;
  }

  /// Cost of the current k-th best, or +infinity while fewer than k
  /// candidates are held. No candidate costing strictly more can ever be
  /// admitted here (nor, a fortiori, into the global top-k).
  double KthCost() const {
    if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
    return heap_.top().result.cost;
  }

  void Add(UpgradeResult result) {
    // Upgrade costs are non-negative by the monotonicity contract; allow
    // the same rounding slack CheckMonotonicity tolerates.
    SKYUP_DCHECK(result.cost >= -1e-9)
        << "negative upgrade cost " << result.cost << " for product "
        << result.product_id;
    if (heap_.size() < k_) {
      heap_.push({std::move(result)});
      return;
    }
    if (UpgradeResultBefore(result, heap_.top().result)) {
      heap_.pop();
      heap_.push({std::move(result)});
    }
  }

  std::vector<UpgradeResult> Finish() {
    std::vector<UpgradeResult> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back(std::move(const_cast<Item&>(heap_.top()).result));
      heap_.pop();
    }
    std::sort(out.begin(), out.end(), UpgradeResultBefore);
    SKYUP_DCHECK(out.size() <= k_);
    return out;
  }

 private:
  struct Item {
    UpgradeResult result;
    // Max-heap on (cost, id): the heap top is the current worst member.
    bool operator<(const Item& other) const {
      return UpgradeResultBefore(result, other.result);
    }
  };

  size_t k_;
  std::priority_queue<Item> heap_;
};

/// The upgrade step ε of Algorithm 1 must be a finite positive number: NaN
/// breaks every comparison in the upgrade, and infinity moves upgraded
/// coordinates to -inf.
inline bool IsValidEpsilon(double epsilon) {
  return std::isfinite(epsilon) && epsilon > 0.0;
}

/// Query-shape validation shared by every top-k entry point — offline
/// and the serving engine (serve/shard/shard_query.cc) — so all
/// of them reject bad k/epsilon/cost-function input with identical
/// diagnostics.
/// `dims` is the dimensionality of the data the query runs against.
inline Status ValidateTopKQueryShape(size_t dims,
                                     const ProductCostFunction& cost_fn,
                                     size_t k, double epsilon) {
  if (k == 0) return Status::InvalidArgument("k must be at least 1");
  if (!IsValidEpsilon(epsilon)) {
    return Status::InvalidArgument("epsilon must be finite and positive");
  }
  if (cost_fn.dims() != dims) {
    return Status::InvalidArgument(
        "cost function dimensionality " + std::to_string(cost_fn.dims()) +
        " does not match data dimensionality " + std::to_string(dims));
  }
  return Status::OK();
}

/// Batch-path validation: the query shape plus the static-input contracts
/// (matching competitor/product dimensionality, non-empty T). The serving
/// path checks only the shape — an empty live product set is a legal
/// serving state that simply yields an empty result.
inline Status ValidateTopKArgs(size_t competitor_dims, const Dataset& products,
                               const ProductCostFunction& cost_fn, size_t k,
                               double epsilon) {
  SKYUP_RETURN_IF_ERROR(
      ValidateTopKQueryShape(products.dims(), cost_fn, k, epsilon));
  if (products.dims() != competitor_dims) {
    return Status::InvalidArgument(
        "competitor and product dimensionality differ: " +
        std::to_string(competitor_dims) + " vs " +
        std::to_string(products.dims()));
  }
  if (products.empty()) {
    return Status::InvalidArgument("product set T is empty");
  }
  return Status::OK();
}

/// Paranoid spot check shared by the top-k entry points: the cost function
/// must be product-level monotone over the products' own coordinate span
/// (the contract every pruning bound in this library leans on). A
/// degenerate span — every coordinate identical — offers no comparable
/// pairs to sample, so it passes vacuously.
inline Status SpotCheckCostMonotonicity(const ProductCostFunction& cost_fn,
                                        const Dataset& products) {
  if (products.empty()) return Status::OK();
  const std::vector<double> lo = products.MinCorner();
  const std::vector<double> hi = products.MaxCorner();
  double span_lo = lo[0];
  double span_hi = hi[0];
  for (size_t i = 1; i < lo.size(); ++i) {
    span_lo = std::min(span_lo, lo[i]);
    span_hi = std::max(span_hi, hi[i]);
  }
  if (!(span_lo < span_hi)) return Status::OK();
  return cost_fn.CheckMonotonicity(span_lo, span_hi);
}

}  // namespace skyup

#endif  // SKYUP_CORE_TOPK_COMMON_H_
