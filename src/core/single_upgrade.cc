#include "core/single_upgrade.h"

#include <algorithm>
#include <limits>

#include "core/dominance.h"
#include "obs/trace.h"
#include "util/check.h"

namespace skyup {

UpgradeOutcome UpgradeProduct(std::vector<const double*> skyline,
                              const double* p, size_t dims,
                              const ProductCostFunction& cost_fn,
                              double epsilon) {
  SKYUP_CHECK(epsilon > 0.0) << "upgrade epsilon must be positive";
  SKYUP_CHECK(cost_fn.dims() == dims);
  SKYUP_TRACE_SPAN_VERBOSE("upgrade/product");

  UpgradeOutcome outcome;
  outcome.upgraded.assign(p, p + dims);
  if (skyline.empty()) {
    outcome.already_competitive = true;
    return outcome;
  }

#ifndef NDEBUG
  for (const double* s : skyline) {
    SKYUP_DCHECK(Dominates(s, p, dims))
        << "skyline member does not dominate the product";
  }
#endif

  const double base_cost = cost_fn.Cost(p);
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<double> best(p, p + dims);
  std::vector<double> candidate(dims);

  auto consider = [&](const std::vector<double>& cand) {
    const double cost = cost_fn.Cost(cand.data()) - base_cost;
    if (cost < best_cost) {
      best_cost = cost;
      best = cand;
    }
  };

  for (size_t k = 0; k < dims; ++k) {
    // Sort the skyline ascending on dimension k (Algorithm 1 line 3).
    // Ties on dimension k break lexicographically on the full coordinate
    // vector, never on pointer identity: the outcome must be a pure
    // function of the dominator *value set* so that memoized and batched
    // executions (which materialize the same skyline at different
    // addresses and in different arrival orders) reproduce it bit for
    // bit. Points with fully equal coordinates are interchangeable in
    // both Option 1 and Option 2, so their relative order is irrelevant.
    std::sort(skyline.begin(), skyline.end(),
              [k, dims](const double* a, const double* b) {
                if (a[k] != b[k]) return a[k] < b[k];
                for (size_t x = 0; x < dims; ++x) {
                  if (a[x] != b[x]) return a[x] < b[x];
                }
                return false;
              });

    // Option 1 (lines 4-7): beat every skyline point on dimension k alone.
    candidate.assign(p, p + dims);
    candidate[k] = skyline.front()[k] - epsilon;
    consider(candidate);

    // Option 2 (lines 8-16): for consecutive s_i, s_j on dimension k, beat
    // s_j on k and s_i on every other dimension.
    for (size_t i = 0; i + 1 < skyline.size(); ++i) {
      const double* si = skyline[i];
      const double* sj = skyline[i + 1];
      for (size_t x = 0; x < dims; ++x) {
        candidate[x] = (x == k ? sj[x] : si[x]) - epsilon;
      }
      consider(candidate);
    }
  }

  outcome.cost = best_cost;
  outcome.upgraded = std::move(best);

#ifndef NDEBUG
  for (const double* s : skyline) {
    SKYUP_DCHECK(!Dominates(s, outcome.upgraded.data(), dims))
        << "Lemma 1 violated: upgraded product still dominated";
  }
#endif
  return outcome;
}

}  // namespace skyup
