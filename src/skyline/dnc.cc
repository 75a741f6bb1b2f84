#include <algorithm>
#include <vector>

#include "core/dominance.h"
#include "skyline/skyline.h"
#include "util/check.h"

namespace skyup {

namespace {

// Removes from `losers` every id dominated by (or equal to) some id in
// `winners`; both sets are skylines of disjoint halves after a split on
// the median of one dimension.
void FilterDominated(const Dataset& data, const std::vector<PointId>& winners,
                     std::vector<PointId>* losers) {
  const size_t dims = data.dims();
  size_t kept = 0;
  for (PointId candidate : *losers) {
    const double* p = data.data(candidate);
    bool dominated = false;
    for (PointId w : winners) {
      if (DominatesOrEqual(data.data(w), p, dims)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) (*losers)[kept++] = candidate;
  }
  losers->resize(kept);
}

// Basic divide & conquer (Börzsönyi et al. / Kung et al.): split on the
// median of `dim`, recurse, then remove from the "worse" half everything
// dominated by the "better" half's skyline.
std::vector<PointId> DncRecurse(const Dataset& data,
                                std::vector<PointId> ids, size_t dim) {
  constexpr size_t kBaseCase = 32;
  if (ids.size() <= kBaseCase) {
    return SkylineBnl(data, &ids);
  }

  const size_t dims = data.dims();
  const size_t mid = ids.size() / 2;
  std::nth_element(ids.begin(), ids.begin() + static_cast<ptrdiff_t>(mid),
                   ids.end(), [&](PointId a, PointId b) {
                     const double va = data.data(a)[dim];
                     const double vb = data.data(b)[dim];
                     if (va != vb) return va < vb;
                     return a < b;
                   });
  std::vector<PointId> low(ids.begin(),
                           ids.begin() + static_cast<ptrdiff_t>(mid));
  std::vector<PointId> high(ids.begin() + static_cast<ptrdiff_t>(mid),
                            ids.end());
  ids.clear();
  ids.shrink_to_fit();

  const size_t next_dim = (dim + 1) % dims;
  std::vector<PointId> sky_low = DncRecurse(data, std::move(low), next_dim);
  std::vector<PointId> sky_high = DncRecurse(data, std::move(high), next_dim);

  // Points in the low half can dominate points in the high half (their
  // `dim` values are <=), never the other way around on that dimension
  // alone — but cross-dimension domination is possible in both directions
  // for the remaining dimensions, so the merge checks the high half
  // against the low skyline (the classic simplification remains correct
  // because low-half points have `dim` values <= every high-half point,
  // hence a high-half point can only dominate a low-half point if it ties
  // on `dim`; those ties end up filtered by the final BNL pass).
  FilterDominated(data, sky_low, &sky_high);

  std::vector<PointId> merged = std::move(sky_low);
  merged.insert(merged.end(), sky_high.begin(), sky_high.end());
  // Median ties can leave equal-on-`dim` cross pairs unchecked; one cheap
  // BNL pass over the (small) merged candidate set settles them exactly.
  return SkylineBnl(data, &merged);
}

}  // namespace

std::vector<PointId> SkylineDnc(const Dataset& data,
                                const std::vector<PointId>* subset) {
  std::vector<PointId> ids;
  if (subset != nullptr) {
    ids = *subset;
  } else {
    ids.resize(data.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PointId>(i);
  }
  if (ids.empty()) return ids;
  SKYUP_CHECK(data.dims() >= 1);
  // The paranoid postcondition runs once over the original input, not per
  // recursion level; the input copy it needs is folded away below paranoid.
  if constexpr (kCheckLevel >= 2) {
    std::vector<PointId> input = ids;
    std::vector<PointId> result = DncRecurse(data, std::move(ids), 0);
    SKYUP_PARANOID_OK(CheckSkylineInvariants(data, &input, result));
    return result;
  }
  return DncRecurse(data, std::move(ids), 0);
}

}  // namespace skyup
