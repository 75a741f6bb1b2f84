#include <algorithm>
#include <vector>

#include "core/dominance_batch.h"
#include "skyline/skyline.h"
#include "util/check.h"

namespace skyup {

namespace {

double CoordSum(const double* p, size_t dims) {
  double sum = 0.0;
  for (size_t i = 0; i < dims; ++i) sum += p[i];
  return sum;
}

}  // namespace

std::vector<PointId> SkylineSfs(const Dataset& data,
                                const std::vector<PointId>* subset) {
  const size_t dims = data.dims();
  const size_t n = subset != nullptr ? subset->size() : data.size();
  std::vector<const double*> points(n);
  for (size_t i = 0; i < n; ++i) {
    points[i] = data.data(subset != nullptr ? (*subset)[i]
                                            : static_cast<PointId>(i));
  }
  // Rows are contiguous, so the address tie-break is the row-id tie-break
  // and each survivor maps back to its row.
  SkylineOfPointers(&points, dims);
  std::vector<PointId> skyline(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    skyline[i] = static_cast<PointId>((points[i] - data.data(0)) / dims);
  }
  SKYUP_PARANOID_OK(CheckSkylineInvariants(data, subset, skyline));
  return skyline;
}

void SkylineOfPointers(std::vector<const double*>* points, size_t dims) {
  // Sorting by a monotone score (the coordinate sum) guarantees that any
  // dominator of a point precedes it, so one pass over the order suffices
  // and accepted points are final.
  std::sort(points->begin(), points->end(),
            [dims](const double* a, const double* b) {
              const double sa = CoordSum(a, dims);
              const double sb = CoordSum(b, dims);
              if (sa != sb) return sa < sb;
              return a < b;  // deterministic tie-break on address
            });
  // The accepted window lives in one SoA block so each candidate is tested
  // against all current members with a single batched kernel sweep.
  SoaBlock window(dims);
  size_t kept = 0;
  for (size_t i = 0; i < points->size(); ++i) {
    const double* p = (*points)[i];
    if (!window.empty() && DominatesAny(window.view(), p)) continue;
    window.Append(p);
    (*points)[kept++] = p;
  }
  points->resize(kept);
}

}  // namespace skyup
