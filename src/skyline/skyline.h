#ifndef SKYUP_SKYLINE_SKYLINE_H_
#define SKYUP_SKYLINE_SKYLINE_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"
#include "core/point.h"
#include "rtree/flat_rtree.h"
#include "util/status.h"

namespace skyup {

// Skyline algorithms provided by the substrate. All of them use the
// minimize orientation and return one representative per distinct
// coordinate vector (exact duplicates of a skyline point are dropped), so
// results satisfy the mutual non-domination precondition of the upgrade
// routine.

/// Block-nested-loops skyline [Börzsönyi et al.] of the whole dataset, or
/// of `subset` if given. The test oracle.
std::vector<PointId> SkylineBnl(const Dataset& data,
                                const std::vector<PointId>* subset = nullptr);

/// Sort-filter skyline [Chomicki et al.] of the whole dataset, or of
/// `subset` if given: `SkylineOfPointers` over the rows' coordinates.
/// O(n log n + n * |SKY| * d).
std::vector<PointId> SkylineSfs(const Dataset& data,
                                const std::vector<PointId>* subset = nullptr);

/// Branch-and-bound skyline [Papadias et al.] of the points of an
/// R-tree: the Algorithm 3 probe (`DominatingSkylineInto`) with t at
/// (+inf, ..., +inf), whose anti-dominant region is all of space.
std::vector<PointId> SkylineBbs(const FlatRTree& tree);

/// In-place skyline over raw coordinate pointers (SFS strategy): on return
/// `*points` holds exactly the distinct skyline members. Used on transient
/// dominator sets by the probing and join algorithms.
void SkylineOfPointers(std::vector<const double*>* points, size_t dims);

/// True iff point `id` is strictly dominated by some other point of `data`.
/// (A duplicate of another point is *not* dominated.) O(n d) scan; intended
/// for dataset preparation and tests, not for hot paths.
bool IsDominated(const Dataset& data, PointId id);

/// Re-proves the skyline definition over `subset` (or the whole dataset):
/// members mutually incomparable and distinct, every input point covered by
/// a member. O(|in| * |SKY| * d). This is the postcondition every skyline
/// algorithm asserts under SKYUP_PARANOID_OK; also usable from tests and
/// fuzz oracles directly.
Status CheckSkylineInvariants(const Dataset& data,
                              const std::vector<PointId>* subset,
                              const std::vector<PointId>& skyline);

}  // namespace skyup

#endif  // SKYUP_SKYLINE_SKYLINE_H_
