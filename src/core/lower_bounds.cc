#include "core/lower_bounds.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "rtree/mbr.h"
#include "util/check.h"

namespace skyup {

const char* LowerBoundKindName(LowerBoundKind kind) {
  switch (kind) {
    case LowerBoundKind::kNaive:
      return "NLB";
    case LowerBoundKind::kConservative:
      return "CLB";
    case LowerBoundKind::kAggressive:
      return "ALB";
  }
  return "?";
}

DimClassification ClassifyDims(const double* et_min, const double* ep_min,
                               const double* ep_max, size_t dims) {
  SKYUP_DCHECK(dims <= 32);
  DimClassification cls;
  for (size_t i = 0; i < dims; ++i) {
    const uint32_t bit = 1u << i;
    if (et_min[i] < ep_min[i]) {
      cls.advantaged |= bit;
    } else if (ep_max[i] < et_min[i]) {
      cls.disadvantaged |= bit;
    } else {
      cls.incomparable |= bit;
    }
  }
  return cls;
}

const char* BoundModeName(BoundMode mode) {
  switch (mode) {
    case BoundMode::kPaper:
      return "paper";
    case BoundMode::kSound:
      return "sound";
  }
  return "?";
}

namespace {

// Section III-B3 verbatim: the virtual target t_v matches e_P.max on
// disadvantaged dimensions and keeps e_T.min elsewhere (case 3 is the
// special case with no incomparable dimensions, where t_v == e_P.max).
double PaperPairBound(const double* et_min, const double* ep_max,
                      const DimClassification& cls, size_t dims,
                      const ProductCostFunction& cost_fn) {
  double cost = 0.0;
  for (size_t i = 0; i < dims; ++i) {
    if ((cls.disadvantaged & (1u << i)) != 0) {
      cost += cost_fn.AttributeCost(i, ep_max[i]) -
              cost_fn.AttributeCost(i, et_min[i]);
    }
  }
  return std::max(cost, 0.0);
}

// Corrected bound (library extension): what escaping the dominators that a
// *tight* MBR guarantees e_P to contain must cost. Upgrades never worsen an
// attribute (t' <= t componentwise, as in Algorithm 1), so per-dimension
// cost deltas are non-negative and sum.
//
//  * Two or more incomparable dimensions: for each such dimension, the
//    point touching its min face may sit above e_T.min on another
//    incomparable dimension, so e_P may contain no dominator at all —
//    bound 0.
//  * One incomparable dimension i: the point touching e_P.min on i is
//    coordinatewise <= e_T.min (below it on all disadvantaged dimensions),
//    hence a guaranteed dominator. Escaping a single dominator q costs at
//    least min over dimensions k of w_k (f_a^k(q_k) - f_a^k(e_T.min_k));
//    bound each term by the box corner (q_k <= e_P.max_k; q_i = e_P.min_i
//    on the face).
//  * No incomparable dimension: every point of e_P dominates e_T.min, and
//    tightness guarantees a dominator on *each* min face. Let
//    c_k = w_k (f_a^k(e_P.max_k) - f_a^k(e_T.min_k)) and
//    m_k = w_k (f_a^k(e_P.min_k) - f_a^k(e_T.min_k)). If the upgrade dips
//    below e_P.min on some dimension it pays >= min_k m_k. Otherwise, the
//    face dominator of dimension i can only be escaped on a dimension
//    j != i that improved below e_P.max_j; covering every i that way needs
//    improvements on >= 2 distinct dimensions, costing at least the two
//    smallest c_k combined. The bound is the min of the two scenarios —
//    roughly twice the single-escape value, still far below the paper's
//    all-dimensions sum.
double SoundPairBound(const double* et_min, const double* ep_min,
                      const double* ep_max, const DimClassification& cls,
                      size_t dims, const ProductCostFunction& cost_fn) {
  int incomparable_count = 0;
  for (size_t i = 0; i < dims; ++i) {
    if ((cls.incomparable & (1u << i)) != 0) ++incomparable_count;
  }
  if (incomparable_count >= 2) return 0.0;

  const double inf = std::numeric_limits<double>::infinity();
  if (incomparable_count == 1) {
    double cheapest = inf;
    for (size_t i = 0; i < dims; ++i) {
      const uint32_t bit = 1u << i;
      double escape;
      if ((cls.disadvantaged & bit) != 0) {
        escape = cost_fn.AttributeCost(i, ep_max[i]) -
                 cost_fn.AttributeCost(i, et_min[i]);
      } else {
        escape = cost_fn.AttributeCost(i, ep_min[i]) -
                 cost_fn.AttributeCost(i, et_min[i]);
      }
      cheapest = std::min(cheapest, escape);
    }
    return std::max(cheapest, 0.0);
  }

  // All dimensions disadvantaged.
  if (dims == 1) {
    // A 1-d box: the only escape dips below its min face.
    return std::max(cost_fn.AttributeCost(0, ep_min[0]) -
                        cost_fn.AttributeCost(0, et_min[0]),
                    0.0);
  }
  double min_face_escape = inf;  // min_k m_k
  double c1 = inf, c2 = inf;     // two smallest c_k
  for (size_t i = 0; i < dims; ++i) {
    const double m = cost_fn.AttributeCost(i, ep_min[i]) -
                     cost_fn.AttributeCost(i, et_min[i]);
    const double c = cost_fn.AttributeCost(i, ep_max[i]) -
                     cost_fn.AttributeCost(i, et_min[i]);
    min_face_escape = std::min(min_face_escape, m);
    if (c < c1) {
      c2 = c1;
      c1 = c;
    } else {
      c2 = std::min(c2, c);
    }
  }
  return std::max(std::min(min_face_escape, c1 + c2), 0.0);
}

}  // namespace

double LbcPair(const double* et_min, const double* ep_min,
               const double* ep_max, size_t dims,
               const ProductCostFunction& cost_fn, BoundMode mode) {
  const DimClassification cls = ClassifyDims(et_min, ep_min, ep_max, dims);
  // Case 1: an advantaged dimension alone keeps e_T.min undominated.
  // Case 2: every dimension incomparable — e_P may hold only points that
  // do not dominate e_T.min.
  if (cls.advantaged != 0 || cls.disadvantaged == 0) return 0.0;

  if (mode == BoundMode::kPaper) {
    return PaperPairBound(et_min, ep_max, cls, dims, cost_fn);
  }
  return SoundPairBound(et_min, ep_min, ep_max, cls, dims, cost_fn);
}

namespace {

double JoinListBound(const double* et_min,
                     const std::vector<EntryBounds>& join_list, size_t dims,
                     const ProductCostFunction& cost_fn, LowerBoundKind kind,
                     BoundMode mode, std::vector<double>* pair_lbcs) {
  if (pair_lbcs != nullptr) {
    pair_lbcs->clear();
    pair_lbcs->reserve(join_list.size());
  }
  if (join_list.empty()) return 0.0;

  const double inf = std::numeric_limits<double>::infinity();
  switch (kind) {
    case LowerBoundKind::kNaive: {
      double bound = inf;
      for (const EntryBounds& e : join_list) {
        const double lbc = LbcPair(et_min, e.min, e.max, dims, cost_fn, mode);
        if (pair_lbcs != nullptr) pair_lbcs->push_back(lbc);
        bound = std::min(bound, lbc);
      }
      return bound;
    }
    case LowerBoundKind::kConservative: {
      double bound = inf;
      for (const EntryBounds& e : join_list) {
        const double lbc = LbcPair(et_min, e.min, e.max, dims, cost_fn, mode);
        if (pair_lbcs != nullptr) pair_lbcs->push_back(lbc);
        if (lbc > 0.0) bound = std::min(bound, lbc);
      }
      // JL' empty: every entry admits a zero-cost outcome.
      return bound == inf ? 0.0 : bound;
    }
    case LowerBoundKind::kAggressive: {
      // Group positive-LBC entries by their dimension signature; entries in
      // one group constrain the same dimensions, so the *max* within the
      // group must be paid; incomparable groups are alternatives, so the
      // min across groups is the bound (Equation 4).
      std::unordered_map<uint64_t, double> group_max;
      for (const EntryBounds& e : join_list) {
        const double lbc = LbcPair(et_min, e.min, e.max, dims, cost_fn, mode);
        if (pair_lbcs != nullptr) pair_lbcs->push_back(lbc);
        if (lbc <= 0.0) continue;
        const DimClassification cls =
            ClassifyDims(et_min, e.min, e.max, dims);
        const uint64_t key = (static_cast<uint64_t>(cls.disadvantaged) << 32) |
                             cls.incomparable;
        auto [it, inserted] = group_max.try_emplace(key, lbc);
        if (!inserted) it->second = std::max(it->second, lbc);
      }
      if (group_max.empty()) return 0.0;
      double bound = inf;
      // lint: unordered-iter-ok (min over all groups — commutative
      // reduction, hash order cannot reach the result)
      for (const auto& [key, value] : group_max) {
        bound = std::min(bound, value);
      }
      return bound;
    }
  }
  SKYUP_CHECK(false) << "unreachable";
  return 0.0;
}

}  // namespace

double LbcJoinList(const double* et_min,
                   const std::vector<EntryBounds>& join_list, size_t dims,
                   const ProductCostFunction& cost_fn, LowerBoundKind kind,
                   BoundMode mode) {
  return JoinListBound(et_min, join_list, dims, cost_fn, kind, mode, nullptr);
}

double LbcJoinListWithDetails(const double* et_min,
                              const std::vector<EntryBounds>& join_list,
                              size_t dims, const ProductCostFunction& cost_fn,
                              LowerBoundKind kind, BoundMode mode,
                              std::vector<double>* pair_lbcs) {
  SKYUP_CHECK(pair_lbcs != nullptr);
  return JoinListBound(et_min, join_list, dims, cost_fn, kind, mode,
                       pair_lbcs);
}

}  // namespace skyup
