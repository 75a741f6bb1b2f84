#include "core/join.h"

#include <algorithm>
#include <limits>

#include "core/dominance.h"
#include "core/single_upgrade.h"
#include "core/topk_common.h"
#include "obs/trace.h"
#include "skyline/dominating_skyline.h"
#include "util/check.h"

namespace skyup {

template <typename Fn>
void JoinCursor::ForEachEntry(const FlatRTree& tree, uint32_t node, Fn fn) {
  if (tree.is_leaf(node)) {
    for (uint32_t j = tree.point_begin(node); j < tree.point_end(node); ++j) {
      fn(EntryRef{EntryRef::kNoNode, tree.point_ids()[j]});
    }
  } else {
    for (uint32_t c = tree.child_begin(node); c < tree.child_end(node); ++c) {
      fn(EntryRef{c, kInvalidPointId});
    }
  }
}

Result<JoinCursor> JoinCursor::Create(const FlatRTree* competitors_tree,
                                      const FlatRTree* products_tree,
                                      const ProductCostFunction* cost_fn,
                                      JoinOptions options) {
  if (competitors_tree == nullptr || products_tree == nullptr ||
      cost_fn == nullptr) {
    return Status::InvalidArgument("join cursor requires non-null inputs");
  }
  if (competitors_tree->empty()) {
    return Status::InvalidArgument("competitor tree is empty");
  }
  if (products_tree->empty()) {
    return Status::InvalidArgument("product tree is empty");
  }
  const size_t dims = products_tree->dims();
  if (competitors_tree->dims() != dims) {
    return Status::InvalidArgument(
        "competitor and product dimensionality differ");
  }
  if (cost_fn->dims() != dims) {
    return Status::InvalidArgument(
        "cost function dimensionality does not match the data");
  }
  if (!IsValidEpsilon(options.epsilon)) {
    return Status::InvalidArgument("epsilon must be finite and positive");
  }
  return JoinCursor(competitors_tree, products_tree, cost_fn, options);
}

JoinCursor::JoinCursor(const FlatRTree* competitors_tree,
                       const FlatRTree* products_tree,
                       const ProductCostFunction* cost_fn, JoinOptions options)
    : rp_(competitors_tree),
      rt_(products_tree),
      cost_fn_(cost_fn),
      options_(options),
      dims_(products_tree->dims()) {
  // Seed: join R_T's root with the singleton {R_P's root} (Alg. 4 line 2),
  // filtered by the ADR overlap test so a fully advantaged T-tree starts
  // with an empty join list.
  HeapItem seed;
  seed.seq = seq_++;
  seed.et = EntryRef{FlatRTree::kRoot, kInvalidPointId};
  const EntryRef proot{FlatRTree::kRoot, kInvalidPointId};
  if (DominatesOrEqual(PMin(proot), TMax(seed.et), dims_)) {
    seed.jl.push_back(proot);
  }
  seed.cost = JoinListBound(TMin(seed.et), seed.jl, nullptr);
  Push(std::move(seed));
}

const double* JoinCursor::PMin(const EntryRef& e) const {
  return e.is_node() ? rp_->min_corner(e.node) : rp_->dataset().data(e.point);
}
const double* JoinCursor::PMax(const EntryRef& e) const {
  return e.is_node() ? rp_->max_corner(e.node) : rp_->dataset().data(e.point);
}
const double* JoinCursor::TMin(const EntryRef& e) const {
  return e.is_node() ? rt_->min_corner(e.node) : rt_->dataset().data(e.point);
}
const double* JoinCursor::TMax(const EntryRef& e) const {
  return e.is_node() ? rt_->max_corner(e.node) : rt_->dataset().data(e.point);
}

double JoinCursor::JoinListBound(const double* et_min,
                                 const std::vector<EntryRef>& jl,
                                 std::vector<double>* pair_lbcs) const {
  std::vector<EntryBounds> bounds;
  bounds.reserve(jl.size());
  for (const EntryRef& e : jl) bounds.push_back({PMin(e), PMax(e)});
  stats_.lbc_evaluations += jl.size();
  if (pair_lbcs == nullptr) {
    return LbcJoinList(et_min, bounds, dims_, *cost_fn_,
                       options_.lower_bound, options_.bound_mode);
  }
  return LbcJoinListWithDetails(et_min, bounds, dims_, *cost_fn_,
                                options_.lower_bound, options_.bound_mode,
                                pair_lbcs);
}

void JoinCursor::EnableTelemetry() {
  if (telemetry_ == nullptr) telemetry_ = std::make_unique<ShardTelemetry>();
}

void JoinCursor::FlushTelemetry(QueryTelemetry* out) const {
  if (telemetry_ != nullptr && out != nullptr) telemetry_->FlushInto(out);
}

std::optional<UpgradeResult> JoinCursor::Next() {
  ShardTelemetry* tel = telemetry_.get();
  // Heap pops and the expand/refine bookkeeping around them have no named
  // phase; close them into `other` so the lap chain stays gapless.
  LapOther(tel);
  while (!heap_.empty()) {
    HeapItem item = std::move(const_cast<HeapItem&>(heap_.top()));
    heap_.pop();
    ++stats_.heap_pops;

    if (item.exact) {
      // Cheapest possible remaining answer: everything else on the heap
      // has priority (a valid lower bound) >= this exact cost.
      UpgradeResult result;
      result.product_id = item.et.point;
      result.cost = item.cost;
      result.upgraded = std::move(item.upgraded);
      result.already_competitive = item.competitive;
      return result;
    }

    if (!item.et.is_node()) {
      if (options_.refine_zero_bound_leaves && item.cost <= 0.0) {
        // A zero bound only means the join list is still too coarse to
        // constrain this product; refine it before paying for the exact
        // cost (see JoinOptions::refine_zero_bound_leaves).
        std::optional<size_t> pick = ChooseJlEntry(item);
        LapPrune(tel);
        if (pick.has_value()) {
          RefineJl(std::move(item), *pick);
          continue;
        }
      }
      ComputeExact(std::move(item));
      continue;
    }

    if (item.cost <= 0.0) {
      // Heuristic 1.
      ExpandT(std::move(item));
      continue;
    }
    // Heuristic 2 (via 3/4): refine the P side if possible.
    std::optional<size_t> pick = ChooseJlEntry(item);
    LapPrune(tel);
    if (pick.has_value()) {
      RefineJl(std::move(item), *pick);
    } else {
      // No node entry left to refine: descend the T side instead (see
      // DESIGN.md on edge cases).
      ExpandT(std::move(item));
    }
  }
  return std::nullopt;
}

void JoinCursor::ComputeExact(HeapItem item) {
  ShardTelemetry* tel = telemetry_.get();
  LapOther(tel);
  const double* t = rt_->dataset().data(item.et.point);
  // The skyline of t's dominators below the join list (Alg. 4 line 9),
  // via a best-first, skyline-pruned traversal seeded from every join-list
  // entry — the same machinery as getDominatingSky (Algorithm 3).
  std::vector<uint32_t> roots;
  std::vector<PointId> point_entries;
  for (const EntryRef& e : item.jl) {
    if (e.is_node()) {
      roots.push_back(e.node);
    } else {
      point_entries.push_back(e.point);
    }
  }
  ProbeStats probe;
  const std::vector<PointId> sky_ids =
      DominatingSkylineFrom(*rp_, roots, point_entries, t, &probe);
  stats_.heap_pops += probe.heap_pops;
  stats_.dominators_fetched += sky_ids.size();
  stats_.skyline_points_total += sky_ids.size();
  LapProbe(tel);

  std::vector<const double*> dominators;
  dominators.reserve(sky_ids.size());
  for (PointId id : sky_ids) dominators.push_back(rp_->dataset().data(id));

  ++stats_.upgrade_calls;
  ++stats_.products_processed;
  UpgradeOutcome outcome =
      UpgradeProduct(dominators, t, dims_, *cost_fn_, options_.epsilon);
  LapUpgrade(tel);

  HeapItem exact;
  exact.cost = outcome.cost;
  exact.seq = seq_++;
  exact.exact = true;
  exact.competitive = outcome.already_competitive;
  exact.et = item.et;
  exact.upgraded = std::move(outcome.upgraded);
  Push(std::move(exact));
}

void JoinCursor::ExpandT(HeapItem item) {
  ShardTelemetry* tel = telemetry_.get();
  LapOther(tel);
  ++stats_.t_expansions;
  const uint32_t node = item.et.node;
  SKYUP_DCHECK(item.et.is_node());

  auto push_child = [&](EntryRef child) {
    HeapItem next;
    next.seq = seq_++;
    next.et = child;
    const double* cmax = TMax(child);
    for (const EntryRef& e : item.jl) {
      // Keep competitors whose MBR intersects ADR(child.max) — they may
      // contain dominators of some product under `child`.
      if (DominatesOrEqual(PMin(e), cmax, dims_)) next.jl.push_back(e);
    }
    next.cost = JoinListBound(TMin(child), next.jl, nullptr);
    Push(std::move(next));
  };

  ForEachEntry(*rt_, node, push_child);
  // The per-child JoinListBound evaluations are the join's pruning work.
  LapPrune(tel);
}

std::optional<size_t> JoinCursor::ChooseJlEntry(const HeapItem& item) const {
  std::vector<double> pair_lbcs;
  const double* et_min = TMin(item.et);
  JoinListBound(et_min, item.jl, &pair_lbcs);

  if (options_.lower_bound == LowerBoundKind::kAggressive) {
    // Heuristic 4: prefer the node entry whose pairwise LBC realizes the
    // overall ALB value.
    const double bound = item.cost;
    for (size_t i = 0; i < item.jl.size(); ++i) {
      if (item.jl[i].is_node() && pair_lbcs[i] == bound &&
          pair_lbcs[i] > 0.0) {
        return i;
      }
    }
    // Fall through to the Heuristic 3 rule if the achiever is a point.
  }

  // Heuristic 3: the node entry with the minimum positive LBC.
  std::optional<size_t> best;
  for (size_t i = 0; i < item.jl.size(); ++i) {
    if (!item.jl[i].is_node() || pair_lbcs[i] <= 0.0) continue;
    if (!best.has_value() || pair_lbcs[i] < pair_lbcs[*best]) best = i;
  }
  if (best.has_value()) return best;

  // All positive entries are points; refining any remaining node entry
  // (necessarily zero-LBC) still tightens future bounds.
  for (size_t i = 0; i < item.jl.size(); ++i) {
    if (item.jl[i].is_node()) return i;
  }
  return std::nullopt;
}

void JoinCursor::RefineJl(HeapItem item, size_t pick) {
  ShardTelemetry* tel = telemetry_.get();
  LapOther(tel);
  ++stats_.p_refinements;
  SKYUP_DCHECK(pick < item.jl.size() && item.jl[pick].is_node());
  const uint32_t chosen = item.jl[pick].node;
  item.jl.erase(item.jl.begin() + static_cast<ptrdiff_t>(pick));

  const double* et_max = TMax(item.et);
  auto handle_child = [&](EntryRef child) {
    const double* cmin = PMin(child);
    // Line 24: skip children that cannot dominate anything in e_T.
    if (!DominatesOrEqual(cmin, et_max, dims_)) return;
    if (options_.mutual_dominance_pruning) {
      const double* cmax = PMax(child);
      // Lines 25-30: drop the child if an existing entry's worst corner
      // dominates its best corner; conversely evict entries the child
      // fully dominates. (Any entry such a dropped child would evict is
      // evicted transitively by the entry that dominated the child, so
      // checking the drop first loses nothing.)
      for (const EntryRef& e : item.jl) {
        if (Dominates(PMax(e), cmin, dims_)) {
          ++stats_.jl_entries_pruned;
          return;
        }
      }
      size_t keep = 0;
      for (size_t i = 0; i < item.jl.size(); ++i) {
        if (Dominates(cmax, PMin(item.jl[i]), dims_)) {
          ++stats_.jl_entries_pruned;
          continue;
        }
        item.jl[keep++] = item.jl[i];
      }
      item.jl.resize(keep);
    }
    item.jl.push_back(child);
  };

  ForEachEntry(*rp_, chosen, handle_child);

  item.cost = JoinListBound(TMin(item.et), item.jl, nullptr);
  item.seq = seq_++;
  Push(std::move(item));
  // Mutual-dominance filtering + the refreshed bound are pruning work.
  LapPrune(tel);
}

Result<std::vector<UpgradeResult>> TopKJoin(const FlatRTree& competitors_tree,
                                            const FlatRTree& products_tree,
                                            const ProductCostFunction& cost_fn,
                                            size_t k, JoinOptions options,
                                            ExecStats* stats,
                                            QueryTelemetry* telemetry) {
  if (k == 0) return Status::InvalidArgument("k must be at least 1");
  SKYUP_TRACE_SPAN("topk/join");
  Result<JoinCursor> cursor =
      JoinCursor::Create(&competitors_tree, &products_tree, &cost_fn, options);
  if (!cursor.ok()) return cursor.status();
  if (telemetry != nullptr) cursor->EnableTelemetry();

  std::vector<UpgradeResult> results;
  results.reserve(k);
  while (results.size() < k) {
    std::optional<UpgradeResult> next = cursor->Next();
    if (!next.has_value()) break;
    results.push_back(std::move(*next));
  }
  if (stats != nullptr) *stats = cursor->stats();
  cursor->FlushTelemetry(telemetry);
  return results;
}

}  // namespace skyup
