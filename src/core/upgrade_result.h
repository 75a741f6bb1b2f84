#ifndef SKYUP_CORE_UPGRADE_RESULT_H_
#define SKYUP_CORE_UPGRADE_RESULT_H_

#include <cstddef>
#include <vector>

#include "core/point.h"
#include "util/check.h"
#include "util/field_table.h"

namespace skyup {

/// One ranked answer of the top-k product upgrading problem.
struct UpgradeResult {
  /// Row of the candidate product in the `T` dataset.
  PointId product_id = kInvalidPointId;
  /// Minimal upgrading cost found by Algorithm 1 for this product.
  double cost = 0.0;
  /// The upgraded attribute vector `t'` realizing that cost.
  std::vector<double> upgraded;
  /// True iff no competitor dominates the product (cost 0, unchanged).
  bool already_competitive = false;
};

// X(field, metric, help): every ExecStats counter, declared once. The
// list generates the struct's fields, `kExecStatsFields`, and through
// them MergeFrom, the metrics export (core/report.h) and `topk --stats`.
// clang-format off
#define SKYUP_EXEC_STATS_FIELDS(X)                                      \
  X(products_processed, "skyup_products_processed_total",               \
    "candidates examined (incl. pruned)")                               \
  X(dominators_fetched, "skyup_dominators_fetched_total",               \
    "points retrieved as dominators")                                   \
  X(skyline_points_total, "skyup_skyline_points_total",                 \
    "sum of dominator-skyline sizes")                                   \
  X(upgrade_calls, "skyup_upgrade_calls_total",                         \
    "invocations of Algorithm 1")                                       \
  X(heap_pops, "skyup_heap_pops_total", "join/BBS priority-queue pops") \
  X(t_expansions, "skyup_t_expansions_total",                           \
    "join: T-side node expansions")                                     \
  X(p_refinements, "skyup_p_refinements_total",                         \
    "join: P-side join-list refinements")                               \
  X(lbc_evaluations, "skyup_lbc_evaluations_total",                     \
    "pairwise LBC computations")                                        \
  /* Alg. 4 lines 25-30 */                                              \
  X(jl_entries_pruned, "skyup_jl_entries_pruned_total",                 \
    "join-list entries dropped by mutual dominance")                    \
  /* no skyline or upgrade work is spent on a pruned candidate */       \
  X(candidates_pruned, "skyup_candidates_pruned_total",                 \
    "candidates skipped by the sound lower-bound prune")                \
  /* CAS wins on the shared AtomicCostThreshold */                      \
  X(threshold_updates, "skyup_threshold_updates_total",                 \
    "successful lowerings of the shared parallel cost threshold")       \
  /* nodes_visited and points_scanned roll up ProbeStats */             \
  X(nodes_visited, "skyup_nodes_visited_total",                         \
    "index nodes expanded by probe traversals")                         \
  X(points_scanned, "skyup_points_scanned_total",                       \
    "leaf points examined by probe traversals")                         \
  /* core/dominance_batch.h */                                          \
  X(block_kernel_calls, "skyup_block_kernel_calls_total",               \
    "batched SIMD/SoA dominance-kernel invocations")
// clang-format on

/// Work counters shared by all top-k algorithms; used by tests, the
/// ablation benches, and for explaining performance differences.
struct ExecStats {
#define SKYUP_EXEC_STATS_MEMBER(field, metric, help) size_t field = 0;
  SKYUP_EXEC_STATS_FIELDS(SKYUP_EXEC_STATS_MEMBER)
#undef SKYUP_EXEC_STATS_MEMBER

  /// Field-wise sum, used wherever per-shard or per-phase counters are
  /// aggregated into one view.
  ExecStats& MergeFrom(const ExecStats& other);
  ExecStats& operator+=(const ExecStats& other) { return MergeFrom(other); }
};

inline constexpr FieldSpec<ExecStats, size_t> kExecStatsFields[] = {
#define SKYUP_EXEC_STATS_ROW(field, metric, help) \
  {#field, metric, help, &ExecStats::field},
    SKYUP_EXEC_STATS_FIELDS(SKYUP_EXEC_STATS_ROW)
#undef SKYUP_EXEC_STATS_ROW
};

inline ExecStats& ExecStats::MergeFrom(const ExecStats& other) {
  for (const auto& field : kExecStatsFields) {
    // Counters only ever grow; a merged value below its old one means the
    // unsigned add wrapped (billions of billions of operations — in
    // practice a corrupted shard).
    const size_t before = this->*field.member;
    this->*field.member += other.*field.member;
    SKYUP_DCHECK(this->*field.member >= before) << "ExecStats counter overflow";
  }
  return *this;
}

}  // namespace skyup

#endif  // SKYUP_CORE_UPGRADE_RESULT_H_
