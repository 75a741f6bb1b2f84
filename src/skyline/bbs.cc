#include <queue>
#include <vector>

#include "core/dominance_batch.h"
#include "rtree/flat_rtree.h"
#include "skyline/skyline.h"
#include "util/check.h"

namespace skyup {

std::vector<PointId> SkylineBbs(const FlatRTree& tree) {
  std::vector<PointId> result;
  if (tree.empty() || tree.live_size() == 0) return result;
  // The traversal trusts the arena's structural invariants (slot ranges,
  // containment, SoA/AoS mirror agreement); re-prove them under paranoid.
  SKYUP_PARANOID_OK(tree.Validate());

  // Best-first by the L1 "mindist" (sum of min-corner coordinates), a
  // monotone score, so a deheaped undominated point is a final skyline
  // member (Papadias et al.). Point entries carry node == kNoNode; seq is
  // the deterministic FIFO tie-break.
  const size_t dims = tree.dims();
  constexpr uint32_t kNoNode = UINT32_MAX;
  struct FlatBbsEntry {
    double key;
    uint64_t seq;
    uint32_t node;
    PointId point;
    bool operator>(const FlatBbsEntry& other) const {
      if (key != other.key) return key > other.key;
      return seq > other.seq;
    }
  };
  std::priority_queue<FlatBbsEntry, std::vector<FlatBbsEntry>,
                      std::greater<FlatBbsEntry>>
      heap;
  uint64_t seq = 0;
  heap.push({tree.min_corner_sum(FlatRTree::kRoot), seq++, FlatRTree::kRoot,
             kInvalidPointId});

  // The window is one SoA block; the per-entry dominance tests are batched
  // kernel sweeps.
  SoaBlock window(dims);
  auto dominated = [&window](const double* p) {
    return !window.empty() && DominatesAny(window.view(), p);
  };
  while (!heap.empty()) {
    const FlatBbsEntry entry = heap.top();
    heap.pop();
    if (entry.node != kNoNode) {
      if (dominated(tree.min_corner(entry.node))) continue;
      if (tree.is_leaf(entry.node)) {
        const uint32_t b = tree.point_begin(entry.node);
        const uint32_t e = tree.point_end(entry.node);
        for (uint32_t slot = b; slot < e; ++slot) {
          if (!tree.slot_alive(slot)) continue;
          const double* p = tree.slot_coords(slot);
          if (dominated(p)) continue;
          double key = 0.0;
          for (size_t i = 0; i < dims; ++i) key += p[i];
          heap.push({key, seq++, kNoNode, tree.point_ids()[slot]});
        }
      } else {
        for (uint32_t child = tree.child_begin(entry.node);
             child < tree.child_end(entry.node); ++child) {
          if (tree.node_live_count(child) == 0) continue;
          if (dominated(tree.min_corner(child))) continue;
          heap.push({tree.min_corner_sum(child), seq++, child,
                     kInvalidPointId});
        }
      }
    } else {
      const double* p = tree.dataset().data(entry.point);
      if (dominated(p)) continue;
      window.Append(p);
      result.push_back(entry.point);
    }
  }
  SKYUP_PARANOID_OK([&]() -> Status {
    // Re-proof input: the *live* slots only — tombstoned points are not
    // part of the set whose skyline this computes.
    std::vector<PointId> all;
    all.reserve(tree.live_size());
    for (uint32_t j = 0; j < tree.size(); ++j) {
      if (tree.slot_alive(j)) all.push_back(tree.point_ids()[j]);
    }
    return CheckSkylineInvariants(tree.dataset(), &all, result);
  }());
  return result;
}

std::vector<PointId> Skyline(const Dataset& data, SkylineAlgorithm algo) {
  if (data.empty()) return {};
  switch (algo) {
    case SkylineAlgorithm::kBnl:
      return SkylineBnl(data);
    case SkylineAlgorithm::kSfs:
      return SkylineSfs(data);
    case SkylineAlgorithm::kBbs: {
      Result<FlatRTree> tree = FlatRTree::BulkLoad(data);
      SKYUP_CHECK(tree.ok()) << tree.status().ToString();
      return SkylineBbs(tree.value());
    }
    case SkylineAlgorithm::kDnc:
      return SkylineDnc(data);
  }
  SKYUP_CHECK(false) << "unreachable";
  return {};
}

}  // namespace skyup
