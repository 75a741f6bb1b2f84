#include "serve/rebuilder.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"

namespace skyup {

Result<std::shared_ptr<const Snapshot>> MergeSnapshot(
    const Snapshot& base, const std::vector<DeltaOp>& ops,
    uint64_t next_epoch, RTreeOptions index_options) {
  const size_t dims = base.dims();

  struct TableMerge {
    std::unordered_map<uint64_t, std::vector<double>> rows;
  };
  TableMerge competitors;
  TableMerge products;
  competitors.rows.reserve(base.live_competitors());
  for (size_t i = 0; i < base.competitors().size(); ++i) {
    // A patched base keeps tombstoned rows in place for the index's sake;
    // the compaction drops them here.
    if (!base.competitor_alive(static_cast<PointId>(i))) continue;
    const double* p = base.competitors().data(static_cast<PointId>(i));
    competitors.rows.emplace(base.competitor_id(static_cast<PointId>(i)),
                             std::vector<double>(p, p + dims));
  }
  products.rows.reserve(base.products().size());
  for (size_t i = 0; i < base.products().size(); ++i) {
    const double* p = base.products().data(static_cast<PointId>(i));
    products.rows.emplace(base.product_id(static_cast<PointId>(i)),
                          std::vector<double>(p, p + dims));
  }

  for (const DeltaOp& op : ops) {
    TableMerge& table =
        op.target == DeltaTarget::kCompetitor ? competitors : products;
    if (op.kind == DeltaKind::kInsert) {
      if (op.coords.size() != dims) {
        return Status::InvalidArgument(
            "delta insert arity mismatch during merge");
      }
      table.rows[op.id] = op.coords;
    } else {
      table.rows.erase(op.id);
    }
  }

  // Sort-by-id makes the merged row order a pure function of the live id
  // set — independent of hash order and of when rebuilds happened.
  auto to_sorted = [dims](const TableMerge& table, Dataset* data,
                          std::vector<uint64_t>* ids) {
    std::vector<std::pair<uint64_t, const std::vector<double>*>> sorted;
    sorted.reserve(table.rows.size());
    // lint: unordered-iter-ok (collected pairs are sorted by id right
    // below; hash order never reaches the output)
    for (const auto& entry : table.rows) {
      sorted.emplace_back(entry.first, &entry.second);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    data->Reserve(sorted.size());
    ids->reserve(sorted.size());
    for (const auto& [id, coords] : sorted) {
      data->Add(*coords);
      ids->push_back(id);
    }
  };
  Dataset merged_competitors(dims);
  std::vector<uint64_t> competitor_ids;
  to_sorted(competitors, &merged_competitors, &competitor_ids);
  Dataset merged_products(dims);
  std::vector<uint64_t> product_ids;
  to_sorted(products, &merged_products, &product_ids);

  return Snapshot::Create(next_epoch, std::move(merged_competitors),
                          std::move(competitor_ids),
                          std::move(merged_products), std::move(product_ids),
                          index_options);
}

Result<std::shared_ptr<const Snapshot>> PatchSnapshot(
    const Snapshot& base, const std::vector<DeltaOp>& ops,
    uint64_t next_epoch) {
  const size_t dims = base.dims();
  const size_t indexed = base.indexed_competitors();

  // Resolve the ops against three disjoint universes: pending inserts of
  // this very batch (insert-then-erase cancels), the base's unindexed
  // tail (compacted below), and indexed base rows (erases become index
  // tombstones). Same id-resolution scheme as BuildOverlay.
  struct Pending {
    uint64_t id;
    const double* coords;
    bool alive;
  };
  std::vector<Pending> tail;  // surviving base tail ++ batch inserts
  std::unordered_map<uint64_t, size_t> tail_index;
  tail.reserve(base.tail_competitors() + ops.size());
  for (size_t r = indexed; r < base.competitors().size(); ++r) {
    tail_index.emplace(base.competitor_id(static_cast<PointId>(r)),
                       tail.size());
    tail.push_back(Pending{base.competitor_id(static_cast<PointId>(r)),
                           base.competitors().data(static_cast<PointId>(r)),
                           true});
  }
  std::vector<Pending> products;
  std::unordered_map<uint64_t, size_t> product_index;
  products.reserve(base.products().size() + ops.size());
  for (size_t r = 0; r < base.products().size(); ++r) {
    product_index.emplace(base.product_id(static_cast<PointId>(r)),
                          products.size());
    products.push_back(Pending{base.product_id(static_cast<PointId>(r)),
                               base.products().data(static_cast<PointId>(r)),
                               true});
  }
  std::vector<PointId> tombstone_rows;  // indexed base rows to erase
  for (const DeltaOp& op : ops) {
    const bool is_competitor = op.target == DeltaTarget::kCompetitor;
    std::vector<Pending>& pending = is_competitor ? tail : products;
    std::unordered_map<uint64_t, size_t>& index =
        is_competitor ? tail_index : product_index;
    if (op.kind == DeltaKind::kInsert) {
      if (op.coords.size() != dims) {
        return Status::InvalidArgument(
            "delta insert arity mismatch during patch");
      }
      index.emplace(op.id, pending.size());
      pending.push_back(Pending{op.id, op.coords.data(), true});
      continue;
    }
    auto hit = index.find(op.id);
    if (hit != index.end()) {
      pending[hit->second].alive = false;
      continue;
    }
    if (is_competitor) {
      const PointId row = base.CompetitorRow(op.id);
      SKYUP_DCHECK(row != kInvalidPointId &&
                   static_cast<size_t>(row) < indexed &&
                   base.competitor_alive(row))
          << "erase of unknown competitor id " << op.id
          << " reached the patcher";
      if (row != kInvalidPointId) tombstone_rows.push_back(row);
    } else {
      SKYUP_DCHECK(false) << "erase of unknown product id " << op.id
                          << " reached the patcher";
    }
  }

  // Assemble the next epoch: the indexed competitor prefix is copied
  // verbatim (tombstoned rows included — the cloned arena references rows
  // by number), then the compacted tail; products are fully compacted.
  // Appends happen in id order, so both id vectors stay strictly
  // ascending (ids are handed out monotonically).
  Dataset competitors(dims);
  std::vector<uint64_t> competitor_ids;
  competitors.Reserve(indexed + tail.size());
  competitor_ids.reserve(indexed + tail.size());
  for (size_t r = 0; r < indexed; ++r) {
    competitors.Add(base.competitors().data(static_cast<PointId>(r)));
    competitor_ids.push_back(base.competitor_id(static_cast<PointId>(r)));
  }
  for (const Pending& p : tail) {
    if (!p.alive) continue;
    competitors.Add(p.coords);
    competitor_ids.push_back(p.id);
  }
  Dataset merged_products(dims);
  std::vector<uint64_t> product_ids;
  merged_products.Reserve(products.size());
  product_ids.reserve(products.size());
  for (const Pending& p : products) {
    if (!p.alive) continue;
    merged_products.Add(p.coords);
    product_ids.push_back(p.id);
  }

  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot(
      next_epoch, std::make_unique<Dataset>(std::move(competitors)),
      std::move(competitor_ids),
      std::make_unique<Dataset>(std::move(merged_products)),
      std::move(product_ids)));
  snapshot->index_ = base.index().Clone(snapshot->competitors_.get());
  for (PointId row : tombstone_rows) {
    const bool erased = snapshot->index_.Erase(row);
    SKYUP_DCHECK(erased) << "patch tombstone missed indexed row " << row;
    (void)erased;
  }
  for (size_t r = indexed; r < snapshot->competitors_->size(); ++r) {
    snapshot->tail_block_.Append(
        snapshot->competitors_->data(static_cast<PointId>(r)));
  }
  SKYUP_PARANOID_OK(snapshot->index_.Validate());
  snapshot->published_at_ = SteadyClock::now();
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

PublishKind ChoosePublish(const Snapshot& base,
                          const std::vector<DeltaOp>& ops,
                          const RebuildPolicy& policy) {
  const size_t indexed = base.indexed_competitors();
  if (indexed == 0) return PublishKind::kMajor;
  // Estimates, not exact accounting: an erase of a not-yet-applied insert
  // counts as both an insert and an erase here. The thresholds are
  // heuristics; over-estimating churn merely compacts a little earlier.
  size_t tombstones = base.index().tombstones();
  size_t tail = base.tail_competitors();
  for (const DeltaOp& op : ops) {
    if (op.target != DeltaTarget::kCompetitor) continue;
    if (op.kind == DeltaKind::kInsert) {
      ++tail;
    } else {
      const PointId row = base.CompetitorRow(op.id);
      if (row != kInvalidPointId && static_cast<size_t>(row) < indexed) {
        ++tombstones;
      }
    }
  }
  if (tombstones * 100 >= indexed * policy.compact_tombstone_pct) {
    return PublishKind::kMajor;
  }
  if (tail * 100 >= indexed * policy.compact_tail_pct) {
    return PublishKind::kMajor;
  }
  return PublishKind::kPatch;
}

}  // namespace skyup
