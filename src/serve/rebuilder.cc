#include "serve/rebuilder.h"

#include <utility>
#include <vector>

#include "util/check.h"

namespace skyup {

namespace {

// Appends the rows of `target` from snapshot row `begin` on that are live
// at the prefix's end (neither tombstoned in `base` nor erased by `ops`),
// then the prefix's live inserts. Base rows ascend by id and every insert
// id exceeds every base id, so the appended ids stay strictly ascending.
void AppendLiveRows(const Snapshot& base, const DeltaPrefix& ops,
                    const DeltaMasks& masks, DeltaTarget target, size_t begin,
                    Dataset* rows, std::vector<uint64_t>* ids) {
  const bool competitor = target == DeltaTarget::kCompetitor;
  const Dataset& data = competitor ? base.competitors() : base.products();
  const uint8_t* erased = masks.snapshot_mask(target);
  for (size_t r = begin; r < data.size(); ++r) {
    const PointId row = static_cast<PointId>(r);
    if (erased[r] != 0 || (competitor && !base.competitor_alive(row))) {
      continue;
    }
    rows->Add(data.data(row));
    ids->push_back(competitor ? base.competitor_id(row)
                              : base.product_id(row));
  }
  const uint8_t* dead = masks.inserted_mask(target);
  for (size_t i = 0; i < ops.inserted(target); ++i) {
    if (dead[i] != 0) continue;
    rows->Add(ops.row(target, i));
    ids->push_back(ops.id(target, i));
  }
}

}  // namespace

Result<std::shared_ptr<const Snapshot>> MergeSnapshot(
    const Snapshot& base, const DeltaPrefix& ops, uint64_t next_epoch,
    size_t rtree_fanout) {
  const size_t dims = base.dims();
  DeltaMasks masks;
  masks.Build(base, ops);
  Dataset competitors(dims);
  std::vector<uint64_t> competitor_ids;
  const size_t live_competitors =
      masks.Live(DeltaTarget::kCompetitor, base, ops);
  competitors.Reserve(live_competitors);
  competitor_ids.reserve(live_competitors);
  AppendLiveRows(base, ops, masks, DeltaTarget::kCompetitor, 0, &competitors,
                 &competitor_ids);
  Dataset products(dims);
  std::vector<uint64_t> product_ids;
  const size_t live_products = masks.Live(DeltaTarget::kProduct, base, ops);
  products.Reserve(live_products);
  product_ids.reserve(live_products);
  AppendLiveRows(base, ops, masks, DeltaTarget::kProduct, 0, &products,
                 &product_ids);
  return Snapshot::Create(next_epoch, std::move(competitors),
                          std::move(competitor_ids), std::move(products),
                          std::move(product_ids), rtree_fanout);
}

Result<std::shared_ptr<const Snapshot>> PatchSnapshot(
    const Snapshot& base, const DeltaPrefix& ops, uint64_t next_epoch) {
  const size_t dims = base.dims();
  const size_t indexed = base.indexed_competitors();
  DeltaMasks masks;
  masks.Build(base, ops);

  // Assemble the next epoch: the indexed competitor prefix is copied
  // verbatim (tombstoned rows included — the cloned arena references rows
  // by number), then the compacted tail (surviving base tail rows, then
  // live inserts); products are fully compacted.
  Dataset competitors(dims);
  std::vector<uint64_t> competitor_ids;
  const size_t rows = indexed + base.tail_competitors() + ops.competitors;
  competitors.Reserve(rows);
  competitor_ids.reserve(rows);
  for (size_t r = 0; r < indexed; ++r) {
    competitors.Add(base.competitors().data(static_cast<PointId>(r)));
    competitor_ids.push_back(base.competitor_id(static_cast<PointId>(r)));
  }
  AppendLiveRows(base, ops, masks, DeltaTarget::kCompetitor, indexed,
                 &competitors, &competitor_ids);
  Dataset products(dims);
  std::vector<uint64_t> product_ids;
  const size_t live_products = masks.Live(DeltaTarget::kProduct, base, ops);
  products.Reserve(live_products);
  product_ids.reserve(live_products);
  AppendLiveRows(base, ops, masks, DeltaTarget::kProduct, 0, &products,
                 &product_ids);

  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot(
      next_epoch, std::make_unique<Dataset>(std::move(competitors)),
      std::move(competitor_ids),
      std::make_unique<Dataset>(std::move(products)),
      std::move(product_ids)));
  snapshot->index_ = base.index().Clone(snapshot->competitors_.get());
  // Erases of indexed rows become index tombstones, in log order.
  for (size_t i = 0; i < ops.erases; ++i) {
    const DeltaErase& erase = ops.erase(i);
    if (erase.target != DeltaTarget::kCompetitor || erase.inserted ||
        static_cast<size_t>(erase.row) >= indexed) {
      continue;
    }
    const bool erased = snapshot->index_.Erase(erase.row);
    SKYUP_DCHECK(erased) << "patch tombstone missed indexed row "
                         << erase.row;
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

PublishKind ChoosePublish(const Snapshot& base, const DeltaPrefix& ops,
                          const RebuildPolicy& policy) {
  const size_t indexed = base.indexed_competitors();
  if (indexed == 0) return PublishKind::kMajor;
  // The tombstone count is exact: the prefix counted its erases of
  // indexed rows at append. The tail is an estimate — every competitor
  // insert counts, even one erased again before the publish. The
  // thresholds are heuristics; over-estimating churn merely compacts a
  // little earlier.
  const size_t tombstones = base.index().tombstones() + ops.erased_indexed;
  const size_t tail = base.tail_competitors() + ops.competitors;
  if (tombstones * 100 >= indexed * policy.compact_tombstone_pct) {
    return PublishKind::kMajor;
  }
  if (tail * 100 >= indexed * policy.compact_tail_pct) {
    return PublishKind::kMajor;
  }
  return PublishKind::kPatch;
}

}  // namespace skyup
