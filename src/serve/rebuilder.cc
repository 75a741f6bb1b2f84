#include "serve/rebuilder.h"

#include <utility>
#include <vector>

namespace skyup {

namespace {

// Appends the rows of `target` that are live at the prefix's end: the
// base rows `ops` did not erase, then the prefix's live inserts. Base
// rows ascend by id and every insert id exceeds every base id, so the
// appended ids stay strictly ascending.
void AppendLiveRows(const Snapshot& base, const DeltaPrefix& ops,
                    const DeltaMasks& masks, DeltaTarget target,
                    Dataset* rows, std::vector<uint64_t>* ids) {
  const bool competitor = target == DeltaTarget::kCompetitor;
  const Dataset& data = competitor ? base.competitors() : base.products();
  const std::vector<uint64_t>& base_ids =
      competitor ? base.competitor_ids() : base.product_ids();
  const uint8_t* erased = masks.snapshot_mask(target);
  for (size_t r = 0; r < data.size(); ++r) {
    if (erased[r] != 0) continue;
    rows->Add(data.data(static_cast<PointId>(r)));
    ids->push_back(base_ids[r]);
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
  AppendLiveRows(base, ops, masks, DeltaTarget::kCompetitor, &competitors,
                 &competitor_ids);
  Dataset products(dims);
  std::vector<uint64_t> product_ids;
  const size_t live_products = masks.Live(DeltaTarget::kProduct, base, ops);
  products.Reserve(live_products);
  product_ids.reserve(live_products);
  AppendLiveRows(base, ops, masks, DeltaTarget::kProduct, &products,
                 &product_ids);
  return Snapshot::Create(next_epoch, std::move(competitors),
                          std::move(competitor_ids), std::move(products),
                          std::move(product_ids), rtree_fanout);
}

}  // namespace skyup
