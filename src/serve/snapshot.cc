#include "serve/snapshot.h"

#include <algorithm>
#include <string>
#include <utility>

namespace skyup {

namespace {

Status ValidateIds(const Dataset& data, const std::vector<uint64_t>& ids,
                   const char* what) {
  if (ids.size() != data.size()) {
    return Status::InvalidArgument(
        std::string(what) + " id vector has " + std::to_string(ids.size()) +
        " entries for " + std::to_string(data.size()) + " rows");
  }
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i - 1] >= ids[i]) {
      return Status::InvalidArgument(
          std::string(what) + " ids not strictly ascending at row " +
          std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace

PointId Snapshot::RowOf(const std::vector<uint64_t>& ids, uint64_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return kInvalidPointId;
  return static_cast<PointId>(it - ids.begin());
}

Result<std::shared_ptr<const Snapshot>> Snapshot::Create(
    uint64_t epoch, Dataset competitors,
    std::vector<uint64_t> competitor_ids, Dataset products,
    std::vector<uint64_t> product_ids, size_t rtree_fanout) {
  if (competitors.dims() != products.dims()) {
    return Status::InvalidArgument(
        "snapshot P/T dimensionality mismatch: " +
        std::to_string(competitors.dims()) + " vs " +
        std::to_string(products.dims()));
  }
  SKYUP_RETURN_IF_ERROR(ValidateIds(competitors, competitor_ids,
                                    "competitor"));
  SKYUP_RETURN_IF_ERROR(ValidateIds(products, product_ids, "product"));

  // Two-phase: place the datasets behind stable addresses first, then
  // index — the flat index keeps a raw pointer to the competitor dataset.
  std::shared_ptr<Snapshot> snapshot(new Snapshot());
  snapshot->epoch_ = epoch;
  snapshot->competitors_ = std::make_unique<Dataset>(std::move(competitors));
  snapshot->products_ = std::make_unique<Dataset>(std::move(products));
  snapshot->competitor_ids_ = std::move(competitor_ids);
  snapshot->product_ids_ = std::move(product_ids);
  Result<FlatRTree> index =
      FlatRTree::BulkLoad(*snapshot->competitors_, rtree_fanout);
  if (!index.ok()) return index.status();
  snapshot->index_ = std::move(index).value();
  snapshot->published_at_ = SteadyClock::now();
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

}  // namespace skyup
