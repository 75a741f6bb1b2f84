#include "serve/snapshot.h"

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

Snapshot::Snapshot(uint64_t epoch, std::unique_ptr<Dataset> competitors,
                   std::vector<uint64_t> competitor_ids,
                   std::unique_ptr<Dataset> products,
                   std::vector<uint64_t> product_ids)
    : epoch_(epoch),
      competitors_(std::move(competitors)),
      products_(std::move(products)),
      competitor_ids_(std::move(competitor_ids)),
      product_ids_(std::move(product_ids)),
      tail_block_(competitors_->dims()) {
  competitor_rows_.reserve(competitor_ids_.size());
  for (size_t i = 0; i < competitor_ids_.size(); ++i) {
    competitor_rows_.emplace(competitor_ids_[i], static_cast<PointId>(i));
  }
  product_rows_.reserve(product_ids_.size());
  for (size_t i = 0; i < product_ids_.size(); ++i) {
    product_rows_.emplace(product_ids_[i], static_cast<PointId>(i));
  }
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
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot(
      epoch, std::make_unique<Dataset>(std::move(competitors)),
      std::move(competitor_ids),
      std::make_unique<Dataset>(std::move(products)),
      std::move(product_ids)));
  Result<FlatRTree> index =
      FlatRTree::BulkLoad(*snapshot->competitors_, rtree_fanout);
  if (!index.ok()) return index.status();
  snapshot->index_ = std::move(index).value();
  snapshot->published_at_ = SteadyClock::now();
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

}  // namespace skyup
