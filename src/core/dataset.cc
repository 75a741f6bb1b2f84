#include "core/dataset.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace skyup {

Dataset::Dataset(size_t dims) : dims_(dims) {
  SKYUP_CHECK(dims >= 1) << "dataset dimensionality must be >= 1";
}

Result<Dataset> Dataset::FromRows(
    const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) {
    return Status::InvalidArgument("FromRows requires at least one row");
  }
  const size_t dims = rows[0].size();
  if (dims == 0) {
    return Status::InvalidArgument("rows must have at least one attribute");
  }
  Dataset ds(dims);
  ds.Reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != dims) {
      return Status::InvalidArgument(
          "row " + std::to_string(i) + " has arity " +
          std::to_string(rows[i].size()) + ", expected " +
          std::to_string(dims));
    }
    ds.Add(rows[i]);
  }
  return ds;
}

PointId Dataset::Add(const std::vector<double>& coords) {
  SKYUP_CHECK(coords.size() == dims_)
      << "expected " << dims_ << " coords, got " << coords.size();
  return Add(coords.data());
}

PointId Dataset::Add(const double* coords) {
  const PointId id = static_cast<PointId>(size());
  // `coords` may point into this dataset's own storage (the delta overlay
  // copies rows between live tables: `dst.Add(src.data(i))` with
  // dst == src). `insert` would read `coords` after a reallocation moved
  // it, so re-derive the source by offset after growing: the appended
  // region never overlaps an existing row.
  const double* base = storage_.data();
  const std::less<const double*> before;  // total order even across objects
  if (base != nullptr && !before(coords, base) &&
      before(coords, base + storage_.size())) {
    const size_t offset = static_cast<size_t>(coords - base);
    storage_.resize(storage_.size() + dims_);
    std::copy_n(storage_.data() + offset, dims_,
                storage_.data() + static_cast<size_t>(id) * dims_);
    return id;
  }
  storage_.insert(storage_.end(), coords, coords + dims_);
  return id;
}

void Dataset::Reserve(size_t n) { storage_.reserve(n * dims_); }

Point Dataset::Materialize(PointId id) const {
  Point p;
  p.id = id;
  p.coords.assign(data(id), data(id) + dims_);
  return p;
}

std::vector<double> Dataset::MinCorner() const {
  SKYUP_CHECK(!empty());
  std::vector<double> corner(data(0), data(0) + dims_);
  for (size_t i = 1; i < size(); ++i) {
    const double* p = data(static_cast<PointId>(i));
    for (size_t k = 0; k < dims_; ++k) corner[k] = std::min(corner[k], p[k]);
  }
  return corner;
}

std::vector<double> Dataset::MaxCorner() const {
  SKYUP_CHECK(!empty());
  std::vector<double> corner(data(0), data(0) + dims_);
  for (size_t i = 1; i < size(); ++i) {
    const double* p = data(static_cast<PointId>(i));
    for (size_t k = 0; k < dims_; ++k) corner[k] = std::max(corner[k], p[k]);
  }
  return corner;
}

}  // namespace skyup
