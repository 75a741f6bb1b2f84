#include "data/normalize.h"

#include <algorithm>

#include "util/check.h"

namespace skyup {

Result<Normalizer> Normalizer::Fit(const Dataset& data,
                                   std::vector<Direction> directions) {
  return FitAll({&data}, std::move(directions));
}

Result<Normalizer> Normalizer::FitAll(
    const std::vector<const Dataset*>& parts,
    std::vector<Direction> directions) {
  if (parts.empty()) {
    return Status::InvalidArgument("Fit requires at least one dataset");
  }
  for (const Dataset* part : parts) {
    if (part == nullptr || part->empty()) {
      return Status::InvalidArgument("Fit requires non-empty datasets");
    }
  }
  const size_t dims = parts[0]->dims();
  for (const Dataset* part : parts) {
    if (part->dims() != dims) {
      return Status::InvalidArgument("datasets disagree on dimensionality");
    }
  }
  if (directions.empty()) {
    directions.assign(dims, Direction::kMinimize);
  } else if (directions.size() != dims) {
    return Status::InvalidArgument(
        "directions size must match dimensionality");
  }

  std::vector<DimScale> scales(dims);
  for (size_t i = 0; i < dims; ++i) {
    scales[i].direction = directions[i];
  }
  bool first = true;
  for (const Dataset* part : parts) {
    for (size_t r = 0; r < part->size(); ++r) {
      const double* p = part->data(static_cast<PointId>(r));
      for (size_t i = 0; i < dims; ++i) {
        if (first) {
          scales[i].lo = scales[i].hi = p[i];
        } else {
          scales[i].lo = std::min(scales[i].lo, p[i]);
          scales[i].hi = std::max(scales[i].hi, p[i]);
        }
      }
      first = false;
    }
  }
  for (size_t i = 0; i < dims; ++i) {
    if (scales[i].hi <= scales[i].lo) {
      // A constant dimension: give it unit width so the mapping stays
      // well-defined (all values land on 0).
      scales[i].hi = scales[i].lo + 1.0;
    }
  }
  return Normalizer(std::move(scales));
}

Dataset Normalizer::Normalize(const Dataset& data) const {
  SKYUP_CHECK(data.dims() == dims());
  Dataset out(dims());
  out.Reserve(data.size());
  std::vector<double> row(dims());
  for (size_t r = 0; r < data.size(); ++r) {
    const double* p = data.data(static_cast<PointId>(r));
    for (size_t i = 0; i < dims(); ++i) {
      const DimScale& s = scales_[i];
      const double unit = (p[i] - s.lo) / (s.hi - s.lo);
      row[i] = s.direction == Direction::kMinimize ? unit : 1.0 - unit;
    }
    out.Add(row);
  }
  return out;
}

std::vector<double> Normalizer::Denormalize(
    const std::vector<double>& unit) const {
  SKYUP_CHECK(unit.size() == dims());
  std::vector<double> raw(dims());
  for (size_t i = 0; i < dims(); ++i) {
    const DimScale& s = scales_[i];
    const double u =
        s.direction == Direction::kMinimize ? unit[i] : 1.0 - unit[i];
    raw[i] = s.lo + u * (s.hi - s.lo);
  }
  return raw;
}

}  // namespace skyup
