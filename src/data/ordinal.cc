#include "data/ordinal.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "util/check.h"

namespace skyup {

Result<OrdinalScale> OrdinalScale::Create(std::vector<std::string> levels) {
  if (levels.empty()) {
    return Status::InvalidArgument("an ordinal scale needs at least 1 level");
  }
  std::set<std::string> seen;
  for (const std::string& level : levels) {
    if (level.empty()) {
      return Status::InvalidArgument("ordinal levels must be non-empty");
    }
    if (!seen.insert(level).second) {
      return Status::InvalidArgument("duplicate ordinal level '" + level +
                                     "'");
    }
  }
  return OrdinalScale(std::move(levels));
}

Result<double> OrdinalScale::Rank(const std::string& level) const {
  for (size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i] == level) return static_cast<double>(i);
  }
  return Status::NotFound("unknown ordinal level '" + level + "'");
}

const std::string& OrdinalScale::Level(size_t rank) const {
  SKYUP_CHECK(rank < levels_.size());
  return levels_[rank];
}

const std::string& OrdinalScale::Unrank(double value) const {
  double idx = std::floor(value);
  idx = std::clamp(idx, 0.0, static_cast<double>(levels_.size() - 1));
  return levels_[static_cast<size_t>(idx)];
}

Result<std::shared_ptr<const TabulatedCost>> TabulatedCost::Create(
    std::vector<double> costs_by_rank) {
  if (costs_by_rank.size() < 2) {
    return Status::InvalidArgument(
        "a tabulated cost needs at least 2 rank entries");
  }
  for (size_t i = 1; i < costs_by_rank.size(); ++i) {
    if (costs_by_rank[i] > costs_by_rank[i - 1]) {
      return Status::InvalidArgument(
          "tabulated costs must be non-increasing in rank; entry " +
          std::to_string(i) + " rises");
    }
  }
  return std::shared_ptr<const TabulatedCost>(
      new TabulatedCost(std::move(costs_by_rank)));
}

double TabulatedCost::Cost(double value) const {
  const double max_rank = static_cast<double>(costs_.size() - 1);
  if (value <= 0.0) return costs_.front();
  if (value >= max_rank) return costs_.back();
  const size_t lo = static_cast<size_t>(value);
  const double frac = value - static_cast<double>(lo);
  return costs_[lo] * (1.0 - frac) + costs_[lo + 1] * frac;
}

std::string TabulatedCost::name() const {
  std::ostringstream out;
  out << "tabulated(" << costs_.size() << " levels, " << costs_.front()
      << " .. " << costs_.back() << ")";
  return out.str();
}

}  // namespace skyup
