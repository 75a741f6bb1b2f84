#include "data/wine.h"

#include <algorithm>
#include <cmath>

#include "skyline/skyline.h"
#include "util/check.h"
#include "util/random.h"

namespace skyup {

const char* WineAttrName(WineAttr attr) {
  switch (attr) {
    case WineAttr::kChlorides:
      return "chlorides";
    case WineAttr::kSulphates:
      return "sulphates";
    case WineAttr::kTotalSulfurDioxide:
      return "total sulfur dioxide";
  }
  return "?";
}

std::vector<std::vector<WineAttr>> WineAttributeCombinations() {
  using W = WineAttr;
  return {
      {W::kChlorides, W::kSulphates},
      {W::kChlorides, W::kTotalSulfurDioxide},
      {W::kSulphates, W::kTotalSulfurDioxide},
      {W::kChlorides, W::kSulphates, W::kTotalSulfurDioxide},
  };
}

std::string WineComboLabel(const std::vector<WineAttr>& attrs) {
  std::string label;
  for (const WineAttr a : attrs) {
    if (!label.empty()) label += ',';
    switch (a) {
      case WineAttr::kChlorides:
        label += 'c';
        break;
      case WineAttr::kSulphates:
        label += 's';
        break;
      case WineAttr::kTotalSulfurDioxide:
        label += 't';
        break;
    }
  }
  return label;
}

namespace {

// Published marginal statistics of the UCI winequality-white attributes.
struct Marginal {
  double mean;
  double sd;
  double lo;
  double hi;
  bool log_normal;  // right-skewed attributes use a log-normal shape
};

constexpr Marginal kChloridesStats = {0.0458, 0.0218, 0.009, 0.346, true};
constexpr Marginal kSulphatesStats = {0.4898, 0.1141, 0.22, 1.08, true};
constexpr Marginal kTotalSo2Stats = {138.36, 42.50, 9.0, 440.0, false};

double FromStandardNormal(const Marginal& m, double z) {
  double value;
  if (m.log_normal) {
    // Log-normal parameters reproducing the target mean and sd.
    const double ratio = m.sd / m.mean;
    const double sigma2 = std::log(1.0 + ratio * ratio);
    const double mu = std::log(m.mean) - 0.5 * sigma2;
    value = std::exp(mu + std::sqrt(sigma2) * z);
  } else {
    value = m.mean + m.sd * z;
  }
  return std::clamp(value, m.lo, m.hi);
}

}  // namespace

Result<Dataset> SynthesizeWine(size_t count, uint64_t seed) {
  if (count == 0) {
    return Status::InvalidArgument("wine synthesis needs count >= 1");
  }
  // Pairwise correlations of the real attributes (chlorides, sulphates,
  // total SO2) are mild; their Cholesky factor drives a Gaussian copula.
  constexpr double r_cs = 0.017;  // chlorides ~ sulphates
  constexpr double r_ct = 0.199;  // chlorides ~ total SO2
  constexpr double r_st = 0.135;  // sulphates ~ total SO2

  // Cholesky of [[1, r_cs, r_ct], [r_cs, 1, r_st], [r_ct, r_st, 1]].
  const double l11 = 1.0;
  const double l21 = r_cs;
  const double l22 = std::sqrt(1.0 - l21 * l21);
  const double l31 = r_ct;
  const double l32 = (r_st - l31 * l21) / l22;
  const double l33 = std::sqrt(1.0 - l31 * l31 - l32 * l32);

  Rng rng(seed);
  Dataset wine(3);
  wine.Reserve(count);
  std::vector<double> row(3);
  for (size_t i = 0; i < count; ++i) {
    const double g1 = rng.NextGaussian();
    const double g2 = rng.NextGaussian();
    const double g3 = rng.NextGaussian();
    const double z1 = l11 * g1;
    const double z2 = l21 * g1 + l22 * g2;
    const double z3 = l31 * g1 + l32 * g2 + l33 * g3;
    row[0] = FromStandardNormal(kChloridesStats, z1);
    row[1] = FromStandardNormal(kSulphatesStats, z2);
    row[2] = FromStandardNormal(kTotalSo2Stats, z3);
    wine.Add(row);
  }
  return wine;
}

Result<Dataset> WineSubset(const Dataset& wine,
                           const std::vector<WineAttr>& attrs) {
  if (wine.dims() != 3) {
    return Status::InvalidArgument("expected the 3-column wine table");
  }
  if (attrs.empty()) {
    return Status::InvalidArgument("attribute selection is empty");
  }
  if (wine.empty()) {
    return Status::InvalidArgument("wine table is empty");
  }

  // Min-max per selected column.
  std::vector<double> lo(attrs.size()), hi(attrs.size());
  for (size_t a = 0; a < attrs.size(); ++a) {
    const size_t col = static_cast<size_t>(attrs[a]);
    lo[a] = hi[a] = wine.data(0)[col];
    for (size_t r = 1; r < wine.size(); ++r) {
      const double v = wine.data(static_cast<PointId>(r))[col];
      lo[a] = std::min(lo[a], v);
      hi[a] = std::max(hi[a], v);
    }
    if (hi[a] <= lo[a]) hi[a] = lo[a] + 1.0;
  }

  Dataset out(attrs.size());
  out.Reserve(wine.size());
  std::vector<double> row(attrs.size());
  for (size_t r = 0; r < wine.size(); ++r) {
    const double* p = wine.data(static_cast<PointId>(r));
    for (size_t a = 0; a < attrs.size(); ++a) {
      const size_t col = static_cast<size_t>(attrs[a]);
      row[a] = (p[col] - lo[a]) / (hi[a] - lo[a]);
    }
    out.Add(row);
  }
  return out;
}

Result<WineSplit> SplitWine(const Dataset& reduced, size_t product_count,
                            uint64_t seed) {
  if (reduced.empty()) {
    return Status::InvalidArgument("reduced wine data set is empty");
  }
  if (product_count == 0) {
    return Status::InvalidArgument("product_count must be >= 1");
  }

  // "Pick non-skyline tuples at random as the product data set T": we use
  // strictly dominated tuples, so every T member has at least one
  // dominator among the competitors it leaves behind.
  std::vector<PointId> dominated;
  for (size_t r = 0; r < reduced.size(); ++r) {
    const PointId id = static_cast<PointId>(r);
    if (IsDominated(reduced, id)) dominated.push_back(id);
  }
  if (dominated.size() < product_count) {
    return Status::FailedPrecondition(
        "only " + std::to_string(dominated.size()) +
        " dominated tuples available, need " + std::to_string(product_count));
  }

  Rng rng(seed);
  rng.Shuffle(&dominated);
  dominated.resize(product_count);
  std::sort(dominated.begin(), dominated.end());

  WineSplit split{Dataset(reduced.dims()), Dataset(reduced.dims())};
  split.competitors.Reserve(reduced.size() - product_count);
  split.products.Reserve(product_count);
  size_t next = 0;
  for (size_t r = 0; r < reduced.size(); ++r) {
    const PointId id = static_cast<PointId>(r);
    if (next < dominated.size() && dominated[next] == id) {
      split.products.Add(reduced.data(id));
      ++next;
    } else {
      split.competitors.Add(reduced.data(id));
    }
  }
  return split;
}

}  // namespace skyup
