#include "core/cost_function.h"

#include <cmath>
#include <sstream>

#include "core/dominance.h"
#include "core/point.h"
#include "util/check.h"
#include "util/random.h"

namespace skyup {

ReciprocalCost::ReciprocalCost(double delta) : delta_(delta) {
  SKYUP_CHECK(delta > 0.0) << "reciprocal cost requires delta > 0";
}

double ReciprocalCost::Cost(double value) const {
  return 1.0 / (value + delta_);
}

std::string ReciprocalCost::name() const {
  std::ostringstream out;
  out << "reciprocal(delta=" << delta_ << ")";
  return out.str();
}

LinearCost::LinearCost(double intercept, double slope)
    : intercept_(intercept), slope_(slope) {
  SKYUP_CHECK(slope >= 0.0) << "linear cost slope must be >= 0";
}

double LinearCost::Cost(double value) const {
  return intercept_ - slope_ * value;
}

std::string LinearCost::name() const {
  std::ostringstream out;
  out << "linear(intercept=" << intercept_ << ", slope=" << slope_ << ")";
  return out.str();
}

ExponentialCost::ExponentialCost(double scale, double rate)
    : scale_(scale), rate_(rate) {
  SKYUP_CHECK(scale >= 0.0 && rate >= 0.0);
}

double ExponentialCost::Cost(double value) const {
  return scale_ * std::exp(-rate_ * value);
}

std::string ExponentialCost::name() const {
  std::ostringstream out;
  out << "exponential(scale=" << scale_ << ", rate=" << rate_ << ")";
  return out.str();
}

PowerCost::PowerCost(double scale, double exponent, double delta)
    : scale_(scale), exponent_(exponent), delta_(delta) {
  SKYUP_CHECK(scale >= 0.0 && exponent >= 0.0 && delta > 0.0);
}

double PowerCost::Cost(double value) const {
  return scale_ * std::pow(value + delta_, -exponent_);
}

std::string PowerCost::name() const {
  std::ostringstream out;
  out << "power(scale=" << scale_ << ", exponent=" << exponent_
      << ", delta=" << delta_ << ")";
  return out.str();
}

ProductCostFunction::ProductCostFunction(
    std::vector<std::shared_ptr<const AttributeCostFunction>> per_dim,
    std::vector<double> weights)
    : per_dim_(std::move(per_dim)), weights_(std::move(weights)) {}

Result<ProductCostFunction> ProductCostFunction::Sum(
    std::vector<std::shared_ptr<const AttributeCostFunction>> per_dim) {
  return WeightedSum(std::move(per_dim), {});
}

Result<ProductCostFunction> ProductCostFunction::WeightedSum(
    std::vector<std::shared_ptr<const AttributeCostFunction>> per_dim,
    std::vector<double> weights) {
  if (per_dim.empty()) {
    return Status::InvalidArgument(
        "a product cost function needs at least one dimension");
  }
  for (size_t i = 0; i < per_dim.size(); ++i) {
    if (per_dim[i] == nullptr) {
      return Status::InvalidArgument("attribute cost function for dimension " +
                                     std::to_string(i) + " is null");
    }
  }
  if (weights.empty()) {
    weights.assign(per_dim.size(), 1.0);
  } else if (weights.size() != per_dim.size()) {
    return Status::InvalidArgument(
        "weights size " + std::to_string(weights.size()) +
        " does not match dimensionality " + std::to_string(per_dim.size()));
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!(weights[i] >= 0.0)) {
      return Status::InvalidArgument("weight for dimension " +
                                     std::to_string(i) +
                                     " must be non-negative");
    }
  }
  return ProductCostFunction(std::move(per_dim), std::move(weights));
}

ProductCostFunction ProductCostFunction::ReciprocalSum(size_t dims,
                                                       double delta) {
  SKYUP_CHECK(dims >= 1);
  std::vector<std::shared_ptr<const AttributeCostFunction>> per_dim;
  per_dim.reserve(dims);
  auto shared = std::make_shared<const ReciprocalCost>(delta);
  for (size_t i = 0; i < dims; ++i) per_dim.push_back(shared);
  Result<ProductCostFunction> r = Sum(std::move(per_dim));
  SKYUP_CHECK(r.ok());
  return std::move(r).value();
}

double ProductCostFunction::Cost(const double* p) const {
  double total = 0.0;
  for (size_t i = 0; i < per_dim_.size(); ++i) {
    total += weights_[i] * per_dim_[i]->Cost(p[i]);
  }
  return total;
}

double ProductCostFunction::Cost(const std::vector<double>& p) const {
  SKYUP_DCHECK(p.size() == dims());
  return Cost(p.data());
}

double ProductCostFunction::AttributeCost(size_t dim, double value) const {
  SKYUP_DCHECK(dim < dims());
  return weights_[dim] * per_dim_[dim]->Cost(value);
}

double ProductCostFunction::UpgradeCost(const double* original,
                                        const double* upgraded) const {
  return Cost(upgraded) - Cost(original);
}

Status ProductCostFunction::CheckMonotonicity(double lo, double hi,
                                              size_t samples,
                                              uint64_t seed) const {
  if (!(lo < hi)) {
    return Status::InvalidArgument("CheckMonotonicity requires lo < hi");
  }
  Rng rng(seed);
  const size_t d = dims();
  std::vector<double> better(d);
  std::vector<double> worse(d);
  // Tolerance proportional to the magnitude of the costs involved.
  for (size_t s = 0; s < samples; ++s) {
    for (size_t i = 0; i < d; ++i) {
      const double a = rng.NextDouble(lo, hi);
      const double b = rng.NextDouble(lo, hi);
      better[i] = std::min(a, b);
      worse[i] = std::max(a, b);
    }
    if (!Dominates(better.data(), worse.data(), d)) continue;  // all equal
    const double cb = Cost(better.data());
    const double cw = Cost(worse.data());
    const double tol = 1e-9 * (std::fabs(cb) + std::fabs(cw) + 1.0);
    if (cb + tol < cw) {
      return Status::FailedPrecondition(
          "cost function is not monotonic: Cost" + PointToString(better) +
          " = " + std::to_string(cb) + " < Cost" + PointToString(worse) +
          " = " + std::to_string(cw) + " although the former dominates");
    }
  }
  return Status::OK();
}

}  // namespace skyup
