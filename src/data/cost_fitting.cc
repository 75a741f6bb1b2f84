#include "data/cost_fitting.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace skyup {

namespace {

// Pool-adjacent-violators for a *non-increasing* sequence: classic PAVA on
// the value-descending order (where the target is non-decreasing). Each
// block carries (weighted) mean and weight; violating neighbors merge.
struct Block {
  double mean;
  double weight;
  size_t count;  // number of consumed knots
};

}  // namespace

Result<std::shared_ptr<const FittedCost>> FitAttributeCost(
    std::vector<CostSample> samples) {
  if (samples.size() < 2) {
    return Status::InvalidArgument(
        "cost fitting needs at least 2 samples");
  }
  for (const CostSample& s : samples) {
    if (!std::isfinite(s.value) || !std::isfinite(s.cost)) {
      return Status::InvalidArgument("cost samples must be finite");
    }
  }

  std::sort(samples.begin(), samples.end(),
            [](const CostSample& a, const CostSample& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.cost < b.cost;
            });

  // Pool exact value ties.
  std::vector<CostSample> pooled;
  std::vector<double> weights;
  for (size_t i = 0; i < samples.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < samples.size() && samples[j].value == samples[i].value) {
      sum += samples[j].cost;
      ++j;
    }
    pooled.push_back({samples[i].value, sum / static_cast<double>(j - i)});
    weights.push_back(static_cast<double>(j - i));
    i = j;
  }
  if (pooled.size() < 2) {
    return Status::InvalidArgument(
        "cost fitting needs at least 2 distinct attribute values");
  }

  // PAVA, scanning values ascending and enforcing non-increasing means:
  // a block whose mean EXCEEDS its predecessor's violates, so merge.
  std::vector<Block> stack;
  for (size_t i = 0; i < pooled.size(); ++i) {
    Block block{pooled[i].cost, weights[i], 1};
    while (!stack.empty() && stack.back().mean < block.mean) {
      const Block& prev = stack.back();
      block.mean = (block.mean * block.weight + prev.mean * prev.weight) /
                   (block.weight + prev.weight);
      block.weight += prev.weight;
      block.count += prev.count;
      stack.pop_back();
    }
    stack.push_back(block);
  }

  // Expand blocks back into per-value fitted costs.
  std::vector<CostSample> knots;
  knots.reserve(pooled.size());
  size_t knot_index = 0;
  for (const Block& block : stack) {
    for (size_t c = 0; c < block.count; ++c) {
      knots.push_back({pooled[knot_index].value, block.mean});
      ++knot_index;
    }
  }
  SKYUP_CHECK(knot_index == pooled.size());

  // Residual over the ORIGINAL samples (not the pooled means).
  double sq = 0.0;
  {
    size_t k = 0;
    for (const CostSample& s : samples) {
      while (knots[k].value != s.value) ++k;
      const double r = s.cost - knots[k].cost;
      sq += r * r;
    }
  }
  const double rmse = std::sqrt(sq / static_cast<double>(samples.size()));

  return std::shared_ptr<const FittedCost>(
      new FittedCost(std::move(knots), rmse));
}

double FittedCost::Cost(double value) const {
  if (value <= knots_.front().value) return knots_.front().cost;
  if (value >= knots_.back().value) return knots_.back().cost;
  // Binary search for the bracketing knot pair.
  size_t lo = 0;
  size_t hi = knots_.size() - 1;
  while (hi - lo > 1) {
    const size_t mid = (lo + hi) / 2;
    if (knots_[mid].value <= value) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const CostSample& a = knots_[lo];
  const CostSample& b = knots_[hi];
  const double frac = (value - a.value) / (b.value - a.value);
  return a.cost * (1.0 - frac) + b.cost * frac;
}

std::string FittedCost::name() const {
  std::ostringstream out;
  out << "fitted(" << knots_.size() << " knots, rmse=" << rmse_ << ")";
  return out.str();
}

}  // namespace skyup
