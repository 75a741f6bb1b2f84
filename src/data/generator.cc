#include "data/generator.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/random.h"

namespace skyup {

const char* DistributionName(Distribution distribution) {
  switch (distribution) {
    case Distribution::kIndependent:
      return "independent";
    case Distribution::kAntiCorrelated:
      return "anti-correlated";
    case Distribution::kCorrelated:
      return "correlated";
  }
  return "?";
}

namespace {

// One unit-cube point per distribution; the caller scales to [lo, hi).
void UnitIndependent(Rng* rng, size_t dims, double* out) {
  for (size_t i = 0; i < dims; ++i) out[i] = rng->NextDouble();
}

// Anti-correlated points cluster around the hyperplane sum(x) = d/2
// (Börzsönyi et al.): draw the plane offset from a tight normal, spread it
// across dimensions uniformly at random (Dirichlet via exponentials), and
// reject the rare draw that leaves the cube.
void UnitAntiCorrelated(Rng* rng, size_t dims, double* out) {
  constexpr int kMaxAttempts = 64;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const double target =
        std::clamp(0.5 + 0.05 * rng->NextGaussian(), 0.05, 0.95) *
        static_cast<double>(dims);
    double total = 0.0;
    for (size_t i = 0; i < dims; ++i) {
      double e;
      do {
        e = -std::log(1.0 - rng->NextDouble());
      } while (e <= 0.0);
      out[i] = e;
      total += e;
    }
    bool ok = true;
    for (size_t i = 0; i < dims; ++i) {
      out[i] = out[i] / total * target;
      if (out[i] > 1.0) {
        ok = false;
        break;
      }
    }
    if (ok) return;
  }
  // Extremely unlikely fallback: clamp the last attempt into the cube.
  for (size_t i = 0; i < dims; ++i) out[i] = std::min(out[i], 1.0);
}

void UnitCorrelated(Rng* rng, size_t dims, double* out) {
  const double base = rng->NextDouble();
  for (size_t i = 0; i < dims; ++i) {
    out[i] = std::clamp(base + 0.05 * rng->NextGaussian(), 0.0, 1.0);
  }
}

}  // namespace

Result<Dataset> GenerateDataset(const GeneratorConfig& config) {
  if (config.count == 0) {
    return Status::InvalidArgument("generator count must be >= 1");
  }
  if (config.dims == 0 || config.dims > 32) {
    return Status::InvalidArgument("generator dims must be in [1, 32]");
  }
  if (!(config.lo < config.hi)) {
    return Status::InvalidArgument("generator requires lo < hi");
  }

  Rng rng(config.seed);
  Dataset data(config.dims);
  data.Reserve(config.count);
  std::vector<double> unit(config.dims);
  const double span = config.hi - config.lo;
  for (size_t n = 0; n < config.count; ++n) {
    switch (config.distribution) {
      case Distribution::kIndependent:
        UnitIndependent(&rng, config.dims, unit.data());
        break;
      case Distribution::kAntiCorrelated:
        UnitAntiCorrelated(&rng, config.dims, unit.data());
        break;
      case Distribution::kCorrelated:
        UnitCorrelated(&rng, config.dims, unit.data());
        break;
    }
    for (size_t i = 0; i < config.dims; ++i) {
      unit[i] = config.lo + unit[i] * span;
    }
    data.Add(unit);
  }
  return data;
}

Result<Dataset> GenerateCompetitors(size_t count, size_t dims,
                                    Distribution distribution,
                                    uint64_t seed) {
  GeneratorConfig config;
  config.count = count;
  config.dims = dims;
  config.distribution = distribution;
  config.lo = 0.0;
  config.hi = 1.0;
  config.seed = seed;
  return GenerateDataset(config);
}

Result<Dataset> GenerateProducts(size_t count, size_t dims,
                                 Distribution distribution, uint64_t seed) {
  GeneratorConfig config;
  config.count = count;
  config.dims = dims;
  config.distribution = distribution;
  config.lo = 1.0 + 1e-9;  // (1, 2]: strictly worse than every competitor
  config.hi = 2.0;
  config.seed = seed;
  return GenerateDataset(config);
}

}  // namespace skyup
