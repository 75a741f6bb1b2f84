#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/check.h"
#include "util/timer.h"

namespace skyup {
namespace bench {

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) {
      args.scale = std::atof(a + 8);
    } else if (std::strncmp(a, "--repeats=", 10) == 0) {
      args.repeats = static_cast<size_t>(std::atoll(a + 10));
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::atoll(a + 7));
    } else if (std::strncmp(a, "--probe-cap=", 12) == 0) {
      args.probe_cap = static_cast<size_t>(std::atoll(a + 12));
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf(
          "options: --scale=<f> --repeats=<n> --seed=<n> --probe-cap=<n>\n"
          "  --scale=1 reproduces the paper's full cardinalities\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option '%s' (see --help)\n", a);
      std::exit(2);
    }
  }
  if (args.scale <= 0.0 || args.scale > 1.0) {
    std::fprintf(stderr, "--scale must be in (0, 1]\n");
    std::exit(2);
  }
  if (args.repeats == 0) args.repeats = 1;
  return args;
}

size_t Scaled(size_t paper_value, double scale, size_t min_value) {
  const size_t scaled = static_cast<size_t>(
      static_cast<double>(paper_value) * scale);
  return std::max(scaled, std::min(min_value, paper_value));
}

double TimeMillis(const std::function<void()>& fn) {
  Timer timer;
  fn();
  return timer.ElapsedMillis();
}

double MedianMillis(const std::function<void()>& fn, size_t repeats) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (size_t i = 0; i < repeats; ++i) samples.push_back(TimeMillis(fn));
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::string Ms(double millis) {
  char buf[32];
  if (millis < 10.0) {
    std::snprintf(buf, sizeof(buf), "%.2f", millis);
  } else if (millis < 100.0) {
    std::snprintf(buf, sizeof(buf), "%.1f", millis);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", millis);
  }
  return buf;
}

Table::Table(std::vector<std::string> headers, size_t width) : width_(width) {
  Row(headers);
  std::string rule;
  for (size_t i = 0; i < headers.size(); ++i) {
    rule += std::string(width_ - 2, '-') + "  ";
  }
  std::printf("%s\n", rule.c_str());
}

void Table::Row(const std::vector<std::string>& cells) {
  std::string line;
  for (const std::string& cell : cells) {
    line += cell;
    if (cell.size() < width_) line += std::string(width_ - cell.size(), ' ');
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

Workload BuildSynthetic(size_t np, size_t nt, size_t dims,
                        Distribution distribution, uint64_t seed,
                        size_t fanout) {
  Result<Dataset> p = GenerateCompetitors(np, dims, distribution, seed);
  Result<Dataset> t = GenerateProducts(nt, dims, distribution, seed + 1);
  SKYUP_CHECK(p.ok() && t.ok());
  return BuildFrom(std::move(p).value(), std::move(t).value(), fanout);
}

Workload BuildFrom(Dataset competitors, Dataset products, size_t fanout) {
  Workload w;
  w.competitors = std::make_unique<Dataset>(std::move(competitors));
  w.products = std::make_unique<Dataset>(std::move(products));
  Result<FlatRTree> rp = FlatRTree::BulkLoad(*w.competitors, fanout);
  Result<FlatRTree> rt = FlatRTree::BulkLoad(*w.products, fanout);
  SKYUP_CHECK(rp.ok() && rt.ok());
  w.rp = std::make_unique<FlatRTree>(std::move(rp).value());
  w.rt = std::make_unique<FlatRTree>(std::move(rt).value());
  return w;
}

namespace {

// A product subset for capped probing runs: the first `cap` rows.
Dataset Head(const Dataset& ds, size_t cap) {
  Dataset out(ds.dims());
  const size_t n = std::min(cap, ds.size());
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) out.Add(ds.data(static_cast<PointId>(i)));
  return out;
}

}  // namespace

double RunTopK(const Workload& w, const ProductCostFunction& cost_fn,
               Algorithm algorithm, size_t k, LowerBoundKind kind,
               BoundMode mode, size_t probe_cap, bool* extrapolated) {
  if (extrapolated != nullptr) *extrapolated = false;
  const bool probing = algorithm == Algorithm::kBasicProbing ||
                       algorithm == Algorithm::kImprovedProbing ||
                       algorithm == Algorithm::kBruteForce;

  if (probing && probe_cap != 0 && w.products->size() > probe_cap) {
    // Probing processes each product independently; time a prefix and
    // extrapolate linearly (the paper's own |T| experiments confirm the
    // linearity; Figures 6(b)/7(b)).
    Dataset capped = Head(*w.products, probe_cap);
    const double factor = static_cast<double>(w.products->size()) /
                          static_cast<double>(capped.size());
    double millis = 0.0;
    switch (algorithm) {
      case Algorithm::kBasicProbing:
        millis = TimeMillis([&] {
          SKYUP_CHECK(TopKBasicProbing(*w.rp, capped, cost_fn, k).ok());
        });
        break;
      case Algorithm::kImprovedProbing:
        millis = TimeMillis([&] {
          SKYUP_CHECK(TopKImprovedProbing(*w.rp, capped, cost_fn, k).ok());
        });
        break;
      case Algorithm::kBruteForce:
        millis = TimeMillis([&] {
          SKYUP_CHECK(
              TopKBruteForce(*w.competitors, capped, cost_fn, k).ok());
        });
        break;
      default:
        break;
    }
    if (extrapolated != nullptr) *extrapolated = true;
    return millis * factor;
  }

  switch (algorithm) {
    case Algorithm::kBasicProbing:
      return TimeMillis([&] {
        SKYUP_CHECK(TopKBasicProbing(*w.rp, *w.products, cost_fn, k).ok());
      });
    case Algorithm::kImprovedProbing:
      return TimeMillis([&] {
        SKYUP_CHECK(
            TopKImprovedProbing(*w.rp, *w.products, cost_fn, k).ok());
      });
    case Algorithm::kBruteForce:
      return TimeMillis([&] {
        SKYUP_CHECK(
            TopKBruteForce(*w.competitors, *w.products, cost_fn, k).ok());
      });
    case Algorithm::kJoin: {
      JoinOptions options;
      options.lower_bound = kind;
      options.bound_mode = mode;
      return TimeMillis([&] {
        SKYUP_CHECK(TopKJoin(*w.rp, *w.rt, cost_fn, k, options).ok());
      });
    }
  }
  SKYUP_CHECK(false);
  return 0.0;
}

double RunProgressive(const Workload& w, const ProductCostFunction& cost_fn,
                      size_t k, LowerBoundKind kind, BoundMode mode) {
  JoinOptions options;
  options.lower_bound = kind;
  options.bound_mode = mode;
  return TimeMillis([&] {
    Result<JoinCursor> cursor =
        JoinCursor::Create(w.rp.get(), w.rt.get(), &cost_fn, options);
    SKYUP_CHECK(cursor.ok());
    for (size_t i = 0; i < k; ++i) {
      if (!cursor->Next().has_value()) break;
    }
  });
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const BenchArgs& args) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("scale=%.2f seed=%llu repeats=%zu probe_cap=%zu\n",
              args.scale, static_cast<unsigned long long>(args.seed),
              args.repeats, args.probe_cap);
  std::printf("(--scale=1 reproduces the paper's cardinalities; probing\n"
              " times marked * are linearly extrapolated beyond probe_cap;\n"
              " join figures use the paper's LBC formula for fidelity --\n"
              " bench_ablation [2] measures its result drift vs the exact\n"
              " sound mode)\n");
  std::printf("==============================================================\n");
}

void PrintShape(const std::string& text) {
  std::printf("shape: %s\n", text.c_str());
}

}  // namespace bench
}  // namespace skyup
