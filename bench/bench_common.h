#ifndef SKYUP_BENCH_BENCH_COMMON_H_
#define SKYUP_BENCH_BENCH_COMMON_H_

// Shared harness for the paper-reproduction benchmarks (bench_fig*). Each
// binary regenerates one figure of the paper's Section IV: it prints the
// same rows/series the figure plots, plus a qualitative summary of the
// shape the paper reports.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/join.h"
#include "core/planner.h"
#include "core/probing.h"
#include "data/generator.h"

namespace skyup {
namespace bench {

/// Command-line options common to every figure benchmark.
///
///   --scale=<f>    fraction of the paper's cardinalities (default 0.02;
///                  --scale=1 reproduces the full paper sizes)
///   --repeats=<n>  timing repetitions, median reported (default 1)
///   --seed=<n>     workload seed (default 42)
///   --probe-cap=<n> max products actually probed by the probing
///                  algorithms; their time is linearly extrapolated to
///                  |T| beyond the cap (probing is per-product
///                  independent). 0 disables the cap. Default 2000.
struct BenchArgs {
  double scale = 0.02;
  size_t repeats = 1;
  uint64_t seed = 42;
  size_t probe_cap = 200;
};

BenchArgs ParseArgs(int argc, char** argv);

/// paper_value * scale, with a floor to keep workloads meaningful.
size_t Scaled(size_t paper_value, double scale, size_t min_value = 1000);

/// Wall-clock of one call, in milliseconds.
double TimeMillis(const std::function<void()>& fn);

/// Runs `fn` `repeats` times and returns the median milliseconds.
double MedianMillis(const std::function<void()>& fn, size_t repeats);

/// "12.3" / "4567" style fixed formatting for table cells.
std::string Ms(double millis);

/// Fixed-width table writer for figure rows.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, size_t width = 16);
  void Row(const std::vector<std::string>& cells);

 private:
  size_t width_;
};

/// A competitor/product pair with both R-trees built (addresses stable).
struct Workload {
  std::unique_ptr<Dataset> competitors;
  std::unique_ptr<Dataset> products;
  std::unique_ptr<FlatRTree> rp;
  std::unique_ptr<FlatRTree> rt;
};

/// Builds the paper's synthetic layout: P in [0,1)^dims, T in (1,2]^dims.
Workload BuildSynthetic(size_t np, size_t nt, size_t dims,
                        Distribution distribution, uint64_t seed,
                        size_t fanout = 64);

/// Builds a workload around existing datasets (e.g. the wine split).
Workload BuildFrom(Dataset competitors, Dataset products, size_t fanout = 64);

/// Times one top-k run of the given algorithm over the workload. For the
/// probing algorithms, at most `probe_cap` products are probed and the
/// time is extrapolated linearly (0 = no cap); `extrapolated` reports
/// whether that happened.
double RunTopK(const Workload& w, const ProductCostFunction& cost_fn,
               Algorithm algorithm, size_t k, LowerBoundKind kind,
               BoundMode mode, size_t probe_cap, bool* extrapolated);

/// Times the progressive join until `k` results have streamed out.
double RunProgressive(const Workload& w, const ProductCostFunction& cost_fn,
                      size_t k, LowerBoundKind kind,
                      BoundMode mode = BoundMode::kSound);

/// Prints the standard benchmark preamble.
void PrintHeader(const std::string& figure, const std::string& description,
                 const BenchArgs& args);

/// Prints "shape: <text>" summary lines the figure is expected to show.
void PrintShape(const std::string& text);

}  // namespace bench
}  // namespace skyup

#endif  // SKYUP_BENCH_BENCH_COMMON_H_
