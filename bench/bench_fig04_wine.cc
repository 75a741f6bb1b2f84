// Figure 4 — execution time of all algorithms on the four wine attribute
// combinations (Table III): basic probing, improved probing, and the join
// with each lower bound. |P| = 3,898, |T| = 1,000, k = 1.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/wine.h"
#include "util/check.h"

namespace skyup {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  PrintHeader("Figure 4",
              "execution time on wine attribute combinations (|P|=3898, "
              "|T|=1000, k=1)",
              args);

  Result<Dataset> wine = SynthesizeWine(4898, args.seed + 1970);
  SKYUP_CHECK(wine.ok());

  Table table({"combo", "basic(ms)", "improved(ms)", "join-NLB(ms)",
               "join-CLB(ms)", "join-ALB(ms)"});

  double worst_basic_vs_improved = 1e300;
  double worst_improved_vs_join = 1e300;
  for (const auto& combo : WineAttributeCombinations()) {
    Result<Dataset> reduced = WineSubset(*wine, combo);
    SKYUP_CHECK(reduced.ok());
    Result<WineSplit> split = SplitWine(*reduced, 1000, args.seed);
    SKYUP_CHECK(split.ok());
    Workload w = BuildFrom(std::move(split->competitors),
                           std::move(split->products));
    ProductCostFunction cost_fn =
        ProductCostFunction::ReciprocalSum(combo.size(), 1e-3);

    auto run = [&](Algorithm algo, LowerBoundKind kind) {
      return MedianMillis(
          [&] {
            bool extrapolated = false;
            RunTopK(w, cost_fn, algo, 1, kind, BoundMode::kPaper,
                    /*probe_cap=*/0, &extrapolated);
          },
          args.repeats);
    };

    const double basic = run(Algorithm::kBasicProbing,
                             LowerBoundKind::kNaive);
    const double improved = run(Algorithm::kImprovedProbing,
                                LowerBoundKind::kNaive);
    const double nlb = run(Algorithm::kJoin, LowerBoundKind::kNaive);
    const double clb = run(Algorithm::kJoin, LowerBoundKind::kConservative);
    const double alb = run(Algorithm::kJoin, LowerBoundKind::kAggressive);

    table.Row({WineComboLabel(combo), Ms(basic), Ms(improved), Ms(nlb),
               Ms(clb), Ms(alb)});

    worst_basic_vs_improved =
        std::min(worst_basic_vs_improved, basic / improved);
    const double best_join = std::min(nlb, std::min(clb, alb));
    worst_improved_vs_join =
        std::min(worst_improved_vs_join, improved / best_join);
  }

  PrintShape("basic probing slowest on every combination (min basic/improved "
             "ratio " + Ms(worst_basic_vs_improved) + "x; paper: improved "
             "cuts 1/3-1/2)");
  PrintShape(worst_improved_vs_join >= 1.0
                 ? "join beats improved probing on every combination (min "
                   "ratio " + Ms(worst_improved_vs_join) + "x)"
                 : "DEVIATION: improved probing beats the best join bound "
                   "on some combination (min improved/join ratio " +
                       Ms(worst_improved_vs_join) + "x)");
  PrintShape("the three lower bounds differ only modestly at this small "
             "scale (paper Section IV-B)");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace skyup

int main(int argc, char** argv) { return skyup::bench::Main(argc, argv); }
