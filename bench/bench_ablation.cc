// Ablation studies for the design choices DESIGN.md calls out:
//   1. mutual-dominance pruning of join lists (Alg. 4 lines 25-30),
//   2. the paper's LBC formula vs this library's sound correction —
//      execution time AND top-k agreement with the brute-force oracle,
//   3. LBC case frequencies (how often cases 1-4 of Section III-B3 fire),
//   4. probing variants: how much work getDominatingSky saves,
//   5. zero-bound leaf refinement (DESIGN.md finding #2),
//   6. Algorithm 1 vs an exact grid oracle (the paper's open optimality
//      question).

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/dominance.h"
#include "core/lower_bounds.h"
#include "core/single_upgrade.h"
#include "data/wine.h"
#include "skyline/skyline.h"
#include "util/check.h"
#include "util/random.h"

namespace skyup {
namespace bench {
namespace {

void AblateMutualDominance(const BenchArgs& args) {
  std::printf("\n[1] mutual-dominance pruning (anti-correlated, d=3)\n");
  Table table({"|P|", "pruning", "time(ms)", "jl-pruned", "lbc-evals"});
  for (size_t paper_np : {200000, 600000, 1000000}) {
    const size_t np = Scaled(paper_np, args.scale);
    const size_t nt = Scaled(100000, args.scale);
    Workload w = BuildSynthetic(np, nt, 3, Distribution::kAntiCorrelated,
                                args.seed);
    ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-3);
    for (bool pruning : {true, false}) {
      JoinOptions options;
      options.mutual_dominance_pruning = pruning;
      ExecStats stats;
      const double ms = MedianMillis(
          [&] {
            SKYUP_CHECK(TopKJoin(*w.rp, *w.rt, f, 10, options, &stats).ok());
          },
          args.repeats);
      table.Row({std::to_string(np), pruning ? "on" : "off", Ms(ms),
                 std::to_string(stats.jl_entries_pruned),
                 std::to_string(stats.lbc_evaluations)});
    }
  }
  PrintShape("pruning removes dominated join-list entries and lowers LBC "
             "evaluations at identical results (join_test proves result "
             "invariance)");
}

void AblateBoundMode(const BenchArgs& args) {
  std::printf("\n[2] paper vs sound LBC formula (k=10)\n");
  Table table({"workload", "mode", "time(ms)", "topk-agree", "cost-agree"});

  auto compare = [&](const Workload& w, const ProductCostFunction& f,
                     const std::string& label) {
    Result<std::vector<UpgradeResult>> oracle =
        TopKImprovedProbing(*w.rp, *w.products, f, 10);
    SKYUP_CHECK(oracle.ok());
    for (auto mode : {BoundMode::kPaper, BoundMode::kSound}) {
      JoinOptions options;
      options.bound_mode = mode;
      Result<std::vector<UpgradeResult>> join(std::vector<UpgradeResult>{});
      const double ms = MedianMillis(
          [&] {
            join = TopKJoin(*w.rp, *w.rt, f, 10, options);
            SKYUP_CHECK(join.ok());
          },
          args.repeats);
      size_t id_agree = 0;
      size_t cost_agree = 0;
      for (size_t i = 0; i < join->size() && i < oracle->size(); ++i) {
        if ((*join)[i].product_id == (*oracle)[i].product_id) ++id_agree;
        if (std::abs((*join)[i].cost - (*oracle)[i].cost) < 1e-9) {
          ++cost_agree;
        }
      }
      table.Row({label, BoundModeName(mode), Ms(ms),
                 std::to_string(id_agree) + "/10",
                 std::to_string(cost_agree) + "/10"});
    }
  };

  // The wine workload is where the paper formula's overestimation actually
  // flips results (DESIGN.md finding #1).
  {
    Result<Dataset> wine = SynthesizeWine(4898, args.seed + 1970);
    SKYUP_CHECK(wine.ok());
    Result<Dataset> reduced = WineSubset(
        *wine, {WineAttr::kChlorides, WineAttr::kSulphates,
                WineAttr::kTotalSulfurDioxide});
    SKYUP_CHECK(reduced.ok());
    Result<WineSplit> split = SplitWine(*reduced, 1000, args.seed);
    SKYUP_CHECK(split.ok());
    Workload w = BuildFrom(std::move(split->competitors),
                           std::move(split->products));
    ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-3);
    compare(w, f, "wine c,s,t");
  }

  for (auto distribution : {Distribution::kIndependent,
                            Distribution::kAntiCorrelated}) {
    for (size_t d : {2, 4}) {
      const size_t np = Scaled(200000, args.scale);
      const size_t nt = Scaled(20000, args.scale);
      Workload w = BuildSynthetic(np, nt, d, distribution, args.seed);
      ProductCostFunction f = ProductCostFunction::ReciprocalSum(d, 1e-3);
      const std::string label =
          std::string(1, "iac"[static_cast<int>(distribution)]) + "/d" +
          std::to_string(d);
      compare(w, f, label);
    }
  }
  PrintShape("the sound formula keeps the join exact; the paper formula's "
             "agreement column documents where its overestimation flips "
             "results (the wine workload) and where it does not (the "
             "disjoint synthetic layout)");
}

void LbcCaseFrequencies(const BenchArgs& args) {
  std::printf("\n[3] LBC case frequencies over random (e_T, e_P) node "
              "pairs\n");
  Table table({"layout", "case1-adv", "case2-inc", "case3-dis",
               "case4-mixed"});
  struct Layout {
    const char* name;
    double t_lo, t_hi;
  };
  // The paper's layout (T above P) versus overlapping sets.
  for (const Layout& layout :
       {Layout{"paper (1,2]", 1.0, 2.0}, Layout{"overlapping", 0.0, 1.0}}) {
    Rng rng(args.seed + 99);
    size_t cases[4] = {0, 0, 0, 0};
    const size_t dims = 3;
    for (int i = 0; i < 20000; ++i) {
      double et_min[3], ep_min[3], ep_max[3];
      for (size_t k = 0; k < dims; ++k) {
        et_min[k] = rng.NextDouble(layout.t_lo, layout.t_hi);
        const double a = rng.NextDouble();
        const double b = rng.NextDouble();
        ep_min[k] = std::min(a, b);
        ep_max[k] = std::max(a, b);
      }
      const DimClassification cls =
          ClassifyDims(et_min, ep_min, ep_max, dims);
      if (cls.advantaged != 0) {
        ++cases[0];
      } else if (cls.disadvantaged == 0) {
        ++cases[1];
      } else if (cls.incomparable == 0) {
        ++cases[2];
      } else {
        ++cases[3];
      }
    }
    table.Row({layout.name, std::to_string(cases[0]),
               std::to_string(cases[1]), std::to_string(cases[2]),
               std::to_string(cases[3])});
  }
  PrintShape("in the paper's layout nearly every pair is case 3 (all "
             "dimensions disadvantaged): positive bounds do the pruning");
}

void AblateProbing(const BenchArgs& args) {
  std::printf("\n[4] probing work: range-query vs getDominatingSky\n");
  Table table({"|P|", "basic-fetched", "improved", "ratio"}, 18);
  for (size_t paper_np : {100000, 500000, 1000000}) {
    const size_t np = Scaled(paper_np, args.scale);
    Workload w = BuildSynthetic(np, 500, 2, Distribution::kIndependent,
                                args.seed);
    ProductCostFunction f = ProductCostFunction::ReciprocalSum(2, 1e-3);
    ExecStats basic, improved;
    SKYUP_CHECK(
        TopKBasicProbing(*w.rp, *w.products, f, 1, 1e-6, 1, &basic).ok());
    SKYUP_CHECK(
        TopKImprovedProbing(*w.rp, *w.products, f, 1, 1e-6, 1, &improved)
            .ok());
    const double ratio = static_cast<double>(basic.dominators_fetched) /
                         static_cast<double>(
                             std::max<size_t>(1, improved.dominators_fetched));
    table.Row({std::to_string(np), std::to_string(basic.dominators_fetched),
               std::to_string(improved.dominators_fetched), Ms(ratio) + "x"});
  }
  PrintShape("getDominatingSky retrieves orders of magnitude fewer points "
             "than the ADR range query (the Figure 2 intuition)");
}

void AblateLeafRefinement(const BenchArgs& args) {
  std::printf("\n[5] zero-bound leaf refinement (DESIGN.md finding #2) on "
              "the overlapping-sets (wine-like) layout\n");
  Table table({"workload", "refine", "time(ms)", "exact-costs",
               "of-|T|"});
  // Wine-like: T drawn from the same cube as P (dominated products picked
  // by construction would need the wine pipeline; random products inside
  // the cube show the same degeneracy).
  for (size_t paper_np : {100000, 400000}) {
    const size_t np = Scaled(paper_np, args.scale);
    const size_t nt = Scaled(40000, args.scale);
    Result<Dataset> p =
        GenerateCompetitors(np, 3, Distribution::kIndependent, args.seed);
    Result<Dataset> t = GenerateCompetitors(nt, 3, Distribution::kIndependent,
                                            args.seed + 1);
    SKYUP_CHECK(p.ok() && t.ok());
    Workload w = BuildFrom(std::move(p).value(), std::move(t).value());
    ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-3);

    for (bool refine : {true, false}) {
      JoinOptions options;
      options.refine_zero_bound_leaves = refine;
      ExecStats stats;
      const double ms = MedianMillis(
          [&] {
            SKYUP_CHECK(TopKJoin(*w.rp, *w.rt, f, 5, options, &stats).ok());
          },
          args.repeats);
      table.Row({"|P|=" + std::to_string(np), refine ? "on" : "off", Ms(ms),
                 std::to_string(stats.products_processed),
                 std::to_string(w.products->size())});
    }
  }
  PrintShape("verbatim Algorithm 4 (refine=off) computes an exact cost for "
             "nearly every product when T overlaps P; refinement prunes "
             "most of them");
}

// The paper leaves Algorithm 1's optimality open (its final research
// direction). For small inputs the optimum is computable exactly: the
// optimal upgrade takes each coordinate from {t_k} U {s_k - eps} (raising
// any coordinate further would violate an escape constraint or pass t_k),
// so exhaustive enumeration over that grid with the escape-all check is an
// oracle. This ablation measures how far Algorithm 1's heuristic lands
// from it.
void AblateUpgradeOptimality(const BenchArgs& args) {
  std::printf("\n[6] Algorithm 1 vs exact grid oracle (optimality gap)\n");
  Table table({"d", "trials", "optimal", "mean-gap", "max-gap"});
  Rng rng(args.seed + 7);
  constexpr double kEps = 1e-6;

  for (size_t d : {2, 3}) {
    const ProductCostFunction f = ProductCostFunction::ReciprocalSum(d, 1e-3);
    size_t optimal = 0;
    double gap_sum = 0.0;
    double gap_max = 0.0;
    const int trials = 400;
    for (int trial = 0; trial < trials; ++trial) {
      // A dominated product and the skyline of its dominators.
      std::vector<double> t(d);
      for (auto& v : t) v = rng.NextDouble(0.7, 1.5);
      Dataset competitors(d);
      for (int i = 0; i < 40; ++i) {
        std::vector<double> q(d);
        for (size_t k = 0; k < d; ++k) q[k] = rng.NextDouble(0.0, t[k]);
        competitors.Add(q);
      }
      std::vector<const double*> sky;
      for (size_t i = 0; i < competitors.size(); ++i) {
        const double* q = competitors.data(static_cast<PointId>(i));
        if (Dominates(q, t.data(), d)) sky.push_back(q);
      }
      SkylineOfPointers(&sky, d);
      if (sky.empty() || sky.size() > 7) {
        continue;  // keep the oracle exhaustive and cheap
      }

      const UpgradeOutcome heuristic =
          UpgradeProduct(sky, t.data(), d, f, kEps);

      // Oracle: enumerate all per-dimension threshold choices.
      std::vector<std::vector<double>> levels(d);
      for (size_t k = 0; k < d; ++k) {
        levels[k].push_back(t[k]);
        for (const double* s : sky) levels[k].push_back(s[k] - kEps);
      }
      double best = std::numeric_limits<double>::infinity();
      std::vector<size_t> pick(d, 0);
      std::vector<double> candidate(d);
      for (;;) {
        for (size_t k = 0; k < d; ++k) candidate[k] = levels[k][pick[k]];
        bool escapes_all = true;
        for (const double* s : sky) {
          if (DominatesOrEqual(s, candidate.data(), d)) {
            escapes_all = false;
            break;
          }
        }
        if (escapes_all) {
          best = std::min(best, f.Cost(candidate.data()) - f.Cost(t.data()));
        }
        size_t k = 0;
        while (k < d && ++pick[k] == levels[k].size()) pick[k++] = 0;
        if (k == d) break;
      }

      const double gap = heuristic.cost - best;
      const double rel = best > 1e-12 ? gap / best : 0.0;
      if (rel < 1e-9) ++optimal;
      gap_sum += rel;
      gap_max = std::max(gap_max, rel);
    }
    char mean_buf[32], max_buf[32];
    std::snprintf(mean_buf, sizeof(mean_buf), "%.2f%%",
                  100.0 * gap_sum / trials);
    std::snprintf(max_buf, sizeof(max_buf), "%.1f%%", 100.0 * gap_max);
    table.Row({std::to_string(d), std::to_string(trials),
               std::to_string(optimal), mean_buf, max_buf});
  }
  PrintShape("Algorithm 1 is near-always optimal at d=2 (its consecutive-"
             "pair candidates cover the 2-d frontier) but almost never "
             "exactly optimal at d>=3, where the optimum mixes thresholds "
             "from more than two skyline points — a concrete answer to the "
             "paper's open optimality question");
}

int Main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  PrintHeader("Ablations", "design-choice studies beyond the paper's "
              "figures", args);
  AblateMutualDominance(args);
  AblateBoundMode(args);
  LbcCaseFrequencies(args);
  AblateProbing(args);
  AblateLeafRefinement(args);
  AblateUpgradeOptimality(args);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace skyup

int main(int argc, char** argv) { return skyup::bench::Main(argc, argv); }
