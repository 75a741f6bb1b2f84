// offline: the paper's static setting. One planner over an
// anti-correlated P and an independent T; every query answers one k
// (cycling 1, 10, 50) with both improved probing (flat index) and the
// join (sound bounds), at the library defaults. Bypasses serve, shard
// and wire entirely.
//
// P is the same for every seed; the seed draws T. Every product in
// (1,2]^3 is dominated by all of P, so each probe gathers P's whole
// skyline and a query costs about |T| times one skyline gather: the
// skyline's size, which varies with P's seed, moved the query time by up
// to 25% between seeds and would have been measured instead of the code.

#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/cost_function.h"
#include "core/planner.h"
#include "core/single_upgrade.h"
#include "data/generator.h"
#include "skyline/dominating_skyline.h"

namespace perfbench {
namespace {

using skyup::Algorithm;
using skyup::ExecStats;
using skyup::UpgradePlanner;
using skyup::UpgradeResult;

constexpr size_t kDims = 3;
constexpr size_t kKs[] = {1, 10, 50};
constexpr int kSetups = 5;
constexpr uint64_t kCompetitorSeed = 1;

struct Loop {
  Samples query_ms;          // improved + join for one k
  Samples query_ms_by_k[3];  // the same, split by k (kKs order)
  Samples improved_ms;
  Samples join_ms;
  double wall_seconds = 0.0;
  ExecStats improved_stats;
  ExecStats join_stats;
};

// Runs queries for `seconds`: each answers one k with both engines and
// checks both against the brute-force oracle's prefix.
void RunQueries(const UpgradePlanner& planner,
                const std::vector<UpgradeResult>& oracle, double seconds,
                Loop* loop, Report* report) {
  const Clock::time_point start = Clock::now();
  size_t i = 0;
  while (SecondsSince(start) < seconds || loop->query_ms.empty()) {
    const size_t slot = i++ % 3;
    const size_t k = kKs[slot];
    const Clock::time_point t0 = Clock::now();
    skyup::Result<std::vector<UpgradeResult>> improved = [&] {
      Span span("planner.TopK(improved)");
      return planner.TopK(k, Algorithm::kImprovedProbing,
                          &loop->improved_stats);
    }();
    const Clock::time_point t1 = Clock::now();
    skyup::Result<std::vector<UpgradeResult>> join = [&] {
      Span span("planner.TopK(join)");
      return planner.TopK(k, Algorithm::kJoin, &loop->join_stats);
    }();
    const Clock::time_point t2 = Clock::now();
    const double improved_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double join_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    report->attempted += 1;
    if (!improved.ok() || !join.ok() || !SameRanking(*improved, oracle, k) ||
        !SameRanking(*join, oracle, k)) {
      report->failed += 1;
      report->Fail("offline k=" + std::to_string(k) +
                   ": improved/join rows differ from the brute-force oracle");
      continue;
    }
    loop->improved_ms.Add(improved_ms);
    loop->join_ms.Add(join_ms);
    loop->query_ms.Add(improved_ms + join_ms);
    loop->query_ms_by_k[slot].Add(improved_ms + join_ms);
  }
  loop->wall_seconds = SecondsSince(start);
}

// Queries per second at each k's median query time. Queries of one k
// repeat the same work, so their medians drop the ones the host slowed
// down, which a count over the wall clock charges in full.
double MedianQueriesPerSecond(const Loop& loop) {
  double ks = 0.0;
  double cycle_ms = 0.0;
  for (const Samples& by_k : loop.query_ms_by_k) {
    if (by_k.empty()) continue;
    ks += 1.0;
    cycle_ms += by_k.Median();
  }
  return cycle_ms > 0.0 ? ks / (cycle_ms / 1e3) : 0.0;
}

// Per-layer probes on the planner's own data: Algorithm 3 per product on
// the flat competitor tree, Algorithm 1 per product, and the join
// cursor's first result.
void ProbeLayers(const UpgradePlanner& planner, Report* report) {
  const skyup::FlatRTree* flat = planner.competitors_flat();
  const skyup::Dataset& products = planner.products();
  const skyup::Dataset& competitors = planner.competitors();
  Samples gather_us;
  Samples upgrade_us;
  double nodes = 0, points = 0, kernels = 0, skyline_points = 0;
  std::vector<skyup::PointId> skyline;
  for (skyup::PointId t = 0; t < static_cast<skyup::PointId>(products.size());
       ++t) {
    skyup::ProbeStats stats;
    Clock::time_point t0 = Clock::now();
    {
      Span span("skyline.DominatingSkyline");
      skyline = skyup::DominatingSkyline(*flat, products.data(t), &stats);
    }
    gather_us.Add(SecondsSince(t0) * 1e6);
    nodes += static_cast<double>(stats.nodes_visited);
    points += static_cast<double>(stats.points_scanned);
    kernels += static_cast<double>(stats.block_kernel_calls);
    skyline_points += static_cast<double>(skyline.size());
    std::vector<const double*> rows;
    rows.reserve(skyline.size());
    for (skyup::PointId id : skyline) rows.push_back(competitors.data(id));
    t0 = Clock::now();
    {
      Span span("single_upgrade.UpgradeProduct");
      skyup::UpgradeOutcome outcome = skyup::UpgradeProduct(
          std::move(rows), products.data(t), kDims, planner.cost_function(),
          planner.options().epsilon);
      (void)outcome;
    }
    upgrade_us.Add(SecondsSince(t0) * 1e6);
  }
  const double n = static_cast<double>(products.size());
  report->layer["skyline.gather_us"] = gather_us.Median();
  report->layer["skyline.nodes_per_probe"] = nodes / n;
  report->layer["skyline.points_per_probe"] = points / n;
  report->layer["skyline.kernel_calls_per_probe"] = kernels / n;
  report->layer["single_upgrade.upgrade_us"] = upgrade_us.Median();
  report->layer["single_upgrade.skyline_size"] = skyline_points / n;

  Samples first_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    Span span("join.JoinCursor.Next(first)");
    skyup::Result<skyup::JoinCursor> cursor = planner.OpenJoinCursor();
    if (!cursor.ok() || !cursor->Next().has_value()) {
      report->Fail("join cursor yielded no first result");
      return;
    }
    first_ms.Add(SecondsSince(t0) * 1e3);
  }
  report->layer["join.first_result_ms"] = first_ms.Median();
}

}  // namespace

Report RunOffline(const Options& options) {
  Report report;
  report.workload = "offline";
  report.seed = options.seed;
  report.trace = options.trace;
  const size_t np = options.smoke ? 2000 : 20000;
  const size_t nt = options.smoke ? 100 : 200;
  report.Spec("generator", "GenerateCompetitors(anti) / GenerateProducts(indep)");
  report.Spec("competitors", static_cast<double>(np));
  report.Spec("competitors_range", "[0,1)^3 anti-correlated, seed 1");
  report.Spec("products", static_cast<double>(nt));
  report.Spec("products_range", "(1,2]^3 independent, --seed");
  report.Spec("dims", static_cast<double>(kDims));
  report.Spec("k_cycle", "1,10,50");
  report.Spec("query", "improved probing (flat index) + join (sound bounds)");
  report.Spec("cost", "ReciprocalSum(3, 1e-3)");
  report.Spec("planner", "library defaults, threads=1");
  report.Spec("loop", "closed, 1 client");
  report.Spec("ops_per_s", "queries per second at each k's median query time");

  skyup::Result<skyup::Dataset> p = skyup::GenerateCompetitors(
      np, kDims, skyup::Distribution::kAntiCorrelated, kCompetitorSeed);
  skyup::Result<skyup::Dataset> t = skyup::GenerateProducts(
      nt, kDims, skyup::Distribution::kIndependent, options.seed);
  if (!p.ok() || !t.ok()) {
    report.Fail("dataset generation failed");
    return report;
  }
  const skyup::ProductCostFunction cost =
      skyup::ProductCostFunction::ReciprocalSum(kDims);

  // Set-up: planner create (copies both sets, bulk-loads both R-trees and
  // the flat snapshot), repeated; the median is reported.
  Samples setup_s;
  std::optional<UpgradePlanner> planner;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    skyup::Result<UpgradePlanner> created =
        UpgradePlanner::Create(*p, *t, cost);
    setup_s.Add(SecondsSince(t0));
    if (!created.ok()) {
      report.Fail("planner create: " + created.status().ToString());
      return report;
    }
    planner.emplace(std::move(created).value());
  }

  // The oracle runs on every core: it is checked against, not timed.
  skyup::PlannerOptions oracle_options;
  oracle_options.threads = 0;
  skyup::Result<UpgradePlanner> oracle_planner =
      UpgradePlanner::Create(*p, *t, cost, oracle_options);
  if (!oracle_planner.ok()) {
    report.Fail("oracle planner: " + oracle_planner.status().ToString());
    return report;
  }
  skyup::Result<std::vector<UpgradeResult>> oracle =
      oracle_planner->TopK(50, Algorithm::kBruteForce);
  if (!oracle.ok()) {
    report.Fail("brute-force oracle: " + oracle.status().ToString());
    return report;
  }

  // Untraced loop: the end-to-end numbers. A traced run splits its time
  // between an untraced and a traced loop to measure tracing overhead.
  Loop plain;
  RunQueries(*planner, *oracle, options.trace ? options.seconds / 2
                                              : options.seconds,
             &plain, &report);
  const double peak_rss = PeakRssMb();

  report.end_to_end = {
      {"setup_s", setup_s.Median(), "s"},
      {"query_p50_ms", plain.query_ms.Median(), "ms"},
      {"ops_per_s", MedianQueriesPerSecond(plain), "1/s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
  report.extra = {
      {"wall_ops_per_s",
       static_cast<double>(plain.query_ms.size()) / plain.wall_seconds, "1/s"},
      {"query_p90_ms", plain.query_ms.Quantile(0.9), "ms"},
      {"query_p99_ms", plain.query_ms.Quantile(0.99), "ms"},
      {"improved_ms", plain.improved_ms.Median(), "ms"},
      {"join_ms", plain.join_ms.Median(), "ms"},
      {"queries", static_cast<double>(plain.query_ms.size()), "count"},
      {"failed_frac", Ratio(report.failed, report.attempted), "ratio"},
  };

  if (options.trace) {
    Tracer::Get().Enable();
    Loop traced;
    {
      Span root("bench.offline");
      const Clock::time_point t0 = Clock::now();
      {
        Span span("planner.Create");
        skyup::Result<UpgradePlanner> created =
            UpgradePlanner::Create(*p, *t, cost);
        if (!created.ok()) report.Fail("traced planner create failed");
      }
      report.layer["planner.create_ms"] = SecondsSince(t0) * 1e3;
      RunQueries(*planner, *oracle, options.seconds / 2, &traced, &report);
      ProbeLayers(*planner, &report);
    }
    const double queries = static_cast<double>(traced.query_ms.size());
    report.layer["planner.pruned_ratio"] =
        Ratio(traced.improved_stats.candidates_pruned,
              traced.improved_stats.products_processed);
    report.layer["join.heap_pops"] =
        static_cast<double>(traced.join_stats.heap_pops) / queries;
    report.layer["join.lbc_evaluations"] =
        static_cast<double>(traced.join_stats.lbc_evaluations) / queries;
    report.layer["trace.overhead_ms"] =
        traced.query_ms.Median() - plain.query_ms.Median();
    AddSelfTimeTable(options, &report);
  }
  return report;
}

}  // namespace perfbench
