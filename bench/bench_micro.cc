// Micro-benchmarks (google-benchmark) of the substrate kernels: R-tree
// construction and queries, skyline algorithms, Algorithm 1, and the LBC
// kernels. These are component-level numbers; the figure reproductions
// live in the bench_fig* binaries.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/dominance_batch.h"
#include "core/lower_bounds.h"
#include "core/probing.h"
#include "core/single_upgrade.h"
#include "data/generator.h"
#include "skyline/dominating_skyline.h"
#include "skyline/skyline.h"
#include "util/check.h"
#include "util/random.h"

namespace skyup {
namespace {

Dataset MakeData(size_t n, size_t dims, Distribution distribution,
                 uint64_t seed = 7) {
  Result<Dataset> ds = GenerateCompetitors(n, dims, distribution, seed);
  SKYUP_CHECK(ds.ok());
  return std::move(ds).value();
}

void BM_RTreeBulkLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Dataset ds = MakeData(n, 3, Distribution::kIndependent);
  for (auto _ : state) {
    Result<FlatRTree> tree = FlatRTree::BulkLoad(ds);
    SKYUP_CHECK(tree.ok());
    benchmark::DoNotOptimize(tree->node_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(10000)->Arg(100000);

void BM_RTreeRangeQuery(benchmark::State& state) {
  Dataset ds = MakeData(100000, 3, Distribution::kIndependent);
  Result<FlatRTree> tree = FlatRTree::BulkLoad(ds);
  SKYUP_CHECK(tree.ok());
  Rng rng(3);
  std::vector<PointId> out;
  for (auto _ : state) {
    std::vector<double> lo(3), hi(3);
    for (size_t i = 0; i < 3; ++i) {
      lo[i] = rng.NextDouble(0.0, 0.8);
      hi[i] = lo[i] + 0.2;
    }
    out.clear();
    tree->RangeQuery(Mbr::FromCorners(lo.data(), hi.data(), 3), &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_RTreeRangeQuery);

// BBS including the bulk load of its R-tree, so all three skylines start
// from the same rows.
std::vector<PointId> SkylineBbsOfRows(const Dataset& ds,
                                      const std::vector<PointId>*) {
  Result<FlatRTree> tree = FlatRTree::BulkLoad(ds);
  SKYUP_CHECK(tree.ok());
  return SkylineBbs(tree.value());
}

using SkylineFn = std::vector<PointId> (*)(const Dataset&,
                                           const std::vector<PointId>*);

void BM_Skyline(benchmark::State& state, SkylineFn skyline) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Distribution distribution = state.range(1) == 0
                                        ? Distribution::kIndependent
                                        : Distribution::kAntiCorrelated;
  Dataset ds = MakeData(n, 3, distribution);
  for (auto _ : state) {
    std::vector<PointId> sky = skyline(ds, nullptr);
    benchmark::DoNotOptimize(sky.size());
  }
}
BENCHMARK_CAPTURE(BM_Skyline, bnl, &SkylineBnl)
    ->Args({20000, 0})
    ->Args({20000, 1});
BENCHMARK_CAPTURE(BM_Skyline, sfs, &SkylineSfs)
    ->Args({20000, 0})
    ->Args({20000, 1});
BENCHMARK_CAPTURE(BM_Skyline, bbs, &SkylineBbsOfRows)
    ->Args({20000, 0})
    ->Args({20000, 1});

// The constrained-skyline probe (Algorithm 3) on the flat arena with the
// batched kernels.
void BM_DominatingSkylineProbeFlat(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Dataset ds = MakeData(n, 3, Distribution::kAntiCorrelated);
  Result<FlatRTree> tree = FlatRTree::BulkLoad(ds);
  SKYUP_CHECK(tree.ok());
  const std::vector<double> t = {1.5, 1.5, 1.5};
  ProbeStats stats;
  for (auto _ : state) {
    stats = ProbeStats();
    std::vector<PointId> sky = DominatingSkyline(tree.value(), t.data(),
                                                 &stats);
    benchmark::DoNotOptimize(sky.size());
  }
  state.counters["kernel_calls"] =
      static_cast<double>(stats.block_kernel_calls);
}
BENCHMARK(BM_DominatingSkylineProbeFlat)->Arg(100000);

// The raw batch kernels against a register-pressure-free scalar sweep:
// lane filtering (the leaf/window shape) over one SoA block. range(0) is
// the lane count, range(1) selects dispatched (1) or forced-scalar (0).
void BM_FilterDominatedKernel(benchmark::State& state) {
  const size_t count = static_cast<size_t>(state.range(0));
  const bool dispatched = state.range(1) != 0;
  const size_t dims = 3;
  Dataset ds = MakeData(count, dims, Distribution::kAntiCorrelated);
  SoaBlock block(dims);
  for (size_t i = 0; i < ds.size(); ++i) {
    block.Append(ds.data(static_cast<PointId>(i)));
  }
  const std::vector<double> q(dims, 0.51);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    out.clear();
    const size_t kept =
        dispatched ? FilterDominated(block.view(), q.data(), &out)
                   : FilterDominatedScalar(block.view(), q.data(), &out);
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
  state.SetLabel(dispatched ? BatchKernelName() : "scalar");
}
BENCHMARK(BM_FilterDominatedKernel)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({4096, 0})
    ->Args({4096, 1});

void BM_DominatesAnyKernel(benchmark::State& state) {
  const size_t count = static_cast<size_t>(state.range(0));
  const bool dispatched = state.range(1) != 0;
  const size_t dims = 3;
  Dataset ds = MakeData(count, dims, Distribution::kAntiCorrelated);
  SoaBlock block(dims);
  for (size_t i = 0; i < ds.size(); ++i) {
    block.Append(ds.data(static_cast<PointId>(i)));
  }
  // A query nothing dominates: the worst case, every lane is examined.
  const std::vector<double> q(dims, -1.0);
  for (auto _ : state) {
    const bool any = dispatched ? DominatesAny(block.view(), q.data())
                                : DominatesAnyScalar(block.view(), q.data());
    benchmark::DoNotOptimize(any);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
  state.SetLabel(dispatched ? BatchKernelName() : "scalar");
}
BENCHMARK(BM_DominatesAnyKernel)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({4096, 0})
    ->Args({4096, 1});

void BM_UpgradeProduct(benchmark::State& state) {
  const size_t sky_size = static_cast<size_t>(state.range(0));
  const size_t dims = static_cast<size_t>(state.range(1));
  Dataset ds = MakeData(20000, dims, Distribution::kAntiCorrelated);
  std::vector<PointId> sky_ids = SkylineSfs(ds);
  std::vector<const double*> sky;
  for (PointId id : sky_ids) {
    if (sky.size() >= sky_size) break;
    sky.push_back(ds.data(id));
  }
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(dims, 1e-3);
  std::vector<double> p(dims, 1.5);
  for (auto _ : state) {
    UpgradeOutcome out = UpgradeProduct(sky, p.data(), dims, f, 1e-6);
    benchmark::DoNotOptimize(out.cost);
  }
}
BENCHMARK(BM_UpgradeProduct)->Args({16, 3})->Args({256, 3})->Args({256, 5});

// A realistic upgrade catalog: half the candidates drawn from the
// competitor distribution (many already competitive, cost ~0), half from
// the deeply dominated shifted product region, interleaved. The cheap
// candidates pull the top-k threshold down early, letting the sound
// lower-bound cut disqualify expensive candidates outright.
Dataset MixedCatalog(size_t n_each, uint64_t seed) {
  Result<Dataset> competitive =
      GenerateCompetitors(n_each, 3, Distribution::kAntiCorrelated, seed);
  Result<Dataset> dominated =
      GenerateProducts(n_each, 3, Distribution::kAntiCorrelated, seed + 1);
  SKYUP_CHECK(competitive.ok() && dominated.ok());
  Dataset out(3);
  out.Reserve(2 * n_each);
  for (size_t i = 0; i < n_each; ++i) {
    out.Add(competitive->data(static_cast<PointId>(i)));
    out.Add(dominated->data(static_cast<PointId>(i)));
  }
  return out;
}

// End-to-end improved probing at one thread — tiled probes, the hot path
// as the planner runs it.
void BM_TopKImprovedProbingFlat(benchmark::State& state) {
  Dataset p = MakeData(20000, 3, Distribution::kAntiCorrelated);
  Dataset t = MixedCatalog(1000, 9);
  Result<FlatRTree> tree = FlatRTree::BulkLoad(p);
  SKYUP_CHECK(tree.ok());
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-3);
  for (auto _ : state) {
    Result<std::vector<UpgradeResult>> top =
        TopKImprovedProbing(tree.value(), t, f, 10);
    SKYUP_CHECK(top.ok());
    benchmark::DoNotOptimize(top->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.size()));
}
BENCHMARK(BM_TopKImprovedProbingFlat);

// Improved probing across worker counts. The engine's shared-threshold
// lower bound disqualifies candidates before any skyline/Algorithm 1 work:
// `pruned` counts them and `upgrades` the candidates that paid full price
// — together they always sum to |T|, so the counters quantify pruning
// effectiveness directly.
void BM_TopKImprovedProbingThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  Dataset p = MakeData(20000, 3, Distribution::kAntiCorrelated);
  Dataset t = MixedCatalog(1000, 9);
  Result<FlatRTree> tree = FlatRTree::BulkLoad(p);
  SKYUP_CHECK(tree.ok());
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(3, 1e-3);
  ExecStats stats;
  for (auto _ : state) {
    stats = ExecStats();
    Result<std::vector<UpgradeResult>> top =
        TopKImprovedProbing(tree.value(), t, f, 10, 1e-6, threads, &stats);
    SKYUP_CHECK(top.ok());
    benchmark::DoNotOptimize(top->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.size()));
  state.counters["pruned"] = static_cast<double>(stats.candidates_pruned);
  state.counters["upgrades"] = static_cast<double>(stats.upgrade_calls);
}
BENCHMARK(BM_TopKImprovedProbingThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_LbcPair(benchmark::State& state) {
  const BoundMode mode =
      state.range(0) == 0 ? BoundMode::kPaper : BoundMode::kSound;
  const size_t dims = 5;
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(dims, 1e-3);
  Rng rng(11);
  std::vector<double> et_min(dims), ep_min(dims), ep_max(dims);
  for (size_t i = 0; i < dims; ++i) {
    et_min[i] = rng.NextDouble(1.0, 2.0);
    const double a = rng.NextDouble();
    const double b = rng.NextDouble();
    ep_min[i] = std::min(a, b);
    ep_max[i] = std::max(a, b);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbcPair(et_min.data(), ep_min.data(),
                                     ep_max.data(), dims, f, mode));
  }
}
BENCHMARK(BM_LbcPair)->Arg(0)->Arg(1);

void BM_LbcJoinList(benchmark::State& state) {
  const LowerBoundKind kind = static_cast<LowerBoundKind>(state.range(0));
  const size_t entries = 64;
  const size_t dims = 5;
  ProductCostFunction f = ProductCostFunction::ReciprocalSum(dims, 1e-3);
  Rng rng(12);
  std::vector<double> et_min(dims);
  for (auto& v : et_min) v = rng.NextDouble(1.0, 2.0);
  std::vector<std::vector<double>> mins(entries), maxs(entries);
  std::vector<EntryBounds> jl;
  for (size_t e = 0; e < entries; ++e) {
    mins[e].resize(dims);
    maxs[e].resize(dims);
    for (size_t i = 0; i < dims; ++i) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      mins[e][i] = std::min(a, b);
      maxs[e][i] = std::max(a, b);
    }
    jl.push_back({mins[e].data(), maxs[e].data()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LbcJoinList(et_min.data(), jl, dims, f, kind, BoundMode::kPaper));
  }
}
BENCHMARK(BM_LbcJoinList)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace skyup

BENCHMARK_MAIN();
