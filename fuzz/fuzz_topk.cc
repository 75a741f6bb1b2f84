// Differential fuzz of the full top-k upgrade pipeline: the index-free
// brute-force oracle at one thread vs brute force, basic probing and
// (tiled) improved probing, each at a random thread count. All of these promise *bit-identical* ranked results — same
// product ids, same costs (exact double equality), same upgraded vectors —
// because they share one tie-break order and sound pruning only.

#include <vector>

#include "core/cost_function.h"
#include "core/probing.h"
#include "fuzz_common.h"
#include "rtree/flat_rtree.h"

namespace skyup {
namespace fuzz {
namespace {

void CheckSameResults(const std::vector<UpgradeResult>& oracle,
                      const std::vector<UpgradeResult>& got, const char* name,
                      uint64_t seed) {
  SKYUP_CHECK(got.size() == oracle.size())
      << name << " returned " << got.size() << " results vs oracle "
      << oracle.size() << ", seed=" << seed;
  for (size_t i = 0; i < oracle.size(); ++i) {
    SKYUP_CHECK(got[i].product_id == oracle[i].product_id)
        << name << " rank " << i << ": product " << got[i].product_id
        << " vs oracle " << oracle[i].product_id << ", seed=" << seed;
    // lint: float-eq-ok (differential oracle: implementations must agree
    // bit-exactly, tolerance would mask real drift)
    SKYUP_CHECK(got[i].cost == oracle[i].cost)
        << name << " rank " << i << ": cost " << got[i].cost << " vs oracle "
        << oracle[i].cost << ", seed=" << seed;
    SKYUP_CHECK(got[i].upgraded == oracle[i].upgraded)
        << name << " rank " << i << ": upgraded vector diverges ("
        << PointToString(got[i].upgraded) << " vs "
        << PointToString(oracle[i].upgraded) << "), seed=" << seed;
    SKYUP_CHECK(got[i].already_competitive == oracle[i].already_competitive)
        << name << " rank " << i << ": already_competitive flag diverges"
        << ", seed=" << seed;
  }
}

Shape RandomShape(Rng* rng) {
  return static_cast<Shape>(
      rng->NextUint64(static_cast<uint64_t>(Shape::kShapeCount)));
}

// About one iteration in four draws |T| from [60, 150], concatenating
// chunks of random shapes, so the flat probe's tiles
// (kMaxDominanceTile = 64 candidates) fill and wrap; the rest stay small.
Dataset GenProducts(Rng* rng, size_t dims) {
  if (rng->NextUint64(4) != 0) {
    return GenDataset(rng, RandomShape(rng), 24, dims);
  }
  const size_t target = 60 + static_cast<size_t>(rng->NextUint64(91));
  Dataset products(dims);
  products.Reserve(target);
  while (products.size() < target) {
    const Dataset chunk =
        GenDataset(rng, RandomShape(rng), target - products.size(), dims);
    for (size_t i = 0; i < chunk.size(); ++i) {
      products.Add(chunk.data(static_cast<PointId>(i)));
    }
  }
  return products;
}

// Every leg runs at its own random thread count in [1, 4], including
// counts exceeding the product count (empty-shard hazard), and must keep
// the engine's accounting identity.
void CheckLeg(const std::vector<UpgradeResult>& oracle,
              const Result<std::vector<UpgradeResult>>& got,
              const ExecStats& stats, size_t products, const char* name,
              size_t threads, uint64_t seed) {
  SKYUP_CHECK(got.ok()) << name << ": " << got.status().ToString()
                        << " threads=" << threads << " seed=" << seed;
  CheckSameResults(oracle, *got, name, seed);
  SKYUP_CHECK(stats.products_processed == products &&
              stats.upgrade_calls + stats.candidates_pruned == products)
      << name << " processed " << stats.products_processed << " of "
      << products << " candidates (" << stats.upgrade_calls
      << " upgraded, " << stats.candidates_pruned
      << " pruned), threads=" << threads << " seed=" << seed;
}

void RunOne(uint64_t seed) {
  Rng rng(seed);
  Shape cshape = Shape::kMixed;
  const Dataset competitors = GenAnyDataset(&rng, 60, 4, &cshape);
  const Dataset products = GenProducts(&rng, competitors.dims());

  const size_t k = 1 + static_cast<size_t>(rng.NextUint64(products.size() + 2));
  const double epsilon = 1e-6;
  const ProductCostFunction cost_fn =
      ProductCostFunction::ReciprocalSum(competitors.dims(), 1e-3);

  const Result<std::vector<UpgradeResult>> oracle =
      TopKBruteForce(competitors, products, cost_fn, k, epsilon);
  SKYUP_CHECK(oracle.ok()) << oracle.status().ToString() << " seed=" << seed;

  const Result<FlatRTree> tree = FlatRTree::BulkLoad(
      competitors, 2 + static_cast<size_t>(rng.NextUint64(15)));
  SKYUP_CHECK(tree.ok()) << tree.status().ToString() << " seed=" << seed;

  const auto draw_threads = [&rng] {
    return 1 + static_cast<size_t>(rng.NextUint64(4));
  };
  size_t threads = draw_threads();
  ExecStats stats;
  CheckLeg(*oracle,
           TopKBruteForce(competitors, products, cost_fn, k, epsilon, threads,
                          &stats),
           stats, products.size(), "TopKBruteForce", threads, seed);

  threads = draw_threads();
  stats = ExecStats();
  CheckLeg(*oracle,
           TopKBasicProbing(*tree, products, cost_fn, k, epsilon, threads,
                            &stats),
           stats, products.size(), "TopKBasicProbing", threads, seed);

  threads = draw_threads();
  stats = ExecStats();
  CheckLeg(*oracle,
           TopKImprovedProbing(*tree, products, cost_fn, k, epsilon, threads,
                               &stats),
           stats, products.size(), "TopKImprovedProbing", threads, seed);

  static_cast<void>(cshape);  // shapes are for gdb inspection of a replay
}

}  // namespace
}  // namespace fuzz
}  // namespace skyup

SKYUP_FUZZ_DRIVER("fuzz_topk", skyup::fuzz::RunOne)
