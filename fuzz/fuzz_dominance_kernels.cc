// Differential fuzz: the runtime-dispatched batched dominance kernels
// (AVX2 when compiled in and supported) against the always-built scalar
// oracle and the pairwise predicates.
// Any divergence is a miscompiled or mis-specified kernel — the SIMD and
// scalar paths promise bit-identical IEEE comparisons.

#include <vector>

#include "core/dominance.h"
#include "core/dominance_batch.h"
#include "fuzz_common.h"

namespace skyup {
namespace fuzz {
namespace {

void RunOne(uint64_t seed) {
  Rng rng(seed);
  Shape shape = Shape::kMixed;
  const Dataset block_points = GenAnyDataset(&rng, 40, 6, &shape);
  const size_t dims = block_points.dims();

  SoaBlock block(dims);
  for (size_t i = 0; i < block_points.size(); ++i) {
    block.Append(block_points.data(static_cast<PointId>(i)));
  }
  const SoaView view = block.view();

  const size_t queries = 1 + static_cast<size_t>(rng.NextUint64(6));
  for (size_t qi = 0; qi < queries; ++qi) {
    const std::vector<double> q = GenQueryPoint(&rng, block_points);

    // DominatesAny: dispatched vs scalar vs pairwise reduction.
    const bool any = DominatesAny(view, q.data());
    const bool any_scalar = DominatesAnyScalar(view, q.data());
    bool any_pairwise = false;
    for (size_t i = 0; i < block_points.size() && !any_pairwise; ++i) {
      any_pairwise = DominatesOrEqual(block_points.data(static_cast<PointId>(i)),
                                      q.data(), dims);
    }
    SKYUP_CHECK(any == any_scalar && any == any_pairwise)
        << "DominatesAny divergence: dispatched=" << any
        << " scalar=" << any_scalar << " pairwise=" << any_pairwise
        << " shape=" << ShapeName(shape) << " seed=" << seed;

    // FilterDominated, both strictness modes.
    for (const bool strict : {true, false}) {
      std::vector<uint32_t> got, oracle;
      const size_t got_n = FilterDominated(view, q.data(), &got, strict);
      const size_t oracle_n =
          FilterDominatedScalar(view, q.data(), &oracle, strict);
      SKYUP_CHECK(got_n == oracle_n && got == oracle)
          << "FilterDominated(strict=" << strict
          << ") divergence: dispatched " << got.size() << " lanes vs scalar "
          << oracle.size() << " shape=" << ShapeName(shape)
          << " seed=" << seed;
      for (const uint32_t lane : got) {
        const double* s = block_points.data(static_cast<PointId>(lane));
        const bool expect = strict ? Dominates(s, q.data(), dims)
                                   : DominatesOrEqual(s, q.data(), dims);
        SKYUP_CHECK(expect)
            << "FilterDominated kept lane " << lane
            << " that the pairwise predicate rejects, strict=" << strict
            << " seed=" << seed;
      }
    }
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace skyup

SKYUP_FUZZ_DRIVER("fuzz_dominance_kernels", skyup::fuzz::RunOne)
