#ifndef SKYUP_CORE_DOMINANCE_BATCH_H_
#define SKYUP_CORE_DOMINANCE_BATCH_H_

// Batched dominance kernels: one query point against a *block* of points
// laid out structure-of-arrays (SoA). The skyline survey (Kalyvas &
// Tzouramanis 2017) identifies dominance-test volume as the dominant cost
// of BBS-style algorithms; these kernels turn the inner point-pair loops of
// the probe hot path (window pruning, leaf filtering, child culling) into
// sequential per-dimension sweeps that vectorize.
//
// Every kernel has a plain scalar implementation (the `*Scalar` entry
// points, always compiled — they are the test oracle) and, when the library
// is built with SKYUP_SIMD and the CPU supports it at runtime, an AVX2
// specialization processing four lanes per instruction. Both evaluate the
// exact same IEEE comparisons in the same orientation, so results are
// bit-identical by construction; the equivalence suite
// (tests/dominance_batch_test.cc) verifies it on randomized, tie-heavy, and
// duplicate-laden blocks.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/point.h"

namespace skyup {

/// Non-owning view of `count` points in SoA layout: the values of dimension
/// `d` are the contiguous run `data[d * stride] .. data[d * stride + count)`.
/// `stride >= count` (the gap is unused capacity). Both a packed coordinate
/// block and a per-dimension arena column (e.g. an R-tree node range inside
/// `FlatRTree`'s MBR arrays) are expressible as one of these.
struct SoaView {
  const double* data = nullptr;
  size_t stride = 0;
  size_t count = 0;
  size_t dims = 0;

  const double* dim(size_t d) const { return data + d * stride; }
  bool empty() const { return count == 0; }
};

/// Growable owning SoA block; the dominance-window container of the
/// batched traversals. Appending keeps all previously returned lane indices
/// stable (lanes never reorder).
class SoaBlock {
 public:
  explicit SoaBlock(size_t dims) : dims_(dims) {}

  size_t size() const { return count_; }
  size_t dims() const { return dims_; }
  bool empty() const { return count_ == 0; }

  /// Appends one point of `dims()` contiguous coordinates.
  void Append(const double* p);

  /// Drops all points, keeping capacity.
  void Clear() { count_ = 0; }

  SoaView view() const { return SoaView{data_.data(), capacity_, count_, dims_}; }

  /// Value of dimension `d` of lane `i`.
  double at(size_t i, size_t d) const { return data_[d * capacity_ + i]; }

 private:
  void Grow(size_t new_capacity);

  size_t dims_;
  size_t count_ = 0;
  size_t capacity_ = 0;
  std::vector<double> data_;  // dims_ * capacity_, dimension-major
};

/// True iff some lane `s` of `block` satisfies `s[d] <= q[d]` on every
/// dimension — i.e. dominates-or-equals `q`. This is the window-pruning
/// test of BBS/SFS-style traversals (block lanes are the potential
/// dominators, `q` the candidate point or MBR min corner).
bool DominatesAny(const SoaView& block, const double* q);

/// Appends to `out` the (ascending) indices of the lanes that *strictly
/// dominate* `q`: `lane[d] <= q[d]` everywhere and `<` somewhere. With
/// `strict == false` the equality lanes are kept too (dominate-or-equal) —
/// that variant is the ADR overlap filter for MBR min corners. Returns the
/// number of indices appended.
size_t FilterDominated(const SoaView& block, const double* q,
                       std::vector<uint32_t>* out, bool strict = true);

/// Maximum tile width the multi-query kernels accept: outcome masks are one
/// `uint64_t` per block lane, bit `j` = tile member `j`.
inline constexpr size_t kMaxDominanceTile = 64;

/// Multi-query generalization of `FilterDominated`: tests every lane of
/// `block` against a *tile* of query points in one sweep. On return,
/// `masks[i]` has bit `j` set iff lane `i` dominates `tile[j]` — strictly
/// when `strict` (<= everywhere, < somewhere), dominates-or-equal otherwise
/// (the ADR-overlap orientation for MBR min corners). `masks` must hold
/// `block.count` entries; they are overwritten, not accumulated.
/// `tile_count` must be in [1, kMaxDominanceTile]; every `tile[j]` has
/// `block.dims` coordinates. Per (lane, tile[j]) pair the comparisons are
/// the exact IEEE tests `FilterDominated` evaluates, so for any fixed `j`,
/// `masks[i] >> j & 1` reproduces the single-query filter bit for bit.
void TileDominanceMasks(const SoaView& block, const double* const* tile,
                        size_t tile_count, bool strict, uint64_t* masks);

/// Scalar reference implementations — always built, never dispatched away;
/// the oracle the SIMD paths are tested against.
bool DominatesAnyScalar(const SoaView& block, const double* q);
size_t FilterDominatedScalar(const SoaView& block, const double* q,
                             std::vector<uint32_t>* out, bool strict = true);
void TileDominanceMasksScalar(const SoaView& block, const double* const* tile,
                              size_t tile_count, bool strict,
                              uint64_t* masks);

/// Name of the kernel implementation the dispatched entry points resolve to
/// on this process: "avx2" or "scalar". Observability only.
const char* BatchKernelName();

}  // namespace skyup

#endif  // SKYUP_CORE_DOMINANCE_BATCH_H_
