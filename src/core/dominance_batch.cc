#include "core/dominance_batch.h"

#include <algorithm>

#if defined(SKYUP_SIMD) && defined(__x86_64__)
#define SKYUP_HAVE_AVX2_PATH 1
#include <immintrin.h>
#else
#define SKYUP_HAVE_AVX2_PATH 0
#endif

namespace skyup {

void SoaBlock::Append(const double* p) {
  if (count_ == capacity_) Grow(capacity_ == 0 ? 64 : capacity_ * 2);
  for (size_t d = 0; d < dims_; ++d) data_[d * capacity_ + count_] = p[d];
  ++count_;
}

void SoaBlock::Grow(size_t new_capacity) {
  std::vector<double> next(dims_ * new_capacity);
  for (size_t d = 0; d < dims_; ++d) {
    std::copy_n(data_.data() + d * capacity_, count_,
                next.data() + d * new_capacity);
  }
  data_ = std::move(next);
  capacity_ = new_capacity;
}

bool DominatesAnyScalar(const SoaView& block, const double* q) {
  for (size_t i = 0; i < block.count; ++i) {
    bool le = true;
    for (size_t d = 0; d < block.dims && le; ++d) {
      le = block.dim(d)[i] <= q[d];
    }
    if (le) return true;
  }
  return false;
}

size_t FilterDominatedScalar(const SoaView& block, const double* q,
                             std::vector<uint32_t>* out, bool strict) {
  size_t appended = 0;
  for (size_t i = 0; i < block.count; ++i) {
    bool le = true;
    bool lt = false;
    for (size_t d = 0; d < block.dims && le; ++d) {
      const double v = block.dim(d)[i];
      le = v <= q[d];
      lt = lt || v < q[d];
    }
    if (le && (lt || !strict)) {
      out->push_back(static_cast<uint32_t>(i));
      ++appended;
    }
  }
  return appended;
}

void TileDominanceMasksScalar(const SoaView& block, const double* const* tile,
                              size_t tile_count, bool strict,
                              uint64_t* masks) {
  for (size_t i = 0; i < block.count; ++i) {
    uint64_t mask = 0;
    for (size_t j = 0; j < tile_count; ++j) {
      const double* q = tile[j];
      bool le = true;
      bool lt = false;
      for (size_t d = 0; d < block.dims && le; ++d) {
        const double v = block.dim(d)[i];
        le = v <= q[d];
        lt = lt || v < q[d];
      }
      if (le && (lt || !strict)) mask |= uint64_t{1} << j;
    }
    masks[i] = mask;
  }
}

#if SKYUP_HAVE_AVX2_PATH

namespace {

// Four 64-bit lanes, all bits set — the "still a candidate" mask seed.
__attribute__((target("avx2"))) inline __m256d AllOnes() {
  return _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
}

__attribute__((target("avx2"))) bool DominatesAnyAvx2(const SoaView& block,
                                                      const double* q) {
  size_t i = 0;
  for (; i + 4 <= block.count; i += 4) {
    __m256d le = AllOnes();
    for (size_t d = 0; d < block.dims; ++d) {
      const __m256d v = _mm256_loadu_pd(block.dim(d) + i);
      le = _mm256_and_pd(le, _mm256_cmp_pd(v, _mm256_set1_pd(q[d]),
                                           _CMP_LE_OQ));
      if (_mm256_movemask_pd(le) == 0) break;  // group fully disqualified
    }
    if (_mm256_movemask_pd(le) != 0) return true;
  }
  for (; i < block.count; ++i) {
    bool le = true;
    for (size_t d = 0; d < block.dims && le; ++d) {
      le = block.dim(d)[i] <= q[d];
    }
    if (le) return true;
  }
  return false;
}

__attribute__((target("avx2"))) size_t
FilterDominatedAvx2(const SoaView& block, const double* q,
                    std::vector<uint32_t>* out, bool strict) {
  size_t appended = 0;
  size_t i = 0;
  for (; i + 4 <= block.count; i += 4) {
    __m256d le = AllOnes();
    __m256d lt = _mm256_setzero_pd();
    for (size_t d = 0; d < block.dims; ++d) {
      const __m256d v = _mm256_loadu_pd(block.dim(d) + i);
      const __m256d qd = _mm256_set1_pd(q[d]);
      le = _mm256_and_pd(le, _mm256_cmp_pd(v, qd, _CMP_LE_OQ));
      lt = _mm256_or_pd(lt, _mm256_cmp_pd(v, qd, _CMP_LT_OQ));
      if (_mm256_movemask_pd(le) == 0) break;
    }
    int mask = _mm256_movemask_pd(le);
    if (strict) mask &= _mm256_movemask_pd(lt);
    while (mask != 0) {
      const int bit = __builtin_ctz(static_cast<unsigned>(mask));
      out->push_back(static_cast<uint32_t>(i + static_cast<size_t>(bit)));
      ++appended;
      mask &= mask - 1;
    }
  }
  for (; i < block.count; ++i) {
    bool le = true;
    bool lt = false;
    for (size_t d = 0; d < block.dims && le; ++d) {
      const double v = block.dim(d)[i];
      le = v <= q[d];
      lt = lt || v < q[d];
    }
    if (le && (lt || !strict)) {
      out->push_back(static_cast<uint32_t>(i));
      ++appended;
    }
  }
  return appended;
}

// Register-blocked multi-query sweep: four block lanes wide (one __m256d),
// four tile members deep (eight live accumulators + the shared coordinate
// load fit comfortably in the sixteen ymm registers). Each coordinate
// vector of the block is loaded once per tile chunk and compared against
// every member of the chunk, amortizing the memory traffic the per-query
// kernels pay `tile_count` times.
__attribute__((target("avx2"))) void TileDominanceMasksAvx2(
    const SoaView& block, const double* const* tile, size_t tile_count,
    bool strict, uint64_t* masks) {
  size_t i = 0;
  for (; i + 4 <= block.count; i += 4) {
    uint64_t m[4] = {0, 0, 0, 0};
    for (size_t jc = 0; jc < tile_count; jc += 4) {
      const size_t width = tile_count - jc < 4 ? tile_count - jc : 4;
      __m256d le[4];
      __m256d lt[4];
      for (size_t jj = 0; jj < width; ++jj) {
        le[jj] = AllOnes();
        lt[jj] = _mm256_setzero_pd();
      }
      for (size_t d = 0; d < block.dims; ++d) {
        const __m256d v = _mm256_loadu_pd(block.dim(d) + i);
        for (size_t jj = 0; jj < width; ++jj) {
          const __m256d qd = _mm256_set1_pd(tile[jc + jj][d]);
          le[jj] = _mm256_and_pd(le[jj], _mm256_cmp_pd(v, qd, _CMP_LE_OQ));
          lt[jj] = _mm256_or_pd(lt[jj], _mm256_cmp_pd(v, qd, _CMP_LT_OQ));
        }
      }
      for (size_t jj = 0; jj < width; ++jj) {
        int bits = _mm256_movemask_pd(le[jj]);
        if (strict) bits &= _mm256_movemask_pd(lt[jj]);
        while (bits != 0) {
          const int lane = __builtin_ctz(static_cast<unsigned>(bits));
          m[lane] |= uint64_t{1} << (jc + jj);
          bits &= bits - 1;
        }
      }
    }
    for (size_t lane = 0; lane < 4; ++lane) masks[i + lane] = m[lane];
  }
  if (i < block.count) {
    SoaView tail = block;
    tail.data += i;
    tail.count -= i;
    TileDominanceMasksScalar(tail, tile, tile_count, strict, masks + i);
  }
}

}  // namespace

#endif  // SKYUP_HAVE_AVX2_PATH

namespace {

bool UseAvx2() {
#if SKYUP_HAVE_AVX2_PATH
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

}  // namespace

bool DominatesAny(const SoaView& block, const double* q) {
#if SKYUP_HAVE_AVX2_PATH
  if (UseAvx2()) return DominatesAnyAvx2(block, q);
#endif
  return DominatesAnyScalar(block, q);
}

size_t FilterDominated(const SoaView& block, const double* q,
                       std::vector<uint32_t>* out, bool strict) {
#if SKYUP_HAVE_AVX2_PATH
  if (UseAvx2()) return FilterDominatedAvx2(block, q, out, strict);
#endif
  return FilterDominatedScalar(block, q, out, strict);
}

void TileDominanceMasks(const SoaView& block, const double* const* tile,
                        size_t tile_count, bool strict, uint64_t* masks) {
#if SKYUP_HAVE_AVX2_PATH
  if (UseAvx2()) {
    TileDominanceMasksAvx2(block, tile, tile_count, strict, masks);
    return;
  }
#endif
  TileDominanceMasksScalar(block, tile, tile_count, strict, masks);
}

const char* BatchKernelName() { return UseAvx2() ? "avx2" : "scalar"; }

}  // namespace skyup
