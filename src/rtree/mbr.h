#ifndef SKYUP_RTREE_MBR_H_
#define SKYUP_RTREE_MBR_H_

#include <array>
#include <cstddef>
#include <string>

namespace skyup {

/// Maximum dimensionality supported by the spatial structures. The paper
/// evaluates d in [2, 6]; 16 leaves generous headroom while keeping MBRs
/// inline (no heap allocation per box).
inline constexpr size_t kMaxDims = 16;

/// A minimum bounding (hyper-)rectangle with inline storage.
///
/// A default-constructed or freshly `Reset` box is *empty*: it contains
/// nothing and expanding it by a point yields that point's degenerate box.
class Mbr {
 public:
  /// Constructs an empty box of `dims` dimensions (min=+inf, max=-inf).
  explicit Mbr(size_t dims = 0);

  /// Degenerate box covering exactly one point.
  static Mbr FromPoint(const double* p, size_t dims);

  /// Box spanning two corners; `lo[i] <= hi[i]` is the caller's contract.
  static Mbr FromCorners(const double* lo, const double* hi, size_t dims);

  size_t dims() const { return dims_; }

  /// True if no point has been included yet.
  bool IsEmpty() const;

  /// Restores the empty state, keeping the dimensionality.
  void Reset();

  double min(size_t i) const { return min_[i]; }
  double max(size_t i) const { return max_[i]; }
  const double* min_data() const { return min_.data(); }
  const double* max_data() const { return max_.data(); }

  /// Grows the box to include a point / another box.
  void Expand(const double* p);
  void Expand(const Mbr& other);

  /// True iff the boxes share at least one point (closed intervals).
  bool Intersects(const Mbr& other) const;

  /// True iff point `p` lies inside the box (closed).
  bool Contains(const double* p) const;

  /// True iff `other` lies fully inside this box.
  bool ContainsBox(const Mbr& other) const;

  /// Product of side lengths (0 for an empty box).
  double Area() const;

  /// Sum of min-corner coordinates: the BBS traversal priority ("mindist"
  /// to the origin under the L1 monotone scoring function).
  double MinCornerSum() const;

  /// "[lo .. hi]" rendering for diagnostics.
  std::string ToString() const;

  bool operator==(const Mbr& other) const;

 private:
  size_t dims_;
  std::array<double, kMaxDims> min_;
  std::array<double, kMaxDims> max_;
};

}  // namespace skyup

#endif  // SKYUP_RTREE_MBR_H_
