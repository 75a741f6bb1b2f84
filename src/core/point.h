#ifndef SKYUP_CORE_POINT_H_
#define SKYUP_CORE_POINT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace skyup {

/// Identifier of a point within a `Dataset` (its row index).
using PointId = int64_t;

/// Sentinel for "no point".
inline constexpr PointId kInvalidPointId = -1;

/// An owning product: an identifier plus its attribute vector.
///
/// The library convention is that *smaller attribute values are better* on
/// every dimension (the paper's simplification); maximize-preferred inputs
/// are flipped by `data/normalize.h` before entering the algorithms.
struct Point {
  PointId id = kInvalidPointId;
  std::vector<double> coords;

  size_t dims() const { return coords.size(); }
};

/// Non-owning view of a point's coordinates.
class PointView {
 public:
  PointView() = default;
  PointView(const double* data, size_t dims) : data_(data), dims_(dims) {}

  const double* data() const { return data_; }
  size_t dims() const { return dims_; }
  double operator[](size_t i) const { return data_[i]; }

  const double* begin() const { return data_; }
  const double* end() const { return data_ + dims_; }

 private:
  const double* data_ = nullptr;
  size_t dims_ = 0;
};

/// True iff every coordinate of `p[0, dims)` is finite. NaN breaks every
/// dominance test and ±inf every cost, so the entry points refuse both.
inline bool AllFinite(const double* p, size_t dims) {
  return std::all_of(p, p + dims, [](double v) { return std::isfinite(v); });
}

/// Renders a coordinate vector as "(a, b, c)" for diagnostics.
std::string PointToString(const double* p, size_t dims);
std::string PointToString(const std::vector<double>& p);

}  // namespace skyup

#endif  // SKYUP_CORE_POINT_H_
