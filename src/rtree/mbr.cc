#include "rtree/mbr.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/check.h"

namespace skyup {

Mbr::Mbr(size_t dims) : dims_(dims) {
  SKYUP_CHECK(dims <= kMaxDims) << "dimensionality " << dims
                                << " exceeds kMaxDims=" << kMaxDims;
  Reset();
}

void Mbr::Reset() {
  min_.fill(std::numeric_limits<double>::infinity());
  max_.fill(-std::numeric_limits<double>::infinity());
}

Mbr Mbr::FromPoint(const double* p, size_t dims) {
  Mbr box(dims);
  box.Expand(p);
  return box;
}

Mbr Mbr::FromCorners(const double* lo, const double* hi, size_t dims) {
  Mbr box(dims);
  for (size_t i = 0; i < dims; ++i) {
    SKYUP_DCHECK(lo[i] <= hi[i]);
    box.min_[i] = lo[i];
    box.max_[i] = hi[i];
  }
  return box;
}

bool Mbr::IsEmpty() const {
  return dims_ == 0 || min_[0] > max_[0];
}

void Mbr::Expand(const double* p) {
  for (size_t i = 0; i < dims_; ++i) {
    min_[i] = std::min(min_[i], p[i]);
    max_[i] = std::max(max_[i], p[i]);
  }
}

void Mbr::Expand(const Mbr& other) {
  SKYUP_DCHECK(dims_ == other.dims_);
  if (other.IsEmpty()) return;
  for (size_t i = 0; i < dims_; ++i) {
    min_[i] = std::min(min_[i], other.min_[i]);
    max_[i] = std::max(max_[i], other.max_[i]);
  }
}

bool Mbr::Intersects(const Mbr& other) const {
  SKYUP_DCHECK(dims_ == other.dims_);
  for (size_t i = 0; i < dims_; ++i) {
    if (min_[i] > other.max_[i] || other.min_[i] > max_[i]) return false;
  }
  return !IsEmpty() && !other.IsEmpty();
}

bool Mbr::Contains(const double* p) const {
  for (size_t i = 0; i < dims_; ++i) {
    if (p[i] < min_[i] || p[i] > max_[i]) return false;
  }
  return true;
}

bool Mbr::ContainsBox(const Mbr& other) const {
  SKYUP_DCHECK(dims_ == other.dims_);
  if (other.IsEmpty()) return true;
  for (size_t i = 0; i < dims_; ++i) {
    if (other.min_[i] < min_[i] || other.max_[i] > max_[i]) return false;
  }
  return true;
}

double Mbr::Area() const {
  if (IsEmpty()) return 0.0;
  double area = 1.0;
  for (size_t i = 0; i < dims_; ++i) area *= max_[i] - min_[i];
  return area;
}

double Mbr::MinCornerSum() const {
  double sum = 0.0;
  for (size_t i = 0; i < dims_; ++i) sum += min_[i];
  return sum;
}

std::string Mbr::ToString() const {
  std::ostringstream out;
  out.precision(6);
  out << '[';
  for (size_t i = 0; i < dims_; ++i) {
    if (i > 0) out << ", ";
    out << min_[i];
  }
  out << " .. ";
  for (size_t i = 0; i < dims_; ++i) {
    if (i > 0) out << ", ";
    out << max_[i];
  }
  out << ']';
  return out.str();
}

bool Mbr::operator==(const Mbr& other) const {
  if (dims_ != other.dims_) return false;
  if (IsEmpty() && other.IsEmpty()) return true;
  for (size_t i = 0; i < dims_; ++i) {
    if (min_[i] != other.min_[i] || max_[i] != other.max_[i]) return false;
  }
  return true;
}

}  // namespace skyup
