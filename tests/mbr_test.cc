#include "rtree/mbr.h"

#include <gtest/gtest.h>

#include <vector>

namespace skyup {
namespace {

TEST(MbrTest, EmptyBoxProperties) {
  Mbr box(2);
  EXPECT_TRUE(box.IsEmpty());
  EXPECT_DOUBLE_EQ(box.Area(), 0.0);
}

TEST(MbrTest, FromPointIsDegenerate) {
  const std::vector<double> p = {1, 2, 3};
  Mbr box = Mbr::FromPoint(p.data(), 3);
  EXPECT_FALSE(box.IsEmpty());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(box.min(i), p[i]);
    EXPECT_DOUBLE_EQ(box.max(i), p[i]);
  }
  EXPECT_DOUBLE_EQ(box.Area(), 0.0);
  EXPECT_TRUE(box.Contains(p.data()));
}

TEST(MbrTest, ExpandGrowsBox) {
  Mbr box(2);
  const std::vector<double> a = {0, 0};
  const std::vector<double> b = {2, 3};
  box.Expand(a.data());
  box.Expand(b.data());
  EXPECT_DOUBLE_EQ(box.min(0), 0.0);
  EXPECT_DOUBLE_EQ(box.max(1), 3.0);
  EXPECT_DOUBLE_EQ(box.Area(), 6.0);
}

TEST(MbrTest, ExpandByBox) {
  const std::vector<double> lo1 = {0, 0}, hi1 = {1, 1};
  const std::vector<double> lo2 = {2, -1}, hi2 = {3, 0.5};
  Mbr a = Mbr::FromCorners(lo1.data(), hi1.data(), 2);
  Mbr b = Mbr::FromCorners(lo2.data(), hi2.data(), 2);
  a.Expand(b);
  EXPECT_DOUBLE_EQ(a.min(0), 0.0);
  EXPECT_DOUBLE_EQ(a.max(0), 3.0);
  EXPECT_DOUBLE_EQ(a.min(1), -1.0);
  EXPECT_DOUBLE_EQ(a.max(1), 1.0);
}

TEST(MbrTest, ExpandByEmptyBoxIsNoop) {
  const std::vector<double> lo = {0, 0}, hi = {1, 1};
  Mbr a = Mbr::FromCorners(lo.data(), hi.data(), 2);
  Mbr empty(2);
  Mbr before = a;
  a.Expand(empty);
  EXPECT_TRUE(a == before);
}

TEST(MbrTest, IntersectionCases) {
  const std::vector<double> lo1 = {0, 0}, hi1 = {2, 2};
  const std::vector<double> lo2 = {1, 1}, hi2 = {3, 3};
  const std::vector<double> lo3 = {2, 2}, hi3 = {4, 4};   // touching corner
  const std::vector<double> lo4 = {5, 5}, hi4 = {6, 6};   // disjoint
  Mbr a = Mbr::FromCorners(lo1.data(), hi1.data(), 2);
  Mbr b = Mbr::FromCorners(lo2.data(), hi2.data(), 2);
  Mbr c = Mbr::FromCorners(lo3.data(), hi3.data(), 2);
  Mbr d = Mbr::FromCorners(lo4.data(), hi4.data(), 2);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(a.Intersects(c));  // closed boxes: shared corner intersects
  EXPECT_FALSE(a.Intersects(d));
  EXPECT_FALSE(a.Intersects(Mbr(2)));  // empty never intersects
}

TEST(MbrTest, ContainsBox) {
  const std::vector<double> lo1 = {0, 0}, hi1 = {4, 4};
  const std::vector<double> lo2 = {1, 1}, hi2 = {2, 2};
  Mbr outer = Mbr::FromCorners(lo1.data(), hi1.data(), 2);
  Mbr inner = Mbr::FromCorners(lo2.data(), hi2.data(), 2);
  EXPECT_TRUE(outer.ContainsBox(inner));
  EXPECT_FALSE(inner.ContainsBox(outer));
  EXPECT_TRUE(outer.ContainsBox(Mbr(2)));  // empty box in anything
}

TEST(MbrTest, MinCornerSum) {
  const std::vector<double> lo = {1, 2, 3}, hi = {4, 5, 6};
  Mbr box = Mbr::FromCorners(lo.data(), hi.data(), 3);
  EXPECT_DOUBLE_EQ(box.MinCornerSum(), 6.0);
}

TEST(MbrTest, ResetRestoresEmpty) {
  const std::vector<double> p = {1, 1};
  Mbr box = Mbr::FromPoint(p.data(), 2);
  box.Reset();
  EXPECT_TRUE(box.IsEmpty());
}

TEST(MbrTest, EqualityAndToString) {
  const std::vector<double> lo = {0, 0}, hi = {1, 2};
  Mbr a = Mbr::FromCorners(lo.data(), hi.data(), 2);
  Mbr b = Mbr::FromCorners(lo.data(), hi.data(), 2);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(Mbr(2) == Mbr(2));
  EXPECT_FALSE(a == Mbr(2));
  EXPECT_NE(a.ToString().find(".."), std::string::npos);
}

TEST(MbrTest, ContainsIsClosedOnBoundary) {
  const std::vector<double> lo = {0, 0}, hi = {1, 1};
  Mbr box = Mbr::FromCorners(lo.data(), hi.data(), 2);
  const std::vector<double> edge = {1.0, 0.0};
  const std::vector<double> outside = {1.0000001, 0.0};
  EXPECT_TRUE(box.Contains(edge.data()));
  EXPECT_FALSE(box.Contains(outside.data()));
}

}  // namespace
}  // namespace skyup
