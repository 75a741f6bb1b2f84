// Differential fuzz: BNL vs SFS vs BBS skylines on adversarial
// inputs (ties, duplicates, degenerate coordinates, singletons,
// all-dominated sets). The algorithms may pick different representatives
// of duplicated coordinate vectors, so agreement is on the *distinct
// coordinate set*; on top of that the harness re-proves the skyline
// definition itself: members are mutually incomparable, and every input
// point is dominated-or-equalled by some member.
//
// A second phase masks a random subset of the rows out (the `dead_rows`
// byte mask the serve tier passes for pending erases), then checks the
// masked whole-space probe (BBS) and SFS against BNL over the surviving
// rows, and every masked `DominatingSkylineInto` and
// `DominatingSkylineTileInto` probe against a brute-force oracle. A third
// phase seeds `DominatingSkylineFrom` from a random cut of the tree plus
// explicit rows and checks it against the rows those seeds cover.

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "core/dominance.h"
#include "fuzz_common.h"
#include "rtree/flat_rtree.h"
#include "skyline/dominating_skyline.h"
#include "skyline/skyline.h"

namespace skyup {
namespace fuzz {
namespace {

std::set<std::vector<double>> CoordSet(const Dataset& data,
                                       const std::vector<PointId>& ids) {
  std::set<std::vector<double>> out;
  for (PointId id : ids) {
    const double* p = data.data(id);
    out.emplace(p, p + data.dims());
  }
  return out;
}

// Rows as a sorted coordinate multiset.
std::vector<std::vector<double>> Values(const Dataset& data,
                                        const std::vector<PointId>& rows) {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size());
  for (PointId id : rows) {
    const double* p = data.data(id);
    out.emplace_back(p, p + data.dims());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RunOne(uint64_t seed) {
  Rng rng(seed);
  Shape shape = Shape::kMixed;
  const Dataset data = GenAnyDataset(&rng, 120, 5, &shape);
  const size_t dims = data.dims();

  const std::vector<PointId> bnl = SkylineBnl(data);
  const std::vector<PointId> sfs = SkylineSfs(data);
  const size_t fanout = 2 + static_cast<size_t>(rng.NextUint64(15));
  Result<FlatRTree> built = FlatRTree::BulkLoad(data, fanout);
  SKYUP_CHECK(built.ok()) << built.status().ToString() << " seed=" << seed;
  const FlatRTree tree = std::move(built).value();
  SKYUP_CHECK_OK(tree.Validate());
  const std::vector<PointId> bbs = SkylineBbs(tree);

  const std::set<std::vector<double>> oracle = CoordSet(data, bnl);
  for (const auto* other : {&sfs, &bbs}) {
    const char* name = other == &sfs ? "SFS" : "BBS";
    SKYUP_CHECK(CoordSet(data, *other) == oracle)
        << name << " skyline disagrees with BNL (" << other->size() << " vs "
        << bnl.size() << " ids), shape=" << ShapeName(shape)
        << " seed=" << seed << " rows: " << RowsToString(data);
    // One representative per distinct coordinate vector — no duplicates.
    SKYUP_CHECK(CoordSet(data, *other).size() == other->size())
        << name << " returned duplicate coordinate vectors, shape="
        << ShapeName(shape) << " seed=" << seed;
  }

  // The definition, re-proven from scratch: mutual incomparability...
  for (size_t i = 0; i < bnl.size(); ++i) {
    for (size_t j = 0; j < bnl.size(); ++j) {
      if (i == j) continue;
      SKYUP_CHECK(!Dominates(data.data(bnl[i]), data.data(bnl[j]), dims))
          << "skyline members " << bnl[i] << " and " << bnl[j]
          << " are comparable, shape=" << ShapeName(shape)
          << " seed=" << seed;
    }
  }
  // ... and completeness: nothing outside it is undominated.
  for (size_t i = 0; i < data.size(); ++i) {
    const double* p = data.data(static_cast<PointId>(i));
    bool covered = false;
    for (PointId s : bnl) {
      if (DominatesOrEqual(data.data(s), p, dims)) {
        covered = true;
        break;
      }
    }
    SKYUP_CHECK(covered)
        << "input point " << i << " escapes the skyline, shape="
        << ShapeName(shape) << " seed=" << seed;
  }

  // ---- Mask phase ----
  std::vector<uint8_t> dead(data.size(), 0);
  const size_t attempts = static_cast<size_t>(rng.NextUint64(data.size() + 1));
  for (size_t e = 0; e < attempts; ++e) {
    dead[static_cast<size_t>(rng.NextUint64(data.size()))] = 1;
  }
  std::vector<PointId> survivors;
  for (size_t r = 0; r < data.size(); ++r) {
    if (!dead[r]) survivors.push_back(static_cast<PointId>(r));
  }

  // The masked probe at t = +inf is BBS over the survivors; it and SFS
  // over the surviving rows equal BNL over the surviving rows, compared
  // as coordinate multisets.
  const std::vector<double> top(dims,
                                std::numeric_limits<double>::infinity());
  std::vector<PointId> bbs_after;
  DominatingSkylineInto(tree, top.data(), dead.data(), &bbs_after);
  const std::vector<PointId> bnl_after = SkylineBnl(data, &survivors);
  SKYUP_CHECK(Values(data, bbs_after) == Values(data, bnl_after))
      << "masked BBS skyline disagrees with BNL (" << bbs_after.size()
      << " vs " << bnl_after.size() << " ids), shape=" << ShapeName(shape)
      << " seed=" << seed << " rows: " << RowsToString(data);
  const std::vector<PointId> sfs_after = SkylineSfs(data, &survivors);
  SKYUP_CHECK(Values(data, sfs_after) == Values(data, bnl_after))
      << "subset SFS skyline disagrees with BNL (" << sfs_after.size()
      << " vs " << bnl_after.size() << " ids), shape=" << ShapeName(shape)
      << " seed=" << seed << " rows: " << RowsToString(data);

  // Masked probes, with a brute-force oracle: every returned point is a
  // surviving strict dominator of q not dominated by another surviving
  // dominator, and together they cover every surviving dominator.
  const auto check_probe = [&](const std::vector<double>& q,
                               const std::vector<PointId>& dom,
                               const char* name) {
    for (PointId id : dom) {
      SKYUP_CHECK(!dead[static_cast<size_t>(id)] &&
                  Dominates(data.data(id), q.data(), dims))
          << name << " returned masked/non-dominating row " << id
          << " for q=" << PointToString(q) << ", seed=" << seed;
    }
    for (PointId r : survivors) {
      const double* row = data.data(r);
      if (!Dominates(row, q.data(), dims)) continue;
      bool covered = false;
      for (PointId id : dom) {
        if (DominatesOrEqual(data.data(id), row, dims)) {
          covered = true;
          break;
        }
        SKYUP_CHECK(!Dominates(row, data.data(id), dims))
            << name << " kept row " << id << " dominated by surviving row "
            << r << " for q=" << PointToString(q) << ", seed=" << seed;
      }
      SKYUP_CHECK(covered) << "surviving dominator row " << r << " not "
                           << "covered by " << name << " result for q="
                           << PointToString(q) << ", seed=" << seed;
    }
  };
  const size_t probes = 1 + static_cast<size_t>(rng.NextUint64(5));
  std::vector<std::vector<double>> queries;
  std::vector<const double*> tile;
  std::vector<PointId> dom;
  for (size_t i = 0; i < probes; ++i) {
    queries.push_back(GenQueryPoint(&rng, data));
    DominatingSkylineInto(tree, queries.back().data(), dead.data(), &dom);
    check_probe(queries.back(), dom, "masked probe");
  }
  for (const std::vector<double>& q : queries) tile.push_back(q.data());
  std::vector<std::vector<PointId>> tiled(probes);
  DominatingSkylineTileInto(tree, tile.data(), probes, dead.data(),
                            tiled.data());
  for (size_t i = 0; i < probes; ++i) {
    check_probe(queries[i], tiled[i], "masked tile probe");
  }

  // ---- Seeded phase ----
  // The join's form: a random cut of the tree (each visited node is kept
  // as a seed, dropped with its subtree, or descended into) plus random
  // explicit rows, against a brute-force dominator skyline over exactly
  // the rows those seeds cover, compared as value sets.
  std::vector<uint32_t> roots;
  std::vector<uint8_t> covered(data.size(), 0);
  std::vector<uint32_t> cut = {FlatRTree::kRoot};
  std::vector<uint32_t> below;
  while (!cut.empty()) {
    const uint32_t node = cut.back();
    cut.pop_back();
    const uint64_t pick = rng.NextUint64(3);
    if (pick == 0) continue;
    if (pick == 1 || tree.is_leaf(node)) {
      roots.push_back(node);
      below.assign(1, node);
      while (!below.empty()) {
        const uint32_t n = below.back();
        below.pop_back();
        if (tree.is_leaf(n)) {
          for (uint32_t slot = tree.point_begin(n); slot < tree.point_end(n);
               ++slot) {
            covered[tree.point_ids()[slot]] = 1;
          }
        } else {
          for (uint32_t c = tree.child_begin(n); c < tree.child_end(n); ++c) {
            below.push_back(c);
          }
        }
      }
    } else {
      for (uint32_t c = tree.child_begin(node); c < tree.child_end(node);
           ++c) {
        cut.push_back(c);
      }
    }
  }
  std::vector<PointId> explicit_rows(rng.NextUint64(6));
  for (PointId& id : explicit_rows) {
    id = static_cast<PointId>(rng.NextUint64(data.size()));
    covered[id] = 1;
  }
  const std::vector<double> q = GenQueryPoint(&rng, data);
  std::vector<PointId> covered_dominators;
  for (size_t r = 0; r < data.size(); ++r) {
    if (covered[r] &&
        Dominates(data.data(static_cast<PointId>(r)), q.data(), dims)) {
      covered_dominators.push_back(static_cast<PointId>(r));
    }
  }
  const std::vector<PointId> seeded =
      DominatingSkylineFrom(tree, roots, explicit_rows, q.data());
  const std::set<std::vector<double>> seeded_values = CoordSet(data, seeded);
  SKYUP_CHECK(seeded_values ==
              CoordSet(data, SkylineBnl(data, &covered_dominators)))
      << "seeded probe disagrees with the brute-force skyline over "
      << roots.size() << " seed nodes and " << explicit_rows.size()
      << " explicit rows for q=" << PointToString(q)
      << ", shape=" << ShapeName(shape) << " seed=" << seed;
  SKYUP_CHECK(seeded_values.size() == seeded.size())
      << "seeded probe returned duplicate coordinate vectors, seed=" << seed;
  for (PointId id : seeded) {
    SKYUP_CHECK(covered[id] && Dominates(data.data(id), q.data(), dims))
        << "seeded probe returned uncovered/non-dominating row " << id
        << ", seed=" << seed;
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace skyup

SKYUP_FUZZ_DRIVER("fuzz_skyline", skyup::fuzz::RunOne)
