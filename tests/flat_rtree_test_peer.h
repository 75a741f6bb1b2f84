#ifndef SKYUP_TESTS_FLAT_RTREE_TEST_PEER_H_
#define SKYUP_TESTS_FLAT_RTREE_TEST_PEER_H_

// Test-only corruption backdoor into FlatRTree's private arenas, used to
// prove that Validate() pinpoints the first violated invariant and that
// the paranoid contract hooks actually abort on a broken snapshot. Lives
// under tests/ and must never be included from src/.

#include <cstdint>
#include <vector>

#include "rtree/flat_rtree.h"

namespace skyup {

class FlatRTreeTestPeer {
 public:
  // Raw mutable access to each arena, so tests can stage precise damage.
  static std::vector<int32_t>& level(FlatRTree* t) { return t->level_; }
  static std::vector<uint32_t>& begin(FlatRTree* t) { return t->begin_; }
  static std::vector<uint32_t>& end(FlatRTree* t) { return t->end_; }
  static std::vector<double>& lo_soa(FlatRTree* t) { return t->lo_soa_; }
  static std::vector<double>& hi_soa(FlatRTree* t) { return t->hi_soa_; }
  static std::vector<double>& lo_aos(FlatRTree* t) { return t->lo_aos_; }
  static std::vector<double>& hi_aos(FlatRTree* t) { return t->hi_aos_; }
  static std::vector<double>& key(FlatRTree* t) { return t->key_; }
  static std::vector<PointId>& point_ids(FlatRTree* t) {
    return t->point_ids_;
  }
  static std::vector<double>& pt_soa(FlatRTree* t) { return t->pt_soa_; }
  static std::vector<double>& pt_aos(FlatRTree* t) { return t->pt_aos_; }
};

}  // namespace skyup

#endif  // SKYUP_TESTS_FLAT_RTREE_TEST_PEER_H_
