// Compile-fail seed (EXPECT=fail, tsa_compile_check.cmake): the sharded
// serving tier puts its table fence (ShardedTable::route_mu_) in the
// kShardTable band, below the publish coordinator (ShardedTable::
// coord_mu_, kRebuilder band). A publish cycle holds the coordinator and
// then takes the fence to freeze and install, never the other way —
// taking the coordinator while holding the fence is the classic deadlock
// shape against a running cycle, so the rank inversion must be rejected
// under -Wthread-safety. As with the kTableSub seed, the edge is only
// reachable through the rank token's transitive closure.

#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace {

using skyup::lock_order::kRebuilder;
using skyup::lock_order::kShardTable;
using skyup::lock_order::kTableSub;

skyup::Mutex coordinator SKYUP_ACQUIRED_AFTER(kRebuilder)
    SKYUP_ACQUIRED_BEFORE(kShardTable);
skyup::Mutex router SKYUP_ACQUIRED_AFTER(kShardTable)
    SKYUP_ACQUIRED_BEFORE(kTableSub);

void Inverted() {
  skyup::MutexLock hold_router(router);
  skyup::MutexLock hold_coordinator(coordinator);  // BUG: higher band.
}

}  // namespace

int main() {
  Inverted();
  return 0;
}
