// Compile-fail seed (EXPECT=fail, tsa_compile_check.cmake): acquiring
// two mutexes against their declared band order must be rejected under
// -Wthread-safety-beta ("mutex ... must be acquired before ..."). The
// mutexes sandwich the kTableSub rank exactly like the real table
// substructures in src/serve, so this also proves the inversion is
// caught *through* the rank token's transitive closure — there is no
// direct edge between `outer` and `inner`.

#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace {

using skyup::lock_order::kObsRegistry;
using skyup::lock_order::kShardTable;
using skyup::lock_order::kTableSub;

skyup::Mutex outer SKYUP_ACQUIRED_AFTER(kShardTable)
    SKYUP_ACQUIRED_BEFORE(kTableSub);
skyup::Mutex inner SKYUP_ACQUIRED_AFTER(kTableSub)
    SKYUP_ACQUIRED_BEFORE(kObsRegistry);

void Inverted() {
  skyup::MutexLock hold_inner(inner);
  skyup::MutexLock hold_outer(outer);  // BUG: outer is a higher band.
}

}  // namespace

int main() {
  Inverted();
  return 0;
}
