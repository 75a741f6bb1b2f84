// Allocation guard for the read path (serve/delta_log.h): capturing a view
// set copies pointers and counts, and digesting a captured log prefix
// allocates one mask buffer per shard — so neither may grow with the
// pending backlog. This binary replaces the global operator new with a
// per-thread counter, which is why it stands alone: the counter must not
// leak into other suites. Not built under sanitizers, which bring their
// own allocator.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <utility>
#include <vector>

#include "serve/replay.h"
#include "serve/server.h"

namespace {

thread_local size_t allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace skyup {
namespace {

constexpr size_t kDims = 3;
constexpr size_t kShards = 2;

// Allocations made by one view-set capture plus the digest of every
// shard's prefix, as a query performs them.
size_t CaptureAndDigestAllocations(ShardedTable& table) {
  const size_t before = allocations;
  {
    const ShardedView views = table.AcquireViews();
    std::vector<DeltaMasks> digests(views.views.size());
    for (size_t s = 0; s < views.views.size(); ++s) {
      digests[s].Build(*views.views[s].snapshot, views.views[s].deltas);
    }
  }
  return allocations - before;
}

TEST(ServeAllocTest, CaptureAndDigestDoNotGrowWithBacklog) {
  std::ostringstream text;
  ASSERT_TRUE(GenerateWorkload(/*seed=*/5, 4000, kDims, text).ok());
  Result<ReplayWorkload> workload = ParseWorkload(text.str());
  ASSERT_TRUE(workload.ok());

  ServerOptions options;
  options.dims = kDims;
  options.shards = kShards;
  options.query_threads = 1;
  options.background_rebuild = false;
  options.rebuild_threshold_ops = 1024;
  Result<std::unique_ptr<Server>> server = Server::Create(
      ProductCostFunction::ReciprocalSum(kDims, 1e-3), options);
  ASSERT_TRUE(server.ok());
  ShardedTable& table = (*server)->table();

  // Replay the updates; sample once the first publish has left a backlog
  // of about 16 ops, and again just before the second publish.
  size_t small = 0;
  size_t large = 0;
  for (const ReplayOp& op : workload->ops) {
    switch (op.kind) {
      case ReplayOpKind::kInsertCompetitor:
        ASSERT_TRUE((*server)->InsertCompetitor(op.coords).ok());
        break;
      case ReplayOpKind::kInsertProduct:
        ASSERT_TRUE((*server)->InsertProduct(op.coords).ok());
        break;
      case ReplayOpKind::kEraseCompetitor:
        ASSERT_TRUE((*server)->EraseCompetitor(op.id).ok());
        break;
      case ReplayOpKind::kEraseProduct:
        ASSERT_TRUE((*server)->EraseProduct(op.id).ok());
        break;
      case ReplayOpKind::kQuery:
        break;
    }
    if (table.epoch() != 2) continue;
    const size_t backlog = table.delta_backlog();
    if (backlog == 16) small = CaptureAndDigestAllocations(table);
    if (backlog == 1000) large = CaptureAndDigestAllocations(table);
  }
  ASSERT_GT(small, 0u) << "never sampled at backlog 16";
  ASSERT_GT(large, 0u) << "never sampled at backlog 1000";
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 8 * kShards);
}

}  // namespace
}  // namespace skyup
