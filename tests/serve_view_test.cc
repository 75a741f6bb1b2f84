// Point-in-time views under concurrency (serve/shard/sharded_table.h,
// serve/delta_log.h): a writer inserts and erases on both tables of a
// server that publishes in the background, while reader threads capture
// view sets and answer top-k over them. A view set must hold exactly the
// first `version` accepted ops — across publishes, freezes and the
// carry-over of ops that land mid-merge — so every answer must equal what
// a one-shard inline server replayed to that op prefix returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "serve/replay.h"
#include "serve/server.h"
#include "serve/shard/shard_query.h"

namespace skyup {
namespace {

constexpr size_t kDims = 2;

ProductCostFunction CostFn() {
  return ProductCostFunction::ReciprocalSum(kDims, 1e-3);
}

// The update ops of a generated serve workload (queries dropped).
std::vector<ReplayOp> UpdateStream(uint64_t seed, size_t num_ops) {
  std::ostringstream text;
  EXPECT_TRUE(GenerateWorkload(seed, num_ops, kDims, text).ok());
  Result<ReplayWorkload> workload = ParseWorkload(text.str());
  EXPECT_TRUE(workload.ok());
  std::vector<ReplayOp> updates;
  for (ReplayOp& op : workload->ops) {
    if (op.kind != ReplayOpKind::kQuery) updates.push_back(std::move(op));
  }
  return updates;
}

Status Apply(Server* server, const ReplayOp& op) {
  switch (op.kind) {
    case ReplayOpKind::kInsertCompetitor:
      return server->InsertCompetitor(op.coords).status();
    case ReplayOpKind::kInsertProduct:
      return server->InsertProduct(op.coords).status();
    case ReplayOpKind::kEraseCompetitor:
      return server->EraseCompetitor(op.id);
    case ReplayOpKind::kEraseProduct:
      return server->EraseProduct(op.id);
    case ReplayOpKind::kQuery:
      break;
  }
  return Status::InvalidArgument("not an update");
}

struct Answer {
  uint64_t version = 0;
  size_t k = 0;
  std::vector<UpgradeResult> results;
};

TEST(ViewConsistencyTest, ConcurrentViewsAnswerAtTheirCapturedPrefix) {
  const std::vector<ReplayOp> ops = UpdateStream(/*seed=*/11, 1600);
  ServerOptions options;
  options.dims = kDims;
  options.shards = 3;
  options.query_threads = 1;
  options.background_rebuild = true;
  options.rebuild_threshold_ops = 24;
  options.memo_cache_mb = 1;
  Result<std::unique_ptr<Server>> live = Server::Create(CostFn(), options);
  ASSERT_TRUE(live.ok());
  Server& server = **live;
  const ProductCostFunction cost_fn = CostFn();

  // Readers query back to back until the writer is done, and keep one
  // answer per version they observe. The writer waits for reader 0's
  // first answer at mid-stream and for a second, later one at the end, so
  // at least two versions are observed however the threads are scheduled.
  constexpr size_t kReaders = 2;
  std::atomic<bool> done{false};
  std::atomic<size_t> reader0_answers{0};
  std::vector<std::vector<Answer>> answers(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const size_t k = 2 + 3 * r;
      while (!done.load()) {
        const ShardedView views = server.table().AcquireViews();
        std::vector<BatchQueryResult> out;
        TopKShardedBatch(views, cost_fn, {BatchQuery{k, nullptr}},
                         options.default_epsilon, &out);
        EXPECT_TRUE(out.front().status.ok());
        if (answers[r].empty() || answers[r].back().version != views.version) {
          answers[r].push_back(
              Answer{views.version, k, std::move(out.front().results)});
          if (r == 0) reader0_answers.fetch_add(1);
        }
      }
    });
  }
  bool applied_all = true;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Status status = Apply(&server, ops[i]);
    if (!status.ok()) {
      ADD_FAILURE() << "op " << i << ": " << status.ToString();
      applied_all = false;
      break;
    }
    if (i % 8 == 0) std::this_thread::yield();
    if (i == ops.size() / 2) {
      while (reader0_answers.load() < 1) std::this_thread::yield();
    }
  }
  while (applied_all && reader0_answers.load() < 2) {
    std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(server.table().publish_cycles(), 0u);

  std::vector<Answer> all;
  for (std::vector<Answer>& mine : answers) {
    for (Answer& answer : mine) all.push_back(std::move(answer));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Answer& a, const Answer& b) {
                     return a.version < b.version;
                   });
  std::set<uint64_t> versions;
  for (const Answer& answer : all) versions.insert(answer.version);
  EXPECT_GT(versions.size(), 1u);

  // The reference: one shard, inline publishes, replayed prefix by prefix.
  ServerOptions reference_options;
  reference_options.dims = kDims;
  reference_options.query_threads = 1;
  reference_options.background_rebuild = false;
  reference_options.rebuild_threshold_ops = 24;
  Result<std::unique_ptr<Server>> reference =
      Server::Create(CostFn(), reference_options);
  ASSERT_TRUE(reference.ok());
  size_t applied = 0;
  for (const Answer& answer : all) {
    ASSERT_LE(answer.version, ops.size());
    while (applied < answer.version) {
      ASSERT_TRUE(Apply(reference->get(), ops[applied++]).ok());
    }
    QueryRequest request;
    request.k = answer.k;
    const QueryResponse expected = (*reference)->Query(request);
    ASSERT_TRUE(expected.status.ok());
    ASSERT_EQ(answer.results.size(), expected.results.size())
        << "version " << answer.version;
    for (size_t i = 0; i < expected.results.size(); ++i) {
      EXPECT_EQ(answer.results[i].product_id, expected.results[i].product_id)
          << "version " << answer.version << " rank " << i;
      // Bit-exact: the same dominator value set gives the same upgrade.
      EXPECT_EQ(answer.results[i].cost, expected.results[i].cost)
          << "version " << answer.version << " rank " << i;
      EXPECT_EQ(answer.results[i].upgraded, expected.results[i].upgraded)
          << "version " << answer.version << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace skyup
