// Tests for the concurrent query front-end (serve/server.h): inline and
// queued query paths, admission control (bounded queue, kResourceExhausted
// rejection), queued-deadline shedding, outcome accounting, metrics
// export, and the ServeStats merge contract (every field summed).

#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "rtree/mbr.h"
#include "util/timer.h"

namespace skyup {
namespace {

Result<std::unique_ptr<Server>> MakeServer(ServerOptions options) {
  return Server::Create(
      ProductCostFunction::ReciprocalSum(options.dims, 1e-3), options);
}

ServerOptions SmallOptions() {
  ServerOptions options;
  options.dims = 2;
  options.query_threads = 2;
  options.background_rebuild = false;
  options.rebuild_threshold_ops = 8;
  return options;
}

void Seed(Server* server) {
  ASSERT_TRUE(server->InsertCompetitor({0.1, 0.2}).ok());
  ASSERT_TRUE(server->InsertCompetitor({0.3, 0.1}).ok());
  ASSERT_TRUE(server->InsertProduct({0.9, 0.9}).ok());
  ASSERT_TRUE(server->InsertProduct({0.8, 0.7}).ok());
}

TEST(ServeStatsTest, MergeFromSumsEveryFieldDistinctly) {
  // Distinct primes per field: any dropped or double-merged field changes
  // the expected sum, so a new field wired into the struct but not into
  // MergeFrom cannot pass (the static_assert + tools/lint.py tripwire
  // guard the field count itself).
  ServeStats a;
  a.queries_executed = 2;
  a.queries_rejected = 3;
  a.queries_timed_out = 5;
  a.updates_applied = 7;
  a.updates_rejected = 11;
  a.rebuilds_published = 13;
  a.patches_published = 17;
  a.delta_ops_scanned = 19;
  a.erase_fallback_scans = 23;
  a.candidates_evaluated = 29;
  a.candidates_pruned = 31;
  a.prune_disabled_queries = 37;
  a.cache_hits = 149;
  a.cache_misses = 151;
  a.rebuild_threshold_ops = 41;
  a.publish_min_backlog = 43;
  a.publish_min_interval_ms = 47;
  a.compact_tombstone_pct = 53;
  a.compact_tail_pct = 59;
  ServeStats b;
  b.queries_executed = 61;
  b.queries_rejected = 67;
  b.queries_timed_out = 71;
  b.updates_applied = 73;
  b.updates_rejected = 79;
  b.rebuilds_published = 83;
  b.patches_published = 89;
  b.delta_ops_scanned = 97;
  b.erase_fallback_scans = 101;
  b.candidates_evaluated = 103;
  b.candidates_pruned = 107;
  b.prune_disabled_queries = 109;
  b.cache_hits = 157;
  b.cache_misses = 163;
  b.rebuild_threshold_ops = 113;
  b.publish_min_backlog = 127;
  b.publish_min_interval_ms = 131;
  b.compact_tombstone_pct = 137;
  b.compact_tail_pct = 139;

  a.MergeFrom(b);
  EXPECT_EQ(a.queries_executed, 63u);
  EXPECT_EQ(a.queries_rejected, 70u);
  EXPECT_EQ(a.queries_timed_out, 76u);
  EXPECT_EQ(a.updates_applied, 80u);
  EXPECT_EQ(a.updates_rejected, 90u);
  EXPECT_EQ(a.rebuilds_published, 96u);
  EXPECT_EQ(a.patches_published, 106u);
  EXPECT_EQ(a.delta_ops_scanned, 116u);
  EXPECT_EQ(a.erase_fallback_scans, 124u);
  EXPECT_EQ(a.candidates_evaluated, 132u);
  EXPECT_EQ(a.candidates_pruned, 138u);
  EXPECT_EQ(a.prune_disabled_queries, 146u);
  EXPECT_EQ(a.cache_hits, 306u);
  EXPECT_EQ(a.cache_misses, 314u);
  EXPECT_EQ(a.rebuild_threshold_ops, 154u);
  EXPECT_EQ(a.publish_min_backlog, 170u);
  EXPECT_EQ(a.publish_min_interval_ms, 178u);
  EXPECT_EQ(a.compact_tombstone_pct, 190u);
  EXPECT_EQ(a.compact_tail_pct, 198u);
}

TEST(ServerTest, CreateValidatesOptions) {
  ServerOptions bad = SmallOptions();
  bad.dims = 0;
  EXPECT_FALSE(Server::Create(ProductCostFunction::ReciprocalSum(2, 1e-3),
                              bad)
                   .ok());
  bad = SmallOptions();
  bad.dims = 3;  // cost function below stays 2-d
  EXPECT_FALSE(Server::Create(ProductCostFunction::ReciprocalSum(2, 1e-3),
                              bad)
                   .ok());
  bad = SmallOptions();
  bad.max_pending = 0;
  EXPECT_FALSE(MakeServer(bad).ok());
  // Shard count: 0 is refused (one shard is the single-table case), and
  // so is a count past the named cap.
  bad = SmallOptions();
  EXPECT_EQ(bad.shards, 1u);
  bad.shards = 0;
  EXPECT_FALSE(MakeServer(bad).ok());
  bad.shards = kMaxShards + 1;
  EXPECT_FALSE(MakeServer(bad).ok());
  // Dimensionality past the index's cap is refused up front.
  bad = SmallOptions();
  bad.dims = kMaxDims + 1;
  EXPECT_FALSE(Server::Create(ProductCostFunction::ReciprocalSum(2, 1e-3),
                              bad)
                   .ok());
}

TEST(ServerTest, InlineQueryReturnsRankedStableIds) {
  Result<std::unique_ptr<Server>> server = MakeServer(SmallOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Seed(server->get());

  QueryRequest request;
  request.k = 2;
  QueryResponse response = (*server)->Query(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.results.size(), 2u);
  EXPECT_LE(response.results[0].cost, response.results[1].cost);
  EXPECT_EQ(response.epoch, 1u);  // below rebuild threshold: still epoch 1

  ServeStats stats = (*server)->stats();
  EXPECT_EQ(stats.queries_executed, 1u);
  EXPECT_EQ(stats.updates_applied, 4u);
  EXPECT_EQ(stats.candidates_evaluated, 2u);
}

TEST(ServerTest, SubmittedQueryResolvesWithResults) {
  Result<std::unique_ptr<Server>> server = MakeServer(SmallOptions());
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  QueryRequest request;
  request.k = 1;
  std::future<QueryResponse> future = (*server)->Submit(request);
  QueryResponse response = future.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.results.size(), 1u);
}

TEST(ServerTest, FullQueueRejectsWithResourceExhausted) {
  ServerOptions options = SmallOptions();
  options.max_pending = 2;
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  // With workers held, the queue fills deterministically.
  (*server)->HoldWorkersForTest();
  QueryRequest request;
  request.k = 1;
  std::future<QueryResponse> q1 = (*server)->Submit(request);
  std::future<QueryResponse> q2 = (*server)->Submit(request);
  std::future<QueryResponse> q3 = (*server)->Submit(request);

  // The third submit is rejected immediately, without a worker.
  QueryResponse rejected = q3.get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);

  (*server)->ReleaseWorkersForTest();
  EXPECT_TRUE(q1.get().status.ok());
  EXPECT_TRUE(q2.get().status.ok());

  ServeStats stats = (*server)->stats();
  EXPECT_EQ(stats.queries_rejected, 1u);
  EXPECT_EQ(stats.queries_executed, 2u);
}

TEST(ServerTest, QueuedDeadlineShedsWithoutRunning) {
  Result<std::unique_ptr<Server>> server = MakeServer(SmallOptions());
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  (*server)->HoldWorkersForTest();
  QueryRequest request;
  request.k = 1;
  request.control = std::make_shared<QueryControl>();
  // Deadline already in the past at submission: the worker must shed the
  // query the moment it dequeues it.
  request.control->SetDeadline(SteadyClock::now() -
                               std::chrono::milliseconds(1));
  std::future<QueryResponse> future = (*server)->Submit(request);
  (*server)->ReleaseWorkersForTest();

  QueryResponse response = future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.results.empty());
  EXPECT_EQ((*server)->stats().queries_timed_out, 1u);
}

TEST(ServerTest, InlineTimeoutAlreadyExpiredReturnsDeadlineExceeded) {
  Result<std::unique_ptr<Server>> server = MakeServer(SmallOptions());
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  QueryRequest request;
  request.k = 1;
  request.control = std::make_shared<QueryControl>();
  request.control->SetDeadline(SteadyClock::now() -
                               std::chrono::milliseconds(1));
  QueryResponse response = (*server)->Query(request);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ServerTest, ExternalCancelResolvesSubmittedQuery) {
  Result<std::unique_ptr<Server>> server = MakeServer(SmallOptions());
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  (*server)->HoldWorkersForTest();
  QueryRequest request;
  request.k = 1;
  request.control = std::make_shared<QueryControl>();
  std::future<QueryResponse> future = (*server)->Submit(request);
  request.control->Cancel();
  (*server)->ReleaseWorkersForTest();
  EXPECT_EQ(future.get().status.code(), StatusCode::kCancelled);
}

TEST(ServerTest, InlineRebuildTriggersOnThreshold) {
  ServerOptions options = SmallOptions();
  options.rebuild_threshold_ops = 4;
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());
  Seed(server->get());  // 4 accepted updates: threshold reached

  // The first publish folds an empty-index base: always a major rebuild.
  EXPECT_EQ((*server)->table().epoch(), 2u);
  EXPECT_EQ((*server)->table().delta_backlog(), 0u);
  EXPECT_EQ((*server)->stats().rebuilds_published, 1u);
  EXPECT_EQ((*server)->stats().patches_published, 0u);

  // A follow-up batch of product inserts leaves the competitor index
  // untouched — published incrementally as a patch, not a rebuild.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*server)->InsertProduct({0.5 + 0.01 * i, 0.5}).ok());
  }
  EXPECT_EQ((*server)->table().epoch(), 3u);
  EXPECT_EQ((*server)->table().delta_backlog(), 0u);
  EXPECT_EQ((*server)->stats().rebuilds_published, 1u);
  EXPECT_EQ((*server)->stats().patches_published, 1u);
}

TEST(ServerTest, StatsEchoThePublishPolicy) {
  ServerOptions options = SmallOptions();
  options.rebuild_threshold_ops = 16;
  options.publish_min_backlog = 3;
  options.publish_min_interval_seconds = 0.25;
  options.compact_tombstone_pct = 20;
  options.compact_tail_pct = 40;
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());
  ServeStats stats = (*server)->stats();
  EXPECT_EQ(stats.rebuild_threshold_ops, 16u);
  EXPECT_EQ(stats.publish_min_backlog, 3u);
  EXPECT_EQ(stats.publish_min_interval_ms, 250u);
  EXPECT_EQ(stats.compact_tombstone_pct, 20u);
  EXPECT_EQ(stats.compact_tail_pct, 40u);
}

TEST(ServerTest, RejectedUpdatesAreCountedNotApplied) {
  Result<std::unique_ptr<Server>> server = MakeServer(SmallOptions());
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE((*server)->InsertCompetitor({0.1}).ok());  // arity
  EXPECT_FALSE((*server)->EraseProduct(7).ok());          // unknown id
  ServeStats stats = (*server)->stats();
  EXPECT_EQ(stats.updates_rejected, 2u);
  EXPECT_EQ(stats.updates_applied, 0u);
  EXPECT_EQ((*server)->table().SampleDiagnostics().live_competitors, 0u);
}

TEST(ServerTest, FillMetricsExportsCountersAndGauges) {
  Result<std::unique_ptr<Server>> server = MakeServer(SmallOptions());
  ASSERT_TRUE(server.ok());
  Seed(server->get());
  QueryRequest request;
  request.k = 1;
  ASSERT_TRUE((*server)->Query(request).status.ok());

  MetricsRegistry registry;
  (*server)->FillMetrics(&registry);
  std::ostringstream prom;
  registry.WritePrometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("skyup_serve_queries_executed_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("skyup_serve_updates_applied_total 4"),
            std::string::npos);
  EXPECT_NE(text.find("skyup_serve_snapshot_epoch 1"), std::string::npos);
  EXPECT_NE(text.find("skyup_serve_delta_backlog_ops 4"),
            std::string::npos);
  EXPECT_NE(text.find("skyup_serve_live_products 2"), std::string::npos);
  EXPECT_NE(text.find("skyup_serve_query_latency_seconds_count 1"),
            std::string::npos);
}

TEST(ServerTest, BackgroundModeServesQueriesUnderChurn) {
  ServerOptions options = SmallOptions();
  options.background_rebuild = true;
  options.rebuild_threshold_ops = 4;
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());

  QueryRequest request;
  request.k = 3;
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE((*server)
                    ->InsertCompetitor({0.1 + 0.01 * round, 0.5})
                    .ok());
    ASSERT_TRUE((*server)->InsertProduct({0.9, 0.9 - 0.01 * round}).ok());
    QueryResponse response = (*server)->Query(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.results.size(),
              std::min<size_t>(3, static_cast<size_t>(round + 1)));
  }
  // Shutdown with the rebuilder possibly mid-merge must be clean (TSan
  // leg runs this file under -L serve).
}

}  // namespace
}  // namespace skyup
