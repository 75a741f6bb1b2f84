// Tests for the concurrent query front-end (serve/server.h): inline and
// queued query paths, admission control (bounded queue, kResourceExhausted
// rejection), queued-deadline shedding, outcome accounting, metrics
// export, and the ServeStats merge contract (every field summed).

#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
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
  // Distinct values per field: any dropped or double-merged field changes
  // its expected sum. Walks the field table, so a counter added to
  // SKYUP_SERVE_STATS_FIELDS is covered with no edit here.
  ServeStats a;
  ServeStats b;
  uint64_t i = 0;
  for (const auto& field : kServeStatsFields) {
    ++i;
    a.*field.member = i;
    b.*field.member = 1000 * i;
  }
  a.MergeFrom(b);
  i = 0;
  for (const auto& field : kServeStatsFields) {
    ++i;
    EXPECT_EQ(a.*field.member, 1001 * i) << field.name;
  }
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
  // The default epsilon must be finite and positive.
  for (double epsilon : {0.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    bad = SmallOptions();
    bad.default_epsilon = epsilon;
    EXPECT_FALSE(MakeServer(bad).ok()) << epsilon;
  }
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

// A timeout must be 0 (none) or a positive span the steady clock can
// hold: NaN, negatives and 1e300 s are refused per request, before any
// deadline arithmetic, on both the inline and the queued path.
TEST(ServerTest, RefusesUnrepresentableTimeouts) {
  Result<std::unique_ptr<Server>> server = MakeServer(SmallOptions());
  ASSERT_TRUE(server.ok());
  Seed(server->get());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0, 1e300,
                     std::numeric_limits<double>::infinity()}) {
    QueryRequest request;
    request.k = 1;
    request.timeout_seconds = bad;
    EXPECT_EQ((*server)->Query(request).status.code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ((*server)->Submit(request).get().status.code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  // In a batch only the bad member is refused; the others run as a group.
  std::vector<QueryRequest> batch(3);
  batch[0].k = 1;
  batch[1].k = 2;
  batch[1].timeout_seconds = std::numeric_limits<double>::quiet_NaN();
  batch[2].k = 2;
  batch[2].timeout_seconds = 60.0;
  const std::vector<QueryResponse> responses = (*server)->QueryBatch(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_EQ(responses[0].results.size(), 1u);
  EXPECT_EQ(responses[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[2].status.ok()) << responses[2].status.ToString();
  EXPECT_EQ(responses[2].results.size(), 2u);
  const ServeStats stats = (*server)->stats();
  EXPECT_EQ(stats.queries_executed, 2u);
  EXPECT_EQ(stats.queries_rejected, 0u);
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

  EXPECT_EQ((*server)->table().epoch(), 2u);
  EXPECT_EQ((*server)->table().delta_backlog(), 0u);
  EXPECT_EQ((*server)->stats().rebuilds_published, 1u);

  // Every publish is an STR merge, even one that only adds products.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*server)->InsertProduct({0.5 + 0.01 * i, 0.5}).ok());
  }
  EXPECT_EQ((*server)->table().epoch(), 3u);
  EXPECT_EQ((*server)->table().delta_backlog(), 0u);
  EXPECT_EQ((*server)->stats().rebuilds_published, 2u);
  EXPECT_EQ((*server)->stats().patches_published, 0u);
}

TEST(ServerTest, StatsEchoThePublishPolicy) {
  ServerOptions options = SmallOptions();
  options.rebuild_threshold_ops = 16;
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());
  MetricsRegistry registry;
  (*server)->FillMetrics(&registry);
  std::ostringstream prom;
  registry.WritePrometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("\nskyup_serve_rebuild_threshold_ops 16\n"),
            std::string::npos);
  EXPECT_EQ(text.find("skyup_serve_compact_"), std::string::npos);
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
  for (const auto& field : kServeStatsFields) {
    EXPECT_NE(text.find(std::string("# TYPE ") + field.metric + " counter"),
              std::string::npos)
        << field.metric;
  }
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
