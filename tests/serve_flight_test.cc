// Tests for the serve tier's flight-recorder integration (serve/server.h
// + obs/flight_recorder.h): query-id assignment across the inline,
// batch, and queued paths, per-record attribution (status, phases,
// counters), slow-query promotion into the structured log, admission
// rejections in the ring, DumpDiagnostics/RequestDump, periodic system
// samples, and the replay determinism guard (the recorder is strictly
// observe-only).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "serve/replay.h"
#include "serve/server.h"
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
  options.rebuild_threshold_ops = 64;
  return options;
}

void Seed(Server* server) {
  ASSERT_TRUE(server->InsertCompetitor({0.1, 0.2}).ok());
  ASSERT_TRUE(server->InsertCompetitor({0.3, 0.1}).ok());
  ASSERT_TRUE(server->InsertCompetitor({0.2, 0.4}).ok());
  ASSERT_TRUE(server->InsertProduct({0.9, 0.9}).ok());
  ASSERT_TRUE(server->InsertProduct({0.8, 0.7}).ok());
}

class FlightTest : public ::testing::Test {
 protected:
  void TearDown() override { CloseLogSink(); }
};

TEST_F(FlightTest, InlineQueriesGetMonotonicIdsAndFullRecords) {
  Result<std::unique_ptr<Server>> server = MakeServer(SmallOptions());
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  QueryRequest request;
  request.k = 2;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*server)->Query(request).status.ok());
  }
  const std::vector<QueryFlightRecord> records =
      (*server)->flight_recorder().QueryRecords();
  ASSERT_EQ(records.size(), 3u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].query_id, i + 1);  // admission order, 1-based
    EXPECT_EQ(records[i].status, StatusCode::kOk);
    EXPECT_EQ(records[i].k, 2u);
    EXPECT_EQ(records[i].results, 2u);
    EXPECT_GE(records[i].epoch, 1u);
    EXPECT_GT(records[i].wall_seconds, 0.0);
    EXPECT_GT(records[i].end_ts_us, 0u);
    EXPECT_GT(records[i].candidates_evaluated + records[i].cache_hits, 0u);
    EXPECT_FALSE(records[i].slow);
  }
}

TEST_F(FlightTest, RecorderOffRecordsNothingAndAnswersMatch) {
  ServerOptions on_options = SmallOptions();
  ServerOptions off_options = SmallOptions();
  off_options.flight_recorder = false;
  Result<std::unique_ptr<Server>> on = MakeServer(on_options);
  Result<std::unique_ptr<Server>> off = MakeServer(off_options);
  ASSERT_TRUE(on.ok());
  ASSERT_TRUE(off.ok());
  Seed(on->get());
  Seed(off->get());

  QueryRequest request;
  request.k = 2;
  const QueryResponse a = (*on)->Query(request);
  const QueryResponse b = (*off)->Query(request);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].product_id, b.results[i].product_id);
    EXPECT_DOUBLE_EQ(a.results[i].cost, b.results[i].cost);
  }
  EXPECT_EQ((*on)->flight_recorder().QueryRecords().size(), 1u);
  EXPECT_TRUE((*off)->flight_recorder().QueryRecords().empty());
}

// The acceptance test: a query killed by its deadline mid-run leaves a
// full record — query id, phase breakdown, DeadlineExceeded — in BOTH
// the slow-query structured log and the DumpDiagnostics output.
TEST_F(FlightTest, DeadlineKilledQueryIsInSlowLogAndDump) {
  ServerOptions options = SmallOptions();
  options.slow_query_us = 1;  // everything is "slow": promotion always fires
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  std::ostringstream log;
  SetLogStream(&log, LogLevel::kWarn);

  // A control whose deadline already lapsed: the engine admits the query,
  // starts executing, and its first cooperative deadline check kills it —
  // the controlled path, exactly as a mid-run expiry behaves.
  QueryRequest request;
  request.k = 2;
  request.control = std::make_shared<QueryControl>();
  request.control->SetDeadline(SteadyClock::now() -
                               std::chrono::milliseconds(1));
  const QueryResponse response = (*server)->Query(request);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);

  // The ring holds the full record.
  const std::vector<QueryFlightRecord> records =
      (*server)->flight_recorder().QueryRecords();
  ASSERT_EQ(records.size(), 1u);
  const QueryFlightRecord& record = records[0];
  EXPECT_EQ(record.query_id, 1u);
  EXPECT_EQ(record.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(record.slow);
  EXPECT_EQ(record.query_id, request.control->query_id());

  // The slow-query log carries the same identity and outcome.
  CloseLogSink();
  const std::string log_text = log.str();
  EXPECT_NE(log_text.find("\"event\":\"slow_query\""), std::string::npos);
  EXPECT_NE(log_text.find("\"query_id\":1"), std::string::npos);
  EXPECT_NE(log_text.find("\"status\":\"DeadlineExceeded\""),
            std::string::npos);
  // Every phase and every flight counter has its key, generated from
  // the field lists; the hand-written keys of earlier logs all remain.
  auto has_key = [&log_text](const char* name, const char* suffix) {
    std::string needle = "\"";
    needle += name;
    needle += suffix;
    needle += "\":";
    return log_text.find(needle) != std::string::npos;
  };
  for (const auto& phase : kPhaseTimingsFields) {
    EXPECT_TRUE(has_key(phase.name, "_s")) << phase.name;
  }
  for (const char* counter : {
#define SKYUP_TEST_COUNTER_NAME(field) #field,
           SKYUP_FLIGHT_RECORD_COUNTERS(SKYUP_TEST_COUNTER_NAME)
#undef SKYUP_TEST_COUNTER_NAME
       }) {
    EXPECT_TRUE(has_key(counter, "")) << counter;
  }
  for (const char* key : {"probe_s", "skyline_s", "upgrade_s", "prune_s",
                          "merge_s", "other_s", "candidates_evaluated",
                          "candidates_pruned", "cache_hits", "memo_hits"}) {
    EXPECT_TRUE(has_key(key, "")) << key;
  }

  // And so does the post-hoc diagnostics dump.
  std::ostringstream dump;
  (*server)->DumpDiagnostics(dump);
  const std::string dump_text = dump.str();
  EXPECT_NE(dump_text.find("\"type\":\"flight_meta\""), std::string::npos);
  EXPECT_NE(dump_text.find("\"query_id\":1"), std::string::npos);
  EXPECT_NE(dump_text.find("\"status\":\"DeadlineExceeded\""),
            std::string::npos);
  EXPECT_NE(dump_text.find("\"slow\":true"), std::string::npos);
  // The dump always ends with a fresh system sample.
  EXPECT_NE(dump_text.find("\"type\":\"sample\""), std::string::npos);
}

TEST_F(FlightTest, AdmissionRejectionIsRecorded) {
  ServerOptions options = SmallOptions();
  options.max_pending = 1;
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  (*server)->HoldWorkersForTest();
  QueryRequest request;
  request.k = 1;
  std::future<QueryResponse> q1 = (*server)->Submit(request);
  std::future<QueryResponse> q2 = (*server)->Submit(request);
  EXPECT_EQ(q2.get().status.code(), StatusCode::kResourceExhausted);
  (*server)->ReleaseWorkersForTest();
  EXPECT_TRUE(q1.get().status.ok());

  const std::vector<QueryFlightRecord> records =
      (*server)->flight_recorder().QueryRecords();
  ASSERT_EQ(records.size(), 2u);
  // The rejection is recorded at admission time, the accepted query at
  // completion — so the rejected id (2) appears first.
  EXPECT_EQ(records[0].query_id, 2u);
  EXPECT_EQ(records[0].status, StatusCode::kResourceExhausted);
  EXPECT_EQ(records[1].query_id, 1u);
  EXPECT_EQ(records[1].status, StatusCode::kOk);
  EXPECT_GE(records[1].queue_seconds, 0.0);
}

TEST_F(FlightTest, BatchMembersShareOneBatchId) {
  ServerOptions options = SmallOptions();
  options.batch_max = 8;
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  std::vector<QueryRequest> requests(3);
  for (QueryRequest& r : requests) r.k = 1;
  const std::vector<QueryResponse> responses =
      (*server)->QueryBatch(requests);
  ASSERT_EQ(responses.size(), 3u);
  for (const QueryResponse& r : responses) ASSERT_TRUE(r.status.ok());

  const std::vector<QueryFlightRecord> records =
      (*server)->flight_recorder().QueryRecords();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_GT(records[0].batch_id, 0u);
  for (const QueryFlightRecord& record : records) {
    EXPECT_EQ(record.batch_id, records[0].batch_id);
    EXPECT_EQ(record.status, StatusCode::kOk);
    EXPECT_EQ(record.results, 1u);
  }
  EXPECT_NE(records[0].query_id, records[1].query_id);
  EXPECT_NE(records[1].query_id, records[2].query_id);
}

TEST_F(FlightTest, QueuedGroupRecordsCarryTheGroupsLapsAndCounters) {
  // Three queries queued behind the test seam drain as one group. Every
  // Submit carries a control, so the group is lapped, and each member's
  // record carries the group's laps, counters and slowest shard under
  // one batch id.
  ServerOptions options = SmallOptions();
  options.shards = 2;
  options.batch_max = 8;
  options.query_threads = 1;
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  (*server)->HoldWorkersForTest();
  QueryRequest request;
  request.k = 2;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back((*server)->Submit(request));
  (*server)->ReleaseWorkersForTest();
  for (std::future<QueryResponse>& f : futures) {
    ASSERT_TRUE(f.get().status.ok());
  }

  const std::vector<QueryFlightRecord> records =
      (*server)->flight_recorder().QueryRecords();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_GT(records[0].batch_id, 0u);
  for (const QueryFlightRecord& record : records) {
    EXPECT_EQ(record.batch_id, records[0].batch_id);
    EXPECT_EQ(record.shard_count, 2u);
    EXPECT_GT(record.phases.TotalSeconds(), 0.0);
#define SKYUP_TEST_SAME_COUNTER(field) \
  EXPECT_EQ(record.field, records[0].field) << #field;
    SKYUP_FLIGHT_RECORD_COUNTERS(SKYUP_TEST_SAME_COUNTER)
#undef SKYUP_TEST_SAME_COUNTER
  }
  EXPECT_GT(records[0].candidates_evaluated + records[0].cache_hits, 0u);
}

TEST_F(FlightTest, PeriodicSamplerFillsTheSampleRing) {
  ServerOptions options = SmallOptions();
  options.stats_interval_ms = 5;
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());
  Seed(server->get());

  // Poll until the sampler has demonstrably fired (bounded wait).
  Timer timer;
  while ((*server)->flight_recorder().Samples().empty() &&
         timer.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::vector<SystemSample> samples =
      (*server)->flight_recorder().Samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_GE(samples[0].epoch, 1u);
  EXPECT_GT(samples[0].ts_us, 0u);
  EXPECT_EQ(samples[0].live_competitors, 3u);
  EXPECT_EQ(samples[0].live_products, 2u);
}

TEST_F(FlightTest, RequestDumpWritesFileWithoutPausingAdmission) {
  const std::string path =
      ::testing::TempDir() + "/skyup_flight_dump_test.jsonl";
  std::remove(path.c_str());
  ServerOptions options = SmallOptions();
  options.flight_dump_path = path;
  Result<std::unique_ptr<Server>> server = MakeServer(options);
  ASSERT_TRUE(server.ok());
  Seed(server->get());
  QueryRequest request;
  request.k = 1;
  ASSERT_TRUE((*server)->Query(request).status.ok());

  (*server)->RequestDump();  // what a SIGUSR1 handler calls
  // Queries keep flowing while the diagnostics thread writes.
  ASSERT_TRUE((*server)->Query(request).status.ok());

  Timer timer;
  bool dumped = false;
  while (!dumped && timer.ElapsedSeconds() < 5.0) {
    std::ifstream in(path);
    std::string first_line;
    dumped = in.good() && std::getline(in, first_line) &&
             first_line.find("\"type\":\"flight_meta\"") != std::string::npos;
    if (!dumped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(dumped) << "diagnostics thread never wrote " << path;
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_GE(lines, 3u);  // meta + >= 1 query + >= 1 sample
  std::remove(path.c_str());
}

// Determinism guard: the replay result log is a pure function of the op
// stream; the recorder (and the slow-query log) must be strictly
// observe-only. Byte-identical output, recorder on vs off.
TEST_F(FlightTest, ReplayResultLogIsByteIdenticalRecorderOnOrOff) {
  std::ostringstream workload_text;
  ASSERT_TRUE(GenerateWorkload(/*seed=*/7, /*ops=*/300, /*dims=*/2,
                               workload_text)
                  .ok());
  Result<ReplayWorkload> workload = ParseWorkload(workload_text.str());
  ASSERT_TRUE(workload.ok());

  auto run = [&](bool recorder_on) -> std::string {
    ServerOptions options;
    options.dims = 2;
    options.query_threads = 1;
    options.background_rebuild = false;
    options.rebuild_threshold_ops = 32;
    options.batch_max = 8;
    options.flight_recorder = recorder_on;
    if (recorder_on) options.slow_query_us = 1;  // promotion on too
    Result<std::unique_ptr<Server>> server = MakeServer(options);
    EXPECT_TRUE(server.ok());
    std::ostringstream results;
    std::ostringstream log;
    if (recorder_on) SetLogStream(&log, LogLevel::kWarn);
    EXPECT_TRUE(Replay(server->get(), *workload, results).ok());
    if (recorder_on) {
      CloseLogSink();
      // The observers actually observed; they just must not interfere.
      EXPECT_FALSE(
          (*server)->flight_recorder().QueryRecords().empty());
    }
    return results.str();
  };

  const std::string with_recorder = run(true);
  const std::string without_recorder = run(false);
  ASSERT_FALSE(with_recorder.empty());
  EXPECT_EQ(with_recorder, without_recorder);
}

}  // namespace
}  // namespace skyup
