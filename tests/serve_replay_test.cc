// Tests for the serve workload format and replayer (serve/replay.h):
// parser acceptance/rejection, generator determinism and id-validity, and
// the core replay property — two runs of the same workload produce
// byte-identical result logs, and the committed serve_1k workload
// reproduces its golden log under every serve configuration — plus the
// CLI `serve` command wiring.

#include "serve/replay.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "serve/server.h"

namespace skyup {
namespace {

Result<std::unique_ptr<Server>> MakeReplayServer(size_t dims) {
  ServerOptions options;
  options.dims = dims;
  options.background_rebuild = false;
  options.rebuild_threshold_ops = 16;
  options.query_threads = 1;
  return Server::Create(ProductCostFunction::ReciprocalSum(dims, 1e-3),
                        options);
}

TEST(WorkloadParseTest, RoundTripsAllOpKinds) {
  const std::string text =
      "# skyup serve workload dims=2\n"
      "\n"
      "# a comment\n"
      "ip,0.5,0.25\n"
      "it,0.9,0.8\n"
      "ep,1\n"
      "et,1\n"
      "q,5\n";
  Result<ReplayWorkload> workload = ParseWorkload(text);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  EXPECT_EQ(workload->dims, 2u);
  ASSERT_EQ(workload->ops.size(), 5u);
  EXPECT_EQ(workload->ops[0].kind, ReplayOpKind::kInsertCompetitor);
  EXPECT_EQ(workload->ops[0].coords, (std::vector<double>{0.5, 0.25}));
  EXPECT_EQ(workload->ops[1].kind, ReplayOpKind::kInsertProduct);
  EXPECT_EQ(workload->ops[2].kind, ReplayOpKind::kEraseCompetitor);
  EXPECT_EQ(workload->ops[2].id, 1u);
  EXPECT_EQ(workload->ops[3].kind, ReplayOpKind::kEraseProduct);
  EXPECT_EQ(workload->ops[4].kind, ReplayOpKind::kQuery);
  EXPECT_EQ(workload->ops[4].k, 5u);
}

TEST(WorkloadParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseWorkload("").ok());                       // no header
  EXPECT_FALSE(ParseWorkload("ip,0.5,0.5\n").ok());           // no header
  EXPECT_FALSE(
      ParseWorkload("# skyup serve workload dims=2\nip,0.5\n").ok());
  EXPECT_FALSE(
      ParseWorkload("# skyup serve workload dims=2\nzz,1\n").ok());
  EXPECT_FALSE(
      ParseWorkload("# skyup serve workload dims=2\nq,0\n").ok());
  EXPECT_FALSE(
      ParseWorkload("# skyup serve workload dims=2\nep,abc\n").ok());
}

TEST(WorkloadGenerateTest, DeterministicAndReplayable) {
  std::ostringstream a, b;
  ASSERT_TRUE(GenerateWorkload(42, 300, 3, a).ok());
  ASSERT_TRUE(GenerateWorkload(42, 300, 3, b).ok());
  EXPECT_EQ(a.str(), b.str());

  std::ostringstream c;
  ASSERT_TRUE(GenerateWorkload(43, 300, 3, c).ok());
  EXPECT_NE(a.str(), c.str());

  // Every generated op must be accepted by a real server (erases name
  // live ids only).
  Result<ReplayWorkload> workload = ParseWorkload(a.str());
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->ops.size(), 300u);
  Result<std::unique_ptr<Server>> server = MakeReplayServer(3);
  ASSERT_TRUE(server.ok());
  std::ostringstream results;
  Result<ReplayReport> report = Replay(server->get(), *workload, results);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->inserts_p + report->inserts_t + report->erases_p +
                report->erases_t + report->queries,
            300u);
}

TEST(ReplayTest, TwoRunsAreByteIdentical) {
  std::ostringstream text;
  ASSERT_TRUE(GenerateWorkload(7, 400, 2, text).ok());
  Result<ReplayWorkload> workload = ParseWorkload(text.str());
  ASSERT_TRUE(workload.ok());

  std::string logs[2];
  for (std::string& log : logs) {
    Result<std::unique_ptr<Server>> server = MakeReplayServer(2);
    ASSERT_TRUE(server.ok());
    std::ostringstream results;
    Result<ReplayReport> report = Replay(server->get(), *workload, results);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->queries, 0u);
    log = results.str();
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_FALSE(logs[0].empty());
}

TEST(ReplayTest, ShardCountNeverChangesTheResultLog) {
  // The core sharding determinism property: replaying one workload
  // against `--shards N` servers produces a result log byte-identical to
  // the one-shard server's, for shard counts including ones larger than
  // most of the run's competitor set. CI guards the same property end to
  // end through the CLI (.github/workflows/ci.yml).
  std::ostringstream text;
  ASSERT_TRUE(GenerateWorkload(11, 500, 3, text).ok());
  Result<ReplayWorkload> workload = ParseWorkload(text.str());
  ASSERT_TRUE(workload.ok());

  std::string baseline;
  uint64_t baseline_epoch = 0;
  size_t baseline_backlog = 0;
  for (const size_t shards : {1u, 2u, 4u, 7u}) {
    ServerOptions options;
    options.dims = 3;
    options.background_rebuild = false;
    options.rebuild_threshold_ops = 16;
    options.query_threads = 1;
    options.shards = shards;
    Result<std::unique_ptr<Server>> server = Server::Create(
        ProductCostFunction::ReciprocalSum(3, 1e-3), options);
    ASSERT_TRUE(server.ok()) << "shards=" << shards;
    std::ostringstream results;
    Result<ReplayReport> report = Replay(server->get(), *workload, results);
    ASSERT_TRUE(report.ok())
        << "shards=" << shards << ": " << report.status().ToString();
    if (shards == 1) {
      baseline = results.str();
      baseline_epoch = report->final_epoch;
      baseline_backlog = report->final_backlog;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(results.str(), baseline) << "shards=" << shards;
      // Inline publish cycles fire on the same total-backlog instants.
      EXPECT_EQ(report->final_epoch, baseline_epoch)
          << "shards=" << shards;
      EXPECT_EQ(report->final_backlog, baseline_backlog)
          << "shards=" << shards;
    }
  }
}

TEST(ReplayTest, RequiresDeterministicMode) {
  ServerOptions options;
  options.dims = 2;
  options.background_rebuild = true;
  Result<std::unique_ptr<Server>> server = Server::Create(
      ProductCostFunction::ReciprocalSum(2, 1e-3), options);
  ASSERT_TRUE(server.ok());
  ReplayWorkload workload;
  workload.dims = 2;
  std::ostringstream results;
  Result<ReplayReport> report = Replay(server->get(), workload, results);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeCliTest, GenerateThenReplayEndToEnd) {
  const std::string ops_path =
      ::testing::TempDir() + "/skyup_serve_ops.csv";
  const std::string out_a = ::testing::TempDir() + "/skyup_serve_a.txt";
  const std::string out_b = ::testing::TempDir() + "/skyup_serve_b.txt";

  std::ostringstream out, err;
  int code = cli::Run({"serve", "--gen-ops=" + ops_path, "--ops=200",
                       "--dims=2", "--seed=5"},
                      out, err);
  ASSERT_EQ(code, 0) << err.str();

  for (const std::string& path : {out_a, out_b}) {
    std::ostringstream run_out, run_err;
    code = cli::Run({"serve", "--replay=" + ops_path, "--out=" + path},
                    run_out, run_err);
    ASSERT_EQ(code, 0) << run_err.str();
    EXPECT_NE(run_err.str().find("# replay:"), std::string::npos);
  }
  std::ifstream a(out_a), b(out_b);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(sa.str().empty());
}

TEST(ServeCliTest, ReplayShardsFlagKeepsOutputByteIdentical) {
  const std::string ops_path =
      ::testing::TempDir() + "/skyup_serve_shard_ops.csv";
  std::ostringstream out, err;
  int code = cli::Run({"serve", "--gen-ops=" + ops_path, "--ops=300",
                       "--dims=2", "--seed=9"},
                      out, err);
  ASSERT_EQ(code, 0) << err.str();

  std::string baseline;
  for (const std::string shards : {"1", "3"}) {
    const std::string out_path = ::testing::TempDir() +
                                 "/skyup_serve_shard_" + shards + ".txt";
    std::ostringstream run_out, run_err;
    code = cli::Run({"serve", "--replay=" + ops_path,
                     "--shards=" + shards, "--out=" + out_path},
                    run_out, run_err);
    ASSERT_EQ(code, 0) << run_err.str();
    std::ifstream f(out_path);
    std::stringstream s;
    s << f.rdbuf();
    if (shards == "1") {
      baseline = s.str();
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(s.str(), baseline);
    }
  }
}

TEST(ServeCliTest, ReplayAndGenAreMutuallyExclusive) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::Run({"serve"}, out, err), 2);
  EXPECT_EQ(cli::Run({"serve", "--replay=a", "--gen-ops=b"}, out, err), 2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  std::stringstream s;
  s << f.rdbuf();
  return s.str();
}

// The golden log guard: bench/workloads/serve_1k.expected was produced by
// the single-table engine the sharded one replaced, so it is a reference
// the engine under test did not write. Every serve configuration CI
// replays — default, grouped execution, several shard counts, the flight
// recorder on — must reproduce it byte for byte.
TEST(ServeCliTest, ReplayReproducesTheGoldenLog) {
  const std::string dir = SKYUP_WORKLOADS_DIR;
  const std::string golden = ReadFile(dir + "/serve_1k.expected");
  ASSERT_FALSE(golden.empty());
  const std::string tmp = ::testing::TempDir();
  const std::string flight = tmp + "/skyup_serve_golden_flight.jsonl";
  const std::string slow_log = tmp + "/skyup_serve_golden_slow.jsonl";
  // --slow-log appends; start from an empty file.
  std::remove(slow_log.c_str());
  const std::vector<std::vector<std::string>> configs = {
      {},
      {"--batch-max=8", "--memo-cache-mb=16"},
      {"--shards=1"},
      {"--shards=2"},
      {"--shards=4"},
      {"--shards=7"},
      {"--flight-out=" + flight, "--slow-log=" + slow_log, "--slow-query-us=1"},
  };
  for (size_t c = 0; c < configs.size(); ++c) {
    const std::string out_path =
        tmp + "/skyup_serve_golden_" + std::to_string(c) + ".txt";
    std::vector<std::string> args = {"serve", "--out=" + out_path};
    args.push_back("--replay=" + dir + "/serve_1k.csv");
    args.insert(args.end(), configs[c].begin(), configs[c].end());
    std::ostringstream run_out, run_err;
    ASSERT_EQ(cli::Run(args, run_out, run_err), 0) << run_err.str();
    EXPECT_TRUE(ReadFile(out_path) == golden) << "config " << c;
  }
  // The slow log of the recorder-on run carries the publish events.
  const std::string slow = ReadFile(slow_log);
  EXPECT_NE(slow.find("\"event\":\"publish\""), std::string::npos);
  EXPECT_NE(slow.find("\"event\":\"slow_query\""), std::string::npos);
}

}  // namespace
}  // namespace skyup
