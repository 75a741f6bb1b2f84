#include "cli/cli.h"

#include <gtest/gtest.h>

#include "core/upgrade_result.h"
#include "obs/trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace skyup {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunCli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = cli::Run(args, out, err);
  return {code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/skyup_cli_" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  f << content;
}

TEST(CliTest, NoArgsPrintsUsage) {
  CliResult r = RunCli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpReturnsZero) {
  CliResult r = RunCli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  CliResult r = RunCli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownFlagFails) {
  CliResult r = RunCli({"wine", "--out=x", "--bogus=1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag --bogus"), std::string::npos);
}

TEST(CliTest, GenerateRequiresFlags) {
  CliResult r = RunCli({"generate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("requires"), std::string::npos);
}

TEST(CliTest, GenerateWritesCsv) {
  const std::string path = TempPath("gen.csv");
  CliResult r = RunCli({"generate", "--out=" + path, "--count=50",
                        "--dims=3", "--dist=anti", "--seed=5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote 50 x 3"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 50u);
  std::remove(path.c_str());
}

TEST(CliTest, GenerateRejectsBadDistribution) {
  CliResult r = RunCli({"generate", "--out=x", "--count=5", "--dims=2",
                        "--dist=zipf"});
  EXPECT_EQ(r.code, 2);
}

TEST(CliTest, SkylineOnTinyFile) {
  const std::string path = TempPath("sky.csv");
  WriteFile(path, "1,4\n2,3\n3,5\n2,2\n");
  CliResult r = RunCli({"skyline", "--in=" + path});
  ASSERT_EQ(r.code, 0) << r.err;
  // Skyline rows: (1,4) and (2,2); (2,3) is dominated by (2,2).
  EXPECT_NE(r.out.find("2 members (sfs, "), std::string::npos) << r.out;
  EXPECT_NE(r.out.find(" us)\n0\n3\n"), std::string::npos) << r.out;
  // There is one skyline algorithm behind the command, so no menu flag.
  r = RunCli({"skyline", "--in=" + path, "--algo=bbs"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("algo"), std::string::npos) << r.err;
  std::remove(path.c_str());
}

// NaN breaks every dominance test: a CSV row holding one (or ±inf) is
// refused with the row named, not ranked.
TEST(CliTest, NonFiniteCsvRowsAreRuntimeErrors) {
  const std::string path = TempPath("nan.csv");
  WriteFile(path, "0.5,0.5\nnan,0.1\n0.2,inf\n");
  CliResult r = RunCli({"skyline", "--in=" + path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("row 1 has a non-finite value"), std::string::npos)
      << r.err;
  r = RunCli({"topk", "--competitors=" + path, "--products=" + path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("InvalidArgument"), std::string::npos) << r.err;
  std::remove(path.c_str());
}

TEST(CliTest, SkylineMissingFileIsRuntimeError) {
  CliResult r = RunCli({"skyline", "--in=/nonexistent/nope.csv"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(CliTest, TopKEndToEnd) {
  const std::string p_path = TempPath("P.csv");
  const std::string t_path = TempPath("T.csv");
  WriteFile(p_path, "0.1,0.5\n0.5,0.1\n0.3,0.3\n");
  WriteFile(t_path, "0.6,0.6\n0.05,0.9\n2.0,2.0\n");

  for (const char* algorithm : {"join", "improved", "basic", "brute"}) {
    CliResult r = RunCli({"topk", "--competitors=" + p_path,
                          "--products=" + t_path, "--k=3",
                          std::string("--algorithm=") + algorithm});
    ASSERT_EQ(r.code, 0) << algorithm << ": " << r.err;
    // Product row 1 is undominated: rank 1, cost 0, competitive flag 1.
    EXPECT_NE(r.out.find("1,1,0,1"), std::string::npos)
        << algorithm << " output:\n"
        << r.out;
  }

  // Lower-bound and paper-mode flags parse.
  for (const char* lb : {"nlb", "clb", "alb"}) {
    CliResult r = RunCli({"topk", "--competitors=" + p_path,
                          "--products=" + t_path, std::string("--lb=") + lb,
                          "--paper-bounds"});
    EXPECT_EQ(r.code, 0) << lb << ": " << r.err;
  }

  std::remove(p_path.c_str());
  std::remove(t_path.c_str());
}

TEST(CliTest, TopKStatsFlagPrintsCounters) {
  const std::string p_path = TempPath("Pstats.csv");
  const std::string t_path = TempPath("Tstats.csv");
  WriteFile(p_path, "0.1,0.5\n0.5,0.1\n0.3,0.3\n0.2,0.2\n");
  WriteFile(t_path, "0.6,0.6\n0.05,0.9\n2.0,2.0\n");

  CliResult r = RunCli({"topk", "--competitors=" + p_path,
                        "--products=" + t_path, "--k=3",
                        "--algorithm=improved", "--stats"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("# stats: kernel="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("heap_pops="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("block_kernel_calls="), std::string::npos) << r.out;

  // Without --stats the counter lines stay away.
  CliResult quiet = RunCli({"topk", "--competitors=" + p_path,
                            "--products=" + t_path, "--k=3",
                            "--algorithm=improved"});
  ASSERT_EQ(quiet.code, 0) << quiet.err;
  EXPECT_EQ(quiet.out.find("# stats:"), std::string::npos) << quiet.out;

  // JSON output must stay pure JSON; counters go to the diagnostic stream.
  CliResult json = RunCli({"topk", "--competitors=" + p_path,
                           "--products=" + t_path, "--k=3",
                           "--algorithm=improved", "--format=json",
                           "--stats"});
  ASSERT_EQ(json.code, 0) << json.err;
  EXPECT_EQ(json.out.find("# stats:"), std::string::npos) << json.out;
  EXPECT_NE(json.err.find("# stats:"), std::string::npos) << json.err;

  // Every ExecStats counter prints, the join's own counters included.
  CliResult join = RunCli({"topk", "--competitors=" + p_path,
                           "--products=" + t_path, "--k=3",
                           "--algorithm=join", "--stats"});
  ASSERT_EQ(join.code, 0) << join.err;
  for (const auto& field : kExecStatsFields) {
    EXPECT_NE(join.out.find(std::string(" ") + field.name + "="),
              std::string::npos)
        << field.name << "\n"
        << join.out;
  }

  std::remove(p_path.c_str());
  std::remove(t_path.c_str());
}

TEST(CliTest, TopKObservabilityFlags) {
  const std::string p_path = TempPath("Pobs.csv");
  const std::string t_path = TempPath("Tobs.csv");
  const std::string trace_path = TempPath("trace.json");
  const std::string prom_path = TempPath("metrics.prom");
  const std::string json_path = TempPath("metrics.json");
  WriteFile(p_path, "0.1,0.5\n0.5,0.1\n0.3,0.3\n0.2,0.2\n");
  WriteFile(t_path, "0.6,0.6\n0.05,0.9\n2.0,2.0\n");

  CliResult r = RunCli({"topk", "--competitors=" + p_path,
                        "--products=" + t_path, "--k=3",
                        "--algorithm=improved", "--profile",
                        "--trace-out=" + trace_path,
                        "--metrics-out=" + prom_path});
  ASSERT_EQ(r.code, 0) << r.err;
  // The profile table goes to the diagnostic stream, not stdout.
  EXPECT_NE(r.err.find("phase profile"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("probe"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("upgrade"), std::string::npos) << r.err;
  EXPECT_EQ(r.out.find("phase profile"), std::string::npos) << r.out;

  // The trace file is valid Chrome trace JSON whenever the
  // instrumentation is compiled in; compiled out it's an empty shell
  // plus a warning on the diagnostic stream.
  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace_buf;
  trace_buf << trace_in.rdbuf();
  const std::string trace = trace_buf.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  if (kTraceLevel >= 1) {
    EXPECT_NE(trace.find("\"cli/topk\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  } else {
    EXPECT_NE(r.err.find("compiled out"), std::string::npos) << r.err;
  }
  EXPECT_NE(r.err.find("# trace:"), std::string::npos) << r.err;

  // Prometheus text exposition: counters and phase gauges present.
  std::ifstream prom_in(prom_path);
  ASSERT_TRUE(prom_in.good());
  std::stringstream prom_buf;
  prom_buf << prom_in.rdbuf();
  const std::string prom = prom_buf.str();
  EXPECT_NE(prom.find("# TYPE skyup_heap_pops_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("skyup_phase_probe_seconds"), std::string::npos);
  EXPECT_NE(prom.find("skyup_query_wall_seconds"), std::string::npos);
  EXPECT_NE(prom.find("skyup_probe_latency_seconds_bucket"),
            std::string::npos);

  // A .json suffix flips the exporter to JSON.
  CliResult j = RunCli({"topk", "--competitors=" + p_path,
                        "--products=" + t_path, "--k=3",
                        "--algorithm=join", "--metrics-out=" + json_path});
  ASSERT_EQ(j.code, 0) << j.err;
  std::ifstream json_in(json_path);
  ASSERT_TRUE(json_in.good());
  std::stringstream json_buf;
  json_buf << json_in.rdbuf();
  const std::string json = json_buf.str();
  EXPECT_EQ(json.find("# TYPE"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"skyup_heap_pops_total\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);

  // An unwritable metrics path is a runtime error, not a silent skip.
  CliResult bad = RunCli({"topk", "--competitors=" + p_path,
                          "--products=" + t_path, "--k=3",
                          "--metrics-out=/nonexistent-dir/m.prom"});
  EXPECT_EQ(bad.code, 1);

  std::remove(p_path.c_str());
  std::remove(t_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());
}

TEST(CliTest, TopKRejectsMismatchedDims) {
  const std::string p_path = TempPath("P2.csv");
  const std::string t_path = TempPath("T2.csv");
  WriteFile(p_path, "0.1,0.5\n");
  WriteFile(t_path, "0.6,0.6,0.6\n");
  CliResult r = RunCli(
      {"topk", "--competitors=" + p_path, "--products=" + t_path});
  EXPECT_EQ(r.code, 1);
  std::remove(p_path.c_str());
  std::remove(t_path.c_str());
}

// NaN or infinite epsilon is a malformed flag: NaN used to abort inside
// Algorithm 1 and infinity produced negative costs.
TEST(CliTest, TopKRejectsNonFiniteEpsilon) {
  const std::string p_path = TempPath("Peps.csv");
  const std::string t_path = TempPath("Teps.csv");
  WriteFile(p_path, "0.1,0.5\n0.5,0.1\n0.3,0.3\n");
  WriteFile(t_path, "0.6,0.6\n2.0,2.0\n");
  for (const char* epsilon : {"nan", "inf", "-inf", "0"}) {
    CliResult r = RunCli({"topk", "--competitors=" + p_path,
                          "--products=" + t_path, "--k=2",
                          "--algorithm=improved",
                          std::string("--epsilon=") + epsilon});
    EXPECT_EQ(r.code, 2) << epsilon << ": " << r.err;
    EXPECT_NE(r.err.find("malformed numeric flag"), std::string::npos)
        << epsilon << ": " << r.err;
  }
  std::remove(p_path.c_str());
  std::remove(t_path.c_str());
}

TEST(CliTest, ServeRejectsNonFiniteEpsilon) {
  const std::string ops_path = TempPath("ops_eps.csv");
  CliResult gen = RunCli({"serve", "--gen-ops=" + ops_path, "--ops=50",
                          "--dims=2", "--seed=3"});
  ASSERT_EQ(gen.code, 0) << gen.err;
  for (const char* epsilon : {"nan", "inf", "-inf"}) {
    CliResult r = RunCli({"serve", "--replay=" + ops_path,
                          std::string("--epsilon=") + epsilon});
    EXPECT_EQ(r.code, 2) << epsilon << ": " << r.err;
    EXPECT_NE(r.err.find("malformed numeric flag"), std::string::npos)
        << epsilon << ": " << r.err;
  }
  std::remove(ops_path.c_str());
}

TEST(CliTest, ServeShardsMustBePositive) {
  // One shard is the default and the single-table case; zero shards is
  // a malformed flag for every serve mode that takes it.
  CliResult replay =
      RunCli({"serve", "--replay=" + TempPath("none.csv"), "--shards=0"});
  EXPECT_EQ(replay.code, 2);
  EXPECT_NE(replay.err.find("malformed numeric flag"), std::string::npos);
  CliResult load = RunCli({"serve", "--load-gen", "--dims=2", "--shards=0"});
  EXPECT_EQ(load.code, 2);
  EXPECT_NE(load.err.find("malformed numeric flag"), std::string::npos);
}

// Every double flag refuses NaN and ±inf at parse time with the usage
// message: a NaN slips through `< lo` / `> hi` range checks, so
// `--timeout=nan` used to send queries that were all refused, and
// `--query-fraction=nan` ran updates only. Parsing fails before any
// server or load thread starts.
void ExpectNonFiniteRefused(std::vector<std::string> args,
                            const std::string& flag) {
  args.push_back("");
  for (const char* value : {"nan", "inf", "-inf"}) {
    args.back() = "--" + flag + "=" + value;
    CliResult r = RunCli(args);
    EXPECT_EQ(r.code, 2) << args.back() << ": " << r.err;
    EXPECT_NE(r.err.find("malformed numeric flag"), std::string::npos)
        << args.back() << ": " << r.err;
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << args.back();
  }
}

TEST(CliTest, LoadGenRefusesNonFiniteTimeout) {
  ExpectNonFiniteRefused({"serve", "--load-gen", "--dims=2"}, "timeout");
}

TEST(CliTest, LoadGenRefusesNonFiniteQps) {
  ExpectNonFiniteRefused({"serve", "--load-gen", "--dims=2"}, "qps");
}

TEST(CliTest, LoadGenRefusesNonFiniteQueryFraction) {
  ExpectNonFiniteRefused({"serve", "--load-gen", "--dims=2"},
                         "query-fraction");
}

TEST(CliTest, LoadGenRefusesNonFiniteDuration) {
  ExpectNonFiniteRefused({"serve", "--load-gen", "--dims=2"}, "duration");
}

TEST(CliTest, GenerateRefusesNonFiniteLo) {
  ExpectNonFiniteRefused(
      {"generate", "--out=" + TempPath("lo.csv"), "--count=5", "--dims=2"},
      "lo");
}

TEST(CliTest, GenerateRefusesNonFiniteHi) {
  ExpectNonFiniteRefused(
      {"generate", "--out=" + TempPath("hi.csv"), "--count=5", "--dims=2"},
      "hi");
}

// Every publish is an STR merge, so the patch-vs-merge knobs are gone and
// their flags are unknown.
TEST(CliTest, ServeRefusesRetiredCompactionFlags) {
  const std::string ops_path = TempPath("ops_compact.csv");
  CliResult gen = RunCli({"serve", "--gen-ops=" + ops_path, "--ops=50",
                          "--dims=2", "--seed=3"});
  ASSERT_EQ(gen.code, 0) << gen.err;
  for (const char* flag :
       {"--compact-tail-pct=10", "--compact-tombstone-pct=10"}) {
    CliResult r = RunCli({"serve", "--replay=" + ops_path, flag});
    EXPECT_EQ(r.code, 2) << flag << ": " << r.err;
    EXPECT_NE(r.err.find("unknown flag --compact-"), std::string::npos)
        << flag << ": " << r.err;
  }
  std::remove(ops_path.c_str());
}

TEST(CliTest, WineWritesTable) {
  const std::string path = TempPath("wine.csv");
  CliResult r = RunCli({"wine", "--out=" + path, "--count=100"});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 100u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace skyup
